"""On-disk formats: versioned binary-exact records, manifests, and CSV logs.

The record format is line-oriented text: scalar fields as ``key: value`` and
float64 arrays as base64 of their little-endian bytes, so checkpoints and
weighting-state snapshots round-trip bit for bit. Manifests are flat
``section.key: value`` text and double as CLI configs.
"""

from __future__ import annotations

import base64
import csv
import functools
import io
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .algorithm import GradTailConfig, GradTailState
from .datasets import Dataset2D, GaussianSpec
from .engine import PatchLog, StepLog, TraceTable, TrainConfig
from .mlp import MlpModel, ParamSubset

FORMAT_LINE = "format: gradtail-record v1"


class RecordFormatError(ValueError):
    """A record, log or dataset file was read but its contents do not parse."""


def _reader(load):
    """Report any parse failure of ``load(path)`` as a RecordFormatError on path.

    A missing or unreadable file stays an OSError.
    """

    @functools.wraps(load)
    def checked(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except RecordFormatError:
            raise
        except (KeyError, IndexError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise RecordFormatError(f"{path}: malformed contents ({detail})") from exc

    return checked


def _encode_array(arr: np.ndarray) -> str:
    arr = np.asarray(arr, dtype=np.float64)
    shape = ",".join(str(d) for d in arr.shape)
    payload = base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")
    return f"{shape}|{payload}"


def _decode_array(text: str) -> np.ndarray:
    shape_part, payload = text.split("|", 1)
    shape = tuple(int(d) for d in shape_part.split(",") if d != "")
    flat = np.frombuffer(base64.b64decode(payload), dtype="<f8").astype(np.float64)
    return flat.reshape(shape)


def write_record(path: str | Path, kind: str, fields: dict, arrays: dict) -> None:
    lines = [FORMAT_LINE, f"kind: {kind}"]
    for key, value in fields.items():
        if ":" in key or "\n" in str(value):
            raise ValueError(f"unserializable field {key!r}")
        lines.append(f"{key}: {value}")
    for name, arr in arrays.items():
        lines.append(f"array:{name}: {_encode_array(arr)}")
    Path(path).write_text("\n".join(lines) + "\n")


@_reader
def read_record(path: str | Path) -> tuple[str, dict[str, str], dict[str, np.ndarray]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        raise RecordFormatError(f"{path}: not a gradtail-record v1 file")
    kind, fields, arrays, seen = "", {}, {}, set()
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition(": ")
        if not _:
            raise RecordFormatError(f"{path}: malformed line {line!r}")
        if key in seen:
            raise RecordFormatError(f"{path}: duplicated field {key!r}")
        seen.add(key)
        if key == "kind":
            kind = value
        elif key.startswith("array:"):
            arrays[key[len("array:"):]] = _decode_array(value)
        else:
            fields[key] = value
    return kind, fields, arrays


# ---------------------------------------------------------------------------
# model checkpoints and weighting-state snapshots
# ---------------------------------------------------------------------------


def save_model(path: str | Path, model: MlpModel) -> None:
    fields = {
        "layer_dims": ",".join(str(d) for d in model.layer_dims),
        "hidden_activation": model.hidden_activation,
        "init_seed": model.init_seed if model.init_seed is not None else "none",
    }
    arrays = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"weight{i}"] = w
        arrays[f"bias{i}"] = b
    write_record(path, "model-checkpoint", fields, arrays)


@_reader
def load_model(path: str | Path) -> MlpModel:
    kind, fields, arrays = read_record(path)
    if kind != "model-checkpoint":
        raise RecordFormatError(f"{path}: expected a model checkpoint, found {kind!r}")
    dims = [int(d) for d in fields["layer_dims"].split(",")]
    weights = [arrays[f"weight{i}"] for i in range(len(dims) - 1)]
    biases = [arrays[f"bias{i}"] for i in range(len(dims) - 1)]
    seed = None if fields["init_seed"] == "none" else int(fields["init_seed"])
    return MlpModel(dims, weights, biases, fields["hidden_activation"], seed)


def _selectors_to_text(subset: ParamSubset) -> str:
    return ";".join(f"{layer}:{kind}" for layer, kind in subset.selectors)


def _selectors_from_text(text: str) -> ParamSubset:
    sel = []
    for tok in text.split(";"):
        layer, kind = tok.split(":")
        sel.append((int(layer), kind))
    return ParamSubset(tuple(sel))


def save_gradtail_state(path: str | Path, state: GradTailState, config: GradTailConfig) -> None:
    fields = {
        "sigma": repr(state.sigma),
        "updates_seen": state.updates_seen,
        "layout": _selectors_to_text(state.layout),
        **{f"config.{k}": repr(v) for k, v in asdict(config).items()},
    }
    write_record(path, "gradtail-state", fields, {"ema_grad": state.ema_grad})


@_reader
def load_gradtail_state(path: str | Path) -> tuple[GradTailState, GradTailConfig]:
    kind, fields, arrays = read_record(path)
    if kind != "gradtail-state":
        raise RecordFormatError(
            f"{path}: expected a gradtail state snapshot, found {kind!r}"
        )
    state = GradTailState(
        arrays["ema_grad"],
        _selectors_from_text(fields["layout"]),
        float(fields["sigma"]),
        int(fields["updates_seen"]),
    )
    cfg = GradTailConfig(
        pivot=float(fields["config.pivot"]),
        decay=float(fields["config.decay"]),
        amplitude=float(fields["config.amplitude"]),
        slope=float(fields["config.slope"]),
        sigma_floor=float(fields["config.sigma_floor"]),
        warmup_batches=int(fields["config.warmup_batches"]),
        epsilon_norm=float(fields["config.epsilon_norm"]),
    )
    return state, cfg


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def format_manifest(
    config: TrainConfig, data_seed: int, model_seed: int, dataset: str = "standard"
) -> str:
    """Flat commented key-value text capturing everything a run needs."""
    lines = [
        "# gradtail run manifest",
        f"code.version: {__version__}",
        f"data.kind: {dataset}",
        f"data.seed: {data_seed}",
        f"model.seed: {model_seed}",
        f"train.steps: {config.steps}",
        f"train.learning_rate: {config.learning_rate!r}",
        f"train.momentum: {config.momentum!r}",
        f"train.batch_size: {config.batch_size}",
        f"train.seed: {config.seed}",
        f"train.strategy: {config.strategy}",
        f"train.subset: {config.subset_spec}",
        f"train.focal_gamma: {config.focal_gamma!r}",
        f"train.loss: {config.loss}",
        f"train.model_dims: {','.join(str(d) for d in config.model_dims)}",
        f"train.hidden_activation: {config.hidden_activation}",
        f"train.weight_scale: {config.weight_scale!r}",
        f"train.trace_logging: {str(config.trace_logging).lower()}",
        f"train.reference_mode: {str(config.reference_mode).lower()}",
        f"gradtail.pivot: {config.gradtail.pivot!r}",
        f"gradtail.decay: {config.gradtail.decay!r}",
        f"gradtail.amplitude: {config.gradtail.amplitude!r}",
        f"gradtail.slope: {config.gradtail.slope!r}",
        f"gradtail.sigma_floor: {config.gradtail.sigma_floor!r}",
        f"gradtail.warmup_batches: {config.gradtail.warmup_batches}",
        f"gradtail.epsilon_norm: {config.gradtail.epsilon_norm!r}",
    ]
    if config.class_weights is not None:
        lines.append(
            f"train.class_weights: {','.join(repr(w) for w in config.class_weights)}"
        )
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> dict[str, str]:
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed manifest line {raw!r}")
        key = key.strip()
        if key in out:
            raise ValueError(f"duplicated manifest key {key!r}")
        out[key] = value.strip()
    return out


def config_from_manifest(entries: dict[str, str]) -> tuple[TrainConfig, int, int, str]:
    """Rebuild (TrainConfig, data_seed, model_seed, dataset kind) from entries.

    Unknown keys raise: a typo in a manifest must not silently fall back to a
    default.
    """
    known = {
        "code.version",
        "data.kind", "data.seed", "model.seed", "train.steps", "train.learning_rate",
        "train.momentum", "train.batch_size", "train.seed", "train.strategy",
        "train.subset", "train.focal_gamma", "train.loss", "train.model_dims",
        "train.hidden_activation", "train.weight_scale", "train.trace_logging",
        "train.reference_mode", "train.class_weights", "gradtail.pivot",
        "gradtail.decay", "gradtail.amplitude", "gradtail.slope",
        "gradtail.sigma_floor", "gradtail.warmup_batches", "gradtail.epsilon_norm",
        "dense.height", "dense.width", "dense.rare_fraction", "dense.size_min",
        "dense.size_max", "dense.patch_count",
    }
    unknown = set(entries) - known
    if unknown:
        raise ValueError(f"unknown manifest keys: {sorted(unknown)}")

    def get(key: str, default: str) -> str:
        return entries.get(key, default)

    gradtail = GradTailConfig(
        pivot=float(get("gradtail.pivot", "0.0")),
        decay=float(get("gradtail.decay", "0.99")),
        amplitude=float(get("gradtail.amplitude", "28.0")),
        slope=float(get("gradtail.slope", "0.75")),
        sigma_floor=float(get("gradtail.sigma_floor", "1e-3")),
        warmup_batches=int(get("gradtail.warmup_batches", "10")),
        epsilon_norm=float(get("gradtail.epsilon_norm", "1e-12")),
    )
    class_weights = None
    if "train.class_weights" in entries:
        class_weights = tuple(float(tok) for tok in entries["train.class_weights"].split(","))
    config = TrainConfig(
        steps=int(get("train.steps", "10000")),
        learning_rate=float(get("train.learning_rate", "1e-4")),
        momentum=float(get("train.momentum", "0.9")),
        batch_size=int(get("train.batch_size", "128")),
        seed=int(get("train.seed", "0")),
        strategy=get("train.strategy", "gradtail"),
        gradtail=gradtail,
        subset_spec=get("train.subset", "all"),
        focal_gamma=float(get("train.focal_gamma", "2.0")),
        class_weights=class_weights,
        model_dims=tuple(int(d) for d in get("train.model_dims", "2,5,2").split(",")),
        hidden_activation=get("train.hidden_activation", "tanh"),
        weight_scale=float(get("train.weight_scale", "1.0")),
        loss=get("train.loss", "softmax_xent"),
        trace_logging=get("train.trace_logging", "true") == "true",
        reference_mode=get("train.reference_mode", "false") == "true",
    )
    return config, int(get("data.seed", "0")), int(get("model.seed", "0")), get("data.kind", "standard")


# ---------------------------------------------------------------------------
# delimited-text logs and datasets
# ---------------------------------------------------------------------------


CHUNK_ROWS = 1024  # rows formatted and written per write call


def _write_columns(path: str | Path, header: list[str], columns: list) -> None:
    """The bytes csv.writer writes for ``header`` and one row per entry of the
    equally long ``columns``: ints as ``str``, floats as ``repr``, CRLF line
    ends. Rows are formatted and written CHUNK_ROWS at a time, so the whole
    file is never held in memory."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        n = len(columns[0])
        for lo in range(0, n, CHUNK_ROWS):
            cells = [
                map(str if col.dtype.kind in "iu" else repr, col[lo : lo + CHUNK_ROWS].tolist())
                for col in columns
            ]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))


STEP_COLUMNS = ["step", "mean_loss", "mean_weight", "sigma", "ema_norm"]


def save_step_log(path: str | Path, log: StepLog) -> None:
    _write_columns(
        path, STEP_COLUMNS, [log.step, log.mean_loss, log.mean_weight, log.sigma, log.ema_norm]
    )


@_reader
def load_step_log(path: str | Path) -> StepLog:
    """The step log save_step_log wrote: one row per step, steps 0..n-1 in order."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != STEP_COLUMNS:
        raise RecordFormatError(f"{path}: not a step log")
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(len(body))):
        raise RecordFormatError(f"{path}: step column is not 0..{len(body) - 1} in order")
    return StepLog(
        np.arange(len(body), dtype=np.int64),
        np.array([float(r[1]) for r in body]),
        np.array([float(r[2]) for r in body]),
        np.array([float(r[3]) for r in body]),
        np.array([float(r[4]) for r in body]),
    )


TRACE_COLUMNS = [
    "example_id", "occurrences", "alignment_sum", "alignment_sq_sum",
    "loss_sum", "entropy_sum", "correct_count",
]


def save_trace(path: str | Path, trace: TraceTable) -> None:
    _write_columns(path, TRACE_COLUMNS, [
        np.arange(trace.n), trace.occurrences, trace.theta_sum, trace.theta_sq_sum,
        trace.loss_sum, trace.entropy_sum, trace.correct_count,
    ])


@_reader
def load_trace(path: str | Path) -> TraceTable:
    """The trace save_trace wrote: one row per example, ids 0..n-1 in order."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRACE_COLUMNS:
        raise RecordFormatError(f"{path}: not a trace")
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(len(body))):
        raise RecordFormatError(f"{path}: example_id column is not 0..{len(body) - 1} in order")

    def column(k: int, kind: type) -> np.ndarray:
        return np.array([kind(r[k]) for r in body], dtype=kind)

    return TraceTable(
        column(1, int), column(2, float), column(3, float), column(4, float), column(5, float),
        column(6, int),
    )


def save_patch_log(path: str | Path, log: PatchLog) -> None:
    arrays = log.arrays()
    _write_columns(path, list(arrays), list(arrays.values()))


def save_dataset(path: str | Path, dataset: Dataset2D) -> None:
    """Points as x1,x2,label CSV with the regeneration manifest in comments."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed: {dataset.seed}\n")
        for i, spec in enumerate(dataset.specs):
            fh.write(
                f"# spec{i}: mean={spec.mean[0]!r},{spec.mean[1]!r}"
                f" cov_scale={spec.cov_scale!r} count={spec.count} label={spec.label}\n"
            )
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "label"])
        for p, lab in zip(dataset.points, dataset.labels):
            writer.writerow([repr(float(p[0])), repr(float(p[1])), int(lab)])


@_reader
def load_dataset(path: str | Path) -> Dataset2D:
    specs, seed = [], 0
    with open(path, newline="") as fh:
        text = fh.read()
    rows = []
    for line in text.splitlines():
        if line.startswith("# seed:"):
            seed = int(line.split(":", 1)[1])
        elif line.startswith("# spec"):
            body = line.split(":", 1)[1].strip()
            parts = dict(tok.split("=", 1) for tok in body.split(" "))
            mean = tuple(float(v) for v in parts["mean"].split(","))
            specs.append(
                GaussianSpec(mean, float(parts["cov_scale"]), int(parts["count"]), int(parts["label"]))
            )
        elif line and not line.startswith("#"):
            rows.append(line)
    parsed = list(csv.reader(io.StringIO("\n".join(rows))))
    body = parsed[1:]
    points = np.array([[float(r[0]), float(r[1])] for r in body])
    labels = np.array([int(r[2]) for r in body], dtype=np.int64)
    return Dataset2D(points, labels, tuple(specs), seed)


# ---------------------------------------------------------------------------
# experiment reports
# ---------------------------------------------------------------------------


def report_fields(report) -> dict[str, str]:
    """Flatten an ExperimentReport to dotted keys; absent metrics say so."""
    fields = {
        "total_accuracy": repr(report.total_accuracy),
        "balanced_accuracy": repr(report.balanced_accuracy),
        "boundary_disagreement": repr(report.boundary_disagreement),
        "excluded_examples": report.excluded_examples,
    }
    for label, recall in sorted(report.per_class_recall.items()):
        fields[f"recall.class{label}"] = repr(recall)
    q = report.quartiles
    for i, acc in enumerate(q.accuracies, start=1):
        fields[f"quartile.accuracy{i}"] = repr(acc)
    fields["quartile.correlation"] = repr(q.correlation) if q.correlation_defined else "absent"
    fields["quartile.point_biserial"] = (
        repr(q.point_biserial) if q.point_biserial_defined else "absent"
    )
    for name, count in sorted(report.tail_counts.items()):
        fields[f"tail.{name}"] = count
    rare = report.rare_set
    fields["rare.size"] = rare.rare_size
    fields["rare.empty"] = str(rare.empty).lower()
    for label, count in sorted(rare.counts_per_class.items()):
        fields[f"rare.class{label}"] = count
    fields["rare.mean_distance"] = (
        "absent" if rare.mean_distance_rare is None else repr(rare.mean_distance_rare)
    )
    fields["rare.mean_distance_all"] = repr(rare.mean_distance_all)
    return fields


def save_report(path: str | Path, report) -> None:
    write_record(path, "experiment-report", report_fields(report), {})


def report_table(report) -> str:
    """The same report as an aligned two-column table for reading by eye."""
    rows = [(key, str(value)) for key, value in report_fields(report).items()]
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in rows) + "\n"


def summary_table(rows: list[dict[str, str]], columns: list[str]) -> str:
    """Aligned cross-run table; each row is a flat dict covering `columns`."""
    table = [columns] + [[str(row.get(col, "absent")) for col in columns] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table
    ) + "\n"
