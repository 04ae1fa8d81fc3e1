"""On-disk formats: versioned binary-exact records, manifests, and CSV logs.

The record format is line-oriented text: scalar fields as ``key: value`` and
float64 arrays as base64 of their little-endian bytes, so checkpoints and
weighting-state snapshots round-trip bit for bit. Manifests are flat
``section.key: value`` text and double as CLI configs.
"""

from __future__ import annotations

import base64
import functools
import io
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .algorithm import GradTailConfig, GradTailState
from .datasets import Dataset2D
from .engine import PatchLog, StepLog, TraceTable, TrainConfig
from .mlp import PARAM_KINDS, MlpModel

FORMAT_LINE = "format: gradtail-record v1"


class RecordFormatError(ValueError):
    """A record or log file was read but its contents do not parse."""


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


def _selectors_to_text(layout: tuple[tuple[int, str], ...]) -> str:
    return ";".join(f"{layer}:{kind}" for layer, kind in layout)


def _selectors_from_text(text: str) -> tuple[tuple[int, str], ...]:
    sel = []
    for tok in text.split(";"):
        layer, kind = tok.split(":")
        if kind not in PARAM_KINDS:
            raise ValueError(f"bad parameter kind {kind!r}")
        sel.append((int(layer), kind))
    return tuple(sel)


def save_gradtail_state(path: str | Path, state: GradTailState, config: GradTailConfig) -> None:
    fields = {
        "sigma": repr(state.sigma),
        "updates_seen": state.updates_seen,
        "layout": _selectors_to_text(state.layout),
        **{f"config.{k}": format_value(v) for k, v in asdict(config).items()},
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
    cfg = GradTailConfig(**{
        name: parse_value(name, fields[f"config.{name}"], default)
        for name, default in asdict(GradTailConfig()).items()
    })
    return state, cfg


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


# manifest key -> TrainConfig field path, in the order format_manifest writes
# them: TrainConfig's field order, with GradTailConfig's fields in the gradtail
# field's place; a field left at None is not written
TRAIN_KEYS = {
    path if f.name == "gradtail" else f"train.{path}": path
    for f in fields(TrainConfig)
    for path in (
        [f"gradtail.{g.name}" for g in fields(GradTailConfig)] if f.name == "gradtail" else [f.name]
    )
}

# the other keys a manifest or config may set, in manifest order, with their defaults
RUN_DEFAULTS = {"data.kind": "standard", "data.seed": 0, "model.seed": 0}
DENSE_DEFAULTS = {
    "dense.height": 64,
    "dense.width": 64,
    "dense.rare_fraction": 0.05,
    "dense.size_min": 20,
    "dense.size_max": 100,
    "dense.patch_count": 6,
}


def format_value(value) -> str:
    """The manifest text of a config value: floats by ``repr``, booleans as
    true/false, tuples comma-joined."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(key: str, text: str, default):
    """``text`` read back as a value of ``default``'s type. A boolean must be
    exactly true or false; a None default (class weights) reads as floats."""
    if isinstance(default, bool):
        if text not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {text!r}")
        return text == "true"
    try:
        if default is None or isinstance(default, tuple):
            kind = float if default is None else type(default[0])
            return tuple(kind(tok) for tok in text.split(","))
        return type(default)(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def read_settings(entries: dict[str, str], defaults: dict) -> dict:
    """Each key of ``defaults``: the value ``entries`` sets for it, else the default."""
    return {
        key: parse_value(key, entries[key], default) if key in entries else default
        for key, default in defaults.items()
    }


def _field(config: TrainConfig, path: str):
    return functools.reduce(getattr, path.split("."), config)


def override_config(base: TrainConfig, entries: dict[str, str]) -> TrainConfig:
    """``base`` with every train.* and gradtail.* key that ``entries`` sets,
    one field at a time, each read as the type of its TrainConfig default."""
    defaults, changes = TrainConfig(), {"": {}, "gradtail": {}}
    for key, path in TRAIN_KEYS.items():
        if key in entries:
            owner, _, name = path.rpartition(".")
            changes[owner][name] = parse_value(key, entries[key], _field(defaults, path))
    return replace(base, gradtail=replace(base.gradtail, **changes["gradtail"]), **changes[""])


def format_manifest(
    config: TrainConfig, data_seed: int, model_seed: int, dataset: str = "standard"
) -> str:
    """Flat commented key-value text capturing everything a run needs."""
    values = {"code.version": __version__}
    values.update(zip(RUN_DEFAULTS, (dataset, data_seed, model_seed)))
    values.update((key, _field(config, path)) for key, path in TRAIN_KEYS.items())
    return "# gradtail run manifest\n" + "".join(
        f"{key}: {format_value(value)}\n" for key, value in values.items() if value is not None
    )


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
    default, and only a ``data.kind: dense`` run reads the dense.* keys.
    """
    dense = DENSE_DEFAULTS if entries.get("data.kind") == "dense" else {}
    unknown = set(entries) - {"code.version", *RUN_DEFAULTS, *TRAIN_KEYS, *dense}
    if unknown:
        raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
    kind, data_seed, model_seed = read_settings(entries, RUN_DEFAULTS).values()
    return override_config(TrainConfig(), entries), data_seed, model_seed, kind


# ---------------------------------------------------------------------------
# delimited-text logs and datasets
# ---------------------------------------------------------------------------


CHUNK_ROWS = 1024  # rows formatted and written per write call


def _write_columns(path: str | Path, header: list[str], columns: list, lead: str = "") -> None:
    """``lead``, then the bytes csv.writer writes for ``header`` and one row
    per entry of the equally long ``columns``: ints as ``str``, floats as
    ``repr``, CRLF line ends. Each row is one ``%`` format (``%d`` per int
    column, ``%r`` per float column). Rows are formatted and written
    CHUNK_ROWS at a time, so the whole file is never held in memory."""
    line = ",".join("%d" if col.dtype.kind in "iu" else "%r" for col in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(lead + ",".join(header) + "\r\n")
        n = len(columns[0])
        for lo in range(0, n, CHUNK_ROWS):
            rows = zip(*[col[lo : lo + CHUNK_ROWS].tolist() for col in columns])
            fh.write("".join([line % row for row in rows]))


def _read_columns(path: str | Path, header: list[str], kinds: list, name: str) -> list:
    """The columns _write_columns wrote under ``header``, one array per entry
    of ``kinds`` (an int or float dtype), parsed in one ``np.loadtxt`` call. Every
    line holds one row of unquoted numbers; a blank line is refused. The
    first column must count 0..n-1 in order, and the file must end in a line
    end, as every written row does: a file cut inside its last number would
    otherwise still parse."""
    with open(path, newline="") as fh:
        text = fh.read()
    first, _, body = text.partition("\n")
    if first.removesuffix("\r").split(",") != header:
        raise RecordFormatError(f"{path}: not a {name}")
    if not text.endswith("\n"):
        raise RecordFormatError(f"{path}: cut short inside its last row")
    dtype = np.dtype(list(zip(header, kinds)))
    rows = np.loadtxt(
        io.StringIO(body), dtype, comments=None, delimiter=",", quotechar=None, ndmin=1
    ) if body else np.empty(0, dtype)  # np.loadtxt warns on a header-only file
    n = rows.shape[0]
    if n != body.count("\n"):  # np.loadtxt skipped an empty line
        raise RecordFormatError(f"{path}: blank line")
    if not np.array_equal(rows[header[0]], np.arange(n)):
        raise RecordFormatError(f"{path}: {header[0]} column is not 0..{n - 1} in order")
    return [rows[col].copy() for col in header]


def _columns(log) -> tuple[list[str], list[np.ndarray]]:
    """A log dataclass's field names, in field order, and its column arrays."""
    names = [f.name for f in fields(log)]
    return names, [getattr(log, name) for name in names]


def save_step_log(path: str | Path, log: StepLog) -> None:
    _write_columns(path, *_columns(log))


@_reader
def load_step_log(path: str | Path) -> StepLog:
    """The step log save_step_log wrote: one row per step, steps 0..n-1 in order."""
    names, empty = _columns(StepLog.zeros(0))
    return StepLog(*_read_columns(path, names, [col.dtype for col in empty], "step log"))


def save_trace(path: str | Path, trace: TraceTable) -> None:
    names, columns = _columns(trace)
    _write_columns(path, ["example_id", *names], [np.arange(trace.n), *columns])


@_reader
def load_trace(path: str | Path) -> TraceTable:
    """The trace save_trace wrote: one row per example, ids 0..n-1 in order."""
    names, empty = _columns(TraceTable.zeros(0))
    kinds = [np.int64] + [col.dtype for col in empty]
    return TraceTable(*_read_columns(path, ["example_id", *names], kinds, "trace")[1:])


def save_patch_log(path: str | Path, log: PatchLog) -> None:
    _write_columns(path, *_columns(log))


def save_dataset(path: str | Path, dataset: Dataset2D) -> None:
    """Points as x1,x2,label CSV with the regeneration manifest in comments."""
    lead = f"# seed: {dataset.seed}\n" + "".join(
        f"# spec{i}: mean={spec.mean[0]!r},{spec.mean[1]!r}"
        f" cov_scale={spec.cov_scale!r} count={spec.count} label={spec.label}\n"
        for i, spec in enumerate(dataset.specs)
    )
    columns = [dataset.points[:, 0], dataset.points[:, 1], dataset.labels]
    _write_columns(path, ["x1", "x2", "label"], columns, lead)


# ---------------------------------------------------------------------------
# experiment reports
# ---------------------------------------------------------------------------


def format_metric(value: float | None) -> str:
    """A metric's report text: ``absent`` for None, else its ``repr``."""
    return "absent" if value is None else repr(value)


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
    fields["quartile.correlation"] = format_metric(q.correlation)
    fields["quartile.point_biserial"] = format_metric(q.point_biserial)
    for name, count in sorted(report.tail_counts.items()):
        fields[f"tail.{name}"] = count
    rare = report.rare_set
    fields["rare.size"] = rare.rare_size
    fields["rare.empty"] = str(rare.empty).lower()
    for label, count in sorted(rare.counts_per_class.items()):
        fields[f"rare.class{label}"] = count
    fields["rare.mean_distance"] = format_metric(rare.mean_distance_rare)
    fields["rare.mean_distance_all"] = repr(rare.mean_distance_all)
    fields["weight.mean_after_warmup"] = format_metric(report.mean_weight_after_warmup)
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
