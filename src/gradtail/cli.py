"""Experiment driver.

Subcommands: gen-data, train, analyze, sweep, dense-demo. Configs are the
same flat ``section.key: value`` text files the runs write back out as
manifests, so any emitted artifact can be regenerated from its manifest
alone.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 I/O or
record-format error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import pickle
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .algorithm import GradTailConfig
from .analysis import (
    DENSE_BAND_EDGES,
    boundary_disagreement,
    boundary_grid,
    class_metrics,
    dense_band_mre,
    experiment_report,
    label_examples,
    mean_weight_after_warmup,
)
from .datasets import (
    Dataset2D,
    DenseGrid,
    dominance_holds,
    gen_dense_task,
    gen_hard_variant,
    gen_two_gaussians,
)
from .engine import (
    StepLog,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    dense_config,
    dense_predictions,
    subset_selectors,
    train,
    train_dense,
)
from .figures import (
    entropy_figure,
    panel_figure,
    point_glyphs,
    prediction_figure,
    scatter_figure,
    tail_figure,
)
from .patches import check_sampler
from .records import (
    DENSE_DEFAULTS,
    RecordFormatError,
    config_from_manifest,
    format_manifest,
    format_metric,
    format_value,
    load_gradtail_state,
    load_model,
    load_step_log,
    load_trace,
    override_config,
    parse_manifest,
    read_settings,
    report_fields,
    report_table,
    save_dataset,
    save_gradtail_state,
    save_model,
    save_patch_log,
    save_report,
    save_step_log,
    save_trace,
    summary_table,
    write_record,
)

# the keys format_manifest writes for every run (class weights only when set)
RUN_MANIFEST_KEYS = frozenset(parse_manifest(format_manifest(TrainConfig(), 0, 0)))

SWEEP_PARAMS = {
    "pivot": "gradtail",
    "max_weight": "gradtail",
    "inverse_frequency_w": "inverse_frequency",
}


def _load_entries(config_path: str | None) -> dict[str, str]:
    if config_path is None:
        return {}
    return parse_manifest(Path(config_path).read_text())


def _dataset_for(kind: str, seed: int) -> Dataset2D:
    if kind == "standard":
        return gen_two_gaussians(seed)
    if kind == "hard":
        return gen_hard_variant(seed)
    if kind == "dense":
        raise ValueError("dense runs come from dense-demo or a dense sweep (data.kind: dense)")
    raise ValueError(f"unknown dataset kind {kind!r} (expected standard or hard)")


def _dense_grid_for(entries: dict[str, str], seed: int) -> tuple[DenseGrid, dict[str, int]]:
    dense = read_settings(entries, DENSE_DEFAULTS)
    grid = gen_dense_task(
        seed, dense["dense.height"], dense["dense.width"], dense["dense.rare_fraction"]
    )
    sampler = {
        "size_min": dense["dense.size_min"],
        "size_max": dense["dense.size_max"],
        "patch_count": dense["dense.patch_count"],
    }
    check_sampler(*sampler.values())
    return grid, sampler


def _write_run_dir(
    run_dir: Path, kind: str, data_seed: int, result: TrainResult, extra_manifest: dict
) -> Path:
    """A run dir of either loop: manifest (plus ``extra_manifest`` lines), model,
    step log, the toy trace or dense patch log, and any weighting state."""
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "manifest.txt").write_text(
        format_manifest(result.config, data_seed, result.model_seed, kind)
        + "".join(f"{key}: {format_value(value)}\n" for key, value in extra_manifest.items())
    )
    save_model(run_dir / "model.txt", result.model)
    save_step_log(run_dir / "steps.csv", result.step_log)
    if result.trace is not None:
        save_trace(run_dir / "trace.csv", result.trace)
    if result.patch_log is not None:
        save_patch_log(run_dir / "patches.csv", result.patch_log)
    if result.gradtail_state is not None:
        save_gradtail_state(run_dir / "state.txt", result.gradtail_state, result.config.gradtail)
    return run_dir


def _median_cell(cells) -> str:
    present = [float(cell) for cell in cells if cell != "absent"]
    return format_metric(float(np.median(present)) if present else None)


def _median_rows(key: str, labels: list[str], runs: list[tuple], columns: list[str]) -> list[dict]:
    """One row per label: ``key`` holds the label and each column the ``repr``
    of the median of that column's numeric cells (``absent`` when none is)
    over the label's equal, consecutive share of ``runs``, one tuple of cells
    per run."""
    share = len(runs) // len(labels)
    rows = []
    for i, label in enumerate(labels):
        by_column = zip(*runs[i * share:(i + 1) * share])
        rows.append({key: label, **dict(zip(columns, map(_median_cell, by_column)))})
    return rows


def _dense_run_config(
    entries: dict[str, str], base: TrainConfig, strategy: str, k: int
) -> TrainConfig:
    """The dense schedule, overridden by every train.* and gradtail.* key the
    config sets. The strategy is not: a dense demo runs both strategies."""
    return replace(
        override_config(dense_config(), entries),
        strategy=strategy, seed=base.seed + k, reference_mode=base.reference_mode,
    )


def _divergence_exit(out: Path, exc: TrainingDiverged) -> int:
    """Report a numerical abort and leave its snapshot in ``out`` as
    divergence.txt: exit 3, or 4 when the snapshot cannot be written."""
    path = out / "divergence.txt"
    fields = {
        k: ",".join(str(i) for i in v) if isinstance(v, list) else v
        for k, v in exc.snapshot.items()
    }
    fields["message"] = str(exc)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_record(path, "divergence-snapshot", fields, {})
    except OSError as err:
        print(f"numerical abort: {exc}", file=sys.stderr)
        print(f"I/O error: cannot write the divergence snapshot: {err}", file=sys.stderr)
        return 4
    print(f"numerical abort: {exc} (snapshot: {path})", file=sys.stderr)
    return 3


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_share(fn, items) -> list:
    """``(True, fn(item))`` per item, up to the first that raises, which ends
    the list as ``(False, exception)``: the serial loop, stopped where it would
    have stopped."""
    outcomes = []
    for item in items:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:  # raised again, in input order, by _spread
            outcomes.append((False, exc))
            break
    return outcomes


@functools.cache
def _openblas_threads():
    """The ``(get, set)`` thread-count calls of the OpenBLAS this process has
    loaded, or None: no mapped file named ``*openblas*`` in ``/proc/self/maps``
    (no OpenBLAS, or no ``/proc``), or none exports such a pair. Looked up
    once, by the first spread that forks."""
    try:
        with open("/proc/self/maps") as maps:  # the path is a line's sixth field
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def _spread(fn, items, forkable=lambda item: True):
    """Yield ``fn(item)`` for every item, in input order.

    Up to (usable CPUs - 1) forked children each take a round-robin share of
    the forkable items, while this process runs the rest in input order. A
    child sends back one pickled outcome per item, and the warnings it
    caught, through its own pipe and ends with ``os._exit``: it prints
    nothing and runs no exit handler of this process. With one forkable
    item every item runs here, and so it does with one CPU or no
    ``os.fork``, without a call to ``forkable``. Every item runs and every
    child is reaped before the first result is yielded; the results before
    the first item, in input order, that raised are yielded and then its
    exception is raised, whichever process ran it.

    While there are children, OpenBLAS (when ``_openblas_threads`` finds it)
    runs max(1, usable CPUs // processes) threads in every process: set
    before the first fork, so the children inherit it, and restored after
    every child is reaped. Set inside a child after the fork, it measured
    far slower (ROADMAP dead ends).

    Raw ``os.fork`` rather than the standard library's process pool: that
    pool measured slower here, and importing it raised peak RSS (ROADMAP dead
    ends). The only other threads in the process are OpenBLAS's, and
    OpenBLAS stops its thread pool before a fork through its fork handler.
    """
    items = list(items)
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    forked = [i for i, item in enumerate(items) if forkable(item)] if cpus > 1 else []
    workers = min(cpus, len(forked))
    shares = [forked[w::workers] for w in range(1, workers)]
    in_children = {i for share in shares for i in share}
    children = []  # (pid, the read end of its pipe, its share)
    blas = _openblas_threads() if shares else None
    threads = None  # OpenBLAS's count before the spread, once changed
    try:
        if blas is not None:
            threads = blas[0]()
            blas[1](max(1, cpus // workers))
        for share in shares:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with warnings.catch_warnings(record=True) as caught:
                        share_outcomes = _run_share(fn, [items[i] for i in share])
                    caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps((share_outcomes, caught)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), share))
        own = [i for i in range(len(items)) if i not in in_children]
        outcomes = dict(zip(own, _run_share(fn, [items[i] for i in own])))
        payloads = [pipe.read() for _, pipe, _ in children]
    finally:
        for _, pipe, _ in children:
            pipe.close()  # a child still writing then fails on EPIPE and ends
        statuses = [os.waitpid(pid, 0)[1] for pid, _, _ in children]
        if threads is not None:
            blas[1](threads)
    for (pid, _, share), status, payload in zip(children, statuses, payloads):
        if status != 0:
            failure = RuntimeError(f"worker process {pid} ended with wait status {status}")
            outcomes[share[0]] = (False, failure)
            continue
        share_outcomes, caught = pickle.loads(payload)
        outcomes.update(zip(share, share_outcomes))
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
    for i in range(len(items)):
        ok, value = outcomes[i]
        if not ok:
            raise value
        yield value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args: argparse.Namespace) -> int:
    entries = _load_entries(args.config)
    config, data_seed, model_seed, kind = config_from_manifest(entries)
    out = Path(args.out)
    datasets = []
    for k in range(args.seeds):
        dataset = _dataset_for(kind, data_seed + k)
        if kind == "hard" and not dominance_holds(dataset.specs[0], dataset.specs[1]):
            raise ValueError("hard variant fails the density-dominance grid check")
        datasets.append(dataset)
    out.mkdir(parents=True, exist_ok=True)
    for k, dataset in enumerate(datasets):
        save_dataset(out / f"dataset-s{data_seed + k:03d}.csv", dataset)
    (out / "manifest.txt").write_text(format_manifest(config, data_seed, model_seed, kind))
    print(f"wrote {args.seeds} dataset file(s) under {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    entries = _load_entries(args.config)
    config, data_seed, model_seed, kind = config_from_manifest(entries)
    if args.reference_mode:
        config = replace(config, reference_mode=True)
    out = Path(args.out)

    def train_seed(k: int) -> Path:
        dataset = _dataset_for(kind, data_seed + k)
        result = train(dataset, model_seed + k, replace(config, seed=config.seed + k))
        return _write_run_dir(
            out / f"run-{config.strategy}-s{k:03d}", kind, data_seed + k, result, {}
        )

    for k, run_dir in enumerate(_spread(train_seed, range(args.seeds))):
        print(f"run {k}: {run_dir}")
    return 0


def _read_run_manifest(run_dir: Path) -> tuple[TrainConfig, int, Dataset2D | DenseGrid]:
    """(config, model seed, regenerated data) from a run dir's manifest.

    The manifest must hold every key its writer always writes, each once, and
    must regenerate the data; anything less is a corrupt record, not a config
    error."""
    path = run_dir / "manifest.txt"
    try:
        entries = parse_manifest(path.read_text())
        config, data_seed, model_seed, kind = config_from_manifest(entries)
        required = RUN_MANIFEST_KEYS.union(DENSE_DEFAULTS if kind == "dense" else ())
        missing = sorted(required - entries.keys())
        if missing:
            raise ValueError(f"missing keys {missing}")
        if kind == "dense":
            data = _dense_grid_for(entries, data_seed)[0]
        else:
            data = _dataset_for(kind, data_seed)
    except ValueError as exc:
        raise RecordFormatError(f"{path}: {exc}") from exc
    return config, model_seed, data


def _dense_mre(model, grid: DenseGrid) -> tuple[float | None, float | None, float]:
    """Common-band, rare-band and total mean relative error of a dense model;
    a band that holds no pixels has None."""
    bands = dense_band_mre(
        dense_predictions(model, grid), grid.targets, grid.valid_mask, DENSE_BAND_EDGES
    )
    return bands.bands[0].mre, bands.bands[1].mre, bands.total_mre


def _check_state(path: Path, config: TrainConfig, step_log: StepLog) -> None:
    """Refuse a weighting-state snapshot unless its update count is the step
    log's row count, its sigma and EMA-gradient norm are the last row's, bit
    for bit, and its config and layout are the manifest's gradtail.* keys and
    train.subset."""
    state, gradtail = load_gradtail_state(path)
    rows = step_log.step.shape[0]
    if state.updates_seen != rows:
        raise RecordFormatError(f"{path}: updates_seen {state.updates_seen} for {rows} step rows")
    ema_norm = math.sqrt(state.ema_grad.dot(state.ema_grad))  # the step log's formula
    if rows and state.sigma != step_log.sigma[-1]:
        raise RecordFormatError(
            f"{path}: sigma {state.sigma!r} is not the last step row's"
            f" sigma {float(step_log.sigma[-1])!r}"
        )
    if rows and ema_norm != step_log.ema_norm[-1]:
        raise RecordFormatError(
            f"{path}: ema_grad norm {ema_norm!r} is not the last step row's"
            f" ema_norm {float(step_log.ema_norm[-1])!r}"
        )
    if gradtail != config.gradtail:
        raise RecordFormatError(f"{path}: config.* differs from the manifest's gradtail.* keys")
    if state.layout != subset_selectors(config.subset, len(config.model_dims) - 1):
        raise RecordFormatError(f"{path}: layout is not the manifest's train.subset")


def _analyze_run(run_dir: Path, fig_dir: Path, manifest: tuple) -> tuple[dict, str | None]:
    """Write one run dir's report into ``fig_dir``, with the five figures of a
    toy run, and return the report's fields and the warning to print, if any.
    ``manifest`` is the run dir's `_read_run_manifest`. A dense run reports
    its band errors and mean weight only; a toy run with fewer than four seen
    examples gets a degraded report, and a warning that says so. A state.txt,
    when the run has one, must agree with the step log and the manifest."""
    config, model_seed, dataset = manifest
    model = load_model(run_dir / "model.txt")
    shape = (tuple(model.layer_dims), model.hidden_activation)
    if shape != (config.model_dims, config.hidden_activation):
        raise RecordFormatError(
            f"{run_dir / 'model.txt'}: model {shape} does not match its manifest's"
            f" {(config.model_dims, config.hidden_activation)}"
        )
    step_log = load_step_log(run_dir / "steps.csv")
    if step_log.step.shape[0] != config.steps:
        raise RecordFormatError(
            f"{run_dir / 'steps.csv'}: {step_log.step.shape[0]} rows for {config.steps} steps"
        )
    if (run_dir / "state.txt").exists():
        _check_state(run_dir / "state.txt", config, step_log)
    weight = format_metric(mean_weight_after_warmup(step_log, config.gradtail.warmup_batches))
    if isinstance(dataset, DenseGrid):
        _, rare, total = _dense_mre(model, dataset)
        fields = {
            "rare_mre": format_metric(rare),
            "total_mre": repr(total),
            "weight.mean_after_warmup": weight,
        }
        fig_dir.mkdir(parents=True, exist_ok=True)
        write_record(fig_dir / "report.txt", "experiment-report", fields, {})
        return fields, None
    trace_path = run_dir / "trace.csv"
    trace = load_trace(trace_path) if trace_path.exists() else None
    if trace is not None:
        if trace.n != dataset.n:
            raise RecordFormatError(f"{trace_path}: {trace.n} rows for {dataset.n} examples")
        # every step adds train.batch_size occurrences; no count above the
        # total passes, so the int64 sum cannot wrap
        total, counts = config.steps * config.batch_size, trace.occurrences
        if counts.min() < 0 or counts.max() > total or counts.sum() != total:
            raise RecordFormatError(
                f"{trace_path}: occurrences must be non-negative and sum to"
                f" {config.steps} steps x {config.batch_size} = {total}"
            )
    grid = boundary_grid(model, *dataset.specs[:2])
    seen = 0 if trace is None else int(trace.seen().sum())
    fig_dir.mkdir(parents=True, exist_ok=True)
    glyphs = point_glyphs(dataset, grid)
    if seen < 4:  # quartiles need four seen examples
        # degraded report: model-level metrics only, gaps called out
        metrics = class_metrics(model, dataset)
        fields = {
            "total_accuracy": repr(metrics.total_accuracy),
            "balanced_accuracy": repr(metrics.balanced_accuracy),
            "boundary_disagreement": repr(boundary_disagreement(grid)),
            "trace": "absent" if trace is None else f"{seen} examples seen",
            "quartile": "absent",
            "rare_set": "absent",
        }
        for label, recall in sorted(metrics.per_class_recall.items()):
            fields[f"recall.class{label}"] = repr(recall)
        fields["weight.mean_after_warmup"] = weight
        warning = (
            f"warning: {run_dir} has no usable traces (trace: {fields['trace']});"
            " writing a degraded report"
        )
        write_record(fig_dir / "report.txt", "experiment-report", fields, {})
    else:
        warning = None
        result = TrainResult(model, trace, step_log, None, config, model_seed)
        report = experiment_report(result, dataset, grid)
        fields = report_fields(report)
        save_report(fig_dir / "report.txt", report)
        (fig_dir / "report_table.txt").write_text(report_table(report))
        labels, _, _ = label_examples(trace)
        tail_figure(glyphs, labels, fig_dir / "tail.svg")
        tail_figure(glyphs, labels, fig_dir / "rare.svg", rare_only=True)
        entropy_figure(glyphs, trace.mean_entropy(), fig_dir / "entropy.svg")
    scatter_figure(glyphs, fig_dir / "data.svg")
    prediction_figure(grid, glyphs, fig_dir / "predictions.svg")
    return fields, warning


def cmd_analyze(args: argparse.Namespace) -> int:
    run_dirs = [Path(dir_name) for dir_name in args.run_dirs]
    names = [run_dir.resolve().name for run_dir in run_dirs]  # '.' and '..' name their directory
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:  # each run writes into out/<name>
        raise ValueError(f"run dirs share a name: {', '.join(repeated)}")
    manifests = [_read_run_manifest(run_dir) for run_dir in run_dirs]  # a bad one makes no --out
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runs = list(zip(run_dirs, names, manifests))
    # A toy run dir with a trace takes many times a fork's cost. A dense one is a
    # single forward pass, and forked its BLAS threads compete with the child's:
    # that measured slower than serial (README).
    analyzed = _spread(
        lambda run: _analyze_run(run[0], out / run[1], run[2]),
        runs,
        forkable=lambda run: (run[0] / "trace.csv").exists(),
    )
    rows = []
    for (run_dir, name, _), (fields, warning) in zip(runs, analyzed):
        if warning is not None:
            print(warning, file=sys.stderr)
        rows.append({"run": name, **{k: str(v) for k, v in fields.items()}})
        print(f"analyzed {run_dir} -> {out / name}")

    columns = ["total_accuracy", "balanced_accuracy", "boundary_disagreement", "rare.size"]
    if any("total_mre" in row for row in rows):
        columns += ["rare_mre", "total_mre"]
    if len(rows) > 1:
        cells = [tuple(row.get(col, "absent") for col in columns) for row in rows]
        rows += _median_rows("run", ["median"], cells, columns)
    (out / "summary.txt").write_text(summary_table(rows, ["run", *columns]))
    return 0


def _sweep_value_config(config: TrainConfig, param: str, value: float) -> TrainConfig:
    if param == "pivot":
        return replace(config, gradtail=replace(config.gradtail, pivot=value))
    if param == "max_weight":
        amplitude = GradTailConfig.from_max_weight(value).amplitude
        return replace(config, gradtail=replace(config.gradtail, amplitude=amplitude))
    # inverse_frequency_w: weight on the uncommon class, common stays at 1
    return replace(config, class_weights=(1.0, float(value)))


def cmd_sweep(args: argparse.Namespace) -> int:
    entries = _load_entries(args.config)
    config, data_seed, model_seed, kind = config_from_manifest(entries)
    if args.param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {args.param!r}")
    if config.strategy != SWEEP_PARAMS[args.param]:
        raise ValueError(
            f"parameter {args.param!r} applies to strategy {SWEEP_PARAMS[args.param]!r},"
            f" config says {config.strategy!r}"
        )
    values = [float(tok) for tok in args.values.split(",") if tok != ""]
    if not values:
        raise ValueError("empty sweep value list")
    if kind == "dense" and args.param != "pivot":
        raise ValueError("dense sweeps support the pivot parameter only")
    if args.reference_mode:
        config = replace(config, reference_mode=True)
    # every value's config and every seed's data are checked before the
    # first run writes anything
    value_configs = [_sweep_value_config(config, args.param, value) for value in values]
    seeds = range(data_seed, data_seed + args.seeds)
    data = [_dense_grid_for(entries, s) if kind == "dense" else _dataset_for(kind, s) for s in seeds]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if kind == "dense":
        return _dense_sweep(entries, config, data, model_seed, values, args, out)

    def sweep_run(task):
        value_config, k = task
        dataset = data[k]
        result = train(dataset, model_seed + k, replace(value_config, seed=config.seed + k))
        grid = boundary_grid(result.model, *dataset.specs[:2])
        metrics = class_metrics(result.model, dataset)
        cells = (metrics.balanced_accuracy, metrics.total_accuracy, boundary_disagreement(grid),
                 metrics.per_class_recall[dataset.specs[1].label])
        # the panel shows the first seed
        return tuple(map(repr, cells)), (grid, dataset) if k == 0 else None

    tasks = [(value_config, k) for value_config in value_configs for k in range(args.seeds)]
    runs = list(_spread(sweep_run, tasks))
    panels = [(f"{args.param}={v:g}", *runs[i * args.seeds][1]) for i, v in enumerate(values)]
    columns = ["median_balanced", "median_total", "median_disagreement", "median_recall_uncommon"]
    rows = _median_rows("value", [repr(v) for v in values], [cells for cells, _ in runs], columns)
    table = summary_table(rows, ["value", *columns])
    (out / "sweep.txt").write_text(f"# sweep over {args.param} ({config.strategy})\n" + table)
    panel_figure(panels, out / "panel.svg")
    print(f"swept {args.param} over {values} -> {out}")
    return 0


def _dense_sweep(entries, config, grids, model_seed, values, args, out) -> int:
    def pivot_run(task):
        value, k = task
        run_config = _dense_run_config(entries, config, "gradtail", k)
        run_config = replace(run_config, gradtail=replace(run_config.gradtail, pivot=value))
        grid, sampler = grids[k]
        result = train_dense(grid, model_seed + k, run_config, **sampler)
        return tuple(map(format_metric, _dense_mre(result.model, grid)))

    tasks = [(value, k) for value in values for k in range(args.seeds)]
    # forked only under a BLAS thread limit, as in dense-demo
    mres = list(_spread(pivot_run, tasks, forkable=lambda _: _openblas_threads() is not None))
    columns = ["median_common_mre", "median_rare_mre", "median_total_mre"]
    table = summary_table(
        _median_rows("pivot", [repr(v) for v in values], mres, columns), ["pivot", *columns]
    )
    (out / "sweep.txt").write_text("# dense pivot sweep (gradtail)\n" + table)
    print(f"swept pivot over {values} -> {out}")
    return 0


def cmd_dense_demo(args: argparse.Namespace) -> int:
    entries = _load_entries(args.config)
    # every dense-demo run is a dense run, whatever data.kind says, so it reads dense.* keys
    base, data_seed, model_seed, _ = config_from_manifest({**entries, "data.kind": "dense"})
    if args.reference_mode:
        base = replace(base, reference_mode=True)
    grids = [_dense_grid_for(entries, data_seed + k) for k in range(args.seeds)]
    runs = [(k, strategy, _dense_run_config(entries, base, strategy, k))
            for k in range(args.seeds) for strategy in ("uniform", "gradtail")]
    dense_keys = read_settings(entries, DENSE_DEFAULTS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def run_strategy(run) -> tuple[str, str]:
        k, strategy, config = run
        grid, sampler = grids[k]
        result = train_dense(grid, model_seed + k, config, **sampler)
        _write_run_dir(
            out / f"dense-{strategy}-s{k:03d}", "dense", data_seed + k, result, dense_keys
        )
        _, rare, total = _dense_mre(result.model, grid)
        return format_metric(rare), repr(total)

    # With every process at 2 BLAS threads on 2 CPUs, forked runs measured
    # slower than serial: they fork only when the spread can hold each process
    # to its share of the CPUs (README).
    mres = _spread(run_strategy, runs, forkable=lambda run: _openblas_threads() is not None)
    rows = [{"seed": str(data_seed + k)} for k in range(args.seeds)]
    for (k, strategy, _), (rare, total) in zip(runs, mres):
        rows[k][f"{strategy}_rare_mre"] = rare
        rows[k][f"{strategy}_total_mre"] = total
    columns = ["uniform_rare_mre", "gradtail_rare_mre", "uniform_total_mre", "gradtail_total_mre"]
    if len(rows) > 1:
        cells = [tuple(map(row.get, columns)) for row in rows]
        rows += _median_rows("seed", ["median"], cells, columns)
    (out / "dense.txt").write_text(summary_table(rows, ["seed", *columns]))
    print(f"dense demo over {args.seeds} seed(s) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def seed_count(text: str) -> int:
    """A ``--seeds`` value: an integer of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradtail",
        description="Gradient-alignment example weighting: data, training, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_flags(p: argparse.ArgumentParser, default_out: str, reference: bool = True) -> None:
        p.add_argument("--config", help="key-value config file (same format as run manifests)")
        p.add_argument("--out", default=default_out, help="output directory")
        p.add_argument("--seeds", type=seed_count, default=1, help="number of seeds to run")
        if reference:
            p.add_argument("--reference-mode", action="store_true",
                           help="serial per-example gradients for bitwise reproducibility")

    p = sub.add_parser("gen-data", help="write dataset files and their manifest")
    common_flags(p, "data", reference=False)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one run directory per seed")
    common_flags(p, "runs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="reports, figures, and a cross-run summary")
    p.add_argument("--out", default="analysis", help="output directory")
    p.add_argument("run_dirs", nargs="+", help="run directories produced by train")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="comparative runs over one parameter")
    common_flags(p, "sweep")
    p.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS),
                   help="which knob to sweep")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dense-demo", help="patch-weighted dense regression comparison")
    common_flags(p, "dense")
    p.set_defaults(func=cmd_dense_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        return _divergence_exit(Path(args.out), exc)
    except RecordFormatError as exc:
        print(f"record format error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
