"""Span tracing from outside the program.

A ``Tracer`` rebinds public gradtail functions by name in the module that
calls them (``gradtail.cli.train``, ``gradtail.engine.batch_gradients``, ...)
so that each call records a span: span id, layer name, start, end, parent span
id and operation id. Spans stay in memory until the run ends. Nothing under
``src/`` is edited; ``uninstall`` puts the original functions back.

A target that a later version of the program renames or deletes is listed in
``Tracer.absent`` instead of raising.
"""

from __future__ import annotations

import csv
import importlib
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _file_bytes(key):
    """Counter: add the size of every path argument (written or read file)."""

    def count(counts, args, kwargs, out):
        for arg in (*args, *kwargs.values()):
            if isinstance(arg, (str, os.PathLike)) and os.path.isfile(arg):
                counts[key] += os.path.getsize(arg)

    return count


def _train_steps(counts, args, kwargs, out):
    counts["steps"] += out.step_log.step.shape[0]


def _batch_gradients(counts, args, kwargs, out):
    counts["rows"] += out.grads.shape[0]
    counts["grad_bytes"] += out.grads.shape[0] * out.grads.shape[1] * out.grads.itemsize


def _forward_rows(counts, args, kwargs, out):
    counts["rows"] += out.shape[0]


def _step_arrays(counts, args, kwargs, out):
    weighting = out[0]
    counts["rows"] += weighting.defined.shape[0]
    counts["undefined"] += int(np.count_nonzero(~weighting.defined))
    counts["warmup_calls"] += bool(weighting.warmup_active)


def _sample_patches(counts, args, kwargs, out):
    counts["regions_proposed"] += len(out.rects) + 1  # rectangles plus the complement


def _points(counts, args, kwargs, out):
    counts["points"] += out.shape[0]


SVG_BYTES = _file_bytes("svg_bytes")
WRITE_BYTES = _file_bytes("write_bytes")
READ_BYTES = _file_bytes("read_bytes")

# (calling module, attribute, layer name, counter). Counters receive the
# per-layer count dict; layer names are "<defining module>.<function>".
TARGETS = [
    ("gradtail.cli", "gen_two_gaussians", "datasets.gen_two_gaussians", None),
    ("gradtail.cli", "gen_hard_variant", "datasets.gen_hard_variant", None),
    ("gradtail.cli", "gen_dense_task", "datasets.gen_dense_task", None),
    ("gradtail.cli", "train", "engine.train", _train_steps),
    ("gradtail.cli", "train_dense", "engine.train_dense", _train_steps),
    ("gradtail.cli", "dense_predictions", "engine.dense_predictions", None),
    ("gradtail.engine", "nesterov_update", "engine.nesterov_update", None),
    ("gradtail.engine", "batch_gradients", "mlp.batch_gradients", _batch_gradients),
    ("gradtail.engine", "softmax", "mlp.softmax", None),
    ("gradtail.engine", "entropy_scores", "baselines.entropy_scores", None),
    ("gradtail.engine", "step_arrays", "algorithm.step_arrays", _step_arrays),
    ("gradtail.engine", "sample_patches", "patches.sample_patches", _sample_patches),
    ("gradtail.engine", "patch_mean_loss", "patches.patch_mean_loss", None),
    ("gradtail.engine", "forward_batch", "mlp.forward_batch", _forward_rows),
    ("gradtail.analysis", "forward_batch", "mlp.forward_batch", _forward_rows),
    ("gradtail.figures", "forward_batch", "mlp.forward_batch", _forward_rows),
    ("gradtail.cli", "experiment_report", "analysis.experiment_report", None),
    ("gradtail.cli", "class_metrics", "analysis.class_metrics", None),
    ("gradtail.cli", "label_examples", "analysis.label_examples", None),
    ("gradtail.analysis", "boundary_distance", "analysis.boundary_distance", _points),
    ("gradtail.cli", "boundary_disagreement", "analysis.boundary_disagreement", None),
    ("gradtail.analysis", "boundary_disagreement", "analysis.boundary_disagreement", None),
    ("gradtail.cli", "dense_band_mre", "analysis.dense_band_mre", None),
    ("gradtail.cli", "scatter_figure", "figures.scatter_figure", SVG_BYTES),
    ("gradtail.cli", "prediction_figure", "figures.prediction_figure", SVG_BYTES),
    ("gradtail.cli", "tail_figure", "figures.tail_figure", SVG_BYTES),
    ("gradtail.cli", "entropy_figure", "figures.entropy_figure", SVG_BYTES),
    ("gradtail.cli", "save_model", "records.save_model", WRITE_BYTES),
    ("gradtail.cli", "save_step_log", "records.save_step_log", WRITE_BYTES),
    ("gradtail.cli", "save_trace", "records.save_trace", WRITE_BYTES),
    ("gradtail.cli", "save_gradtail_state", "records.save_gradtail_state", WRITE_BYTES),
    ("gradtail.cli", "save_patch_log", "records.save_patch_log", WRITE_BYTES),
    ("gradtail.cli", "save_report", "records.save_report", WRITE_BYTES),
    ("gradtail.cli", "write_record", "records.write_record", WRITE_BYTES),
    ("gradtail.cli", "load_model", "records.load_model", READ_BYTES),
    ("gradtail.cli", "load_step_log", "records.load_step_log", READ_BYTES),
    ("gradtail.cli", "load_trace", "records.load_trace", READ_BYTES),
]

ROOT = "cli"  # the span the harness opens around gradtail.cli.main


class Tracer:
    """In-memory span recorder plus the rebinding of ``TARGETS``."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.op_id = -1
        self._stack = [-1]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, counter=None):
        index = self._name_index(name)
        counts = self.counts[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, index, start, end, parent, self.op_id))
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every present target; record the absent ones once."""
        for module_name, attr, name, counter in TARGETS:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                if label not in self.absent:
                    self.absent.append(label)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "name", "start_s", "end_s", "parent_id", "op_id"])
            for span_id, index, start, end, parent, op in self.spans:
                writer.writerow([span_id, self.names[index], repr(start), repr(end), parent, op])

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per layer name: total self time, total span time, span count.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            child[parent] += end - start
        self_s, total_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for span_id, index, start, end, _, _ in self.spans:
            name = self.names[index]
            self_s[name] += end - start - child[span_id]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_ops: int) -> dict[str, float]:
    """Per-layer metrics, per traced operation where they are sums.

    A layer that never ran (or whose target is absent) reads 0.
    """
    self_s, total_s, calls = tracer.layer_times()
    c = tracer.counts
    per_op = 1.0 / traced_ops

    out = {f"{name}.self_s": self_s.get(name, 0.0) * per_op for name in (
        ROOT,
        "engine.train", "engine.nesterov_update", "engine.train_dense",
        "mlp.batch_gradients", "mlp.softmax", "baselines.entropy_scores", "mlp.forward_batch",
        "algorithm.step_arrays", "patches.sample_patches", "patches.patch_mean_loss",
        "datasets.gen_two_gaussians", "datasets.gen_hard_variant", "datasets.gen_dense_task",
        "analysis.experiment_report", "analysis.boundary_distance",
        "analysis.boundary_disagreement", "analysis.dense_band_mre",
        "figures.scatter_figure", "figures.prediction_figure", "figures.tail_figure",
        "figures.entropy_figure",
        "records.save_model", "records.save_step_log", "records.save_trace",
        "records.save_gradtail_state", "records.save_patch_log", "records.save_report",
        "records.load_model", "records.load_step_log", "records.load_trace",
    )}
    for loop in ("engine.train", "engine.train_dense"):
        out[f"{loop}.us_per_step"] = 1e6 * _ratio(total_s.get(loop, 0.0), c[loop]["steps"])
    out["mlp.batch_gradients.calls"] = calls.get("mlp.batch_gradients", 0) * per_op
    out["mlp.batch_gradients.rows"] = c["mlp.batch_gradients"]["rows"] * per_op
    out["mlp.batch_gradients.grad_bytes"] = c["mlp.batch_gradients"]["grad_bytes"] * per_op
    out["mlp.forward_batch.rows"] = c["mlp.forward_batch"]["rows"] * per_op
    step_calls = calls.get("algorithm.step_arrays", 0)
    out["algorithm.step_arrays.calls"] = step_calls * per_op
    out["algorithm.step_arrays.rows"] = c["algorithm.step_arrays"]["rows"] * per_op
    out["algorithm.step_arrays.us_per_call"] = 1e6 * _ratio(
        self_s.get("algorithm.step_arrays", 0.0), step_calls
    )
    out["algorithm.undefined_frac"] = _ratio(
        c["algorithm.step_arrays"]["undefined"], c["algorithm.step_arrays"]["rows"]
    )
    out["algorithm.warmup_frac"] = _ratio(c["algorithm.step_arrays"]["warmup_calls"], step_calls)
    out["patches.regions_kept_frac"] = _ratio(
        calls.get("patches.patch_mean_loss", 0),
        c["patches.sample_patches"]["regions_proposed"],
    )
    out["analysis.boundary_distance.points"] = c["analysis.boundary_distance"]["points"] * per_op
    out["figures.svg_bytes"] = sum(
        c[name]["svg_bytes"] for name in list(c) if name.startswith("figures.")
    ) * per_op
    out["records.write_bytes"] = sum(
        c[name]["write_bytes"] for name in list(c) if name.startswith("records.")
    ) * per_op
    out["records.read_bytes"] = sum(
        c[name]["read_bytes"] for name in list(c) if name.startswith("records.")
    ) * per_op
    out["trace.absent_targets"] = float(len(tracer.absent))
    out["trace.spans"] = len(tracer.spans) * per_op
    return out
