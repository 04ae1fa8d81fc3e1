"""The benchmark's per-layer metrics rebind named gradtail functions; a rename
or fold that drops one would silently zero its metrics. Every target must
still resolve, and the step loop must still call each per-step target through
the rebound name."""

import importlib.util
from pathlib import Path

from gradtail.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_present():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_traced_train_records_every_step_layer(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text("train.steps: 70\n")  # two trace flushes and a partial one
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "runs")]) == 0
    finally:
        tracer.uninstall()
    _, _, calls = tracer.layer_times()
    for name in ("algorithm.step_arrays", "mlp.batch_gradients", "engine.nesterov_update"):
        assert calls[name] == 70, name
    for name in ("mlp.softmax", "baselines.entropy_scores"):
        assert calls[name] >= 1, name
    assert calls["records.save_trace"] == 1


def test_traced_dense_demo_records_every_writer(tmp_path):
    """The run-dir writer calls the records layer through the rebound names,
    and the dense result still carries the step log the step counter reads."""
    config = tmp_path / "config.txt"
    config.write_text("train.steps: 5\ndense.height: 16\ndense.width: 16\n")
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["dense-demo", "--config", str(config), "--out", str(tmp_path / "dense")]) == 0
    finally:
        tracer.uninstall()
    _, _, calls = tracer.layer_times()
    for name in ("records.save_model", "records.save_step_log", "records.save_patch_log"):
        assert calls[name] == 2, name  # one uniform and one gradtail run dir
    assert calls["records.save_gradtail_state"] >= 1
    assert tracer.counts["engine.train_dense"]["steps"] == 10
