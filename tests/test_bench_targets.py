"""The benchmark's per-layer metrics rebind named gradtail functions; a rename
or fold that drops one would silently zero its metrics. Every target must
still resolve, and the step loop must still call each per-step target through
the rebound name."""

import importlib.util
from pathlib import Path

from gradtail import cli
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
        assert calls[name] == 3, name  # once per flush, through engine's names
    assert calls["records.save_trace"] == 1


def test_traced_dense_demo_records_every_writer(tmp_path, monkeypatch):
    """The run-dir writer calls the records layer through the rebound names,
    and the dense result still carries the step log the step counter reads.
    One usable CPU keeps both runs in this process, where the tracer sees
    them: at two, a forked worker trains and writes the gradtail run."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
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


def test_traced_analyze_records_every_figure_and_reader(tmp_path):
    """analyze calls every figure writer and both CSV readers through the
    rebound names, and the figure counter sees every SVG it writes. The model
    is forwarded once over the dataset and once over the evaluation grid,
    which the disagreement and both contours share."""
    config = tmp_path / "config.txt"
    config.write_text("train.steps: 40\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "runs")]) == 0
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = tmp_path / "analysis"
        assert main(["analyze", str(tmp_path / "runs" / "run-gradtail-s000"), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    _, _, calls = tracer.layer_times()
    figures = [name for _, _, name, _ in tracing.TARGETS if name.startswith("figures.")]
    assert len(figures) == 4
    for name in (*figures, "records.load_trace", "records.load_step_log"):
        assert calls[name] >= 1, name
    assert calls["figures.tail_figure"] == 2  # tail.svg and rare.svg
    assert tracer.counts["mlp.forward_batch"]["rows"] == 10_400 + 200 * 200
    svg_bytes = sum(path.stat().st_size for path in out.rglob("*.svg"))
    assert tracing.layer_metrics(tracer, 1)["figures.svg_bytes"] == svg_bytes > 0
