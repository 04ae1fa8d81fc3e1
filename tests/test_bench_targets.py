"""The benchmark's per-layer metrics rebind named gradtail functions; a rename
or fold that drops one would silently zero its metrics. Every target must
still resolve."""

import importlib.util
from pathlib import Path

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
