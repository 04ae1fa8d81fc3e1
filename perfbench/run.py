"""Benchmark for the gradtail CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy_train --seed 0 --seconds 30 --trace 0

One client runs one CLI command at a time (a closed loop) in this process,
through ``gradtail.cli.main``, until the commands have taken ``--seconds``
seconds. Outputs are checked after each command, outside the timed region.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` commands run in pairs, untraced and traced on the
same inputs, and the JSON holds the per-layer metrics from the traced half.
Details (every operation time, machine facts, spans) go to
``.perfbench_out/<workload>-seed<n>-trace<t>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# workloads.py imports gradtail, which is importable only after the src/ check
WORKLOAD_NAMES = ("toy_train", "dense_demo", "analyze_runs")


class SetupFailed(RuntimeError):
    pass


def cap_blas_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_ENV}


def blas_facts(np) -> dict:
    """BLAS library name, build config and live thread count, where readable."""
    import ctypes

    info = {"name": "unknown", "threads": None, "config": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is not None:
                    info["threads"] = int(getter())
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    return info


def git_revision() -> str:
    """HEAD commit read from .git without starting git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_cli(main, argv: list[str]) -> tuple[object, float, str]:
    """One CLI command: (exit code or exception text, seconds, captured output)."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


def tree_digests(path: Path) -> dict[str, str]:
    """SHA-256 of every file under path, keyed by relative path."""
    digests = {}
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest = hashlib.sha256()
        with open(file, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        digests[str(file.relative_to(path))] = digest.hexdigest()
    return digests


def closed_loop(wl, inputs, main, work: Path, seconds: float, tracer=None) -> list[dict]:
    """Run one CLI command at a time until the commands took ``seconds``.

    With a tracer, commands run in pairs on the same inputs, one untraced and
    one traced, alternating which goes first. Outputs are checked after each
    command, outside the timed region. Returns one dict per command.
    """
    from tracing import ROOT as ROOT_SPAN

    traced_main = tracer.wrap(ROOT_SPAN, main) if tracer else None
    ops = []
    references: dict[int, dict[str, str]] = {}  # key -> digests of an untraced run
    busy, pair = 0.0, 0
    while busy < seconds:
        key = pair % wl.keys
        modes = (False,) if not tracer else ((False, True) if pair % 2 == 0 else (True, False))
        digests = {}
        for traced in modes:
            out = work / "ops" / f"op{len(ops):05d}"
            if traced:
                tracer.install()
                tracer.op_id = len(ops)
            try:
                code, elapsed, output = run_cli(
                    traced_main if traced else main, wl.argv(inputs, key, out)
                )
            finally:
                if traced:
                    tracer.uninstall()
            busy += elapsed
            problems = [] if code == 0 else [f"exit {code}: {output[-2000:]}"]
            if not problems:
                try:
                    problems = wl.check_op(inputs, key, out)
                except Exception:
                    problems = [f"check crashed: {traceback.format_exc()}"]
            digests[traced] = tree_digests(out)
            shutil.rmtree(out, ignore_errors=True)
            ops.append({"index": len(ops), "key": key, "traced": traced,
                        "seconds": elapsed, "problems": problems})
        # every run of the same inputs, traced or not, writes the same bytes
        reference = references.setdefault(key, digests[False])
        for op in ops[-len(modes):]:
            if digests[op["traced"]] != reference:
                op["problems"].append("artifacts differ from the untraced run of the same inputs")
        pair += 1
    return ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    nproc = len(os.sched_getaffinity(0))
    blas_env = cap_blas_threads(nproc)
    src = ROOT / "src"
    if not (src / "gradtail" / "cli.py").is_file():
        print(f"perfbench: no gradtail sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import gradtail
    import gradtail.cli
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if Path(gradtail.__file__).resolve().parent != (src / "gradtail").resolve():
        print(f"perfbench: imported gradtail from {gradtail.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def setup_run(argv: list[str]) -> None:
        code, _, output = run_cli(gradtail.cli.main, argv)
        if code != 0:
            raise SetupFailed(f"{' '.join(argv)} -> {code}\n{output}")

    # set-up, repeated; the last repeat's inputs feed the timed loop
    setup_times = []
    for k in range(SETUP_REPEATS):
        root = work / f"setup{k}"
        root.mkdir()
        start = time.perf_counter()
        inputs = wl.setup(setup_run, root, args.seed)
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer() if args.trace else None
    ops = closed_loop(wl, inputs, gradtail.cli.main, work, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    (work / "checks").mkdir()
    try:
        run_problems = wl.check_run(setup_run, inputs, work / "checks")
    except Exception:
        run_problems = [f"run check crashed: {traceback.format_exc()}"]

    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": statistics.median(untraced),
            "work_per_s": wl.work_per_op * len(untraced) / sum(untraced),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
    else:
        traced = [op["seconds"] for op in ops if op["traced"]]
        values = layer_metrics(tracer, len(traced))
        values["trace.overhead_ratio"] = statistics.median(
            t / u for t, u in zip(traced, untraced)
        )
        tracer.write_spans(work / "spans.csv")
    # names and units come from BENCHMARK.json, so the output matches it exactly
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in spec["per_layer" if tracer else "end_to_end"]}

    facts = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 client, in-process gradtail.cli.main",
        "work_unit": wl.work_unit, "work_per_op": wl.work_per_op,
        "untraced_ops": len(untraced), "inputs": wl.facts(inputs),
        "python": platform.python_version(), "platform": platform.platform(),
        "numpy": np.__version__, "blas": blas_facts(np), "blas_env": blas_env,
        "nproc": nproc, "git_revision": git_revision(),
        "setup_s_each": setup_times,
        "absent_targets": tracer.absent if tracer else [],
    }
    details = {"facts": facts, "metrics": {k: v for k, (v, _) in metrics.items()},
               "ops": ops, "run_problems": run_problems}
    (work / "result.json").write_text(json.dumps(details, indent=1, default=str))
    for leftover in ("ops", "checks", *(f"setup{k}" for k in range(SETUP_REPEATS))):
        shutil.rmtree(work / leftover, ignore_errors=True)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed} (details: {work.relative_to(ROOT)}/result.json)")
    for key in ("python", "numpy", "blas", "blas_env", "nproc", "git_revision", "inputs",
                "absent_targets"):
        print(f"  {key}: {facts[key]}")
    for op in ops:
        for problem in op["problems"]:
            print(f"  op {op['index']} FAILED: {problem}")
    for problem in run_problems:
        print(f"  run check FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    if tracer is None:
        print(f"  op_s_p50 over n={len(untraced)} commands; "
              f"{wl.work_unit}_per_s = work_per_s")
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        sys.exit(1)
