"""The three benchmark workloads.

Each workload drives ``gradtail.cli.main`` in-process. ``setup`` writes the
inputs for one workload seed (config files, and for ``analyze_runs`` the run
directories it reads), ``argv`` gives one operation (one CLI command), and
the ``check_*`` methods test outputs outside the timed region. A check returns
a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import numpy as np

from gradtail.analysis import boundary_distance
from gradtail.datasets import gen_hard_variant, gen_two_gaussians
from gradtail.engine import DENSE_DIMS, TrainConfig
from gradtail.records import (
    config_from_manifest,
    format_manifest,
    load_model,
    parse_manifest,
    read_record,
)

TOY_STEPS = 1500  # per `train` command, at the default toy schedule
DENSE_STEPS = 50  # per strategy, per `dense-demo` command, on the default 64x64 grid
RUN_STEPS = 500  # per run directory trained for `analyze_runs`
PREFIX_STEPS = 200  # default path vs reference_mode comparison
PREFIX_RTOL = 1e-12
DISTANCE_TOL = 1e-4  # boundary_distance's bisection tolerance
DISTANCE_SAMPLE = 256


def _param_count(dims) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def _config_text(seed: int, steps: int, kind: str = "standard") -> str:
    return (
        f"data.kind: {kind}\ndata.seed: {seed}\nmodel.seed: {seed}\n"
        f"train.seed: {seed}\ntrain.steps: {steps}\n"
    )


def _model_problems(path: Path) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    model = load_model(path)
    arrays = [*model.weights, *model.biases]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return [f"non-finite parameters in {path}"]
    return []


def _flat_params(path: Path) -> np.ndarray:
    model = load_model(path)
    return np.concatenate([a.ravel() for a in (*model.weights, *model.biases)])


def _table(path: Path) -> dict[str, dict[str, str]]:
    """Rows of an aligned summary table keyed by their first column."""
    lines = path.read_text().splitlines()
    header = lines[0].split()
    return {cells[0]: dict(zip(header, cells)) for cells in map(str.split, lines[1:])}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def closed_form_distance(points: np.ndarray, common, uncommon) -> np.ndarray:
    """Euclidean distance to the equal-density set of two isotropic Gaussians.

    With a = 1/s_common and b = 1/s_uncommon, equal log-density reads
    a|x - m_c|^2 - b|x - m_u|^2 = 2 log(s_u / s_c): an Apollonius circle with
    centre (a m_c - b m_u)/(a - b), or a line when the scales match.
    """
    pts = np.asarray(points, dtype=np.float64)
    mc, mu = np.asarray(common.mean), np.asarray(uncommon.mean)
    a, b = 1.0 / common.cov_scale, 1.0 / uncommon.cov_scale
    k = 2.0 * math.log(uncommon.cov_scale / common.cov_scale)
    if a == b:
        normal = 2.0 * a * (mu - mc)
        offset = a * (mc @ mc) - b * (mu @ mu) - k
        return np.abs(pts @ normal + offset) / np.linalg.norm(normal)
    centre = (a * mc - b * mu) / (a - b)
    radius = math.sqrt(centre @ centre - (a * (mc @ mc) - b * (mu @ mu) - k) / (a - b))
    return np.abs(np.linalg.norm(pts - centre, axis=1) - radius)


class ToyTrain:
    name = "toy_train"
    work_unit = "steps"
    work_per_op = TOY_STEPS
    keys = 1

    def setup(self, run, root: Path, seed: int) -> dict:
        config = root / "toy.cfg"
        config.write_text(_config_text(seed, TOY_STEPS))
        warm = root / "warmup.cfg"
        warm.write_text(_config_text(seed, 100))
        run(["train", "--config", str(warm), "--out", str(root / "warmup")])
        return {"seed": seed, "config": config}

    def argv(self, inputs: dict, key: int, out: Path) -> list[str]:
        return ["train", "--config", str(inputs["config"]), "--out", str(out)]

    def check_op(self, inputs: dict, key: int, out: Path) -> list[str]:
        run_dir = out / "run-gradtail-s000"
        missing = [f for f in ("manifest.txt", "model.txt", "steps.csv", "trace.csv", "state.txt")
                   if not (run_dir / f).is_file()]
        if missing:
            return [f"missing {', '.join(missing)}"]
        problems = []
        text = (run_dir / "manifest.txt").read_text()
        config, data_seed, model_seed, kind = config_from_manifest(parse_manifest(text))
        if format_manifest(config, data_seed, model_seed, kind) != text:
            problems.append("manifest does not round-trip through config_from_manifest")
        expected = (TOY_STEPS, "gradtail", 128, (2, 5, 2), True, inputs["seed"], "standard")
        got = (config.steps, config.strategy, config.batch_size, config.model_dims,
               config.trace_logging, data_seed, kind)
        if got != expected:
            problems.append(f"manifest config {got} != {expected}")
        steps_rows = len((run_dir / "steps.csv").read_text().splitlines()) - 1
        if steps_rows != TOY_STEPS:
            problems.append(f"steps.csv has {steps_rows} rows, expected {TOY_STEPS}")
        return problems + _model_problems(run_dir / "model.txt")

    def check_run(self, run, inputs: dict, root: Path) -> list[str]:
        """A short prefix of the default path matches the serial reference_mode path."""
        config = root / "prefix.cfg"
        config.write_text(_config_text(inputs["seed"], PREFIX_STEPS))
        run(["train", "--config", str(config), "--out", str(root / "prefix")])
        run(["train", "--config", str(config), "--out", str(root / "reference"),
             "--reference-mode"])
        fast = _flat_params(root / "prefix" / "run-gradtail-s000" / "model.txt")
        ref = _flat_params(root / "reference" / "run-gradtail-s000" / "model.txt")
        rel = float(np.linalg.norm(fast - ref) / np.linalg.norm(ref))
        inputs["prefix_rel_diff"] = rel
        if not rel <= PREFIX_RTOL:
            return [f"default path differs from reference_mode by {rel:.3g} relative"]
        return []

    def facts(self, inputs: dict) -> dict:
        toy = TrainConfig()
        return {"steps_per_op": TOY_STEPS, "batch": toy.batch_size,
                "model_dims": list(toy.model_dims), "params": _param_count(toy.model_dims),
                "examples": 10_400, "strategy": toy.strategy, "traces": toy.trace_logging,
                "prefix_steps": PREFIX_STEPS,
                "prefix_rel_diff": inputs.get("prefix_rel_diff")}


class DenseDemo:
    name = "dense_demo"
    work_unit = "steps"
    work_per_op = 2 * DENSE_STEPS  # uniform and gradtail side by side
    keys = 1

    def setup(self, run, root: Path, seed: int) -> dict:
        config = root / "dense.cfg"
        config.write_text(_config_text(seed, DENSE_STEPS))
        warm = root / "warmup.cfg"
        warm.write_text(_config_text(seed, 5))
        run(["dense-demo", "--config", str(warm), "--out", str(root / "warmup")])
        return {"seed": seed, "config": config}

    def argv(self, inputs: dict, key: int, out: Path) -> list[str]:
        return ["dense-demo", "--config", str(inputs["config"]), "--out", str(out)]

    def check_op(self, inputs: dict, key: int, out: Path) -> list[str]:
        if not (out / "dense.txt").is_file():
            return ["missing dense.txt"]
        row = _table(out / "dense.txt").get(str(inputs["seed"]))
        if row is None:
            return ["dense.txt has no row for the seed"]
        problems = [f"{col} is {row.get(col)!r}, not finite"
                    for col in ("uniform_total_mre", "gradtail_total_mre")
                    if not _finite(row.get(col, ""))]
        for strategy in ("uniform", "gradtail"):
            run_dir = out / f"dense-{strategy}-s000"
            problems += _model_problems(run_dir / "model.txt")
            steps_rows = len((run_dir / "steps.csv").read_text().splitlines()) - 1
            if steps_rows != DENSE_STEPS:
                problems.append(f"{strategy} steps.csv has {steps_rows} rows")
        return problems

    def check_run(self, run, inputs: dict, root: Path) -> list[str]:
        return []

    def facts(self, inputs: dict) -> dict:
        return {"steps_per_op": 2 * DENSE_STEPS, "grid": [64, 64], "pixels": 4096,
                "model_dims": list(DENSE_DIMS), "params": _param_count(DENSE_DIMS),
                "patch_count": 6,
                "strategies": ["uniform", "gradtail"]}


class AnalyzeRuns:
    name = "analyze_runs"
    work_unit = "runs"
    work_per_op = 2  # one standard and one hard run directory
    keys = 2  # operations alternate between two (standard, hard) pairs

    def setup(self, run, root: Path, seed: int) -> dict:
        runs = root / "runs"
        runs.mkdir()
        for kind in ("standard", "hard"):
            config = root / f"{kind}.cfg"
            config.write_text(_config_text(seed, RUN_STEPS, kind))
            trained = root / f"trained-{kind}"
            run(["train", "--config", str(config), "--seeds", str(self.keys),
                 "--out", str(trained)])
            for k in range(self.keys):
                (trained / f"run-gradtail-s{k:03d}").rename(runs / f"{kind}-s{k:03d}")
            shutil.rmtree(trained)
        return {"seed": seed, "runs": runs}

    def _pair(self, inputs: dict, key: int) -> list[Path]:
        return [inputs["runs"] / f"{kind}-s{key:03d}" for kind in ("standard", "hard")]

    def argv(self, inputs: dict, key: int, out: Path) -> list[str]:
        return ["analyze", *map(str, self._pair(inputs, key)), "--out", str(out)]

    def check_op(self, inputs: dict, key: int, out: Path) -> list[str]:
        if not (out / "summary.txt").is_file():
            return ["missing summary.txt"]
        summary = _table(out / "summary.txt")
        problems = []
        for run_dir in self._pair(inputs, key):
            row = summary.get(run_dir.name)
            if row is None:
                problems.append(f"{run_dir.name} missing from summary.txt")
                continue
            for col in ("total_accuracy", "balanced_accuracy", "boundary_disagreement",
                        "rare.size"):
                if not _finite(row.get(col, "")):
                    problems.append(f"{run_dir.name}: {col} is {row.get(col)!r}")
            if _finite(row.get("boundary_disagreement", "")) and not (
                0.0 <= float(row["boundary_disagreement"]) <= 1.0
            ):
                problems.append(f"{run_dir.name}: boundary_disagreement outside [0, 1]")
            problems += self._distance_problems(run_dir, out / run_dir.name / "report.txt")
            for svg in ("data", "predictions", "tail", "rare", "entropy"):
                if not (out / run_dir.name / f"{svg}.svg").is_file():
                    problems.append(f"{run_dir.name}: missing {svg}.svg")
        return problems

    @staticmethod
    def _dataset(run_dir: Path):
        _, data_seed, _, kind = config_from_manifest(
            parse_manifest((run_dir / "manifest.txt").read_text())
        )
        return (gen_hard_variant if kind == "hard" else gen_two_gaussians)(data_seed)

    def _distance_problems(self, run_dir: Path, report: Path) -> list[str]:
        """The report's mean boundary distance matches the closed form."""
        if not report.is_file():
            return [f"{run_dir.name}: missing report.txt"]
        _, fields, _ = read_record(report)
        dataset = self._dataset(run_dir)
        exact = float(closed_form_distance(dataset.points, *dataset.specs[:2]).mean())
        got = fields.get("rare.mean_distance_all", "")
        if not _finite(got) or abs(float(got) - exact) > DISTANCE_TOL:
            return [f"{run_dir.name}: rare.mean_distance_all {got} vs closed form {exact!r}"]
        return []

    def check_run(self, run, inputs: dict, root: Path) -> list[str]:
        """A sample of boundary_distance values matches the closed form per point."""
        problems, worst = [], 0.0
        for run_dir in self._pair(inputs, 0):
            dataset = self._dataset(run_dir)
            rng = np.random.default_rng(inputs["seed"])
            sample = dataset.points[rng.choice(dataset.n, DISTANCE_SAMPLE, replace=False)]
            common, uncommon = dataset.specs[:2]
            diff = np.abs(boundary_distance(sample, common, uncommon)
                          - closed_form_distance(sample, common, uncommon))
            worst = max(worst, float(diff.max()))
        inputs["distance_max_abs_diff"] = worst
        if not worst <= DISTANCE_TOL:
            problems.append(f"boundary_distance off the closed form by {worst:.3g}")
        return problems

    def facts(self, inputs: dict) -> dict:
        return {"run_dirs": 2 * self.keys, "run_dirs_per_op": 2, "run_steps": RUN_STEPS,
                "kinds": ["standard", "hard"], "examples_per_run": 10_400,
                "distance_sample": DISTANCE_SAMPLE,
                "distance_max_abs_diff": inputs.get("distance_max_abs_diff")}


WORKLOADS = {wl.name: wl for wl in (ToyTrain(), DenseDemo(), AnalyzeRuns())}
