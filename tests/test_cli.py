"""End-to-end subcommand tests against the documented exit codes.

Runs use shortened schedules via config files; the full default schedule
lives in the acceptance suite.
"""

import random
import shutil
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from gradtail import cli
from gradtail.cli import main
from gradtail.records import (
    load_gradtail_state,
    load_model,
    load_step_log,
    parse_manifest,
    read_record,
    save_gradtail_state,
)

QUICK_TRAIN = """\
# short schedule for tests
train.steps: 40
train.batch_size: 64
train.strategy: gradtail
"""

SVG = "{http://www.w3.org/2000/svg}"

# a schedule whose loss turns non-finite within a few dozen steps
BLOW_UP = "train.learning_rate: 1e6\ntrain.loss: squared\ntrain.momentum: 0.95\n"


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def dataset_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return lines[1:]  # drop the header


def cpus(monkeypatch, count):
    """Make the CLI see ``count`` usable CPUs: 1 runs every item in-process."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def read_table(path):
    """Rows of an aligned summary table as dicts keyed by its header."""
    header, *rows = [line.split() for line in path.read_text().splitlines()]
    return [dict(zip(header, row)) for row in rows]


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_sweep_param_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--param", "nonsense", "--values", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ["gen-data"], ["train"], ["sweep", "--param", "pivot", "--values", "0"], ["dense-demo"],
], ids=lambda command: command[0])
def test_seed_count_below_one_exits_2(tmp_path, capsys, command, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*command, "--seeds", value, "--out", str(out)])
    assert err.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_takes_no_seeds_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--seeds", "2", "--out", str(tmp_path / "analysis"), str(tmp_path)])
    assert err.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "train.stepz: 5\n")
    rv = main(["gen-data", "--config", config, "--out", str(tmp_path / "d")])
    assert rv == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["train.trace_logging: True", "train.reference_mode: yes"])
def test_boolean_other_than_true_or_false_is_config_error(tmp_path, capsys, line):
    config = write_config(tmp_path, "train.steps: 5\n" + line + "\n")
    out = tmp_path / "runs"
    assert main(["train", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "true or false" in err
    assert not out.exists()


@pytest.mark.parametrize("weights", ["1.0", "1.0,3.0,7.0"])
def test_class_weights_of_wrong_length_are_config_error(tmp_path, capsys, weights):
    text = f"train.steps: 5\ntrain.strategy: inverse_frequency\ntrain.class_weights: {weights}\n"
    config = write_config(tmp_path, text)
    out = tmp_path / "runs"
    assert main(["train", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "class_weights has" in err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "train.hidden_activation: sigmoid", "train.model_dims: 2,0,2", "train.weight_scale: -1.0",
])
def test_gen_data_refuses_a_model_train_would_refuse(tmp_path, capsys, line):
    config = write_config(tmp_path, line + "\n")
    out = tmp_path / "data"
    assert main(["gen-data", "--config", config, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["gen-data"], ["train"], ["sweep", "--param", "pivot", "--values", "0"],
])
def test_toy_commands_refuse_dense_keys(tmp_path, capsys, command):
    config = write_config(tmp_path, "train.steps: 5\ndense.height: 16\n")
    out = tmp_path / "out"
    assert main([*command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown manifest keys" in err and "dense.height" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_toy_commands_send_dense_runs_to_dense_demo(tmp_path, capsys, command):
    config = write_config(tmp_path, "data.kind: dense\ntrain.steps: 5\ndense.height: 16\n")
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert "dense runs come from dense-demo or a dense sweep" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_writes_default_dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out)]) == 0
    csv_path = out / "dataset-s000.csv"
    assert len(dataset_rows(csv_path)) == 10400
    manifest = parse_manifest((out / "manifest.txt").read_text())
    assert manifest["data.kind"] == "standard"


def test_gen_data_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--out", str(out_a)]) == 0
    assert main(["gen-data", "--out", str(out_b)]) == 0
    assert (out_a / "dataset-s000.csv").read_bytes() == (out_b / "dataset-s000.csv").read_bytes()
    assert (out_a / "manifest.txt").read_bytes() == (out_b / "manifest.txt").read_bytes()


def test_gen_data_multiple_seeds(tmp_path):
    out = tmp_path / "data"
    config = write_config(tmp_path, "data.seed: 7\n")
    assert main(["gen-data", "--config", config, "--seeds", "2", "--out", str(out)]) == 0
    assert (out / "dataset-s007.csv").exists() and (out / "dataset-s008.csv").exists()


def test_gen_data_hard_variant_passes_dominance_gate(tmp_path):
    out = tmp_path / "hard"
    config = write_config(tmp_path, "data.kind: hard\n")
    assert main(["gen-data", "--config", config, "--out", str(out)]) == 0
    assert (out / "dataset-s000.csv").exists()


def test_gen_data_rejects_unknown_kind(tmp_path, capsys):
    config = write_config(tmp_path, "data.kind: mystery\n")
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 2
    assert "unknown dataset kind" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_run_directory(tmp_path):
    config = write_config(tmp_path, QUICK_TRAIN)
    out = tmp_path / "runs"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    run = out / "run-gradtail-s000"
    for name in ("manifest.txt", "model.txt", "steps.csv", "trace.csv", "state.txt"):
        assert (run / name).exists(), name
    model = load_model(run / "model.txt")
    assert model.layer_dims == [2, 5, 2]


def test_train_seed_batch_records_distinct_seeds(tmp_path):
    config = write_config(tmp_path, QUICK_TRAIN)
    out = tmp_path / "runs"
    assert main(["train", "--config", config, "--seeds", "2", "--out", str(out)]) == 0
    seeds = set()
    for k in range(2):
        manifest = parse_manifest((out / f"run-gradtail-s{k:03d}" / "manifest.txt").read_text())
        seeds.add((manifest["data.seed"], manifest["train.seed"]))
    assert len(seeds) == 2


def test_train_reference_mode_reruns_identically(tmp_path):
    config = write_config(tmp_path, "train.steps: 15\ntrain.batch_size: 32\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", config, "--reference-mode", "--out", str(out_a)]) == 0
    assert main(["train", "--config", config, "--reference-mode", "--out", str(out_b)]) == 0
    for name in ("steps.csv", "model.txt", "manifest.txt"):
        a = (out_a / "run-gradtail-s000" / name).read_bytes()
        b = (out_b / "run-gradtail-s000" / name).read_bytes()
        assert a == b, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up is the point
def test_train_divergence_exits_3_with_snapshot(tmp_path, capsys, monkeypatch):
    toy = write_config(tmp_path, "train.steps: 400\n" + BLOW_UP)
    dense = write_config(
        tmp_path,
        "data.kind: dense\ntrain.steps: 200\ndense.height: 12\ndense.width: 12\n" + BLOW_UP,
        "dense.txt",
    )
    commands = {
        "train": ["train", "--config", toy, "--seeds", "2"],
        "sweep": ["sweep", "--config", toy, "--param", "max_weight", "--values", "5",
                  "--seeds", "2"],
        "dense-sweep": ["sweep", "--config", dense, "--param", "pivot", "--values", "0",
                        "--seeds", "2"],
        "dense-demo": ["dense-demo", "--config", dense],
    }
    for name, argv in commands.items():
        snapshots = []
        for count in (1, 2):  # at 2 CPUs the second run diverges in a worker process
            cpus(monkeypatch, count)
            out = tmp_path / f"{name}-cpus{count}"
            assert main([*argv, "--out", str(out)]) == 3, name
            err = capsys.readouterr().err
            assert "numerical abort" in err and "divergence.txt" in err, name
            snapshots.append((out / "divergence.txt").read_bytes())
        # the first run in input order decides, as in a serial loop
        assert snapshots[0] == snapshots[1], name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unwritable_divergence_snapshot_exits_4(tmp_path, capsys):
    config = write_config(tmp_path, "train.steps: 400\n" + BLOW_UP)
    out = tmp_path / "runs"
    out.write_text("a file where the run dir should go\n")
    assert main(["train", "--config", config, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical abort" in err and "I/O error" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-runs")
    config = tmp_path / "config.txt"
    config.write_text(QUICK_TRAIN)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(config), "--seeds", "2", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def dense_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-dense")
    config = tmp_path / "config.txt"
    config.write_text("train.steps: 20\ndense.height: 16\ndense.width: 16\n")
    out = tmp_path / "dense"
    assert main(["dense-demo", "--config", str(config), "--out", str(out)]) == 0
    return out


def assert_svg_without_circles(path):
    """The file parses as XML and draws every point as a path piece."""
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG}svg"
    assert not root.findall(f".//{SVG}circle"), path


def test_analyze_emits_reports_and_figures(trained_runs, tmp_path):
    out = tmp_path / "analysis"
    run_dirs = sorted(str(p) for p in trained_runs.iterdir())
    assert main(["analyze", "--out", str(out), *run_dirs]) == 0
    for per_run in (out / "run-gradtail-s000", out / "run-gradtail-s001"):
        for name in ("report.txt", "report_table.txt"):
            assert (per_run / name).exists(), name
        for name in ("data.svg", "predictions.svg", "tail.svg", "rare.svg", "entropy.svg"):
            assert_svg_without_circles(per_run / name)
    summary = (out / "summary.txt").read_text()
    assert "median" in summary  # cross-seed row present with two runs
    assert "balanced_accuracy" in summary


def test_analyze_single_run_has_no_median_row(trained_runs, tmp_path):
    out = tmp_path / "analysis"
    run = str(sorted(trained_runs.iterdir())[0])
    assert main(["analyze", "--out", str(out), run]) == 0
    assert "median" not in (out / "summary.txt").read_text()


def test_analyze_missing_run_dir_exits_4(tmp_path, capsys):
    rv = main(["analyze", "--out", str(tmp_path / "a"), str(tmp_path / "nope")])
    assert rv == 4
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("second", ["copy", "same_path", "trailing_slash"])
def test_analyze_refuses_run_dirs_of_one_name(trained_runs, tmp_path, capsys, second):
    """Each run writes into <out>/<run dir name>, so a second run of the same
    name would overwrite the first's report and figures."""
    first = sorted(trained_runs.iterdir())[0]
    other = {
        "copy": lambda: shutil.copytree(first, tmp_path / "elsewhere" / first.name),
        "same_path": lambda: first,
        "trailing_slash": lambda: f"{first}/",
    }[second]()
    out = tmp_path / "analysis"
    assert main(["analyze", "--out", str(out), str(first), str(other)]) == 2
    assert f"run dirs share a name: {first.name}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cwd, arg", [("run", "."), ("run/sub", "..")])
def test_analyze_names_a_relative_run_dir_by_its_directory(
    trained_runs, tmp_path, monkeypatch, cwd, arg
):
    """`analyze .` from inside a run dir writes into <out>/<its name>, not
    beside summary.txt in <out> itself."""
    shutil.copytree(sorted(trained_runs.iterdir())[0], tmp_path / "run")
    (tmp_path / "run" / "sub").mkdir()
    monkeypatch.chdir(tmp_path / cwd)
    out = tmp_path / "analysis"
    assert main(["analyze", "--out", str(out), arg]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["run", "summary.txt"]
    assert (out / "run" / "report.txt").exists() and (out / "run" / "tail.svg").exists()
    assert [row["run"] for row in read_table(out / "summary.txt")] == ["run"]


def test_analyze_missing_trace_degrades_explicitly(trained_runs, tmp_path, capsys):
    clone = tmp_path / "run-clone"
    shutil.copytree(sorted(trained_runs.iterdir())[0], clone)
    (clone / "trace.csv").unlink()
    out = tmp_path / "analysis"
    assert main(["analyze", "--out", str(out), str(clone)]) == 0
    assert "degraded" in capsys.readouterr().err
    report = (out / "run-clone" / "report.txt").read_text()
    assert "trace: absent" in report
    assert "balanced_accuracy" in report


def test_degraded_disagreement_matches_standalone(trained_runs, tmp_path):
    """The trace-less report's disagreement, read off the run's shared grid,
    equals the one that forwards the model over its own grid."""
    from gradtail.analysis import _eval_grid
    from gradtail.datasets import analytic_boundary_side
    from gradtail.mlp import _row_argmax, forward_batch

    clone = tmp_path / "run-clone"
    shutil.copytree(sorted(trained_runs.iterdir())[0], clone)
    (clone / "trace.csv").unlink()
    assert main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)]) == 0
    _, fields, _ = read_record(tmp_path / "analysis" / "run-clone" / "report.txt")
    _, _, dataset = cli._read_run_manifest(clone)
    common, uncommon = dataset.specs[:2]
    pts = _eval_grid()
    oracle = analytic_boundary_side(pts, common, uncommon)
    side = np.where(
        _row_argmax(forward_batch(load_model(clone / "model.txt"), pts)) == common.label, 1.0, -1.0
    )
    assert fields["boundary_disagreement"] == repr(float(((oracle != 0.0) & (side != oracle)).mean()))


def test_analyze_zero_step_run_degrades(trained_runs, tmp_path, capsys, monkeypatch):
    """The zero-step run has a trace.csv, so it is analyzed in a worker
    process, and the parent prints the worker's warning."""
    cpus(monkeypatch, 2)
    config = write_config(tmp_path, "train.steps: 0\n")
    runs = tmp_path / "runs"
    assert main(["train", "--config", config, "--out", str(runs)]) == 0
    out = tmp_path / "analysis"
    normal = sorted(trained_runs.iterdir())[1]  # run-gradtail-s001
    zero = runs / "run-gradtail-s000"
    assert main(["analyze", "--out", str(out), str(normal), str(zero)]) == 0
    err = capsys.readouterr().err
    assert "degraded" in err and "config error" not in err
    report = (out / "run-gradtail-s000" / "report.txt").read_text()
    assert "quartile: absent" in report
    assert "trace: 0 examples seen" in report


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_rejects_mismatched_strategy(tmp_path, capsys):
    config = write_config(tmp_path, QUICK_TRAIN)  # strategy gradtail
    out = tmp_path / "sweep"
    rv = main(["sweep", "--config", config, "--param", "inverse_frequency_w",
               "--values", "1,5", "--out", str(out)])
    assert rv == 2
    assert "applies to strategy" in capsys.readouterr().err
    assert not (out / "sweep.txt").exists()  # failed before any run


def test_sweep_max_weight_table_and_panel(tmp_path):
    config = write_config(tmp_path, "train.steps: 30\ntrain.batch_size: 64\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--param", "max_weight",
                 "--values", "1,5", "--out", str(out)]) == 0
    table = (out / "sweep.txt").read_text()
    assert "median_balanced" in table
    assert len([l for l in table.splitlines() if l and not l.startswith("#")]) == 3
    assert_svg_without_circles(out / "panel.svg")


def test_sweep_inverse_frequency(tmp_path):
    config = write_config(
        tmp_path,
        "train.steps: 30\ntrain.batch_size: 64\ntrain.strategy: inverse_frequency\n",
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--param", "inverse_frequency_w",
                 "--values", "1,25", "--out", str(out)]) == 0
    assert "median_recall_uncommon" in (out / "sweep.txt").read_text()


def test_sweep_without_trace_logging(tmp_path):
    """A sweep reads only its four metrics, none of which needs a trace."""
    config = write_config(tmp_path, QUICK_TRAIN + "train.trace_logging: false\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--param", "pivot",
                 "--values", "0,0.5", "--seeds", "2", "--out", str(out)]) == 0
    _, header, *rows = [line.split() for line in (out / "sweep.txt").read_text().splitlines()]
    assert header[0] == "value" and [row[0] for row in rows] == ["0.0", "0.5"]
    assert all(len(row) == len(header) for row in rows)
    assert (out / "panel.svg").exists()


@pytest.mark.parametrize("param,strategy", [
    ("max_weight", "gradtail"),
    ("inverse_frequency_w", "inverse_frequency"),
])
def test_sweep_bad_later_value_fails_before_any_run(tmp_path, capsys, monkeypatch, param, strategy):
    config = write_config(tmp_path, f"train.steps: 50\ntrain.strategy: {strategy}\n")
    out = tmp_path / "sweep"
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
    rv = main(["sweep", "--config", config, "--param", param, "--values", "5,0.5",
               "--seeds", "2", "--out", str(out)])
    assert rv == 2
    assert "config error" in capsys.readouterr().err
    assert trained == []
    assert not out.exists()


@pytest.mark.parametrize("command,text", [
    (["train"], "train.learning_rate: nan\n"),
    (["train"], "gradtail.pivot: nan\n"),
    (["train"], "train.weight_scale: inf\n"),
    (["dense-demo"], "train.learning_rate: nan\n"),
    (["dense-demo"], "gradtail.pivot: -inf\n"),
    (["sweep", "--param", "pivot", "--values", "nan"], ""),
], ids=["train-lr", "train-pivot", "train-scale", "dense-lr", "dense-pivot", "sweep-pivot"])
def test_non_finite_config_value_exits_2_before_any_step(
    tmp_path, capsys, monkeypatch, command, text
):
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
    monkeypatch.setattr(cli, "train_dense", lambda *args, **kwargs: trained.append(args))
    config = write_config(tmp_path, text + "train.steps: 20\n")
    out = tmp_path / "out"
    assert main([*command, "--config", config, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert trained == []
    assert not out.exists()


@pytest.mark.parametrize("command,text,message", [
    (["gen-data"], "data.kind: mystery\n", "unknown dataset kind"),
    (["train"], "data.kind: mystery\n", "unknown dataset kind"),
    (["sweep", "--param", "pivot", "--values", "0"], "data.kind: mystery\n",
     "unknown dataset kind"),
    (["sweep", "--param", "pivot", "--values", "0"], "data.kind: dense\ndense.height: 0\n",
     "degenerate grid dims"),
    (["sweep", "--param", "pivot", "--values", "0"], "data.kind: dense\ndense.size_min: 0\n",
     "sizes and count must be positive"),
    (["dense-demo"], "dense.height: 0\n", "degenerate grid dims"),
    (["dense-demo"], "dense.size_min: 0\n", "sizes and count must be positive"),
    (["dense-demo"], "dense.patch_count: 0\n", "sizes and count must be positive"),
    (["dense-demo"], "dense.size_min: 12\ndense.size_max: 6\n", "size_min must be <= size_max"),
], ids=["gen-data-kind", "train-kind", "sweep-kind", "dense-sweep-height", "dense-sweep-size",
        "dense-height", "dense-size", "dense-count", "dense-size-order"])
def test_config_error_leaves_no_output_dir(tmp_path, capsys, monkeypatch, command, text, message):
    """Data and patch-sampler settings are checked before --out is made."""
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
    monkeypatch.setattr(cli, "train_dense", lambda *args, **kwargs: trained.append(args))
    config = write_config(tmp_path, text + "train.steps: 5\n")
    out = tmp_path / "out"
    assert main([*command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert trained == []
    assert not out.exists()


def test_sweep_empty_values_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, QUICK_TRAIN)
    assert main(["sweep", "--config", config, "--param", "pivot", "--values", ",",
                 "--out", str(tmp_path / "s")]) == 2
    assert "empty sweep value" in capsys.readouterr().err


def test_dense_pivot_sweep(tmp_path):
    config = write_config(
        tmp_path,
        "data.kind: dense\ntrain.steps: 40\n"
        "dense.height: 24\ndense.width: 24\ndense.size_min: 6\ndense.size_max: 12\n",
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--param", "pivot",
                 "--values=-0.5,0", "--out", str(out)]) == 0
    table = (out / "sweep.txt").read_text()
    assert "median_rare_mre" in table
    assert "-0.5" in table and "0.0" in table


def test_dense_sweep_rejects_non_pivot(tmp_path, capsys):
    config = write_config(tmp_path, "data.kind: dense\n")
    rv = main(["sweep", "--config", config, "--param", "max_weight",
               "--values", "5", "--out", str(tmp_path / "s")])
    assert rv == 2
    assert "pivot parameter only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dense-demo
# ---------------------------------------------------------------------------


def test_dense_demo_compares_strategies(tmp_path):
    config = write_config(
        tmp_path,
        "train.steps: 60\n"
        "dense.height: 24\ndense.width: 24\ndense.size_min: 6\ndense.size_max: 12\n",
    )
    out = tmp_path / "dense"
    assert main(["dense-demo", "--config", config, "--out", str(out)]) == 0
    table = (out / "dense.txt").read_text()
    assert "uniform_rare_mre" in table and "gradtail_rare_mre" in table
    for strategy in ("uniform", "gradtail"):
        run = out / f"dense-{strategy}-s000"
        assert (run / "patches.csv").exists()
        assert (run / "steps.csv").exists()
        # alignment statistics are tracked (and snapshotted) for both
        assert (run / "state.txt").exists()


def test_dense_demo_median_row(tmp_path):
    config = write_config(
        tmp_path,
        "train.steps: 30\n"
        "dense.height: 20\ndense.width: 20\ndense.size_min: 5\ndense.size_max: 10\n",
    )
    out = tmp_path / "dense"
    assert main(["dense-demo", "--config", config, "--seeds", "2", "--out", str(out)]) == 0
    lines = (out / "dense.txt").read_text().splitlines()
    assert lines[-1].startswith("median")
    assert len(lines) == 4  # header + 2 seeds + median


@pytest.mark.parametrize("kind", ["standard", "hard", "dense", "mystery"])
def test_dense_demo_reads_dense_keys_whatever_the_data_kind(tmp_path, kind):
    config = write_config(tmp_path, f"data.kind: {kind}\ntrain.steps: 1\ndense.height: 8\n")
    out = tmp_path / "dense"
    assert main(["dense-demo", "--config", config, "--out", str(out)]) == 0
    manifest = parse_manifest((out / "dense-gradtail-s000" / "manifest.txt").read_text())
    assert (manifest["data.kind"], manifest["dense.height"]) == ("dense", "8")


def test_dense_demo_zero_steps_writes_header_only_patch_logs(tmp_path):
    config = write_config(tmp_path, "train.steps: 0\ndense.height: 12\ndense.width: 12\n")
    out = tmp_path / "dense"
    assert main(["dense-demo", "--config", config, "--out", str(out)]) == 0
    for strategy in ("uniform", "gradtail"):
        patches = (out / f"dense-{strategy}-s000" / "patches.csv").read_bytes()
        assert patches == b"step,patch_index,pixels,rare_fraction,alignment,weight,loss\r\n"


def test_dense_demo_rejects_misspelt_dense_key(tmp_path, capsys):
    config = write_config(tmp_path, "train.steps: 1\ndense.hieght: 8\n")
    assert main(["dense-demo", "--config", config, "--out", str(tmp_path / "dense")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dense.hieght" in err


DENSE_OVERRIDES = [
    (
        "train.momentum: 0.5\ntrain.strategy: focal\n",
        {"train.momentum": "0.5", "train.steps": "2"},
    ),
    (  # one gradtail key overrides one field; the rest keep the dense schedule's values
        "gradtail.decay: 0.9\ndense.rare_fraction: .05\n",
        {"gradtail.decay": "0.9", "gradtail.pivot": "-0.5", "train.learning_rate": "0.003",
         "dense.rare_fraction": "0.05"},
    ),
]


def test_dense_demo_honours_train_keys(tmp_path):
    for i, (keys, expected) in enumerate(DENSE_OVERRIDES):
        config = write_config(
            tmp_path,
            "train.steps: 2\n" + keys
            + "dense.height: 12\ndense.width: 12\ndense.size_min: 4\ndense.size_max: 6\n",
        )
        out = tmp_path / f"dense-{i}"
        assert main(["dense-demo", "--config", config, "--out", str(out)]) == 0
        for strategy in ("uniform", "gradtail"):
            run = out / f"dense-{strategy}-s000"
            manifest = parse_manifest((run / "manifest.txt").read_text())
            assert {key: manifest[key] for key in expected} == expected
            assert manifest["train.strategy"] == strategy  # the demo runs both


def test_dense_manifest_regenerates_model(tmp_path):
    config = write_config(
        tmp_path,
        "train.steps: 20\n"
        "dense.height: 20\ndense.width: 18\ndense.size_min: 5\ndense.size_max: 10\n",
    )
    out = tmp_path / "dense"
    assert main(["dense-demo", "--config", config, "--seeds", "2", "--out", str(out)]) == 0
    for strategy in ("uniform", "gradtail"):
        # the second seed's manifest carries the offset data/model/train seeds
        run = out / f"dense-{strategy}-s001"
        manifest = parse_manifest((run / "manifest.txt").read_text())
        assert manifest["data.kind"] == "dense"
        assert manifest["train.strategy"] == strategy
        assert manifest["dense.width"] == "18"
        again = tmp_path / f"again-{strategy}"
        assert main(["dense-demo", "--config", str(run / "manifest.txt"), "--seeds", "1",
                     "--out", str(again)]) == 0
        rerun = again / f"dense-{strategy}-s000"
        assert (rerun / "model.txt").read_bytes() == (run / "model.txt").read_bytes()
        assert (rerun / "manifest.txt").read_text() == (run / "manifest.txt").read_text()


def test_analyze_corrupt_record_exits_4(trained_runs, tmp_path, capsys):
    clone = tmp_path / "run-corrupt"
    shutil.copytree(sorted(trained_runs.iterdir())[0], clone)
    lines = (clone / "model.txt").read_text().splitlines()
    lines[2] = "garbage line here"
    (clone / "model.txt").write_text("\n".join(lines) + "\n")
    rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
    assert rv == 4
    err = capsys.readouterr().err
    assert "record format error" in err and "model.txt" in err


def clone_run(runs, tmp_path, name):
    """A copy of the first run dir under ``runs`` (a toy or dense output dir)."""
    clone = tmp_path / name
    shutil.copytree(sorted(p for p in runs.iterdir() if p.is_dir())[0], clone)
    return clone


@pytest.mark.parametrize("edit", ["duplicate", "drop_last", "swap", "occurrences", "negative"])
def test_analyze_bad_trace_rows_exit_4(trained_runs, tmp_path, capsys, edit):
    clone = clone_run(trained_runs, tmp_path, "run-trace")
    lines = (clone / "trace.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:3]]
    if edit == "duplicate":  # 10 401 rows for 10 400 examples
        lines.insert(101, lines[100])
    elif edit == "drop_last":  # ids stay 0..n-1 but one example is missing
        lines.pop()
    elif edit == "swap":
        lines[1], lines[2] = lines[2], lines[1]
    elif edit == "occurrences":  # 3 more than train.steps x train.batch_size
        rows[0][1] = str(int(rows[0][1]) + 3)
    else:  # the right total, with example 0 seen -1 times
        rows[1][1] = str(int(rows[1][1]) + int(rows[0][1]) + 1)
        rows[0][1] = "-1"
    if edit in ("occurrences", "negative"):
        lines[1:3] = [",".join(row) for row in rows]
    (clone / "trace.csv").write_text("\n".join(lines) + "\n")
    rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
    assert rv == 4
    err = capsys.readouterr().err
    assert "record format error" in err and "trace.csv" in err
    if edit in ("occurrences", "negative"):
        assert "occurrences must be non-negative and sum to 40 steps x 64 = 2560" in err


def test_analyze_refuses_the_older_seven_column_trace(trained_runs, tmp_path, capsys):
    """The layout that also held alignment_sq_sum, loss_sum and correct_count."""
    clone = clone_run(trained_runs, tmp_path, "run-old-trace")
    header, *rows = (clone / "trace.csv").read_text().splitlines()
    old = ["example_id,occurrences,alignment_sum,alignment_sq_sum,loss_sum,entropy_sum,"
           "correct_count"]
    for row in rows:
        example_id, occurrences, alignment, entropy = row.split(",")
        old.append(f"{example_id},{occurrences},{alignment},0.0,0.0,{entropy},0")
    (clone / "trace.csv").write_text("\n".join(old) + "\n")
    rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
    assert rv == 4
    err = capsys.readouterr().err
    assert "not a trace" in err and "trace.csv" in err


@pytest.mark.parametrize("edit", ["drop", "duplicate", "swap", "cut"])
def test_analyze_bad_step_rows_exit_4(trained_runs, dense_runs, tmp_path, capsys, edit):
    for runs, name in ((trained_runs, "run-steps"), (dense_runs, "dense-steps")):
        clone = clone_run(runs, tmp_path, name)
        path = clone / "steps.csv"
        lines = path.read_text().splitlines()
        if edit == "drop":  # the steps left still count 0..n-1, one short of train.steps
            lines.pop()
        elif edit == "duplicate":
            lines.insert(4, lines[3])
        elif edit == "swap":
            lines[3], lines[4] = lines[4], lines[3]
        if edit == "cut":  # the last row loses its line end and two digits, and still parses
            path.write_bytes(path.read_bytes()[:-4])
        else:
            path.write_text("\n".join(lines) + "\n")
        rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
        assert rv == 4, name
        err = capsys.readouterr().err
        assert "record format error" in err and "steps.csv" in err, name


@pytest.mark.parametrize("edit", ["dense_model", "activation"])
def test_analyze_model_unlike_manifest_exits_4(
    trained_runs, dense_runs, tmp_path, capsys, edit
):
    clone = clone_run(trained_runs, tmp_path, "run-shape")
    if edit == "dense_model":
        shutil.copy(clone_run(dense_runs, tmp_path, "dense-shape") / "model.txt", clone)
    else:
        text = (clone / "model.txt").read_text().replace(": tanh", ": relu")
        (clone / "model.txt").write_text(text)
    out = tmp_path / "analysis"
    rv = main(["analyze", "--out", str(out), str(clone)])
    assert rv == 4
    err = capsys.readouterr().err
    assert "record format error" in err and "model.txt" in err and "manifest" in err
    assert not (out / "run-shape").exists()  # refused before any report or figure


def test_analyze_duplicated_model_line_exits_4(trained_runs, tmp_path, capsys):
    clone = clone_run(trained_runs, tmp_path, "run-model")
    lines = (clone / "model.txt").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("hidden_activation:"))
    lines.insert(at, "hidden_activation: relu")
    (clone / "model.txt").write_text("\n".join(lines) + "\n")
    rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
    assert rv == 4
    err = capsys.readouterr().err
    assert "record format error" in err and "model.txt" in err and "duplicated" in err


@pytest.mark.parametrize("edit", ["duplicate", "drop", "garbage", "kind"])
def test_analyze_corrupt_manifest_exits_4(trained_runs, tmp_path, capsys, edit):
    clone = clone_run(trained_runs, tmp_path, "run-manifest")
    lines = (clone / "manifest.txt").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("train.steps:"))
    if edit == "duplicate":
        lines.insert(at, "train.steps: 7")
    elif edit == "drop":
        del lines[at]
    elif edit == "garbage":
        lines[at] = "train.steps: forty"
    else:
        lines = [l.replace("data.kind: standard", "data.kind: stbndard") for l in lines]
    (clone / "manifest.txt").write_text("\n".join(lines) + "\n")
    rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
    assert rv == 4
    err = capsys.readouterr().err
    assert "record format error" in err and "manifest.txt" in err


@pytest.mark.parametrize("edit, says", [
    ("updates_seen", "updates_seen"), ("sigma", "sigma"), ("ema_grad", "ema_grad norm"),
    ("config", "gradtail.* keys"), ("layout", "train.subset"),
])
def test_analyze_state_unlike_its_run_exits_4(
    trained_runs, dense_runs, tmp_path, capsys, edit, says
):
    """state.txt must hold the step log's update count and its last sigma and
    EMA-gradient norm to the bit, and the manifest's gradtail.* config and
    train.subset layout."""
    for runs, name in ((trained_runs, "run-state"), (dense_runs, "dense-state")):
        clone = clone_run(runs, tmp_path, name)
        state, config = load_gradtail_state(clone / "state.txt")
        if edit == "updates_seen":
            state.updates_seen += 1
        elif edit == "sigma":  # one ulp
            state.sigma = float(np.nextafter(state.sigma, np.inf))
        elif edit == "ema_grad":
            state.ema_grad *= 1.0 + 2.0**-40
        elif edit == "config":
            config = replace(config, decay=0.5)
        else:  # the same blocks in another order
            state = replace(state, layout=state.layout[::-1])
        save_gradtail_state(clone / "state.txt", state, config)
        out = tmp_path / "analysis"
        rv = main(["analyze", "--out", str(out), str(clone)])
        assert rv == 4, name
        err = capsys.readouterr().err
        assert "record format error" in err and "state.txt" in err and says in err, name
        assert not (out / name).exists()  # refused before any report


@pytest.mark.parametrize("warmup", [0, 7, 40])  # 40: no step of a 40-step run is past warm-up
def test_report_mean_weight_after_warmup(tmp_path, warmup):
    """Every report gives the mean of steps.csv's mean_weight from step
    gradtail.warmup_batches on, the degraded report of a trace-less run too."""
    config = write_config(tmp_path, QUICK_TRAIN + f"gradtail.warmup_batches: {warmup}\n")
    runs = tmp_path / "runs"
    assert main(["train", "--config", config, "--out", str(runs)]) == 0
    run = runs / "run-gradtail-s000"
    weights = load_step_log(run / "steps.csv").mean_weight
    want = repr(float(weights[warmup:].mean())) if warmup < weights.size else "absent"
    shutil.copytree(run, tmp_path / "no-trace")
    (tmp_path / "no-trace" / "trace.csv").unlink()
    out = tmp_path / "analysis"
    assert main(["analyze", "--out", str(out), str(run), str(tmp_path / "no-trace")]) == 0
    for name in ("run-gradtail-s000", "no-trace"):
        _, fields, _ = read_record(out / name / "report.txt")
        assert fields["weight.mean_after_warmup"] == want, name
    table = (out / "run-gradtail-s000" / "report_table.txt").read_text().splitlines()
    assert table[-1].split() == ["weight.mean_after_warmup", want]


def test_duplicated_config_key_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "train.steps: 5\ntrain.steps: 6\n")
    rv = main(["gen-data", "--config", config, "--out", str(tmp_path / "d")])
    assert rv == 2
    err = capsys.readouterr().err
    assert "config error" in err and "duplicated" in err


def test_analyze_dense_run_dir(trained_runs, tmp_path):
    # 15 steps: five past the dense schedule's 10 warm-up batches
    config = write_config(tmp_path, "train.steps: 15\ndense.height: 16\ndense.width: 16\n")
    dense = tmp_path / "dense"
    assert main(["dense-demo", "--config", config, "--out", str(dense)]) == 0
    demo = read_table(dense / "dense.txt")[0]
    toy = sorted(trained_runs.iterdir())[0]
    out = tmp_path / "analysis"
    run_dirs = [dense / "dense-uniform-s000", dense / "dense-gradtail-s000", toy]
    assert main(["analyze", "--out", str(out), *map(str, run_dirs)]) == 0
    for strategy in ("uniform", "gradtail"):
        kind, fields, _ = read_record(out / f"dense-{strategy}-s000" / "report.txt")
        assert kind == "experiment-report"
        weights = load_step_log(dense / f"dense-{strategy}-s000" / "steps.csv").mean_weight
        assert fields == {
            "rare_mre": demo[f"{strategy}_rare_mre"],
            "total_mre": demo[f"{strategy}_total_mre"],
            "weight.mean_after_warmup": repr(float(weights[10:].mean())),
        }
    summary = read_table(out / "summary.txt")
    assert [row["run"] for row in summary] == [
        "dense-uniform-s000", "dense-gradtail-s000", toy.name, "median"
    ]
    assert summary[0]["total_accuracy"] == summary[0]["rare.size"] == "absent"
    assert summary[0]["total_mre"] == demo["uniform_total_mre"]
    assert summary[2]["total_mre"] == "absent"
    assert summary[2]["total_accuracy"] != "absent"


# ---------------------------------------------------------------------------
# seeds and run dirs spread over worker processes
# ---------------------------------------------------------------------------


def tree_bytes(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def count_forks(monkeypatch):
    """The list gets one entry per fork this process makes."""
    forks, fork = [], cli.os.fork
    monkeypatch.setattr(cli.os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_train_seeds_in_workers_match_one_process(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, QUICK_TRAIN)
    outputs = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"cpus{count}"
        assert main(["train", "--config", config, "--seeds", "3", "--out", str(out)]) == 0
        assert len(forks) == count - 1
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        outputs[count] = (stdout, tree_bytes(out))
    assert outputs[1] == outputs[2]
    assert len(outputs[1][1]) == 15  # three run dirs of five files


SWEEP_IN_WORKERS = {
    "toy": ("train.steps: 30\ntrain.batch_size: 64\n", ["max_weight", "1,5"], 2),
    "dense": ("data.kind: dense\ntrain.steps: 20\ndense.height: 16\ndense.width: 16\n",
              ["pivot", "-0.5,0"], 1),
}


@pytest.mark.parametrize("kind", sorted(SWEEP_IN_WORKERS))
def test_sweep_in_workers_matches_one_process(tmp_path, capsys, monkeypatch, kind):
    """Every (value, seed) run of a sweep is an item of the spread; a dense
    sweep forks only under a BLAS thread limit, as dense-demo does. At 2 CPUs
    a worker runs the second value's first seed, whose grid and dataset it
    sends back for the panel."""
    text, (param, values), files = SWEEP_IN_WORKERS[kind]
    config = write_config(tmp_path, text)
    outputs = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"cpus{count}"
        assert main(["sweep", "--config", config, "--param", param, f"--values={values}",
                     "--seeds", "3", "--out", str(out)]) == 0
        if kind == "toy" or cli._openblas_threads() is not None:
            assert len(forks) == count - 1
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        outputs[count] = (stdout, tree_bytes(out))
    assert outputs[1] == outputs[2]
    assert len(outputs[1][1]) == files  # sweep.txt, and the toy sweep's panel.svg


def test_analyze_in_workers_matches_one_process(trained_runs, dense_runs, tmp_path, capsys,
                                                monkeypatch):
    """Standard and hard runs (with traces) go to workers; the trace-less
    clone and the dense run dir stay in the parent."""
    hard = tmp_path / "hard"
    config = write_config(tmp_path, QUICK_TRAIN + "data.kind: hard\n")
    assert main(["train", "--config", config, "--out", str(hard)]) == 0
    clone = clone_run(trained_runs, tmp_path, "run-traceless")
    (clone / "trace.csv").unlink()
    capsys.readouterr()
    run_dirs = [sorted(trained_runs.iterdir())[0],
                (hard / "run-gradtail-s000").rename(hard / "run-hard"), clone,
                dense_runs / "dense-gradtail-s000"]
    outputs = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"cpus{count}"
        assert main(["analyze", "--out", str(out), *map(str, run_dirs)]) == 0
        assert len(forks) == count - 1
        captured = capsys.readouterr()
        outputs[count] = (captured.out.replace(str(out), "<out>"), captured.err, tree_bytes(out))
    assert outputs[1] == outputs[2]
    assert "run-traceless has no usable traces" in outputs[1][1]
    assert len(outputs[1][2]) == 2 * 7 + 3 + 1 + 1  # two toy runs, degraded, dense, summary


def test_analyze_forks_only_for_run_dirs_with_traces(trained_runs, dense_runs, tmp_path,
                                                    monkeypatch):
    """Trace-less and dense run dirs stay in the parent: forked, a dense run
    dir's single forward pass measured slower than serial."""
    cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    clone = clone_run(trained_runs, tmp_path, "run-traceless")
    (clone / "trace.csv").unlink()
    run_dirs = [clone, *sorted(dense_runs.glob("dense-*"))]
    assert main(["analyze", "--out", str(tmp_path / "analysis"), *map(str, run_dirs)]) == 0
    assert forks == []


@pytest.mark.parametrize("good_first", [False, True])
def test_analyze_failures_report_the_first_in_input_order(
    trained_runs, tmp_path, capsys, monkeypatch, good_first
):
    """At 2 CPUs the parent takes the 1st and 3rd run dir with a trace, a
    worker the 2nd: whichever process fails, the first bad run dir named on
    the command line decides the message."""
    cpus(monkeypatch, 2)
    bad = []
    for name in ("run-bad-a", "run-bad-b"):
        clone = clone_run(trained_runs, tmp_path, name)
        lines = (clone / "model.txt").read_text().splitlines()
        lines[2] = "garbage line here"
        (clone / "model.txt").write_text("\n".join(lines) + "\n")
        bad.append(clone)
    run_dirs = ([sorted(trained_runs.iterdir())[0]] if good_first else []) + bad
    assert main(["analyze", "--out", str(tmp_path / "analysis"), *map(str, run_dirs)]) == 4
    err = capsys.readouterr().err
    assert "record format error" in err
    assert str(bad[0] / "model.txt") in err and "run-bad-b" not in err


def test_analyze_missing_manifest_fails_before_any_run(trained_runs, tmp_path, capsys):
    clone = clone_run(trained_runs, tmp_path, "run-no-manifest")
    (clone / "manifest.txt").unlink()
    out = tmp_path / "analysis"
    run_dirs = [*sorted(trained_runs.iterdir()), clone]
    assert main(["analyze", "--out", str(out), *map(str, run_dirs)]) == 4
    assert "run-no-manifest/manifest.txt" in capsys.readouterr().err
    assert not out.exists()


def test_spread_relays_worker_warnings(monkeypatch):
    cpus(monkeypatch, 2)

    def warn(item):
        warnings.warn(f"item {item}", UserWarning)
        return item * 10

    with pytest.warns(UserWarning) as caught:
        assert list(cli._spread(warn, [0, 1, 2])) == [0, 10, 20]
    assert sorted(str(w.message) for w in caught) == ["item 0", "item 1", "item 2"]


def test_spread_reports_a_worker_that_dies(monkeypatch):
    cpus(monkeypatch, 2)
    results = cli._spread(lambda item: cli.os._exit(7) if item == 1 else item, [0, 1])
    assert next(results) == 0
    with pytest.raises(RuntimeError, match="worker process"):
        next(results)


# ---------------------------------------------------------------------------
# dense-demo in worker processes, one BLAS thread each
# ---------------------------------------------------------------------------


def test_openblas_is_found_when_numpy_uses_it():
    """numpy's own build record names its BLAS: when it is OpenBLAS, the
    locator must find its thread-count calls, or dense-demo never forks."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"numpy uses {blas}")
    assert cli._openblas_threads() is not None


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, at 2 threads for the test; the count it
    had is put back afterwards."""
    blas = cli._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    get, set_threads = blas
    before = get()
    set_threads(2)
    assert get() == 2
    yield get
    set_threads(before)


def test_spread_holds_blas_to_its_share_and_restores_it(monkeypatch, blas_threads):
    cpus(monkeypatch, 1)
    assert list(cli._spread(lambda item: blas_threads(), [0, 1])) == [2, 2]
    cpus(monkeypatch, 2)
    assert list(cli._spread(lambda item: blas_threads(), [0, 1])) == [1, 1]
    assert blas_threads() == 2
    cpus(monkeypatch, 4)  # three processes share four CPUs
    assert list(cli._spread(lambda item: blas_threads(), [0, 1, 2])) == [1, 1, 1]
    assert blas_threads() == 2


def test_spread_restores_blas_threads_after_a_failure(monkeypatch, blas_threads):
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="worker process"):
        list(cli._spread(lambda item: cli.os._exit(7) if item == 1 else item, [0, 1]))
    assert blas_threads() == 2

    def fail_in_parent(item):
        if item == 0:  # the parent's own share
            raise ValueError("the parent's item")
        return item

    with pytest.raises(ValueError, match="the parent's item"):
        list(cli._spread(fail_in_parent, [0, 1]))
    assert blas_threads() == 2


DENSE_IN_WORKERS = {
    "seeds-2": ("train.steps: 20\ndense.height: 16\ndense.width: 16\n", ["--seeds", "2"]),
    "reference": ("train.steps: 10\ndense.height: 16\ndense.width: 16\n", ["--reference-mode"]),
    "grid-48": ("train.steps: 20\ndense.height: 48\ndense.width: 48\n", []),
}


@pytest.mark.parametrize("name", sorted(DENSE_IN_WORKERS))
def test_dense_demo_in_workers_matches_one_process(tmp_path, capsys, monkeypatch, name):
    text, flags = DENSE_IN_WORKERS[name]
    config = write_config(tmp_path, text)
    outputs = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"cpus{count}"
        assert main(["dense-demo", "--config", config, *flags, "--out", str(out)]) == 0
        if cli._openblas_threads() is not None:
            assert len(forks) == count - 1
        captured = capsys.readouterr()
        outputs[count] = (captured.out.replace(str(out), "<out>"), captured.err, tree_bytes(out))
    assert outputs[1] == outputs[2]
    runs = 2 * (2 if "--seeds" in flags else 1)
    assert len(outputs[1][2]) == 5 * runs + 1  # five files per run dir, and dense.txt


@pytest.mark.parametrize("command", [
    ["dense-demo"],
    ["sweep", "--param", "pivot", "--values", "0,0.5", "--seeds", "2"],
], ids=["dense-demo", "dense-sweep"])
def test_dense_demo_forks_nothing_without_openblas(tmp_path, monkeypatch, command):
    """Without a BLAS thread setter each process would keep every BLAS
    thread, and forked runs measured slower than serial."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    forks = count_forks(monkeypatch)
    config = write_config(
        tmp_path, "data.kind: dense\ntrain.steps: 5\ndense.height: 12\ndense.width: 12\n"
    )
    assert main([*command, "--config", config, "--out", str(tmp_path / "dense")]) == 0
    assert forks == []


@pytest.mark.parametrize("failing", [("gradtail",), ("uniform", "gradtail")],
                         ids=["gradtail", "both"])
def test_dense_demo_divergence_reports_the_first_in_input_order(
    tmp_path, capsys, monkeypatch, failing
):
    """At 2 CPUs the gradtail run trains in a worker: its divergence still
    exits 3 with its own snapshot, and when both runs diverge, uniform, which
    comes first, decides."""
    cpus(monkeypatch, 2)
    train_dense = cli.train_dense

    def diverge(grid, seed, config, **sampler):
        if config.strategy in failing:
            raise cli.TrainingDiverged(f"{config.strategy} blew up", {"strategy": config.strategy})
        return train_dense(grid, seed, config, **sampler)

    monkeypatch.setattr(cli, "train_dense", diverge)
    config = write_config(tmp_path, "train.steps: 5\ndense.height: 12\ndense.width: 12\n")
    out = tmp_path / "dense"
    assert main(["dense-demo", "--config", config, "--out", str(out)]) == 3
    assert f"{failing[0]} blew up" in capsys.readouterr().err
    _, fields, _ = read_record(out / "divergence.txt")
    assert fields["strategy"] == failing[0]
    assert (out / "dense-uniform-s000").exists() == ("uniform" not in failing)
    assert not (out / "dense-gradtail-s000").exists()


FUZZ_FILES = [
    ("toy", "manifest.txt"), ("toy", "model.txt"), ("toy", "steps.csv"), ("toy", "trace.csv"),
    ("toy", "state.txt"), ("dense", "manifest.txt"), ("dense", "model.txt"),
    ("dense", "steps.csv"), ("dense", "state.txt"),
]
FUZZ_EDITS = ["truncate", "bit_flip", "drop_line", "duplicate_line"]


def corrupt(data: bytes, edit: str, rng: random.Random) -> bytes:
    """One seeded edit of a file's bytes."""
    if edit == "truncate":
        return data[: rng.randrange(len(data))]
    if edit == "bit_flip":
        at = rng.randrange(len(data))
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1 :]
    lines = data.splitlines(keepends=True)
    at = rng.randrange(len(lines))
    if edit == "drop_line":
        del lines[at]
    else:
        lines.insert(at, lines[at])
    return b"".join(lines)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a flipped bit can blow up a weight
def test_analyze_survives_seeded_corruption(trained_runs, dense_runs, tmp_path, capsys):
    """Every file analyze reads, each edit kind on each: the run is analyzed
    (exit 0: a flipped digit still parses) or refused as a corrupt record
    (exit 4), never a traceback. A dropped or duplicated CSV line always
    breaks the row checks."""
    sources = {"toy": trained_runs, "dense": dense_runs}
    rng = random.Random(0)
    for i in range(2 * len(FUZZ_FILES) * len(FUZZ_EDITS)):  # every (file, edit) pair twice
        kind, name = FUZZ_FILES[i % len(FUZZ_FILES)]
        edit = FUZZ_EDITS[i % len(FUZZ_EDITS)]
        clone = clone_run(sources[kind], tmp_path, f"fuzz-{i:02d}")
        path = clone / name
        path.write_bytes(corrupt(path.read_bytes(), edit, rng))
        rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
        case = (kind, name, edit, capsys.readouterr().err)
        assert rv in (0, 4), case
        if name.endswith(".csv") and edit.endswith("_line"):
            assert rv == 4, case
