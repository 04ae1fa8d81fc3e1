"""End-to-end subcommand tests against the documented exit codes.

Runs use shortened schedules via config files; the full default schedule
lives in the acceptance suite.
"""

import random
import shutil

import numpy as np
import pytest

from gradtail.cli import main
from gradtail.records import load_model, parse_manifest, read_record

QUICK_TRAIN = """\
# short schedule for tests
train.steps: 40
train.batch_size: 64
train.strategy: gradtail
"""

# a schedule whose loss turns non-finite within a few dozen steps
BLOW_UP = "train.learning_rate: 1e6\ntrain.loss: squared\ntrain.momentum: 0.95\n"


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def dataset_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return lines[1:]  # drop the header


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


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "train.stepz: 5\n")
    rv = main(["gen-data", "--config", config, "--out", str(tmp_path / "d")])
    assert rv == 2
    assert "config error" in capsys.readouterr().err


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
def test_train_divergence_exits_3_with_snapshot(tmp_path, capsys):
    toy = write_config(tmp_path, "train.steps: 400\n" + BLOW_UP)
    dense = write_config(
        tmp_path,
        "data.kind: dense\ntrain.steps: 200\ndense.height: 12\ndense.width: 12\n" + BLOW_UP,
        "dense.txt",
    )
    commands = {
        "train": ["train", "--config", toy],
        "sweep": ["sweep", "--config", toy, "--param", "max_weight", "--values", "5"],
        "dense-sweep": ["sweep", "--config", dense, "--param", "pivot", "--values", "0"],
        "dense-demo": ["dense-demo", "--config", dense],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 3, name
        err = capsys.readouterr().err
        assert "numerical abort" in err and "divergence.txt" in err, name
        assert (out / "divergence.txt").exists(), name


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


def test_analyze_emits_reports_and_figures(trained_runs, tmp_path):
    out = tmp_path / "analysis"
    run_dirs = sorted(str(p) for p in trained_runs.iterdir())
    assert main(["analyze", "--out", str(out), *run_dirs]) == 0
    per_run = out / "run-gradtail-s000"
    for name in ("report.txt", "report_table.txt", "data.svg", "predictions.svg",
                 "tail.svg", "rare.svg", "entropy.svg"):
        assert (per_run / name).exists(), name
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


def test_analyze_zero_step_run_degrades(tmp_path, capsys):
    config = write_config(tmp_path, "train.steps: 0\n")
    runs = tmp_path / "runs"
    assert main(["train", "--config", config, "--out", str(runs)]) == 0
    out = tmp_path / "analysis"
    assert main(["analyze", "--out", str(out), str(runs / "run-gradtail-s000")]) == 0
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
    assert (out / "panel.svg").exists()


def test_sweep_inverse_frequency(tmp_path):
    config = write_config(
        tmp_path,
        "train.steps: 30\ntrain.batch_size: 64\ntrain.strategy: inverse_frequency\n",
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--param", "inverse_frequency_w",
                 "--values", "1,25", "--out", str(out)]) == 0
    assert "median_recall_uncommon" in (out / "sweep.txt").read_text()


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


def test_dense_demo_rejects_misspelt_dense_key(tmp_path, capsys):
    config = write_config(tmp_path, "train.steps: 1\ndense.hieght: 8\n")
    assert main(["dense-demo", "--config", config, "--out", str(tmp_path / "dense")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dense.hieght" in err


def test_dense_demo_honours_train_keys(tmp_path):
    config = write_config(
        tmp_path,
        "train.steps: 2\ntrain.momentum: 0.5\ntrain.strategy: focal\n"
        "dense.height: 12\ndense.width: 12\ndense.size_min: 4\ndense.size_max: 6\n",
    )
    out = tmp_path / "dense"
    assert main(["dense-demo", "--config", config, "--out", str(out)]) == 0
    for strategy in ("uniform", "gradtail"):
        manifest = parse_manifest((out / f"dense-{strategy}-s000" / "manifest.txt").read_text())
        assert manifest["train.momentum"] == "0.5"
        assert manifest["train.steps"] == "2"
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


@pytest.mark.parametrize("edit", ["duplicate", "drop_last", "swap"])
def test_analyze_bad_trace_rows_exit_4(trained_runs, tmp_path, capsys, edit):
    clone = clone_run(trained_runs, tmp_path, "run-trace")
    lines = (clone / "trace.csv").read_text().splitlines()
    if edit == "duplicate":  # 10 401 rows for 10 400 examples
        lines.insert(101, lines[100])
    elif edit == "drop_last":  # ids stay 0..n-1 but one example is missing
        lines.pop()
    else:
        lines[1], lines[2] = lines[2], lines[1]
    (clone / "trace.csv").write_text("\n".join(lines) + "\n")
    rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
    assert rv == 4
    err = capsys.readouterr().err
    assert "record format error" in err and "trace.csv" in err


@pytest.mark.parametrize("edit", ["drop", "duplicate", "swap"])
def test_analyze_bad_step_rows_exit_4(trained_runs, dense_runs, tmp_path, capsys, edit):
    for runs, name in ((trained_runs, "run-steps"), (dense_runs, "dense-steps")):
        clone = clone_run(runs, tmp_path, name)
        lines = (clone / "steps.csv").read_text().splitlines()
        if edit == "drop":  # the steps left still count 0..n-1, one short of train.steps
            lines.pop()
        elif edit == "duplicate":
            lines.insert(4, lines[3])
        else:
            lines[3], lines[4] = lines[4], lines[3]
        (clone / "steps.csv").write_text("\n".join(lines) + "\n")
        rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
        assert rv == 4, name
        err = capsys.readouterr().err
        assert "record format error" in err and "steps.csv" in err, name


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


def test_duplicated_config_key_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "train.steps: 5\ntrain.steps: 6\n")
    rv = main(["gen-data", "--config", config, "--out", str(tmp_path / "d")])
    assert rv == 2
    err = capsys.readouterr().err
    assert "config error" in err and "duplicated" in err


def test_analyze_dense_run_dir(trained_runs, tmp_path):
    config = write_config(tmp_path, "train.steps: 10\ndense.height: 16\ndense.width: 16\n")
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
        assert fields == {
            "rare_mre": demo[f"{strategy}_rare_mre"],
            "total_mre": demo[f"{strategy}_total_mre"],
        }
    summary = read_table(out / "summary.txt")
    assert [row["run"] for row in summary] == [
        "dense-uniform-s000", "dense-gradtail-s000", toy.name, "median"
    ]
    assert summary[0]["total_accuracy"] == summary[0]["rare.size"] == "absent"
    assert summary[0]["total_mre"] == demo["uniform_total_mre"]
    assert summary[2]["total_mre"] == "absent"
    assert summary[2]["total_accuracy"] != "absent"


FUZZ_FILES = [
    ("toy", "manifest.txt"), ("toy", "model.txt"), ("toy", "steps.csv"), ("toy", "trace.csv"),
    ("dense", "manifest.txt"), ("dense", "model.txt"), ("dense", "steps.csv"),
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
    for i in range(40):
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
