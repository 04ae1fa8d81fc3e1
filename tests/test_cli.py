"""End-to-end subcommand tests against the documented exit codes.

Runs use shortened schedules via config files; the full default schedule
lives in the acceptance suite.
"""

import numpy as np
import pytest

from gradtail.cli import main
from gradtail.records import load_model, parse_manifest

QUICK_TRAIN = """\
# short schedule for tests
train.steps: 40
train.batch_size: 64
train.strategy: gradtail
"""


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def dataset_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return lines[1:]  # drop the header


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
    config = write_config(
        tmp_path,
        "train.steps: 400\ntrain.learning_rate: 1e6\ntrain.loss: squared\n"
        "train.momentum: 0.95\n",
    )
    out = tmp_path / "runs"
    assert main(["train", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err and "divergence.txt" in err
    assert (out / "divergence.txt").exists()


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
    import shutil

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
    import shutil

    clone = tmp_path / "run-corrupt"
    shutil.copytree(sorted(trained_runs.iterdir())[0], clone)
    lines = (clone / "model.txt").read_text().splitlines()
    lines[2] = "garbage line here"
    (clone / "model.txt").write_text("\n".join(lines) + "\n")
    rv = main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)])
    assert rv == 4
    err = capsys.readouterr().err
    assert "record format error" in err and "model.txt" in err
