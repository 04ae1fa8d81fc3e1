"""Round-trip tests for the on-disk formats.

Checkpoints and state snapshots must survive a write/read cycle bit for bit;
manifests must rebuild the exact TrainConfig; logs and datasets must
round-trip through their CSV forms with full float precision.
"""

import csv

import numpy as np
import pytest

from gradtail.algorithm import GradTailConfig, GradTailState, step_arrays
from gradtail.analysis import ExperimentReport, QuartileReport, RareSetReport
from gradtail.datasets import GaussianSpec, gen_two_gaussians
from gradtail.engine import PatchLog, StepLog, TraceTable, TrainConfig
from gradtail.mlp import MlpModel, ParamSubset
from gradtail.records import (
    CHUNK_ROWS,
    RecordFormatError,
    _decode_array,
    _encode_array,
    config_from_manifest,
    format_manifest,
    load_dataset,
    load_gradtail_state,
    load_model,
    load_step_log,
    load_trace,
    parse_manifest,
    read_record,
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


def test_array_codec_bit_exact():
    rng = np.random.default_rng(7)
    for shape in [(5,), (3, 4), (2, 3, 2), (0,)]:
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-200, 200)
        back = _decode_array(_encode_array(arr))
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


def test_array_codec_special_values():
    arr = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.0 + 2**-52])
    back = _decode_array(_encode_array(arr))
    assert back.tobytes() == arr.tobytes()


def test_record_round_trip(tmp_path):
    path = tmp_path / "rec.txt"
    write_record(path, "demo", {"alpha": 3, "name": "x y"}, {"v": np.arange(4.0)})
    kind, fields, arrays = read_record(path)
    assert kind == "demo"
    assert fields == {"alpha": "3", "name": "x y"}
    assert arrays["v"].tobytes() == np.arange(4.0).tobytes()


def test_record_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="not a gradtail-record"):
        read_record(path)


def test_corrupt_records_raise_record_format_error(tmp_path):
    save_model(tmp_path / "model.txt", MlpModel.initialize([2, 3, 2], 0))
    lines = (tmp_path / "model.txt").read_text().splitlines()
    cases = {
        "garbage line": lines[:2] + ["garbage line here"] + lines[3:],
        "missing field": lines[:2] + lines[3:],  # no layer_dims
        "bad base64": lines[:-1] + [lines[-1].split("|")[0] + "|@@@"],
    }
    for name, body in cases.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(RecordFormatError, match=name):  # the path names the file
            load_model(path)
    (tmp_path / "trace.csv").write_text("example_id,occurrences\n0,many\n")
    with pytest.raises(RecordFormatError, match="trace.csv"):
        load_trace(tmp_path / "trace.csv")
    with pytest.raises(FileNotFoundError):  # an absent file stays an I/O error
        load_model(tmp_path / "absent.txt")


def test_record_rejects_colon_in_key(tmp_path):
    with pytest.raises(ValueError, match="unserializable"):
        write_record(tmp_path / "rec.txt", "demo", {"a:b": 1}, {})


def test_model_checkpoint_round_trip(tmp_path):
    model = MlpModel.initialize((2, 5, 2), seed=11)
    path = tmp_path / "model.txt"
    save_model(path, model)
    back = load_model(path)
    assert back.layer_dims == model.layer_dims
    assert back.hidden_activation == model.hidden_activation
    assert back.init_seed == 11
    for w1, w2 in zip(back.weights, model.weights):
        assert w1.tobytes() == w2.tobytes()
    for b1, b2 in zip(back.biases, model.biases):
        assert b1.tobytes() == b2.tobytes()


def test_model_checkpoint_without_seed(tmp_path):
    model = MlpModel([2, 2], [np.eye(2)], [np.zeros(2)])
    save_model(tmp_path / "m.txt", model)
    assert load_model(tmp_path / "m.txt").init_seed is None


def test_model_loader_rejects_wrong_kind(tmp_path):
    write_record(tmp_path / "x.txt", "gradtail-state", {}, {})
    with pytest.raises(ValueError, match="model checkpoint"):
        load_model(tmp_path / "x.txt")


def _run_steps(state, config, grads_seq):
    for grads in grads_seq:
        _, state = step_arrays(state, grads, config)
    return state


def test_state_snapshot_resumes_bit_exactly(tmp_path):
    """Continuing from a reloaded snapshot matches continuing in memory."""
    layout = ParamSubset(((0, "weight"), (0, "bias")))
    config = GradTailConfig(pivot=-0.5, decay=0.97, warmup_batches=2)
    rng = np.random.default_rng(3)
    grads_seq = [rng.standard_normal((4, 6)) for _ in range(12)]

    state = _run_steps(GradTailState(np.zeros(6), layout, 0.0, 0), config, grads_seq[:5])
    save_gradtail_state(tmp_path / "state.txt", state, config)
    loaded_state, loaded_config = load_gradtail_state(tmp_path / "state.txt")

    assert loaded_config == config
    assert loaded_state.layout == layout
    final_mem = _run_steps(state, config, grads_seq[5:])
    final_disk = _run_steps(loaded_state, loaded_config, grads_seq[5:])
    assert final_disk.sigma == final_mem.sigma
    assert final_disk.updates_seen == final_mem.updates_seen
    assert final_disk.ema_grad.tobytes() == final_mem.ema_grad.tobytes()


def test_manifest_round_trip():
    config = TrainConfig(
        steps=123,
        learning_rate=3.7e-5,
        strategy="inverse_frequency",
        class_weights=(1.0, 17.5),
        gradtail=GradTailConfig(pivot=-0.5, amplitude=4.0),
        subset_spec="biases:0",
        reference_mode=True,
    )
    text = format_manifest(config, data_seed=9, model_seed=4, dataset="hard")
    back, data_seed, model_seed, kind = config_from_manifest(parse_manifest(text))
    assert back == config
    assert (data_seed, model_seed, kind) == (9, 4, "hard")


def test_manifest_defaults_round_trip():
    config = TrainConfig()
    text = format_manifest(config, data_seed=0, model_seed=0)
    back, _, _, kind = config_from_manifest(parse_manifest(text))
    assert back == config
    assert kind == "standard"


def test_manifest_skips_comments_and_blank_lines():
    entries = parse_manifest("# note\n\ntrain.steps: 5\n")
    assert entries == {"train.steps": "5"}


def test_manifest_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown manifest keys"):
        config_from_manifest({"train.stepz": "5"})


def test_manifest_rejects_malformed_line():
    with pytest.raises(ValueError, match="malformed"):
        parse_manifest("no separator here\n")


def test_manifest_rejects_duplicated_key():
    with pytest.raises(ValueError, match="duplicated manifest key 'train.steps'"):
        parse_manifest("train.steps: 5\n# note\ntrain.steps: 5\n")


def test_step_log_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    log = StepLog(
        np.arange(7, dtype=np.int64),
        rng.standard_normal(7),
        rng.standard_normal(7),
        rng.standard_normal(7),
        rng.standard_normal(7),
    )
    save_step_log(tmp_path / "steps.csv", log)
    back = load_step_log(tmp_path / "steps.csv")
    for name in ("step", "mean_loss", "mean_weight", "sigma", "ema_norm"):
        assert getattr(back, name).tolist() == getattr(log, name).tolist()


def test_step_log_rejects_foreign_header(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not a step log"):
        load_step_log(tmp_path / "bad.csv")


def test_trace_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    trace = TraceTable.zeros(5)
    trace.occurrences[:] = rng.integers(0, 10, 5)
    trace.theta_sum[:] = rng.standard_normal(5)
    trace.theta_sq_sum[:] = rng.standard_normal(5) ** 2
    trace.loss_sum[:] = rng.standard_normal(5) ** 2
    trace.entropy_sum[:] = rng.standard_normal(5) ** 2
    trace.correct_count[:] = rng.integers(0, 10, 5)
    save_trace(tmp_path / "trace.csv", trace)
    back = load_trace(tmp_path / "trace.csv")
    assert back.occurrences.tolist() == trace.occurrences.tolist()
    assert back.theta_sum.tolist() == trace.theta_sum.tolist()
    assert back.theta_sq_sum.tolist() == trace.theta_sq_sum.tolist()
    assert back.loss_sum.tolist() == trace.loss_sum.tolist()
    assert back.entropy_sum.tolist() == trace.entropy_sum.tolist()
    assert back.correct_count.tolist() == trace.correct_count.tolist()
    assert back.occurrences.dtype == back.correct_count.dtype == np.int64


def test_trace_ids_must_count_from_zero(tmp_path):
    save_trace(tmp_path / "trace.csv", TraceTable.zeros(4))
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    cases = {
        "duplicate": lines + [lines[-1]],
        "swap": [lines[0], lines[2], lines[1]] + lines[3:],
        "gap": lines[:2] + lines[3:],
    }
    for name, body in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(RecordFormatError, match="example_id column"):
            load_trace(path)
    path = tmp_path / "header.csv"
    path.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(RecordFormatError, match="not a trace"):
        load_trace(path)


def test_patch_log_columns(tmp_path):
    log = PatchLog([0, 0], [0, 1], [16, 48], [0.0, 0.25], [0.5, -0.5], [1.0, 3.0], [0.1, 0.2])
    save_patch_log(tmp_path / "patches.csv", log)
    lines = (tmp_path / "patches.csv").read_text().splitlines()
    assert lines[0] == "step,patch_index,pixels,rare_fraction,alignment,weight,loss"
    assert lines[1].startswith("0,0,16,")
    assert len(lines) == 3


SPECIAL_FLOATS = [-0.0, 5e-324, 1e308, float("nan"), float("inf")]
ROW_COUNTS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]


def csv_writer_bytes(path, header, rows):
    """What the writers wrote row by row with csv.writer: ints, float reprs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


def float_columns(n, count, seed):
    """``count`` float columns of length n, with every special value near the top."""
    cols = np.random.default_rng(seed).standard_normal((count, n)) * 1e3
    for c in range(count):
        special = np.roll(SPECIAL_FLOATS, c)[: min(n, len(SPECIAL_FLOATS))]
        cols[c, : special.size] = special
    return cols


@pytest.mark.parametrize("n", ROW_COUNTS)  # n = 0 is the log of a `steps: 0` run
def test_step_log_bytes_match_csv_writer(tmp_path, n):
    log = StepLog(np.arange(n, dtype=np.int64), *float_columns(n, 4, n))
    save_step_log(tmp_path / "steps.csv", log)
    rows = [
        [int(log.step[i]), repr(float(log.mean_loss[i])), repr(float(log.mean_weight[i])),
         repr(float(log.sigma[i])), repr(float(log.ema_norm[i]))]
        for i in range(n)
    ]
    header = ["step", "mean_loss", "mean_weight", "sigma", "ema_norm"]
    assert (tmp_path / "steps.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "ref.csv", header, rows
    )


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_trace_bytes_match_csv_writer(tmp_path, n):
    rng = np.random.default_rng(100 + n)
    trace = TraceTable(
        rng.integers(0, 50, n), *float_columns(n, 4, 200 + n), rng.integers(0, 50, n)
    )
    save_trace(tmp_path / "trace.csv", trace)
    rows = [
        [i, int(trace.occurrences[i]), repr(float(trace.theta_sum[i])),
         repr(float(trace.theta_sq_sum[i])), repr(float(trace.loss_sum[i])),
         repr(float(trace.entropy_sum[i])), int(trace.correct_count[i])]
        for i in range(n)
    ]
    header = ["example_id", "occurrences", "alignment_sum", "alignment_sq_sum",
              "loss_sum", "entropy_sum", "correct_count"]
    assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "ref.csv", header, rows
    )


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_patch_log_bytes_match_csv_writer(tmp_path, n):
    ints = np.random.default_rng(300 + n).integers(0, 100, (3, n))
    floats = float_columns(n, 4, 400 + n)
    log = PatchLog(*(col.tolist() for col in ints), *(col.tolist() for col in floats))
    save_patch_log(tmp_path / "patches.csv", log)
    rows = [
        [*(int(col[i]) for col in ints), *(repr(float(col[i])) for col in floats)]
        for i in range(n)
    ]
    header = ["step", "patch_index", "pixels", "rare_fraction", "alignment", "weight", "loss"]
    assert (tmp_path / "patches.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "ref.csv", header, rows
    )


@pytest.mark.parametrize("edit", ["duplicate", "drop", "swap"])
def test_step_log_steps_must_count_from_zero(tmp_path, edit):
    save_step_log(tmp_path / "steps.csv", StepLog.zeros(4))
    lines = (tmp_path / "steps.csv").read_text().splitlines()
    if edit == "duplicate":
        lines.insert(2, lines[1])
    elif edit == "drop":
        del lines[2]
    else:
        lines[1], lines[2] = lines[2], lines[1]
    (tmp_path / "steps.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordFormatError, match="step column"):
        load_step_log(tmp_path / "steps.csv")


@pytest.mark.parametrize("line", ["hidden_activation: tanh", "array:bias0: 1|AAAAAAAAAAA="])
def test_record_rejects_duplicated_key(tmp_path, line):
    save_model(tmp_path / "model.txt", MlpModel.initialize([2, 3, 2], 0))
    lines = (tmp_path / "model.txt").read_text().splitlines()
    (tmp_path / "model.txt").write_text("\n".join(lines + [line]) + "\n")
    with pytest.raises(RecordFormatError, match="duplicated field"):
        load_model(tmp_path / "model.txt")


def test_dataset_round_trip(tmp_path):
    ds = gen_two_gaussians(
        5,
        GaussianSpec((0.0, 0.0), 1.0, 40, 0),
        GaussianSpec((2.2, 2.2), 0.5, 8, 1),
    )
    save_dataset(tmp_path / "data.csv", ds)
    back = load_dataset(tmp_path / "data.csv")
    assert back.seed == 5
    assert back.specs == ds.specs
    assert back.labels.tolist() == ds.labels.tolist()
    assert np.array_equal(back.points, ds.points)


def test_dataset_file_regenerates_itself(tmp_path):
    """The manifest rows embedded in the file fully determine the points."""
    ds = gen_two_gaussians(
        3,
        GaussianSpec((0.5, -1.0), 2.0, 12, 0),
        GaussianSpec((2.0, 2.0), 0.5, 6, 1),
    )
    save_dataset(tmp_path / "data.csv", ds)
    back = load_dataset(tmp_path / "data.csv")
    regen = gen_two_gaussians(back.seed, back.specs[0], back.specs[1])
    assert np.array_equal(regen.points, back.points)
    assert regen.labels.tolist() == back.labels.tolist()


def _toy_report():
    return ExperimentReport(
        total_accuracy=0.9617,
        balanced_accuracy=0.766,
        per_class_recall={0: 0.97, 1: 0.562},
        quartiles=QuartileReport((0.9, 0.95, 0.99, 1.0), 0.8, True, 0.0, False),
        boundary_disagreement=0.0375,
        rare_set=RareSetReport({0: 3, 1: 5}, 1.25, 2.5, False, 8),
        tail_counts={"common": 10000, "rare": 350, "hard": 50},
        excluded_examples=0,
    )


def test_report_fields_mark_absent_metrics():
    fields = report_fields(_toy_report())
    assert fields["quartile.point_biserial"] == "absent"
    assert fields["quartile.correlation"] == repr(0.8)
    assert fields["rare.class1"] == 5


def test_report_record_and_table(tmp_path):
    report = _toy_report()
    save_report(tmp_path / "report.txt", report)
    kind, fields, _ = read_record(tmp_path / "report.txt")
    assert kind == "experiment-report"
    assert fields["rare.mean_distance"] == repr(1.25)

    table = report_table(report)
    lines = table.splitlines()
    assert "balanced_accuracy" in [line.split()[0] for line in lines]
    # two-column alignment: every value starts at the same character offset
    value_starts = {line.rindex(line.split()[-1]) for line in lines}
    assert len(value_starts) == 1


def test_summary_table_alignment():
    rows = [
        {"seed": "0", "strategy": "uniform", "balanced": "0.75"},
        {"seed": "1", "strategy": "gradtail", "balanced": "0.8125"},
    ]
    text = summary_table(rows, ["seed", "strategy", "balanced"])
    lines = text.splitlines()
    assert lines[0].split() == ["seed", "strategy", "balanced"]
    assert lines[1].index("uniform") == lines[2].index("gradtail")
    assert lines[1].index("0.75") == lines[2].index("0.8125")


def test_summary_table_missing_cell_is_explicit():
    text = summary_table([{"a": "1"}], ["a", "b"])
    assert "absent" in text
