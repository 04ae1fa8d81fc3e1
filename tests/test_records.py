"""Round-trip tests for the on-disk formats.

Checkpoints and state snapshots must survive a write/read cycle bit for bit;
manifests must rebuild the exact TrainConfig; logs must round-trip through
their CSV forms with full float precision, and every CSV writer writes the
bytes csv.writer would.
"""

import csv
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest

from gradtail.algorithm import GradTailConfig, GradTailState, step_arrays
from gradtail.analysis import ExperimentReport, QuartileReport, RareSetReport
from gradtail.datasets import (
    DEFAULT_COMMON,
    DEFAULT_UNCOMMON,
    HARD_UNCOMMON,
    GaussianSpec,
    gen_two_gaussians,
)
from gradtail.engine import PatchLog, StepLog, TraceTable, TrainConfig
from gradtail.mlp import MlpModel
from gradtail.records import (
    CHUNK_ROWS,
    TRAIN_KEYS,
    RecordFormatError,
    _decode_array,
    _encode_array,
    config_from_manifest,
    format_manifest,
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
    layout = ((0, "weight"), (0, "bias"))
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


def test_state_snapshot_rejects_unknown_parameter_kind(tmp_path):
    path = tmp_path / "state.txt"
    save_gradtail_state(path, GradTailState(np.zeros(2), ((0, "bias"),)), GradTailConfig())
    path.write_text(path.read_text().replace("layout: 0:bias", "layout: 0:gamma"))
    with pytest.raises(RecordFormatError, match="gamma"):
        load_gradtail_state(path)


def test_manifest_round_trip():
    config = TrainConfig(
        steps=123,
        learning_rate=3.7e-5,
        strategy="inverse_frequency",
        class_weights=(1.0, 17.5),
        gradtail=GradTailConfig(pivot=-0.5, amplitude=4.0),
        subset="biases:0",
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


def test_every_config_field_has_one_manifest_key():
    """A new TrainConfig or GradTailConfig field cannot skip the manifest."""
    assert sorted(TRAIN_KEYS.values()) == sorted(
        [f.name for f in fields(TrainConfig) if f.name != "gradtail"]
        + [f"gradtail.{f.name}" for f in fields(GradTailConfig)]
    )
    written = parse_manifest(format_manifest(TrainConfig(class_weights=(1.0, 2.0)), 0, 0))
    others = {"code.version", "data.kind", "data.seed", "model.seed"}
    assert set(written) - set(TRAIN_KEYS) == others


def test_manifest_text_is_pinned():
    """The train.* keys follow TrainConfig's field order, so moving a field
    would reorder every manifest: its text is spelt out here."""
    assert format_manifest(TrainConfig(class_weights=(1.0, 2.0)), 0, 0) == (
        "# gradtail run manifest\n"
        "code.version: 0.1.0\n"
        "data.kind: standard\n"
        "data.seed: 0\n"
        "model.seed: 0\n"
        "train.steps: 10000\n"
        "train.learning_rate: 0.0001\n"
        "train.momentum: 0.9\n"
        "train.batch_size: 128\n"
        "train.seed: 0\n"
        "train.strategy: gradtail\n"
        "train.subset: all\n"
        "train.focal_gamma: 2.0\n"
        "train.loss: softmax_xent\n"
        "train.model_dims: 2,5,2\n"
        "train.hidden_activation: tanh\n"
        "train.weight_scale: 1.0\n"
        "train.trace_logging: true\n"
        "train.reference_mode: false\n"
        "gradtail.pivot: 0.0\n"
        "gradtail.decay: 0.99\n"
        "gradtail.amplitude: 28.0\n"
        "gradtail.slope: 0.75\n"
        "gradtail.sigma_floor: 0.001\n"
        "gradtail.warmup_batches: 10\n"
        "gradtail.epsilon_norm: 1e-12\n"
        "train.class_weights: 1.0,2.0\n"
    )


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
    trace.alignment_sum[:] = rng.standard_normal(5)
    trace.entropy_sum[:] = rng.standard_normal(5) ** 2
    save_trace(tmp_path / "trace.csv", trace)
    back = load_trace(tmp_path / "trace.csv")
    assert back.occurrences.tolist() == trace.occurrences.tolist()
    assert back.alignment_sum.tolist() == trace.alignment_sum.tolist()
    assert back.entropy_sum.tolist() == trace.entropy_sum.tolist()
    assert back.occurrences.dtype == np.int64


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


EXTREME_FLOATS = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, -0.0, 0.0, 1e308, -1e308,
                  1.7976931348623157e308, 0.1, -1.0 / 3]
EXTREME_COUNTS = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62]


def test_logs_round_trip_extreme_values_bit_for_bit(tmp_path):
    n = len(EXTREME_FLOATS)
    floats = [np.roll(EXTREME_FLOATS, k) for k in range(4)]
    counts = np.resize(EXTREME_COUNTS, n).astype(np.int64)
    log = StepLog(np.arange(n, dtype=np.int64), *floats)
    save_step_log(tmp_path / "steps.csv", log)
    back = load_step_log(tmp_path / "steps.csv")
    for name in ("step", "mean_loss", "mean_weight", "sigma", "ema_norm"):
        got, want = getattr(back, name), getattr(log, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    trace = TraceTable(counts, *floats[:2])
    save_trace(tmp_path / "trace.csv", trace)
    back = load_trace(tmp_path / "trace.csv")
    for name in ("occurrences", "alignment_sum", "entropy_sum"):
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert got.flags.c_contiguous


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    from gradtail.cli import main

    out = tmp_path_factory.mktemp("records-run")
    (out / "config.txt").write_text("train.steps: 40\n")
    assert main(["train", "--config", str(out / "config.txt"), "--out", str(out / "runs")]) == 0
    return out / "runs" / "run-gradtail-s000"


def edit_row(line: str, edit: str) -> str:
    cells = line.split(",")
    if edit == "extra_field":
        return line + ",0"
    if edit == "missing_field":
        return ",".join(cells[:-1])
    if edit == "non_integer":  # the first column counts rows: int in both logs
        return ",".join(["1.0"] + cells[1:])
    if edit == "int64_overflow":
        return ",".join([str(2**64)] + cells[1:])
    if edit == "empty_field":
        return ",".join(cells[:2] + [""] + cells[3:])
    if edit == "quoted":
        return ",".join([cells[0], f'"{cells[1]}"'] + cells[2:])
    raise AssertionError(edit)


# lines inserted between two rows; np.loadtxt skips the empty one
INSERTED_LINES = {"blank_line": "", "whitespace_line": " \t ", "lone_cr_line": "\r"}


@pytest.mark.parametrize("name", ["trace.csv", "steps.csv"])
@pytest.mark.parametrize(
    "edit",
    ["extra_field", "missing_field", "non_integer", "int64_overflow", "empty_field", "quoted",
     "blank_line", "whitespace_line", "lone_cr_line"],
)
def test_analyze_refuses_malformed_rows(run_dir, tmp_path, capsys, name, edit):
    """One bad row of a log makes analyze exit 4 with the file named. A quoted
    field and an extra field are refused too, although a csv.reader-based
    reader reads the first and can ignore the second: the writer writes
    neither."""
    from gradtail.cli import main

    clone = tmp_path / "run"
    shutil.copytree(run_dir, clone)
    lines = (clone / name).read_bytes().decode().split("\r\n")
    if edit in INSERTED_LINES:
        lines.insert(3, INSERTED_LINES[edit])
    else:
        lines[2] = edit_row(lines[2], edit)
    (clone / name).write_bytes("\r\n".join(lines).encode())
    assert main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)]) == 4
    err = capsys.readouterr().err
    assert "record format error" in err and name in err


def test_analyze_refuses_header_only_trace(run_dir, tmp_path, capsys):
    from gradtail.cli import main

    clone = tmp_path / "run"
    shutil.copytree(run_dir, clone)
    header = (clone / "trace.csv").read_bytes().split(b"\r\n")[0]
    (clone / "trace.csv").write_bytes(header + b"\r\n")
    assert load_trace(clone / "trace.csv").n == 0
    assert main(["analyze", "--out", str(tmp_path / "analysis"), str(clone)]) == 4
    assert "0 rows for 10400 examples" in capsys.readouterr().err


def test_patch_log_columns(tmp_path):
    columns = [0, 0], [0, 1], [16, 48], [0.0, 0.25], [0.5, -0.5], [1.0, 3.0], [0.1, 0.2]
    log = PatchLog(*map(np.array, columns))
    save_patch_log(tmp_path / "patches.csv", log)
    lines = (tmp_path / "patches.csv").read_text().splitlines()
    assert lines[0] == "step,patch_index,pixels,rare_fraction,alignment,weight,loss"
    assert lines[1].startswith("0,0,16,")
    assert len(lines) == 3


SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, 1e308, float("nan"), float("inf"), float("-inf")]
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
    trace = TraceTable(rng.integers(0, 50, n), *float_columns(n, 2, 200 + n))
    save_trace(tmp_path / "trace.csv", trace)
    rows = [
        [i, int(trace.occurrences[i]), repr(float(trace.alignment_sum[i])),
         repr(float(trace.entropy_sum[i]))]
        for i in range(n)
    ]
    header = ["example_id", "occurrences", "alignment_sum", "entropy_sum"]
    assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "ref.csv", header, rows
    )


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_patch_log_bytes_match_csv_writer(tmp_path, n):
    ints = np.random.default_rng(300 + n).integers(0, 100, (3, n))
    floats = float_columns(n, 4, 400 + n)
    log = PatchLog(*ints, *floats)
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


DATASET_CASES = [  # (seed, specs, the header lines save_dataset writes for them)
    (5, (GaussianSpec((0.0, 0.0), 1.0, 40, 0), GaussianSpec((2.2, 2.2), 0.5, 8, 1)),
     "# seed: 5\n# spec0: mean=0.0,0.0 cov_scale=1.0 count=40 label=0\n"
     "# spec1: mean=2.2,2.2 cov_scale=0.5 count=8 label=1\n"),
    (3, (GaussianSpec((0.5, -1.0), 2.0, 12, 0), GaussianSpec((2.0, 2.0), 0.5, 6, 1)),
     "# seed: 3\n# spec0: mean=0.5,-1.0 cov_scale=2.0 count=12 label=0\n"
     "# spec1: mean=2.0,2.0 cov_scale=0.5 count=6 label=1\n"),
    (7, (DEFAULT_COMMON, DEFAULT_UNCOMMON),  # the standard and hard datasets
     "# seed: 7\n# spec0: mean=0.0,0.0 cov_scale=1.0 count=10000 label=0\n"
     "# spec1: mean=2.2,2.2 cov_scale=0.5 count=400 label=1\n"),
    (7, (DEFAULT_COMMON, HARD_UNCOMMON),
     "# seed: 7\n# spec0: mean=0.0,0.0 cov_scale=1.0 count=10000 label=0\n"
     "# spec1: mean=1.0,1.0 cov_scale=0.5 count=400 label=1\n"),
]


@pytest.mark.parametrize(
    "seed, specs, header", DATASET_CASES, ids=["seed5", "seed3", "standard7", "hard7"]
)
def test_dataset_bytes_regenerate_from_header(tmp_path, seed, specs, header):
    """A dataset file is its seed and spec lines, then csv.writer's rows of
    the points gen_two_gaussians draws from exactly those values: the file
    carries everything needed to regenerate it."""
    dataset = gen_two_gaussians(seed, *specs)
    save_dataset(tmp_path / "data.csv", dataset)
    rows = [[repr(float(x1)), repr(float(x2)), int(label)]
            for (x1, x2), label in zip(dataset.points, dataset.labels)]
    body = csv_writer_bytes(tmp_path / "ref.csv", ["x1", "x2", "label"], rows)
    assert (tmp_path / "data.csv").read_bytes() == header.encode() + body


def _toy_report():
    return ExperimentReport(
        total_accuracy=0.9617,
        balanced_accuracy=0.766,
        per_class_recall={0: 0.97, 1: 0.562},
        quartiles=QuartileReport((0.9, 0.95, 0.99, 1.0), 0.8, None),
        boundary_disagreement=0.0375,
        rare_set=RareSetReport({0: 3, 1: 5}, 1.25, 2.5, False, 8),
        tail_counts={"common": 10000, "rare": 350, "hard": 50},
        excluded_examples=0,
        mean_weight_after_warmup=9.75,
    )


def test_report_fields_mark_absent_metrics():
    fields = report_fields(_toy_report())
    assert fields["quartile.point_biserial"] == "absent"
    assert fields["quartile.correlation"] == repr(0.8)
    assert fields["rare.class1"] == 5
    assert fields["weight.mean_after_warmup"] == repr(9.75)
    no_step_past_warmup = replace(_toy_report(), mean_weight_after_warmup=None)
    assert report_fields(no_step_past_warmup)["weight.mean_after_warmup"] == "absent"


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
