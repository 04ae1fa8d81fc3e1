"""Training-loop oracles: optimizer recurrence, determinism, neutrality, traces."""

import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import gradtail
from gradtail import engine
from gradtail.algorithm import GradTailConfig
from gradtail.baselines import entropy_scores
from gradtail.datasets import gen_dense_task, gen_two_gaussians
from gradtail.engine import (
    TRACE_FLUSH,
    TraceTable,
    TrainConfig,
    TrainingDiverged,
    dense_config,
    dense_predictions,
    nesterov_update,
    parse_subset_spec,
    subset_selectors,
    train,
    train_dense,
)
from gradtail.mlp import MlpModel, softmax


def small_dataset(seed=0):
    from gradtail.datasets import GaussianSpec

    return gen_two_gaussians(
        seed,
        GaussianSpec((0.0, 0.0), 1.0, 500, 0),
        GaussianSpec((2.2, 2.2), 0.5, 40, 1),
    )


def quick_config(**overrides):
    base = dict(steps=60, batch_size=32, strategy="uniform",
                gradtail=GradTailConfig(warmup_batches=5))
    base.update(overrides)
    return TrainConfig(**base)


class TestNesterov:
    def test_zero_momentum_is_plain_descent(self):
        p, v = np.array([1.0, -2.0]), np.zeros(2)
        g = np.array([0.5, 0.5])
        p2, v2 = nesterov_update(p, v, g, 0.1, 0.0)
        np.testing.assert_allclose(p2, p - 0.1 * g, rtol=1e-15)
        np.testing.assert_allclose(v2, -0.1 * g, rtol=1e-15)

    def test_zero_grads_velocity_decays_geometrically(self):
        p, v = np.zeros(3), np.array([1.0, -1.0, 2.0])
        for k in range(1, 10):
            p, v = nesterov_update(p, v, np.zeros(3), 0.1, 0.9)
            np.testing.assert_allclose(v, 0.9**k * np.array([1.0, -1.0, 2.0]), rtol=1e-12)

    def test_quadratic_bowl_recurrence(self):
        # L = theta^2/2, grad(x) = x evaluated at the look-ahead point
        lr, mu = 0.1, 0.9
        theta, vel = 1.0, 0.0
        ref_theta, ref_vel = 1.0, 0.0
        for _ in range(20):
            ref_grad = ref_theta + mu * ref_vel
            ref_vel = mu * ref_vel - lr * ref_grad
            ref_theta = ref_theta + ref_vel

            g = np.array([theta + mu * vel])
            out_p, out_v = nesterov_update(np.array([theta]), np.array([vel]), g, lr, mu)
            theta, vel = float(out_p[0]), float(out_v[0])
            assert theta == pytest.approx(ref_theta, rel=1e-12)
            assert vel == pytest.approx(ref_vel, rel=1e-12)
        # converging on the bowl, not oscillating off to infinity
        assert abs(theta) < 1.0

    def test_shape_and_momentum_validation(self):
        with pytest.raises(ValueError):
            nesterov_update(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)
        with pytest.raises(ValueError):
            nesterov_update(np.zeros(2), np.zeros(2), np.zeros(2), 0.1, 1.0)


class TestConfig:
    def test_toy_defaults(self):
        c = TrainConfig()
        assert c.steps == 10_000
        assert c.learning_rate == 1e-4
        assert c.momentum == 0.9
        assert c.batch_size == 128
        assert c.gradtail.max_weight == 15.0
        assert c.gradtail.pivot == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=-1)
        with pytest.raises(ValueError):
            TrainConfig(strategy="upsample")
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError):
            TrainConfig(subset="weights:0")
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(focal_gamma=-1.0)
        with pytest.raises(ValueError, match="hidden_activation"):
            TrainConfig(hidden_activation="sigmoid")
        for dims in ((2, 0, 2), (2,), (0, 2)):
            with pytest.raises(ValueError, match="model_dims"):
                TrainConfig(model_dims=dims)
        with pytest.raises(ValueError, match="weight_scale"):
            TrainConfig(weight_scale=-1.0)
        assert TrainConfig(weight_scale=0.0).weight_scale == 0.0
        for name in ("learning_rate", "momentum", "focal_gamma", "weight_scale"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    TrainConfig(**{name: value})

    def test_subset_specs(self):
        assert parse_subset_spec("all") == ("all", None)
        assert parse_subset_spec("biases") == ("biases", None)
        assert parse_subset_spec("biases:0,1") == ("biases", (0, 1))
        with pytest.raises(ValueError):
            parse_subset_spec("biases:")
        assert subset_selectors("biases:1", 2) == ((1, "bias"),)

    def test_subset_selectors_spell_the_state_layout(self):
        """The (layer, kind) pairs, as state.txt's layout line writes them."""
        spelt = {
            spec: ";".join(f"{layer}:{kind}" for layer, kind in subset_selectors(spec, 3))
            for spec in ("all", "biases", "biases:0,1")
        }
        assert spelt == {
            "all": "0:weight;0:bias;1:weight;1:bias;2:weight;2:bias",
            "biases": "0:bias;1:bias;2:bias",
            "biases:0,1": "0:bias;1:bias",
        }

    def test_class_weights_checked_at_construction(self):
        for weights in ((1.0, 0.5), (2.0, 3.0), (1.0, float("inf"))):
            with pytest.raises(ValueError):
                TrainConfig(class_weights=weights)
        assert TrainConfig(class_weights=(1.0, 4.0)).class_weights == (1.0, 4.0)


class TestTrain:
    def test_zero_steps_returns_init_model(self):
        ds = small_dataset()
        res = train(ds, model_seed=1, config=quick_config(steps=0))
        init = MlpModel.initialize([2, 5, 2], 1)
        for a, b in zip(res.model.weights + res.model.biases, init.weights + init.biases):
            np.testing.assert_array_equal(a, b)

    def test_bitwise_determinism(self):
        ds = small_dataset()
        r1 = train(ds, 2, quick_config(strategy="gradtail"))
        r2 = train(ds, 2, quick_config(strategy="gradtail"))
        for a, b in zip(r1.model.weights, r2.model.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(r1.step_log.mean_loss, r2.step_log.mean_loss)
        np.testing.assert_array_equal(r1.trace.alignment_sum, r2.trace.alignment_sum)

    def test_reference_mode_bitwise_determinism(self):
        ds = small_dataset()
        cfg = quick_config(steps=20, reference_mode=True)
        r1, r2 = train(ds, 3, cfg), train(ds, 3, cfg)
        for a, b in zip(r1.model.weights, r2.model.weights):
            np.testing.assert_array_equal(a, b)

    def test_reference_mode_close_to_vectorized(self):
        ds = small_dataset()
        r_fast = train(ds, 3, quick_config(steps=20))
        r_ref = train(ds, 3, quick_config(steps=20, reference_mode=True))
        for a, b in zip(r_fast.model.weights, r_ref.model.weights):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_neutral_gradtail_equals_uniform(self):
        ds = small_dataset()
        neutral = GradTailConfig(amplitude=0.0, warmup_batches=5)
        r_g = train(ds, 4, quick_config(strategy="gradtail", gradtail=neutral))
        r_u = train(ds, 4, quick_config(strategy="uniform", gradtail=neutral))
        for a, b in zip(r_g.model.weights + r_g.model.biases, r_u.model.weights + r_u.model.biases):
            np.testing.assert_array_equal(a, b)

    def test_unit_class_weights_equal_uniform(self):
        ds = small_dataset()
        r_f = train(ds, 5, quick_config(strategy="inverse_frequency", class_weights=(1.0, 1.0)))
        r_u = train(ds, 5, quick_config(strategy="uniform"))
        for a, b in zip(r_f.model.weights, r_u.model.weights):
            np.testing.assert_array_equal(a, b)

    def test_inverse_frequency_weights_from_counts(self):
        ds = small_dataset()  # 500 vs 40 -> ratio 12.5
        res = train(ds, 6, quick_config(strategy="inverse_frequency", steps=30))
        # mean weight per step must exceed 1 (uncommon examples hit most batches)
        assert res.step_log.mean_weight.max() > 1.0
        ratio_batches = res.step_log.mean_weight * 32  # sum of weights per batch
        assert np.all(ratio_batches >= 32.0)

    def test_trace_conservation(self):
        ds = small_dataset()
        cfg = quick_config(steps=40)
        res = train(ds, 7, cfg)
        assert res.trace.occurrences.sum() == 40 * cfg.batch_size

    def test_trace_statistics_ranges(self):
        ds = small_dataset()
        res = train(ds, 8, quick_config(strategy="gradtail", steps=80))
        seen = res.trace.seen()
        ma = res.trace.mean_alignment()[seen]
        assert np.all(ma >= -1.0) and np.all(ma <= 1.0)
        assert np.all(res.trace.mean_entropy()[seen] >= 0.0)
        assert np.all(res.trace.mean_entropy()[seen] <= np.log(2.0) + 1e-12)
        assert np.all(res.trace.occurrences[seen] >= 1)

    def test_unseen_example_reads_nan(self):
        ds = small_dataset()
        res = train(ds, 9, quick_config(steps=1, batch_size=4))
        unseen = int(np.flatnonzero(res.trace.occurrences == 0)[0])
        for stat in (res.trace.mean_alignment(), res.trace.mean_entropy()):
            assert np.isnan(stat[unseen])

    def test_loss_decreases_on_average(self):
        ds = small_dataset()
        res = train(ds, 10, quick_config(steps=400, learning_rate=5e-2))
        first, last = res.step_log.mean_loss[:50].mean(), res.step_log.mean_loss[-50:].mean()
        assert last < first

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_raises_with_snapshot(self):
        ds = small_dataset()
        cfg = quick_config(steps=400, learning_rate=1e6, loss="squared", momentum=0.95)
        with pytest.raises(TrainingDiverged) as err:
            train(ds, 11, cfg)
        assert "step" in err.value.snapshot
        # a worker process sends the exception back pickled
        restored = pickle.loads(pickle.dumps(err.value))
        assert type(restored) is TrainingDiverged
        assert (str(restored), restored.snapshot) == (str(err.value), err.value.snapshot)

    def test_subset_outside_the_model_is_a_config_error(self):
        with pytest.raises(ValueError):
            train(small_dataset(), 0, quick_config(subset="biases:5"))

    def test_focal_runs_and_weights_bounded(self):
        ds = small_dataset()
        res = train(ds, 12, quick_config(strategy="focal", steps=30))
        assert np.all(res.step_log.mean_weight >= 0.0)
        assert np.all(res.step_log.mean_weight <= 1.0)

    def test_batch_size_of_dataset_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            train(ds, 0, quick_config(batch_size=ds.n + 1))

    def test_gradtail_sigma_logged_and_bounded(self):
        ds = small_dataset()
        res = train(ds, 13, quick_config(strategy="gradtail", steps=50))
        assert np.all(res.step_log.sigma >= 0.0) and np.all(res.step_log.sigma <= 1.0)
        assert res.gradtail_state.updates_seen == 50


class TestTraceBuffer:
    """The buffered trace against one np.add.at per step, driven here through
    the same step kernel and batch stream as train."""

    COLUMNS = ("occurrences", "alignment_sum", "entropy_sum")

    @staticmethod
    def per_step_trace(dataset, model_seed, config):
        labels = dataset.labels
        run = engine._start_run(config, model_seed, None, config.batch_size)
        rng = engine._batch_stream(config, model_seed)
        trace = TraceTable.zeros(dataset.n)
        for step in range(config.steps):
            idx = rng.integers(0, dataset.n, size=config.batch_size)
            weighting, _, _, outputs = engine._step(
                run, step, labels[idx], idx,
                engine._example_gradients, dataset.points[idx], labels[idx],
            )
            np.add.at(trace.occurrences, idx, 1)
            np.add.at(trace.alignment_sum, idx, weighting.alignments)
            np.add.at(trace.entropy_sum, idx, entropy_scores(softmax(outputs)))
        return trace

    @pytest.mark.parametrize("strategy", ["gradtail", "uniform", "focal"])
    @pytest.mark.parametrize(
        "steps", [1, TRACE_FLUSH - 1, TRACE_FLUSH, TRACE_FLUSH + 1, 2 * TRACE_FLUSH + 3]
    )
    def test_matches_per_step_add_at(self, strategy, steps):
        ds = small_dataset()  # 540 examples: most recur within and across flushes
        cfg = quick_config(strategy=strategy, steps=steps)
        got = train(ds, 14, cfg).trace
        want = self.per_step_trace(ds, 14, cfg)
        for name in self.COLUMNS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestBatchDraw:
    """train draws the batch indices of TRACE_FLUSH steps at once; Philox
    gives the same indices as one draw per step, also for a run that ends
    inside a block."""

    @pytest.mark.parametrize("counts, batch_size", [((2, 1), 2), ((10_000, 400), 128)])
    def test_block_draws_equal_per_step_draws(self, monkeypatch, counts, batch_size):
        from gradtail.datasets import GaussianSpec

        ds = gen_two_gaussians(
            3, GaussianSpec((0.0, 0.0), 1.0, counts[0], 0), GaussianSpec((2.2, 2.2), 0.5, counts[1], 1)
        )
        cfg = quick_config(steps=45, batch_size=batch_size)
        assert cfg.steps % TRACE_FLUSH != 0
        batches, batch_gradients = [], engine.batch_gradients

        def recording(model, inputs, targets, loss_fn, **kwargs):
            batches.append((inputs.copy(), np.array(targets)))
            return batch_gradients(model, inputs, targets, loss_fn, **kwargs)

        monkeypatch.setattr(engine, "batch_gradients", recording)
        train(ds, 7, cfg)
        rng = engine._batch_stream(cfg, 7)
        assert len(batches) == cfg.steps
        for inputs, targets in batches:
            idx = rng.integers(0, ds.n, size=batch_size)
            np.testing.assert_array_equal(inputs, ds.points[idx])
            np.testing.assert_array_equal(targets, ds.labels[idx])


class TestTrainDense:
    def grid(self, seed=0):
        return gen_dense_task(seed, 32, 32, 0.05)

    def cfg(self, **overrides):
        base = dict(steps=25, gradtail=GradTailConfig(pivot=-0.5, warmup_batches=5))
        base.update(overrides)
        return dense_config(**base)

    def test_seven_regions_logged_per_step(self):
        res = train_dense(self.grid(), 1, self.cfg(), size_min=8, size_max=16)
        rows = vars(res.patch_log)
        for step in range(25):
            n = int((rows["step"] == step).sum())
            assert n == 7  # 6 rects + complement (complement can't be empty here)

    def test_blanketing_patches_drop_complement(self):
        # patches as large as the grid: complement empty -> 6 regions
        res = train_dense(self.grid(), 2, self.cfg(steps=5), size_min=32, size_max=32)
        rows = vars(res.patch_log)
        assert int((rows["step"] == 0).sum()) == 6

    def test_determinism(self):
        a = train_dense(self.grid(), 3, self.cfg(), size_min=8, size_max=16)
        b = train_dense(self.grid(), 3, self.cfg(), size_min=8, size_max=16)
        for wa, wb in zip(a.model.weights, b.model.weights):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(a.step_log.mean_loss, b.step_log.mean_loss)

    def test_neutral_gradtail_equals_uniform(self):
        neutral = GradTailConfig(amplitude=0.0, warmup_batches=5)
        a = train_dense(self.grid(), 4, self.cfg(gradtail=neutral), size_min=8, size_max=16)
        b = train_dense(self.grid(), 4, self.cfg(strategy="uniform", gradtail=neutral),
                        size_min=8, size_max=16)
        for wa, wb in zip(a.model.weights, b.model.weights):
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("strategy", ["uniform", "gradtail"])
    def test_region_gradients_match_reference_mode(self, strategy):
        # reference mode averages serially materialised per-pixel rows per region
        fast = train_dense(self.grid(), 8, self.cfg(steps=10, strategy=strategy),
                           size_min=8, size_max=16)
        ref = train_dense(self.grid(), 8, self.cfg(steps=10, strategy=strategy,
                                                   reference_mode=True),
                          size_min=8, size_max=16)
        for a, b in zip(fast.model.weights + fast.model.biases,
                        ref.model.weights + ref.model.biases):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        fa, ra = vars(fast.patch_log), vars(ref.patch_log)
        np.testing.assert_array_equal(fa["patch_index"], ra["patch_index"])
        for key in ("alignment", "weight"):
            np.testing.assert_allclose(fa[key], ra[key], rtol=0.0, atol=1e-12)
        assert fa["weight"].max() > 1.0 or strategy == "uniform"

    @staticmethod
    def assert_matches_reference(grid, model_seed, cfg, **sampler):
        fast = train_dense(grid, model_seed, cfg, **sampler)
        ref = train_dense(grid, model_seed, replace(cfg, reference_mode=True), **sampler)
        np.testing.assert_allclose(fast.model.params, ref.model.params, rtol=1e-12, atol=0.0)
        fa, ra = vars(fast.patch_log), vars(ref.patch_log)
        np.testing.assert_array_equal(fa["patch_index"], ra["patch_index"])
        for key in ("alignment", "weight"):
            np.testing.assert_allclose(fa[key], ra[key], rtol=0.0, atol=1e-12)
        return fa

    @pytest.mark.parametrize("strategy", ["uniform", "gradtail"])
    def test_default_sampler_matches_reference_mode_on_64x64(self, strategy):
        cfg = self.cfg(steps=3, strategy=strategy, gradtail=GradTailConfig(pivot=-0.5,
                                                                             warmup_batches=1))
        rows = self.assert_matches_reference(gen_dense_task(0, 64, 64, 0.05), 8, cfg)
        assert rows["weight"].max() > 1.0 or strategy == "uniform"

    def test_weight_block_subset_matches_reference_mode(self):
        """``train.subset: all`` puts weight blocks in the region rows."""
        cfg = self.cfg(steps=10, subset="all", hidden_activation="relu")
        rows = self.assert_matches_reference(self.grid(), 8, cfg, size_min=8, size_max=16)
        assert rows["weight"].max() > 1.0

    def test_zero_steps_log_seven_empty_columns(self):
        res = train_dense(self.grid(), 1, self.cfg(steps=0), size_min=8, size_max=16)
        columns = vars(res.patch_log)
        assert all(col.shape == (0,) for col in columns.values())
        assert {name: col.dtype for name, col in columns.items()} == {
            "step": np.int64, "patch_index": np.int64, "pixels": np.int64,
            "rare_fraction": np.float64, "alignment": np.float64, "weight": np.float64,
            "loss": np.float64,
        }

    def test_warmup_weights_are_ones(self):
        res = train_dense(self.grid(), 5, self.cfg(steps=5), size_min=8, size_max=16)
        rows = vars(res.patch_log)
        np.testing.assert_array_equal(rows["weight"], np.ones(rows["weight"].size))

    def test_loss_decreases(self):
        res = train_dense(self.grid(), 6, self.cfg(steps=300, strategy="uniform"),
                          size_min=8, size_max=16)
        assert res.step_log.mean_loss[-20:].mean() < res.step_log.mean_loss[:20].mean()

    def test_predictions_shape(self):
        g = self.grid()
        res = train_dense(g, 7, self.cfg(steps=5), size_min=8, size_max=16)
        assert dense_predictions(res.model, g).shape == (32, 32)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_names_the_bad_patches(self):
        cfg = self.cfg(steps=200, learning_rate=1e6, loss="squared")
        with pytest.raises(TrainingDiverged) as err:
            train_dense(self.grid(), 9, cfg, size_min=8, size_max=16)
        snap = err.value.snapshot
        assert "non-finite loss" in str(err.value)
        assert snap["bad_examples"] and set(snap["bad_examples"]) <= set(range(7))

    def test_rejects_classification_strategies(self):
        with pytest.raises(ValueError):
            train_dense(self.grid(), 0, self.cfg(strategy="focal"))


# (height, width, data and model seed) of the runs the aliasing test interleaves
ALIAS_GRIDS = [(16, 16, 1), (16, 16, 2), (20, 12, 3)]


def alias_run_arrays(height, width, seed):
    """Every array a short dense run returns: step log, patch log, parameters."""
    cfg = dense_config(steps=12, gradtail=GradTailConfig(pivot=-0.5, warmup_batches=3))
    res = train_dense(gen_dense_task(seed, height, width, 0.05), seed, cfg, size_min=4, size_max=10)
    arrays = {f"step_log.{k}": v for k, v in vars(res.step_log).items()}
    arrays.update({f"patch_log.{k}": v for k, v in vars(res.patch_log).items()})
    arrays["params"] = res.model.params
    return arrays


class _Lockstep:
    """Lets threads take turns, round robin: each `step` call hands the turn
    to the next live thread and waits for it to come back."""

    def __init__(self, names):
        self.names, self.live, self.turn = list(names), set(names), None
        self.cond = threading.Condition()

    def _hand_on(self, me):
        i = self.names.index(me)
        later = self.names[i + 1:] + self.names[: i + 1]
        self.turn = next((name for name in later if name in self.live), None)
        self.cond.notify_all()

    def step(self, me):
        with self.cond:
            self._hand_on(me)
            self.cond.wait_for(lambda: self.turn == me)

    def finish(self, me):
        with self.cond:
            self.live.discard(me)
            self._hand_on(me)


def test_interleaved_dense_runs_match_fresh_processes(tmp_path, monkeypatch):
    """Runs that take turns in one process keep their own buffers: each
    equals, bit for bit, the same run alone in a fresh process. The turn
    passes at `step_arrays`, between a step's backward pass and its update,
    so a buffer two runs shared would feed one run's update the other's pass."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gradtail.__file__)))
    fresh = []
    for k, grid in enumerate(ALIAS_GRIDS):
        path = tmp_path / f"fresh{k}.npz"
        script = (
            "import importlib.util, numpy as np\n"
            f"spec = importlib.util.spec_from_file_location('runs', {__file__!r})\n"
            "runs = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(runs)\n"
            f"np.savez({str(path)!r}, **runs.alias_run_arrays(*{grid!r}))\n"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        with np.load(path) as saved:
            fresh.append(dict(saved))

    names = [str(k) for k in range(len(ALIAS_GRIDS))]
    lockstep, results = _Lockstep(names), {}
    step_arrays = engine.step_arrays

    def stepped(*args, **kwargs):
        lockstep.step(threading.current_thread().name)
        return step_arrays(*args, **kwargs)

    def worker(name, grid):
        try:
            results[name] = alias_run_arrays(*grid)
        finally:
            lockstep.finish(name)

    monkeypatch.setattr(engine, "step_arrays", stepped)
    threads = [threading.Thread(target=worker, name=name, args=(name, grid), daemon=True)
               for name, grid in zip(names, ALIAS_GRIDS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for name, want in zip(names, fresh):
        got = results[name]
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype and np.array_equal(got[key], want[key]), key
