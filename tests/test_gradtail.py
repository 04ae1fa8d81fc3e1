"""Weighting algorithm oracles: hand-evaluated steps, closed forms, invariances."""

import numpy as np
import pytest

from gradtail.algorithm import (
    BatchWeighting,
    GradTailConfig,
    GradTailState,
    activation_f,
    ema_update,
    step_arrays,
)
from gradtail.engine import weighted_mean

LAYOUT = ((0, "bias"),)


def vec(values):
    return np.asarray(values, dtype=float)


def rows(*grads):
    """A (batch, n_params) gradient matrix from per-example rows."""
    return np.array(grads, dtype=float)


def state_with(ema, sigma=0.0, updates_seen=0):
    return GradTailState(vec(ema), LAYOUT, sigma=sigma, updates_seen=updates_seen)


def cosine(ema, grad):
    """The alignment step_arrays assigns ``grad`` against ``ema``; None if undefined."""
    w, _ = step_arrays(state_with(ema, updates_seen=10), rows(grad), GradTailConfig())
    return float(w.alignments[0]) if w.defined[0] else None


class TestConfig:
    def test_defaults(self):
        c = GradTailConfig()
        assert c.pivot == 0.0
        assert c.decay == 0.99
        assert c.slope == 0.75
        assert c.sigma_floor == 1e-3
        assert c.warmup_batches == 10
        assert c.max_weight == 15.0  # amplitude 28

    def test_from_max_weight(self):
        assert GradTailConfig.from_max_weight(15.0).amplitude == 28.0
        assert GradTailConfig.from_max_weight(3.0).amplitude == 4.0
        assert GradTailConfig.from_max_weight(1.0).amplitude == 0.0
        with pytest.raises(ValueError):
            GradTailConfig.from_max_weight(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GradTailConfig(decay=1.0)
        with pytest.raises(ValueError):
            GradTailConfig(decay=0.0)
        with pytest.raises(ValueError):
            GradTailConfig(amplitude=-1.0)
        with pytest.raises(ValueError):
            GradTailConfig(slope=0.0)
        with pytest.raises(ValueError):
            GradTailConfig(sigma_floor=0.0)
        with pytest.raises(ValueError):
            GradTailConfig(warmup_batches=-1)
        for name in ("pivot", "amplitude", "slope", "sigma_floor", "epsilon_norm", "decay"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    GradTailConfig(**{name: value})
        # amplitude 0 is legal: the explicit no-op configuration
        assert GradTailConfig(amplitude=0.0).max_weight == 1.0


class TestNormalizedDot:
    """The clipped cosine step_arrays takes between a gradient and the EMA."""

    def test_parallel(self):
        assert cosine([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_antiparallel_scale_invariant(self):
        assert cosine([2, 0], [-3, 0]) == -1.0

    def test_undefined_on_tiny_norm(self):
        assert cosine([0, 0], [1, 0]) is None
        assert cosine([1, 0], [1e-13, 0]) is None

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            step_arrays(state_with([1, 0, 0]), np.zeros((1, 2)), GradTailConfig())

    def test_range_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = cosine(rng.normal(size=4) * 10, rng.normal(size=4) * 10)
            assert -1.0 <= c <= 1.0


class TestActivation:
    def test_peak_values(self):
        assert activation_f(0.0, 28.0, 1.0) == 15.0
        assert activation_f(0.0, 4.0, 1.0) == 3.0

    def test_far_tail_reaches_one(self):
        assert activation_f(50.0, 28.0, 1.0) < 1.0 + 1e-10

    def test_hand_value_at_one(self):
        # 1 + 4/(1 + e), logistic(-1) = 0.2689414213699951
        assert activation_f(1.0, 4.0, 1.0) == pytest.approx(2.0757656854799804, rel=1e-15)

    def test_monotone_decreasing_grid(self):
        d = np.linspace(0.0, 20.0, 1000)
        f = activation_f(d, 28.0, 1.0)
        assert np.all(np.diff(f) < 0.0)
        np.testing.assert_array_equal(d, np.linspace(0.0, 20.0, 1000))  # input left as it was

    def test_bounds_bulk(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.0, 100.0, size=100_000)
        f = activation_f(d, 28.0, 1.0)
        assert np.all(f >= 1.0) and np.all(f <= 15.0)

    def test_slope_controls_falloff(self):
        assert activation_f(1.0, 4.0, 5.0) < activation_f(1.0, 4.0, 0.5)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            activation_f(-0.1, 4.0, 1.0)

    def test_zero_amplitude_identically_one(self):
        d = np.linspace(0, 10, 101)
        np.testing.assert_array_equal(activation_f(d, 0.0, 1.0), np.ones(101))


class TestEmaUpdate:
    def test_closed_form_constant_observation(self):
        # k updates of constant g from zero -> (1 - decay^k) * g
        decay = 0.99
        g = vec([3.0, -1.5, 0.25])
        cur = vec([0.0, 0.0, 0.0])
        for k in range(1, 101):
            cur = ema_update(cur, g, decay)
            expect = (1.0 - decay**k) * g
            np.testing.assert_allclose(cur, expect, rtol=0, atol=1e-12)

    def test_scalar_closed_form(self):
        cur, decay = 0.0, 0.9
        for k in range(1, 50):
            cur = ema_update(cur, 2.0, decay)
            assert cur == pytest.approx((1 - decay**k) * 2.0, abs=1e-12)

    def test_fixed_point(self):
        g = vec([1.0, 2.0])
        out = ema_update(g, g, 0.99)
        np.testing.assert_allclose(out, g, rtol=1e-15)

    def test_decay_range(self):
        with pytest.raises(ValueError):
            ema_update(0.0, 1.0, 1.0)


class TestStep:
    def test_first_call_is_warmup(self):
        state = state_with([0.0, 0.0])
        cfg = GradTailConfig()
        w, new = step_arrays(state, rows([1.0, 0.0], [0.0, 3.0]), cfg)
        assert w.warmup_active
        np.testing.assert_array_equal(w.weights, [1.0, 1.0])
        np.testing.assert_array_equal(w.alignments, [0.0, 0.0])  # undefined, recorded 0
        assert not w.defined.any()
        # EMA picks up (1-decay) * mean(grads)
        np.testing.assert_allclose(new.ema_grad, 0.01 * np.array([0.5, 1.5]), rtol=1e-15)
        # no defined alignments -> sigma untouched
        assert new.sigma == 0.0
        assert new.updates_seen == 1
        assert new.layout == LAYOUT

    def test_warmup_by_count_still_updates_stats(self):
        state = state_with([1.0, 0.0], sigma=0.2, updates_seen=3)
        cfg = GradTailConfig(warmup_batches=10)
        w, new = step_arrays(state, rows([1.0, 0.0]), cfg)
        assert w.warmup_active
        np.testing.assert_array_equal(w.weights, [1.0])
        assert w.alignments[0] == 1.0
        assert new.sigma == pytest.approx(0.99 * 0.2 + 0.01 * 1.0, rel=1e-15)

    def test_perpendicular_gets_max_weight(self):
        # alignment 0 at pivot 0 -> distance 0 -> peak weight
        state = state_with([1.0, 0.0], sigma=0.5, updates_seen=10)
        cfg = GradTailConfig(warmup_batches=10)
        w, _ = step_arrays(state, rows([0.0, 2.0]), cfg)
        assert not w.warmup_active
        assert w.alignments[0] == 0.0 and w.defined[0]
        assert w.weights[0] == cfg.max_weight == 15.0

    def test_parallel_hand_value(self):
        # alignment 1, sigma stays 1, pivot 0 -> d = 1 -> 1 + 4*logistic(-1)
        state = state_with([1.0, 0.0], sigma=1.0, updates_seen=10)
        cfg = GradTailConfig(amplitude=4.0, slope=1.0, warmup_batches=10)
        w, new = step_arrays(state, rows([5.0, 0.0]), cfg)
        assert w.alignments[0] == 1.0
        assert new.sigma == pytest.approx(1.0, rel=1e-15)  # 0.99*1 + 0.01*1
        assert w.weights[0] == pytest.approx(2.0757656854799804, rel=1e-14)

    def test_weights_use_post_update_sigma(self):
        # sigma_pre = 0, one fully aligned grad: sigma_post = 0.01, d = 1/0.01 = 100.
        # With slope 0.01 that gives exactly 1 + A*logistic(-1); using sigma_pre
        # (floored to 1e-3, d = 1000) would give logistic(-10) instead.
        state = state_with([1.0, 0.0], sigma=0.0, updates_seen=10)
        cfg = GradTailConfig(amplitude=4.0, slope=0.01, warmup_batches=10)
        w, new = step_arrays(state, rows([2.0, 0.0]), cfg)
        assert new.sigma == pytest.approx(0.01, rel=1e-12)
        assert w.weights[0] == pytest.approx(2.0757656854799804, rel=1e-12)

    def test_alignments_use_pre_update_ema(self):
        # grad orthogonal to the pre-update EMA must read alignment 0 even
        # though the post-update EMA tilts toward it
        state = state_with([1.0, 0.0], sigma=0.5, updates_seen=10)
        w, new = step_arrays(state, rows([0.0, 1.0]), GradTailConfig())
        assert w.alignments[0] == 0.0
        assert new.ema_grad[1] > 0.0

    def test_zero_grad_excluded_from_sigma(self):
        state = state_with([1.0, 0.0], sigma=0.5, updates_seen=10)
        cfg = GradTailConfig(warmup_batches=10)
        w, new = step_arrays(state, rows([1.0, 0.0], [0.0, 0.0]), cfg)
        assert not w.warmup_active  # EMA norm is fine
        assert w.defined.tolist() == [True, False]
        assert w.alignments[1] == 0.0
        # sigma_x over the defined entries only: mean(|1.0|) = 1
        assert new.sigma == pytest.approx(0.99 * 0.5 + 0.01 * 1.0, rel=1e-15)

    def test_ema_mean_is_unnormalized(self):
        state = state_with([0.0, 0.0])
        _, new = step_arrays(state, rows([10.0, 0.0], [30.0, 0.0]), GradTailConfig())
        np.testing.assert_allclose(new.ema_grad, [0.01 * 20.0, 0.0], rtol=1e-15)

    def test_single_step_scale_invariance_bitwise(self):
        # scaling one example's grad by a power of two changes nothing that step
        rng = np.random.default_rng(5)
        state = state_with(rng.normal(size=4), sigma=0.3, updates_seen=10)
        grads = rng.normal(size=(6, 4))
        w1, _ = step_arrays(state.copy(), grads, GradTailConfig())
        scaled = grads.copy()
        scaled[2] *= 4.0
        w2, _ = step_arrays(state.copy(), scaled, GradTailConfig())
        np.testing.assert_array_equal(w1.alignments, w2.alignments)
        np.testing.assert_array_equal(w1.weights, w2.weights)

    def test_single_step_scale_invariance_random_positive(self):
        rng = np.random.default_rng(6)
        state = state_with(rng.normal(size=4), sigma=0.3, updates_seen=10)
        grads = rng.normal(size=(5, 4))
        w1, _ = step_arrays(state.copy(), grads, GradTailConfig())
        for _ in range(20):
            scaled = grads * rng.uniform(0.1, 10.0, size=(5, 1))
            w2, _ = step_arrays(state.copy(), scaled, GradTailConfig())
            np.testing.assert_allclose(w2.alignments, w1.alignments, rtol=1e-12, atol=1e-14)

    def test_ema_scale_invariance_of_alignments(self):
        rng = np.random.default_rng(7)
        grads = rng.normal(size=(5, 4))
        s1 = state_with(rng.normal(size=4), sigma=0.3, updates_seen=10)
        s2 = GradTailState(8.0 * s1.ema_grad, LAYOUT, s1.sigma, s1.updates_seen)
        w1, _ = step_arrays(s1, grads, GradTailConfig())
        w2, _ = step_arrays(s2, grads, GradTailConfig())
        np.testing.assert_array_equal(w1.alignments, w2.alignments)

    def test_pivot_shifts_favored_alignment(self):
        # pivot 1 in sigma units favors the aligned example; pivot 0 the orthogonal one
        state = state_with([1.0, 0.0], sigma=1.0, updates_seen=10)
        grads = np.array([[3.0, 0.0], [0.0, 3.0]])  # aligned, orthogonal
        at0, _ = step_arrays(state.copy(), grads, GradTailConfig(pivot=0.0))
        at1, _ = step_arrays(state.copy(), grads, GradTailConfig(pivot=1.0))
        assert at0.weights[1] > at0.weights[0]
        assert at1.weights[0] > at1.weights[1]

    def test_bounds_and_ranges_random_walk(self):
        rng = np.random.default_rng(42)
        cfg = GradTailConfig(amplitude=28.0, warmup_batches=5)
        state = GradTailState(np.zeros(8), LAYOUT)
        for step in range(200):
            grads = rng.normal(size=(16, 8)) * rng.uniform(0.1, 5.0)
            w, state = step_arrays(state, grads, cfg)
            assert state.sigma >= 0.0 and state.sigma <= 1.0
            assert np.all(w.alignments >= -1.0) and np.all(w.alignments <= 1.0)
            assert np.all(w.weights >= 1.0) and np.all(w.weights <= cfg.max_weight)
            assert state.updates_seen == step + 1
            if step < 5:
                assert w.warmup_active and np.all(w.weights == 1.0)
            else:
                assert not w.warmup_active

    def test_matches_naive_reimplementation(self):
        # independent route: plain per-example loops, explicit EMA arithmetic
        rng = np.random.default_rng(99)
        cfg = GradTailConfig(amplitude=4.0, decay=0.9, warmup_batches=2, pivot=0.5)
        dim, bsz = 6, 8
        state = GradTailState(np.zeros(dim), LAYOUT)
        ema, sigma, seen = np.zeros(dim), 0.0, 0
        for _ in range(30):
            grads = rng.normal(size=(bsz, dim))
            w, state = step_arrays(state, grads, cfg)

            ema_norm_pre = np.sqrt((ema * ema).sum())
            thetas, defined = [], []
            for g in grads:
                ng = np.sqrt((g * g).sum())
                if ng < cfg.epsilon_norm or ema_norm_pre < cfg.epsilon_norm:
                    thetas.append(0.0)
                    defined.append(False)
                else:
                    thetas.append(min(1.0, max(-1.0, float(g @ ema) / (ng * ema_norm_pre))))
                    defined.append(True)
            if any(defined):
                sx = np.mean([abs(t) for t, d in zip(thetas, defined) if d])
                sigma = cfg.decay * sigma + (1 - cfg.decay) * sx
            ema = cfg.decay * ema + (1 - cfg.decay) * grads.mean(axis=0)
            warm = seen < cfg.warmup_batches or ema_norm_pre < cfg.epsilon_norm
            if warm:
                expect_w = np.ones(bsz)
            else:
                scale = max(sigma, cfg.sigma_floor)
                d = np.abs(np.array(thetas) / scale - cfg.pivot)
                expect_w = 1.0 + cfg.amplitude / (1.0 + np.exp(cfg.slope * d))
            seen += 1

            np.testing.assert_allclose(w.alignments, thetas, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(w.weights, expect_w, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(state.ema_grad, ema, rtol=1e-12, atol=1e-16)
            assert state.sigma == pytest.approx(sigma, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("zero_rows", [0, 3])  # 3: undefined cosines, the masked branch
    def test_weights_are_activation_f_bitwise(self, zero_rows):
        """The weights, built in place in one buffer, are activation_f at
        |alignment / sigma - pivot| bit for bit, and the input state is kept."""
        rng = np.random.default_rng(17 + zero_rows)
        cfg = GradTailConfig(pivot=0.3, warmup_batches=0, sigma_floor=0.02)
        for _ in range(25):
            state = state_with(rng.normal(size=5), sigma=rng.uniform(0.0, 0.6), updates_seen=3)
            before = state.copy()
            grads = rng.normal(size=(16, 5)) * rng.uniform(0.01, 5.0)
            grads[rng.permutation(16)[:zero_rows]] = 0.0
            w, new = step_arrays(state, grads, cfg)
            assert not w.warmup_active and int(w.defined.sum()) == 16 - zero_rows
            distance = np.abs(w.alignments / max(new.sigma, cfg.sigma_floor) - cfg.pivot)
            want = activation_f(distance, cfg.amplitude, cfg.slope)
            formula = 1.0 + cfg.amplitude / (1.0 + np.exp(cfg.slope * distance))
            assert w.weights.tobytes() == want.tobytes() == formula.tobytes()
            assert state.ema_grad.tobytes() == before.ema_grad.tobytes()
            assert (state.sigma, state.updates_seen) == (before.sigma, before.updates_seen)

    def test_errors(self):
        state = state_with([0.0, 0.0])
        with pytest.raises(ValueError):
            step_arrays(state, np.zeros((1, 3)), GradTailConfig())
        with pytest.raises(ValueError):
            step_arrays(state, np.zeros(2), GradTailConfig())
        with pytest.raises(ValueError):
            step_arrays(state, np.zeros((0, 2)), GradTailConfig())


class TestWeightedLoss:
    """The kernel's weighted reduction: sum_b w_b * row_b / B, here on
    one-column rows, so it reads as the weighted mean loss."""

    def test_unit_weights_reduce_to_mean(self):
        rng = np.random.default_rng(3)
        losses = rng.uniform(0, 5, size=9)
        w = BatchWeighting(np.zeros(9), np.ones(9), True, np.zeros(9, dtype=bool))
        got = weighted_mean(w.weights, losses[:, None])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(losses.mean(), rel=1e-15)

    def test_hand_value(self):
        w = BatchWeighting(np.zeros(2), np.array([1.0, 3.0]), False, np.ones(2, dtype=bool))
        assert weighted_mean(w.weights, np.array([[2.0], [4.0]]))[0] == 7.0

    def test_zero_losses(self):
        w = BatchWeighting(np.zeros(3), np.array([1.0, 5.0, 15.0]), False, np.ones(3, dtype=bool))
        assert weighted_mean(w.weights, np.zeros((3, 1)))[0] == 0.0

    def test_length_mismatch(self):
        w = BatchWeighting(np.zeros(2), np.ones(2), True, np.zeros(2, dtype=bool))
        with pytest.raises(ValueError):
            weighted_mean(w.weights, np.zeros((3, 1)))
