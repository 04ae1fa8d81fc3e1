"""Network forward/backward oracles: hand values, finite differences, invariances."""

import numpy as np
import pytest

from gradtail.mlp import (
    L1,
    LOSSES,
    SOFTMAX_XENT,
    SQUARED,
    Loss,
    MlpModel,
    ParamSubset,
    ParamVector,
    batch_gradients,
    finite_diff_gradient,
    forward,
    forward_batch,
    loss_l1,
    loss_softmax_xent,
    per_example_gradients,
    softmax,
)


def tiny_model(seed=0, dims=(2, 5, 2)):
    return MlpModel.initialize(list(dims), seed=seed)


class TestForward:
    def test_zero_params_zero_output(self):
        m = tiny_model()
        for w in m.weights:
            w[...] = 0.0
        assert np.all(forward(m, np.array([3.0, -1.0])) == 0.0)

    def test_identity_single_layer(self):
        m = MlpModel([3, 3], [np.eye(3)], [np.zeros(3)])
        x = np.array([0.5, -2.0, 7.0])
        np.testing.assert_array_equal(forward(m, x), x)

    def test_bias_only_offsets(self):
        m = MlpModel([2, 2], [np.zeros((2, 2))], [np.array([1.5, -0.5])])
        np.testing.assert_array_equal(forward(m, np.array([9.0, 9.0])), [1.5, -0.5])

    def test_matches_plain_reimplementation(self):
        # independent forward: explicit loops, no shared code path
        m = tiny_model(seed=11)
        x = np.array([0.3, -1.2])
        h = np.tanh(m.weights[0] @ x + m.biases[0])
        expected = m.weights[1] @ h + m.biases[1]
        np.testing.assert_array_equal(forward(m, x), expected)

    def test_batch_agrees_with_single(self):
        # BLAS may reassociate across batch shapes, so compare to rounding only
        m = tiny_model(seed=3)
        xs = np.random.default_rng(5).normal(size=(17, 2))
        got = forward_batch(m, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(got[i], forward(m, x), rtol=1e-12, atol=1e-15)

    def test_forward_deterministic(self):
        m = tiny_model(seed=8)
        x = np.array([1.0, 2.0])
        a, b = forward(m, x), forward(m, x)
        np.testing.assert_array_equal(a, b)

    def test_shape_checks(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            forward(m, np.zeros(3))
        with pytest.raises(ValueError):
            forward_batch(m, np.zeros((4, 5)))

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            MlpModel([2], [], [])
        with pytest.raises(ValueError):
            MlpModel([2, 2], [np.zeros((3, 2))], [np.zeros(2)])
        with pytest.raises(ValueError):
            MlpModel([2, 2], [np.full((2, 2), np.nan)], [np.zeros(2)])

    def test_init_is_seeded(self):
        a = MlpModel.initialize([2, 5, 2], seed=42)
        b = MlpModel.initialize([2, 5, 2], seed=42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert all(np.all(b == 0.0) for b in a.biases)


class TestLosses:
    def test_xent_uniform_logits(self):
        # two equal logits -> -log(1/2)
        assert loss_softmax_xent(np.array([0.0, 0.0]), 0) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_xent_confident_correct(self):
        # independent derivation: log(1 + e^{-20})
        got = loss_softmax_xent(np.array([10.0, -10.0]), 0)
        assert got == pytest.approx(np.log1p(np.exp(-20.0)), rel=0, abs=1e-24)
        assert got == pytest.approx(2.061153620314381e-09, rel=1e-12)

    def test_xent_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(size=4) * 3
            c = rng.normal() * 100
            assert loss_softmax_xent(logits + c, 2) == pytest.approx(
                loss_softmax_xent(logits, 2), rel=1e-12, abs=1e-12
            )

    def test_xent_no_overflow(self):
        assert np.isfinite(loss_softmax_xent(np.array([1e4, -1e4]), 1))

    def test_xent_label_range(self):
        with pytest.raises(ValueError):
            loss_softmax_xent(np.array([0.0, 0.0]), 2)

    def test_xent_grad_is_softmax_minus_onehot(self):
        logits = np.array([1.0, -2.0, 0.5])
        g = SOFTMAX_XENT.output_grad(logits, 1)
        expect = softmax(logits).copy()
        expect[1] -= 1.0
        np.testing.assert_allclose(g, expect, rtol=1e-15)

    def test_l1_basic(self):
        assert loss_l1(3.0, 5.0) == 2.0
        assert loss_l1(-1.0, -1.0) == 0.0
        with pytest.raises(ValueError):
            loss_l1(np.inf, 0.0)

    def test_l1_grad_sign_and_kink(self):
        g = L1.output_grad(np.array([2.0, -3.0, 1.0]), np.array([1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(g, [1.0, -1.0, 0.0])

    def test_squared_value_and_grad(self):
        out, t = np.array([2.0, 0.0]), np.array([0.0, 1.0])
        assert SQUARED.value(out, t) == pytest.approx(0.5 * (4.0 + 1.0))
        np.testing.assert_array_equal(SQUARED.output_grad(out, t), [2.0, -1.0])

    def test_batch_paths_match_scalar(self):
        rng = np.random.default_rng(7)
        out = rng.normal(size=(9, 3))
        labels = rng.integers(0, 3, size=9)
        targets = rng.normal(size=(9, 3))
        for loss, tgt in ((SOFTMAX_XENT, labels), (L1, targets), (SQUARED, targets)):
            bv = loss.batch_value(out, tgt)
            bg = loss.batch_output_grad(out, tgt)
            for i in range(9):
                assert bv[i] == pytest.approx(loss.value(out[i], tgt[i]), rel=1e-13, abs=1e-15)
                np.testing.assert_allclose(bg[i], loss.output_grad(out[i], tgt[i]), rtol=1e-13, atol=1e-15)

    def test_registry(self):
        assert set(LOSSES) == {"softmax_xent", "l1", "squared"}


class TestParamSubset:
    def test_all_params_order(self):
        m = tiny_model()
        sub = ParamSubset.all_params(m)
        assert sub.selectors == ((0, "weight"), (0, "bias"), (1, "weight"), (1, "bias"))
        assert sub.size(m) == 2 * 5 + 5 + 5 * 2 + 2

    def test_pack_unpack_roundtrip(self):
        m = tiny_model(seed=1)
        sub = ParamSubset.all_params(m)
        flat = sub.pack(m)
        m2 = tiny_model(seed=2)
        sub.unpack_into(m2, flat)
        for a, b in zip(m.weights + m.biases, m2.weights + m2.biases):
            np.testing.assert_array_equal(a, b)

    def test_pack_is_row_major(self):
        m = MlpModel([2, 2], [np.array([[1.0, 2.0], [3.0, 4.0]])], [np.array([5.0, 6.0])])
        sub = ParamSubset.all_params(m)
        np.testing.assert_array_equal(sub.pack(m), [1, 2, 3, 4, 5, 6])

    def test_biases_only(self):
        m = tiny_model()
        sub = ParamSubset.biases_only(m, layers=[1])
        assert sub.selectors == ((1, "bias"),)
        assert sub.size(m) == 2

    def test_index_map_consistent_with_pack(self):
        m = tiny_model(seed=9)
        full = ParamSubset.all_params(m)
        sub = ParamSubset(((1, "bias"), (0, "weight")))
        np.testing.assert_array_equal(full.pack(m)[sub.index_map(m)], sub.pack(m))

    def test_rejects_bad_selectors(self):
        with pytest.raises(ValueError):
            ParamSubset(((0, "weight"), (0, "weight")))
        with pytest.raises(ValueError):
            ParamSubset(((0, "gamma"),))
        m = tiny_model()
        with pytest.raises(ValueError):
            ParamSubset(((7, "bias"),)).validate(m)


class TestParamVector:
    def test_ops(self):
        m = tiny_model()
        sub = ParamSubset.biases_only(m)
        a = ParamVector(np.array([1.0] * sub.size(m)), sub)
        b = ParamVector(np.arange(sub.size(m), dtype=float), sub)
        assert a.dot(b) == pytest.approx(np.arange(sub.size(m)).sum())
        np.testing.assert_array_equal(a.add(b).values, a.values + b.values)
        np.testing.assert_array_equal(a.scale(-2.0).values, -2.0 * a.values)
        assert a.norm() == pytest.approx(np.sqrt(sub.size(m)))

    def test_layout_mismatch_rejected(self):
        m = tiny_model()
        a = ParamVector.zeros(m, ParamSubset.biases_only(m))
        b = ParamVector.zeros(m, ParamSubset.all_params(m))
        with pytest.raises(ValueError):
            a.dot(b)
        with pytest.raises(ValueError):
            a.add(b)


class TestGradients:
    def test_linear_squared_closed_form(self):
        # 1-D linear model, squared loss: L = (wx - t)^2 / 2, dL/dw = (wx - t) x
        m = MlpModel([1, 1], [np.array([[3.0]])], [np.array([0.0])])
        sub = ParamSubset.all_params(m)
        (g,) = per_example_gradients(m, [(np.array([2.0]), np.array([1.0]))], SQUARED, sub)
        np.testing.assert_allclose(g.values, [(3.0 * 2.0 - 1.0) * 2.0, 3.0 * 2.0 - 1.0], rtol=1e-15)

    def test_zero_gradient_at_exact_fit(self):
        m = MlpModel([1, 1], [np.array([[2.0]])], [np.array([1.0])])
        sub = ParamSubset.all_params(m)
        (g,) = per_example_gradients(m, [(np.array([3.0]), np.array([7.0]))], SQUARED, sub)
        np.testing.assert_array_equal(g.values, np.zeros(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        m = tiny_model(seed=4)
        sub = ParamSubset.all_params(m)
        for _ in range(5):
            x = rng.normal(size=2) * 2
            label = int(rng.integers(0, 2))
            (analytic,) = per_example_gradients(m, [(x, label)], SOFTMAX_XENT, sub)
            fd = finite_diff_gradient(m, (x, label), SOFTMAX_XENT, sub)
            np.testing.assert_allclose(analytic.values, fd.values, rtol=1e-5, atol=1e-8)

    def test_finite_diff_on_subset_only(self):
        m = tiny_model(seed=6)
        sub = ParamSubset.biases_only(m)
        (analytic,) = per_example_gradients(m, [(np.array([0.4, -0.9]), 1)], SOFTMAX_XENT, sub)
        fd = finite_diff_gradient(m, (np.array([0.4, -0.9]), 1), SOFTMAX_XENT, sub)
        assert analytic.values.shape == (7,)
        np.testing.assert_allclose(analytic.values, fd.values, rtol=1e-5, atol=1e-8)

    def test_custom_scalar_loss_quadratic(self):
        # L(out) = out^2 on a model that outputs its single weight at x=1
        m = MlpModel([1, 1], [np.array([[3.0]])], [np.array([0.0])])
        sub = ParamSubset(((0, "weight"),))
        quad = Loss("quad", lambda out, t: float(out[0] ** 2), lambda out, t: np.array([2.0 * out[0]]))
        (g,) = per_example_gradients(m, [(np.array([1.0]), None)], quad, sub)
        assert g.values[0] == pytest.approx(6.0, abs=1e-8)
        fd = finite_diff_gradient(m, (np.array([1.0]), None), quad, sub)
        assert fd.values[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_loss_zero_gradient(self):
        m = tiny_model(seed=2)
        sub = ParamSubset.all_params(m)
        const = Loss("const", lambda out, t: 1.0, lambda out, t: np.zeros_like(out))
        (g,) = per_example_gradients(m, [(np.array([1.0, 1.0]), None)], const, sub)
        np.testing.assert_array_equal(g.values, np.zeros(sub.size(m)))

    def test_gradient_linearity_in_loss(self):
        # grad(a*L1 + b*L2) == a*grad(L1) + b*grad(L2), exercised via scaled losses
        m = tiny_model(seed=13)
        sub = ParamSubset.all_params(m)
        x, label = np.array([0.7, 0.1]), 0
        (g1,) = per_example_gradients(m, [(x, label)], SOFTMAX_XENT, sub)
        scaled = Loss(
            "sx3",
            lambda out, t: 3.0 * SOFTMAX_XENT.value(out, t),
            lambda out, t: 3.0 * SOFTMAX_XENT.output_grad(out, t),
        )
        (g3,) = per_example_gradients(m, [(x, label)], scaled, sub)
        np.testing.assert_allclose(g3.values, 3.0 * g1.values, rtol=1e-12)

    def test_per_example_rows_independent_of_batch(self):
        m = tiny_model(seed=21)
        sub = ParamSubset.all_params(m)
        rng = np.random.default_rng(77)
        xs = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        batch = [(xs[i], int(labels[i])) for i in range(6)]
        grads = per_example_gradients(m, batch, SOFTMAX_XENT, sub)
        # each row must match the singleton-batch gradient (up to BLAS rounding)
        for i in range(6):
            (solo,) = per_example_gradients(m, [batch[i]], SOFTMAX_XENT, sub)
            np.testing.assert_allclose(grads[i].values, solo.values, rtol=1e-12, atol=1e-15)
        # and permuting the batch only permutes the rows
        perm = [3, 0, 5, 1, 4, 2]
        shuffled = per_example_gradients(m, [batch[i] for i in perm], SOFTMAX_XENT, sub)
        for j, i in enumerate(perm):
            np.testing.assert_allclose(shuffled[j].values, grads[i].values, rtol=1e-12, atol=1e-15)

    def test_serial_path_matches_vectorized(self):
        m = tiny_model(seed=30)
        sub = ParamSubset.all_params(m)
        rng = np.random.default_rng(31)
        xs = rng.normal(size=(8, 2))
        labels = rng.integers(0, 2, size=8)
        fast = batch_gradients(m, xs, labels, SOFTMAX_XENT, sub)
        slow = batch_gradients(m, xs, labels, SOFTMAX_XENT, sub, serial=True)
        np.testing.assert_allclose(fast.grads, slow.grads, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(fast.losses, slow.losses, rtol=1e-12, atol=1e-15)

    def test_batch_gradients_repeatable(self):
        m = tiny_model(seed=12)
        xs = np.random.default_rng(1).normal(size=(4, 2))
        a = batch_gradients(m, xs, np.zeros(4, dtype=int), SOFTMAX_XENT)
        b = batch_gradients(m, xs, np.zeros(4, dtype=int), SOFTMAX_XENT)
        np.testing.assert_array_equal(a.grads, b.grads)

    def test_empty_batch_rejected(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            per_example_gradients(m, [], SOFTMAX_XENT, ParamSubset.all_params(m))

    def test_finite_diff_rejects_bad_step(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            finite_diff_gradient(m, (np.zeros(2), 0), SOFTMAX_XENT, ParamSubset.all_params(m), step=0.0)


class TestRegionGradients:
    """Region-mean rows straight from the backward pass vs the mean of
    materialised per-example rows (the oracle)."""

    DIMS = (3, 6, 5, 2)
    # overlapping regions, a singleton, and rows 17-19 that no region covers
    # (like pixels a validity mask leaves out)
    REGIONS = [np.arange(0, 9), np.arange(5, 14), np.array([16]), np.arange(12, 17)]

    def batch(self, loss, n=20):
        rng = np.random.default_rng(41)
        xs = rng.normal(size=(n, self.DIMS[0]))
        if loss is SOFTMAX_XENT:
            return xs, rng.integers(0, self.DIMS[-1], size=n)
        return xs, rng.normal(size=(n, self.DIMS[-1]))

    @staticmethod
    def assert_rel(got, want, tol):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("loss", [SOFTMAX_XENT, L1, SQUARED], ids=lambda l: l.name)
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_mean_of_materialised_rows(self, loss, activation):
        m = MlpModel.initialize(list(self.DIMS), seed=3, hidden_activation=activation)
        xs, targets = self.batch(loss)
        per_example = batch_gradients(m, xs, targets, loss)
        oracle = np.stack([per_example.grads[sel].mean(axis=0) for sel in self.REGIONS])
        for serial in (False, True):
            got = batch_gradients(m, xs, targets, loss, serial=serial, regions=self.REGIONS)
            self.assert_rel(got.grads, oracle, 1e-12)
            # losses and outputs stay per example
            self.assert_rel(got.losses, per_example.losses, 1e-12)
            self.assert_rel(got.outputs, per_example.outputs, 1e-12)

    def test_subset_columns_follow_layout(self):
        m = MlpModel.initialize(list(self.DIMS), seed=5)
        xs, labels = self.batch(SOFTMAX_XENT)
        sub = ParamSubset.biases_only(m, layers=[0, 2])
        full = batch_gradients(m, xs, labels, SOFTMAX_XENT, regions=self.REGIONS)
        got = batch_gradients(m, xs, labels, SOFTMAX_XENT, sub, regions=self.REGIONS)
        np.testing.assert_array_equal(got.grads, full.grads[:, sub.index_map(m)])

    def test_region_row_matches_finite_differences(self):
        m = MlpModel.initialize(list(self.DIMS), seed=7)
        xs, targets = self.batch(SQUARED)
        sub = ParamSubset.all_params(m)
        sel = self.REGIONS[3]
        got = batch_gradients(m, xs, targets, SQUARED, regions=self.REGIONS).grads[3]
        fd = np.mean(
            [finite_diff_gradient(m, (xs[i], targets[i]), SQUARED, sub).values for i in sel], axis=0
        )
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)

    def test_rejects_empty_regions(self):
        m = MlpModel.initialize(list(self.DIMS), seed=0)
        xs, labels = self.batch(SOFTMAX_XENT)
        for regions in ([], [np.arange(3), np.array([], dtype=np.intp)]):
            with pytest.raises(ValueError):
                batch_gradients(m, xs, labels, SOFTMAX_XENT, regions=regions)
