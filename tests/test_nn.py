"""Network forward/backward oracles: hand values, finite differences, invariances."""

import numpy as np
import pytest

from gradtail.mlp import (
    L1,
    LOSSES,
    PARAM_KINDS,
    SOFTMAX_XENT,
    SQUARED,
    Loss,
    MlpModel,
    Workspace,
    _row_argmax,
    _row_max,
    _row_sum,
    backprop,
    batch_gradients,
    coefficient_gradients,
    finite_diff_gradient,
    forward,
    forward_batch,
    loss_softmax_xent,
    param_columns,
    softmax,
)
from gradtail.records import load_model, save_model


def tiny_model(seed=0, dims=(2, 5, 2)):
    return MlpModel.initialize(list(dims), seed=seed)


def example_gradient(model, x, target, loss):
    """One example's gradient row over every parameter, through the batch path."""
    inputs = np.asarray(x, dtype=float)[None, :]
    return batch_gradients(model, inputs, [target], loss).grads[0]


def all_columns(model):
    return np.arange(model.params.size)


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


class TestFlatParams:
    """The model's weights and biases are views of its one ``params`` vector."""

    @staticmethod
    def assert_views(m):
        for arr in m.weights + m.biases:
            assert np.shares_memory(arr, m.params)

    def test_views_share_memory(self, tmp_path):
        m = tiny_model(seed=3)
        self.assert_views(m)
        self.assert_views(MlpModel([2, 2], [np.ones((2, 2))], [np.zeros(2)]))
        save_model(tmp_path / "model.txt", m)
        loaded = load_model(tmp_path / "model.txt")
        self.assert_views(loaded)
        np.testing.assert_array_equal(loaded.params, m.params)
        c = m.copy()
        self.assert_views(c)
        assert not np.shares_memory(c.params, m.params)
        np.testing.assert_array_equal(c.params, m.params)

    def test_constructor_copies_its_arrays(self):
        w = np.ones((2, 2))
        m = MlpModel([2, 2], [w], [np.zeros(2)])
        w[...] = 5.0
        np.testing.assert_array_equal(m.weights[0], np.ones((2, 2)))

    def test_write_to_params_changes_forward(self):
        m = tiny_model(seed=4)
        xs = np.random.default_rng(0).normal(size=(3, 2))
        before = forward_batch(m, xs)
        m.params[-1] += 2.0  # the last output bias
        after = forward_batch(m, xs)
        np.testing.assert_array_equal(after[:, 0], before[:, 0])
        np.testing.assert_allclose(after[:, 1], before[:, 1] + 2.0, rtol=1e-15)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRowReductions:
    """The output-axis helpers against numpy's reductions along the last axis."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])

    def matrices(self, k, rows=400):
        rng = np.random.default_rng(k)
        scale = rng.choice([1e-3, 1.0, 1e3], size=(rows, k))
        noise = rng.normal(size=(rows, k)) * scale
        ties = np.round(rng.normal(size=(rows, k)) * 2.0) / 2.0  # ties, +0.0 and -0.0
        special = rng.choice(self.SPECIAL, size=(rows, k))
        mixed = np.where(rng.random((rows, k)) < 0.3, special, noise)
        return {"noise": noise, "ties": ties, "special": special, "mixed": mixed}

    @pytest.mark.parametrize("k", range(1, 8))
    def test_bit_for_bit_up_to_seven_columns(self, k):
        for name, x in self.matrices(k).items():
            with np.errstate(invalid="ignore"):  # inf - inf in the sums
                for row in (x, x[0], x[-1]):  # 2-D and 1-D
                    assert same_bits(_row_max(row), row.max(axis=-1)), (name, "max")
                    assert same_bits(_row_sum(row), row.sum(axis=-1)), (name, "sum")
                    assert same_bits(_row_argmax(row), np.argmax(row, axis=-1)), (name, "argmax")

    def test_argmax_picks_the_first_nan_or_the_first_tie(self):
        x = np.array([[1.0, np.nan, np.nan], [2.0, 2.0, 1.0], [-0.0, 0.0, -1.0],
                      [np.inf, np.inf, np.nan], [-np.inf, -np.inf, -np.inf]])
        np.testing.assert_array_equal(_row_argmax(x), [1, 0, 0, 2, 0])

    @pytest.mark.parametrize("k", range(8, 12))
    def test_sum_within_rounding_from_eight_columns(self, k):
        x = np.abs(self.matrices(k)["noise"])
        np.testing.assert_allclose(_row_sum(x), x.sum(axis=-1), rtol=1e-14, atol=0)
        assert same_bits(_row_argmax(x), np.argmax(x, axis=-1))


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
        logits = np.array([[1.0, -2.0, 0.5], [0.3, 0.3, -4.0]])
        _, g = SOFTMAX_XENT.batch(logits, [1, 0])
        expect = softmax(logits)
        expect[[0, 1], [1, 0]] -= 1.0
        np.testing.assert_array_equal(g, expect)  # bit for bit: one exp serves both

    @pytest.mark.parametrize("labels", [[0, 2], [0, -1]])
    def test_xent_batch_rejects_labels_outside_the_logits(self, labels):
        with pytest.raises(ValueError):  # would address another row's logit
            SOFTMAX_XENT.batch(np.zeros((2, 2)), labels)

    def test_l1_basic(self):
        assert L1.value(np.array([3.0]), np.array([5.0])) == 2.0
        assert L1.value(np.array([3.0, -1.0]), np.array([5.0, -1.0])) == 2.0
        assert L1.value(np.array([-1.0]), np.array([-1.0])) == 0.0
        # a non-finite output is a non-finite loss, which the step kernel rejects
        assert L1.value(np.array([np.inf]), np.array([0.0])) == np.inf

    def test_l1_grad_sign_and_kink(self):
        _, g = L1.batch(np.array([[2.0, -3.0, 1.0]]), np.array([[1.0, 0.0, 1.0]]))
        np.testing.assert_array_equal(g[0], [1.0, -1.0, 0.0])

    def test_squared_value_and_grad(self):
        out, t = np.array([2.0, 0.0]), np.array([0.0, 1.0])
        assert SQUARED.value(out, t) == pytest.approx(0.5 * (4.0 + 1.0))
        _, g = SQUARED.batch(out[None, :], t[None, :])
        np.testing.assert_array_equal(g[0], [2.0, -1.0])

    def test_batch_paths_match_scalar(self):
        # batch values against the scalar form, batch output gradients against
        # central differences of the scalar form (no sample sits at the l1 kink)
        rng = np.random.default_rng(7)
        out = rng.normal(size=(9, 3))
        labels = rng.integers(0, 3, size=9)
        targets = rng.normal(size=(9, 3))
        h = 1e-6
        for loss, tgt in ((SOFTMAX_XENT, labels), (L1, targets), (SQUARED, targets)):
            bv, bg = loss.batch(out, tgt)
            for i in range(9):
                assert bv[i] == pytest.approx(loss.value(out[i], tgt[i]), rel=1e-13, abs=1e-15)
                step = h * np.eye(3)
                fd = [(loss.value(out[i] + e, tgt[i]) - loss.value(out[i] - e, tgt[i])) / (2 * h)
                      for e in step]
                np.testing.assert_allclose(bg[i], fd, rtol=1e-7, atol=1e-8)

    def test_registry(self):
        assert set(LOSSES) == {"softmax_xent", "l1", "squared"}


class TestParamSubset:
    """param_columns: where a parameter subset's blocks sit in ``params``."""

    def test_all_params_order(self):
        m = tiny_model()
        sel = ((0, "weight"), (0, "bias"), (1, "weight"), (1, "bias"))
        cols = param_columns(m.layer_dims, sel)
        np.testing.assert_array_equal(cols, np.arange(2 * 5 + 5 + 5 * 2 + 2))
        blocks = [m.weights[0], m.biases[0], m.weights[1], m.biases[1]]
        np.testing.assert_array_equal(m.params, np.concatenate([b.ravel() for b in blocks]))

    def test_pack_unpack_roundtrip(self):
        m, other = tiny_model(seed=1), tiny_model(seed=2)
        m2 = MlpModel(m.layer_dims, m.weights, m.biases)
        np.testing.assert_array_equal(m2.params, m.params)
        m2.params[:] = other.params
        for a, b in zip(m2.weights + m2.biases, other.weights + other.biases):
            np.testing.assert_array_equal(a, b)

    def test_pack_is_row_major(self):
        m = MlpModel([2, 2], [np.array([[1.0, 2.0], [3.0, 4.0]])], [np.array([5.0, 6.0])])
        np.testing.assert_array_equal(m.params, [1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(param_columns([2, 2], ((0, "bias"),)), [4, 5])

    def test_biases_only(self):
        m = tiny_model()
        cols = param_columns(m.layer_dims, ((1, "bias"),))
        np.testing.assert_array_equal(cols, [25, 26])
        np.testing.assert_array_equal(m.params[cols], m.biases[1])

    def test_columns_pick_the_named_blocks(self):
        m = tiny_model(seed=9)
        cols = param_columns(m.layer_dims, ((1, "bias"), (0, "weight")))
        np.testing.assert_array_equal(
            m.params[cols], np.concatenate([m.biases[1], m.weights[0].ravel()])
        )

    def test_rejects_bad_selectors(self):
        dims = [2, 5, 2]
        for sel in (
            ((0, "weight"), (0, "weight")),  # duplicate
            ((0, "gamma"),),  # bad kind
            ((7, "bias"),),  # missing layer
            ((2, "weight"),),  # one past the last layer
            ((-1, "bias"),),  # negative layer
        ):
            with pytest.raises(ValueError):
                param_columns(dims, sel)


class TestGradients:
    def test_linear_squared_closed_form(self):
        # 1-D linear model, squared loss: L = (wx - t)^2 / 2, dL/dw = (wx - t) x
        m = MlpModel([1, 1], [np.array([[3.0]])], [np.array([0.0])])
        g = example_gradient(m, [2.0], np.array([1.0]), SQUARED)
        np.testing.assert_allclose(g, [(3.0 * 2.0 - 1.0) * 2.0, 3.0 * 2.0 - 1.0], rtol=1e-15)

    def test_zero_gradient_at_exact_fit(self):
        m = MlpModel([1, 1], [np.array([[2.0]])], [np.array([1.0])])
        g = example_gradient(m, [3.0], np.array([7.0]), SQUARED)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        m = tiny_model(seed=4)
        for _ in range(5):
            x = rng.normal(size=2) * 2
            label = int(rng.integers(0, 2))
            analytic = example_gradient(m, x, label, SOFTMAX_XENT)
            fd = finite_diff_gradient(m, (x, label), SOFTMAX_XENT, all_columns(m))
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_finite_diff_on_subset_only(self):
        m = tiny_model(seed=6)
        cols = param_columns(m.layer_dims, ((0, "bias"), (1, "bias")))
        analytic = example_gradient(m, [0.4, -0.9], 1, SOFTMAX_XENT)[cols]
        fd = finite_diff_gradient(m, (np.array([0.4, -0.9]), 1), SOFTMAX_XENT, cols)
        assert analytic.shape == fd.shape == (7,)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_custom_scalar_loss_quadratic(self):
        # L(out) = out^2 on a model that outputs its single weight at x=1
        m = MlpModel([1, 1], [np.array([[3.0]])], [np.array([0.0])])
        cols = param_columns(m.layer_dims, ((0, "weight"),))
        quad = Loss(
            "quad",
            lambda out, t: float(out[0] ** 2),
            lambda out, t: (out[:, 0] ** 2, 2.0 * out),
        )
        g = example_gradient(m, [1.0], None, quad)[cols]
        assert g[0] == pytest.approx(6.0, abs=1e-8)
        fd = finite_diff_gradient(m, (np.array([1.0]), None), quad, cols)
        assert fd[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_loss_zero_gradient(self):
        m = tiny_model(seed=2)
        const = Loss(
            "const",
            lambda out, t: 1.0,
            lambda out, t: (np.ones(out.shape[0]), np.zeros_like(out)),
        )
        g = example_gradient(m, [1.0, 1.0], None, const)
        np.testing.assert_array_equal(g, np.zeros(m.params.size))

    def test_gradient_linearity_in_loss(self):
        # grad(a*L1 + b*L2) == a*grad(L1) + b*grad(L2), exercised via scaled losses
        m = tiny_model(seed=13)
        x, label = np.array([0.7, 0.1]), 0
        g1 = example_gradient(m, x, label, SOFTMAX_XENT)
        scaled = Loss(
            "sx3",
            lambda out, t: 3.0 * SOFTMAX_XENT.value(out, t),
            lambda out, t: tuple(3.0 * a for a in SOFTMAX_XENT.batch(out, t)),
        )
        g3 = example_gradient(m, x, label, scaled)
        np.testing.assert_allclose(g3, 3.0 * g1, rtol=1e-12)

    def test_per_example_rows_independent_of_batch(self):
        m = tiny_model(seed=21)
        rng = np.random.default_rng(77)
        xs = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        grads = batch_gradients(m, xs, labels, SOFTMAX_XENT).grads
        # each row must match the singleton-batch gradient (up to BLAS rounding)
        for i in range(6):
            solo = example_gradient(m, xs[i], labels[i], SOFTMAX_XENT)
            np.testing.assert_allclose(grads[i], solo, rtol=1e-12, atol=1e-15)
        # and permuting the batch only permutes the rows
        perm = [3, 0, 5, 1, 4, 2]
        shuffled = batch_gradients(m, xs[perm], labels[perm], SOFTMAX_XENT).grads
        for j, i in enumerate(perm):
            np.testing.assert_allclose(shuffled[j], grads[i], rtol=1e-12, atol=1e-15)

    def test_serial_path_matches_vectorized(self):
        m = tiny_model(seed=30)
        rng = np.random.default_rng(31)
        xs = rng.normal(size=(8, 2))
        labels = rng.integers(0, 2, size=8)
        fast = batch_gradients(m, xs, labels, SOFTMAX_XENT)
        slow = batch_gradients(m, xs, labels, SOFTMAX_XENT, serial=True)
        np.testing.assert_allclose(fast.grads, slow.grads, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(fast.losses, slow.losses, rtol=1e-12, atol=1e-15)

    def test_full_size_subset_keeps_its_column_order(self):
        # a subset covering every parameter in another order still reorders columns
        m = tiny_model(seed=14)
        xs = np.random.default_rng(2).normal(size=(5, 2))
        labels = np.array([0, 1, 1, 0, 1])
        sel = ((1, "bias"), (1, "weight"), (0, "bias"), (0, "weight"))
        cols = param_columns(m.layer_dims, sel)
        np.testing.assert_array_equal(np.sort(cols), all_columns(m))
        full = batch_gradients(m, xs, labels, SOFTMAX_XENT).grads
        got = full[:, cols]
        assert not np.array_equal(got, full)
        # the last output bias's gradient comes first: softmax minus one-hot
        expect = softmax(forward_batch(m, xs))[:, 1] - (labels == 1)
        np.testing.assert_allclose(got[:, 1], expect, rtol=1e-12, atol=1e-15)

    def test_batch_gradients_repeatable(self):
        m = tiny_model(seed=12)
        xs = np.random.default_rng(1).normal(size=(4, 2))
        a = batch_gradients(m, xs, np.zeros(4, dtype=int), SOFTMAX_XENT)
        b = batch_gradients(m, xs, np.zeros(4, dtype=int), SOFTMAX_XENT)
        np.testing.assert_array_equal(a.grads, b.grads)

    @pytest.mark.parametrize("loss", [SOFTMAX_XENT, SQUARED])
    def test_shared_workspace_matches_fresh_calls(self, loss):
        """Two passes into one workspace give the bits of two fresh calls, and
        the second leaves the first call's grads and losses as they were; only
        the outputs are the workspace's buffer."""
        m = tiny_model(seed=13, dims=(2, 5, 4, 3))
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(2, 6, 2))
        labels = rng.integers(0, 3, size=(2, 6))
        targets = labels if loss is SOFTMAX_XENT else np.eye(3)[labels]
        fresh = [batch_gradients(m, xs[i], targets[i], loss) for i in range(2)]
        ws = Workspace(m.layer_dims, 6)
        first = batch_gradients(m, xs[0], targets[0], loss, ws=ws)
        first_outputs = first.outputs.copy()
        second = batch_gradients(m, xs[1], targets[1], loss, ws=ws)
        assert second.outputs is ws.acts[-1]
        for got, want in ((first, fresh[0]), (second, fresh[1])):
            assert got.grads.tobytes() == want.grads.tobytes()
            assert got.losses.tobytes() == want.losses.tobytes()
        assert first_outputs.tobytes() == fresh[0].outputs.tobytes()
        assert second.outputs.tobytes() == fresh[1].outputs.tobytes()

    def test_empty_batch_rejected(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            batch_gradients(m, np.zeros((0, 2)), [], SOFTMAX_XENT)

    def test_finite_diff_rejects_bad_step(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            finite_diff_gradient(m, (np.zeros(2), 0), SOFTMAX_XENT, all_columns(m), step=0.0)


class TestRegionGradients:
    """Coefficient rows straight from one backward pass (`coefficient_gradients`)
    vs coefficient-weighted sums of materialised per-example rows (the oracle)."""

    DIMS = (3, 6, 5, 2)
    N = 20
    # overlapping regions, a singleton, and rows 17-19 that no region covers
    # (like pixels a validity mask leaves out)
    REGIONS = [np.arange(0, 9), np.arange(5, 14), np.array([16]), np.arange(12, 17)]
    EVERY_BLOCK = tuple((layer, kind) for layer in range(3) for kind in PARAM_KINDS)
    REGION_WEIGHTS = np.array([1.0, 3.5, 0.25, 2.0])

    def batch(self, loss):
        rng = np.random.default_rng(41)
        xs = rng.normal(size=(self.N, self.DIMS[0]))
        if loss is SOFTMAX_XENT:
            return xs, rng.integers(0, self.DIMS[-1], size=self.N)
        return xs, rng.normal(size=(self.N, self.DIMS[-1]))

    def region_pass(self, model, xs, targets, loss):
        """The pass's workspace and losses/outputs, and the (R, N) region-mean
        matrix M: row r is 1/|sel| on the rows of region r."""
        ws = Workspace(model.layer_dims, self.N)
        losses, outputs = backprop(model, xs, targets, loss, ws)
        mean_matrix = np.zeros((len(self.REGIONS), self.N))
        for row, sel in zip(mean_matrix, self.REGIONS):
            row[sel] = 1.0 / sel.size
        return ws, losses, outputs, mean_matrix

    def oracle(self, grads):
        """Region means of materialised rows, and their weighted update mean."""
        means = np.stack([grads[sel].mean(axis=0) for sel in self.REGIONS])
        return means, self.REGION_WEIGHTS @ means / len(self.REGIONS)

    def update_coeffs(self, mean_matrix):
        """The update's K = 1 coefficient row, c = (w / R) @ M."""
        return ((self.REGION_WEIGHTS / len(self.REGIONS)) @ mean_matrix)[None]

    @staticmethod
    def assert_rel(got, want, tol):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("loss", [SOFTMAX_XENT, L1, SQUARED], ids=lambda l: l.name)
    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_matches_mean_of_materialised_rows(self, loss, activation):
        m = MlpModel.initialize(list(self.DIMS), seed=3, hidden_activation=activation)
        xs, targets = self.batch(loss)
        per_example = batch_gradients(m, xs, targets, loss)
        means, update = self.oracle(per_example.grads)
        ws, losses, outputs, mean_matrix = self.region_pass(m, xs, targets, loss)
        self.assert_rel(coefficient_gradients(mean_matrix, ws, self.EVERY_BLOCK), means, 1e-12)
        got = coefficient_gradients(self.update_coeffs(mean_matrix), ws, self.EVERY_BLOCK)
        self.assert_rel(got, update[None], 1e-12)
        # losses and outputs stay per example
        self.assert_rel(losses, per_example.losses, 1e-12)
        self.assert_rel(outputs, per_example.outputs, 1e-12)

    def test_subset_columns_follow_layout(self):
        m = MlpModel.initialize(list(self.DIMS), seed=5)
        xs, labels = self.batch(SOFTMAX_XENT)
        selectors = ((0, "bias"), (2, "bias"))
        ws, _, _, mean_matrix = self.region_pass(m, xs, labels, SOFTMAX_XENT)
        got = coefficient_gradients(mean_matrix, ws, selectors)
        assert got.shape == (len(self.REGIONS), self.DIMS[1] + self.DIMS[3])
        # the output bias columns hold each region's mean of softmax minus one-hot
        delta = softmax(forward_batch(m, xs)) - np.eye(self.DIMS[-1])[labels]
        oracle = np.stack([delta[sel].mean(axis=0) for sel in self.REGIONS])
        self.assert_rel(got[:, self.DIMS[1]:], oracle, 1e-12)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_weight_blocks_follow_layout(self, activation):
        """A subset with weight blocks, out of params order, for the region
        rows and the update row alike."""
        m = MlpModel.initialize(list(self.DIMS), seed=6, hidden_activation=activation)
        xs, targets = self.batch(L1)
        selectors = ((1, "weight"), (0, "bias"), (2, "weight"), (0, "weight"))
        cols = param_columns(m.layer_dims, selectors)
        means, update = self.oracle(batch_gradients(m, xs, targets, L1).grads)
        ws, _, _, mean_matrix = self.region_pass(m, xs, targets, L1)
        self.assert_rel(coefficient_gradients(mean_matrix, ws, selectors), means[:, cols], 1e-12)
        got = coefficient_gradients(self.update_coeffs(mean_matrix), ws, selectors)
        self.assert_rel(got, update[None, cols], 1e-12)

    def test_region_row_matches_finite_differences(self):
        m = MlpModel.initialize(list(self.DIMS), seed=7)
        xs, targets = self.batch(SQUARED)
        ws, _, _, mean_matrix = self.region_pass(m, xs, targets, SQUARED)
        got = coefficient_gradients(mean_matrix, ws, self.EVERY_BLOCK)[3]
        fd = np.mean(
            [finite_diff_gradient(m, (xs[i], targets[i]), SQUARED, all_columns(m))
             for i in self.REGIONS[3]],
            axis=0,
        )
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)
