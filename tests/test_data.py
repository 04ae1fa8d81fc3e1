"""Synthetic data oracles: counts, moments, analytic boundary, dominance, dense grid."""

import numpy as np
import pytest

from gradtail import datasets
from gradtail.analysis import _eval_grid
from gradtail.datasets import (
    DEFAULT_COMMON,
    DEFAULT_UNCOMMON,
    HARD_UNCOMMON,
    Dataset2D,
    GaussianSpec,
    analytic_boundary_side,
    box_muller,
    density_difference,
    dominance_holds,
    gen_dense_task,
    gen_hard_variant,
    gen_two_gaussians,
    log_density,
)


def summed_squares_log_density(x, spec):
    """``log_density`` in the ``np.sum(..., axis=-1)`` form it replaced."""
    d2 = np.sum((np.asarray(x, dtype=np.float64) - np.asarray(spec.mean)) ** 2, axis=-1)
    return -d2 / (2.0 * spec.cov_scale) - np.log(2.0 * np.pi * spec.cov_scale)


class TestSpecs:
    def test_defaults_match_intended_setup(self):
        assert DEFAULT_COMMON.mean == (0.0, 0.0) and DEFAULT_COMMON.cov_scale == 1.0
        assert DEFAULT_COMMON.count == 10_000
        assert DEFAULT_UNCOMMON.mean == (2.2, 2.2) and DEFAULT_UNCOMMON.cov_scale == 0.5
        assert DEFAULT_UNCOMMON.count == 400
        assert HARD_UNCOMMON.mean == (1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec((0, 0), 0.0, 10, 0)
        with pytest.raises(ValueError):
            GaussianSpec((0, 0), 1.0, 0, 0)


class TestBoxMuller:
    def test_moments(self):
        z = box_muller(np.random.default_rng(0), 200_000).ravel()
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01

    def test_finite(self):
        z = box_muller(np.random.default_rng(1), 10_000)
        assert np.all(np.isfinite(z))


class TestTwoGaussians:
    def test_counts(self):
        ds = gen_two_gaussians(seed=0)
        assert ds.n == 10_400
        assert ds.class_counts() == {0: 10_000, 1: 400}

    def test_same_seed_bitwise_identical(self):
        a, b = gen_two_gaussians(seed=7), gen_two_gaussians(seed=7)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a, b = gen_two_gaussians(seed=1), gen_two_gaussians(seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_uncommon_mean_within_standard_error(self):
        # 3 * sqrt(0.5/400) per coordinate
        for seed in range(5):
            ds = gen_two_gaussians(seed=seed)
            mu = ds.points[ds.labels == 1].mean(axis=0)
            np.testing.assert_allclose(mu, [2.2, 2.2], atol=3 * np.sqrt(0.5 / 400))

    def test_common_sample_covariance(self):
        ds = gen_two_gaussians(seed=3)
        pts = ds.points[ds.labels == 0]
        cov = np.cov(pts.T)
        assert np.linalg.norm(cov - np.eye(2), ord="fro") < 0.1

    def test_block_layout(self):
        ds = gen_two_gaussians(seed=4)
        assert np.all(ds.labels[:10_000] == 0) and np.all(ds.labels[10_000:] == 1)

    def test_dataset_validation(self):
        ds = gen_two_gaussians(seed=0)
        with pytest.raises(ValueError):
            Dataset2D(ds.points[:, :1], ds.labels, ds.specs, 0)
        with pytest.raises(ValueError):
            Dataset2D(ds.points, ds.labels[:-1], ds.specs, 0)
        with pytest.raises(ValueError):
            Dataset2D(ds.points, np.zeros(ds.n, dtype=int), ds.specs, 0)


class TestHardVariant:
    def test_uses_inward_mean(self):
        ds = gen_hard_variant(seed=0)
        mu = ds.points[ds.labels == 1].mean(axis=0)
        np.testing.assert_allclose(mu, [1.0, 1.0], atol=3 * np.sqrt(0.5 / 400))

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_hard_variant(5).points, gen_hard_variant(5).points)

    def test_dominance_holds_for_hard_variant(self):
        assert dominance_holds(DEFAULT_COMMON, HARD_UNCOMMON)

    def test_dominance_fails_for_default(self):
        assert not dominance_holds(DEFAULT_COMMON, DEFAULT_UNCOMMON)

    def test_dominance_threshold_oracle(self):
        # prior-weighted dominance for N(0,I) vs N(mu, 0.5I) with priors 25:1
        # fails exactly when the peak density ratio 2 e^{|mu|^2} exceeds 25,
        # i.e. |mu|^2 > ln(12.5); probe means on both sides of the threshold
        lim = np.log(12.5)
        for scale, expect in ((0.9, True), (1.1, False)):
            r = np.sqrt(scale * lim / 2.0)
            spec = GaussianSpec((r, r), 0.5, 400, 1)
            assert dominance_holds(DEFAULT_COMMON, spec, resolution=400) is expect

    def test_dominance_verdicts_match_summed_squares(self, monkeypatch):
        r = np.sqrt(np.log(12.5) / 2.0)
        cases = [HARD_UNCOMMON, DEFAULT_UNCOMMON] + [
            GaussianSpec((s * r, s * r), 0.5, 400, 1) for s in (0.9, 0.99, 1.01, 1.1)
        ]
        verdicts = [dominance_holds(DEFAULT_COMMON, spec) for spec in cases]
        assert set(verdicts) == {True, False}
        monkeypatch.setattr(datasets, "log_density", summed_squares_log_density)
        assert [dominance_holds(DEFAULT_COMMON, spec) for spec in cases] == verdicts


class TestBoundary:
    def test_origin_is_common_side(self):
        assert analytic_boundary_side(np.array([0.0, 0.0])) == 1.0

    def test_uncommon_mean_is_uncommon_side(self):
        assert analytic_boundary_side(np.array([2.2, 2.2])) == -1.0

    def test_equal_specs_everywhere_boundary(self):
        spec = GaussianSpec((1.0, 1.0), 1.0, 10, 0)
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(100, 2)) * 3
        np.testing.assert_array_equal(analytic_boundary_side(pts, spec, spec), np.zeros(100))

    def test_swap_flips_sign(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-4, 5, size=(200, 2))
        a = analytic_boundary_side(pts, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        b = analytic_boundary_side(pts, DEFAULT_UNCOMMON, DEFAULT_COMMON)
        np.testing.assert_array_equal(a, -b)

    def test_density_values(self):
        # phi_c(0) = 1/(2 pi); phi_u(0) = (1/pi) e^{-9.68}
        assert np.exp(log_density(np.zeros(2), DEFAULT_COMMON)) == pytest.approx(1 / (2 * np.pi), rel=1e-12)
        assert np.exp(log_density(np.zeros(2), DEFAULT_UNCOMMON)) == pytest.approx(
            np.exp(-9.68) / np.pi, rel=1e-12
        )

    @pytest.mark.parametrize("gen", [gen_two_gaussians, gen_hard_variant])
    def test_log_density_matches_summed_squares_bit_for_bit(self, gen):
        nodes = _eval_grid()
        for seed in range(5):
            ds = gen(seed)
            for spec in ds.specs:
                for x in (nodes, ds.points):
                    want = summed_squares_log_density(x, spec)
                    assert log_density(x, spec).tobytes() == want.tobytes()

    def test_priors_shift_boundary_toward_uncommon(self):
        # downweighting the uncommon class by 1/26 shrinks its winning region
        pts = np.array([[1.7, 1.7]])
        raw = analytic_boundary_side(pts, use_priors=False)
        weighted = analytic_boundary_side(pts, use_priors=True)
        assert raw[0] == -1.0 and weighted[0] == 1.0

    def test_wide_grid_sides_match_closed_form_circle(self):
        # far from both means the raw densities underflow together; the side
        # must still follow the equal-density circle centered at 2*mu with
        # radius sqrt(2|mu|^2 + 2 ln 2), and no node may fall "on the curve"
        axis = np.linspace(-8.0, 8.0, 200)
        xx, yy = np.meshgrid(axis, axis)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        mu = np.array([2.2, 2.2])
        radius = np.sqrt(2 * mu @ mu + 2 * np.log(2.0))
        gap = np.linalg.norm(pts - 2 * mu, axis=1) - radius
        side = analytic_boundary_side(pts)
        assert np.count_nonzero(side == 0.0) == 0
        clear = np.abs(gap) > 1e-9
        np.testing.assert_array_equal(side[clear], np.where(gap[clear] < 0, -1.0, 1.0))

    def test_boundary_radius_oracle(self):
        # equal raw densities on the circle centered at 2*mu with radius
        # sqrt(2|mu|^2 + 2 ln 2): walk the circle, difference must vanish
        mu = np.array([2.2, 2.2])
        radius = np.sqrt(2 * mu @ mu + 2 * np.log(2.0))
        ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        circle = 2 * mu + radius * np.column_stack([np.cos(ang), np.sin(ang)])
        diff = density_difference(circle)
        np.testing.assert_allclose(diff, 0.0, atol=1e-12)


class TestDenseTask:
    def test_rare_fraction_band(self):
        grid = gen_dense_task(seed=0, height=64, width=64, rare_fraction=0.05)
        frac = grid.rare_mask[grid.valid_mask].mean()
        assert 0.03 <= frac <= 0.07

    def test_deterministic(self):
        a = gen_dense_task(1, 32, 48, 0.05)
        b = gen_dense_task(1, 32, 48, 0.05)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(a.valid_mask, b.valid_mask)

    def test_band_counts_scale_with_fraction(self):
        for f in (0.02, 0.05, 0.1):
            grid = gen_dense_task(seed=2, height=128, width=128, rare_fraction=f)
            n = 128 * 128
            got = grid.rare_mask.mean()
            assert abs(got - f) <= 4 * np.sqrt(f * (1 - f) / n)

    def test_band_targets_separated(self):
        grid = gen_dense_task(seed=3, height=64, width=64, rare_fraction=0.05)
        assert grid.targets[grid.rare_mask].min() > grid.targets[~grid.rare_mask].max()

    def test_valid_mask_drops_about_five_percent(self):
        grid = gen_dense_task(seed=4, height=96, width=96, rare_fraction=0.05)
        assert 0.93 <= grid.valid_mask.mean() <= 0.97

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_dense_task(0, 0, 10, 0.05)
        with pytest.raises(ValueError):
            gen_dense_task(0, 10, 10, 0.0)
