"""Analysis oracles: labeling bands, quartiles, metrics, boundary distances, MRE."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gradtail.analysis import (
    COMMON,
    HARD,
    RARE,
    TAIL_NAMES,
    UNVISITED,
    _eval_grid,
    boundary_disagreement,
    boundary_distance,
    boundary_grid,
    class_metrics,
    dense_band_mre,
    experiment_report,
    label_examples,
    metrics_from_predictions,
    quartile_accuracy,
    rare_set_stats,
)
from gradtail.datasets import (
    DEFAULT_COMMON,
    DEFAULT_UNCOMMON,
    GaussianSpec,
    analytic_boundary_side,
    gen_hard_variant,
    gen_two_gaussians,
    log_density,
)
from gradtail.engine import TraceTable
from gradtail.mlp import MlpModel, _row_argmax, forward_batch


def trace_with_alignments(means, occurrences=10):
    n = len(means)
    t = TraceTable.zeros(n)
    t.occurrences[:] = occurrences
    t.alignment_sum[:] = np.asarray(means) * occurrences
    return t


class TestLabeling:
    def test_band_assignments(self):
        t = trace_with_alignments([0.5, 0.0, -0.07, 0.07, -0.5, 0.071])
        labels, seen, excluded = label_examples(t)
        assert excluded == 0 and seen.all()
        assert labels.tolist() == [COMMON, RARE, RARE, RARE, HARD, COMMON]  # closed at +/-0.07
        assert [TAIL_NAMES[code] for code in (COMMON, RARE, HARD)] == ["common", "rare", "hard"]

    def test_unvisited_excluded(self):
        t = trace_with_alignments([0.2, 0.0])
        t.occurrences[1] = 0
        t.alignment_sum[1] = 0.0
        labels, seen, excluded = label_examples(t)
        assert excluded == 1
        assert labels[1] == UNVISITED and not seen[1]

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(0)
        t = trace_with_alignments(rng.uniform(-1, 1, size=500))
        labels, seen, _ = label_examples(t)
        assert set(labels.tolist()) <= {COMMON, RARE, HARD}


class TestQuartiles:
    def test_constant_correctness_flagged(self):
        rep = quartile_accuracy(np.linspace(-1, 1, 40), np.ones(40))
        assert rep.accuracies == (1.0, 1.0, 1.0, 1.0)
        assert rep.correlation is None and rep.point_biserial is None

    def test_step_function_oracle(self):
        # correct iff alignment above median -> accuracies (0,0,1,1),
        # Pearson((1,2,3,4),(0,0,1,1)) = 2/sqrt(5)
        theta = np.linspace(-1, 1, 40)
        correct = (theta > 0).astype(float)
        rep = quartile_accuracy(theta, correct)
        assert rep.accuracies == (0.0, 0.0, 1.0, 1.0)
        assert rep.correlation == pytest.approx(0.8944271909999159, rel=1e-12)
        assert isinstance(rep.correlation, float)

    def test_linear_accuracies_correlation_one(self):
        theta = np.arange(16, dtype=float)
        correct = np.repeat([0.25, 0.5, 0.75, 1.0], 4)
        # make each quartile's accuracy average to the target ramp
        rep = quartile_accuracy(theta, correct)
        assert rep.accuracies == (0.25, 0.5, 0.75, 1.0)
        assert rep.correlation == pytest.approx(1.0, rel=1e-12)

    def test_bin_sizes_near_equal(self):
        for n in (4, 5, 6, 7, 101):
            theta = np.random.default_rng(n).uniform(-1, 1, size=n)
            rep = quartile_accuracy(theta, np.zeros(n))
            # implicit check: array_split covered every example
            assert len(rep.accuracies) == 4

    def test_tie_break_by_id(self):
        # all-equal alignments: quartiles must follow id order
        theta = np.zeros(8)
        correct = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
        rep = quartile_accuracy(theta, correct)
        assert rep.accuracies == (1.0, 0.0, 0.0, 0.0)

    def test_too_few_examples(self):
        with pytest.raises(ValueError):
            quartile_accuracy(np.zeros(3), np.zeros(3))

    def test_point_biserial_sign(self):
        theta = np.linspace(-1, 1, 100)
        rep = quartile_accuracy(theta, (theta > 0).astype(float))
        assert isinstance(rep.point_biserial, float) and rep.point_biserial > 0.5


class TestClassMetrics:
    def test_majority_classifier_oracle(self):
        labels = np.concatenate([np.zeros(10_000, dtype=int), np.ones(400, dtype=int)])
        preds = np.zeros(10_400, dtype=int)
        m = metrics_from_predictions(preds, labels)
        assert m.total_accuracy == pytest.approx(10_000 / 10_400, rel=1e-12)
        assert m.balanced_accuracy == 0.5
        assert m.per_class_recall == {0: 1.0, 1: 0.0}

    def test_perfect_and_allwrong(self):
        labels = np.array([0, 0, 1, 1])
        assert metrics_from_predictions(labels, labels).total_accuracy == 1.0
        assert metrics_from_predictions(labels, labels).balanced_accuracy == 1.0
        wrong = 1 - labels
        assert metrics_from_predictions(wrong, labels).total_accuracy == 0.0
        assert metrics_from_predictions(wrong, labels).balanced_accuracy == 0.0

    def test_balanced_invariant_under_class_duplication(self):
        labels = np.array([0] * 8 + [1] * 2)
        preds = np.array([0] * 6 + [1] * 2 + [1, 0])  # recall0 = 6/8, recall1 = 1/2
        base = metrics_from_predictions(preds, labels)
        dup_labels = np.concatenate([labels, [1] * 6])  # triple class 1: add 2 copies x3
        dup_preds = np.concatenate([preds, [1, 0] * 3])
        dup = metrics_from_predictions(dup_preds, dup_labels)
        assert dup.balanced_accuracy == pytest.approx(base.balanced_accuracy, rel=1e-12)
        assert dup.total_accuracy != pytest.approx(base.total_accuracy, rel=1e-12)

    def test_model_wrapper_runs(self):
        ds = gen_two_gaussians(0, GaussianSpec((0, 0), 1.0, 50, 0), GaussianSpec((2, 2), 0.5, 10, 1))
        m = class_metrics(MlpModel.initialize([2, 5, 2], 0), ds)
        assert 0.0 <= m.total_accuracy <= 1.0


def oracle_model():
    """A hand-built net whose argmax reproduces the analytic boundary.

    The equal-density curve for the defaults satisfies
    |x|^2/2 - |x-mu|^2/1 = ln 2, i.e. a quadratic the 2-input net cannot
    express; instead build it for equal covariances (linear boundary).
    """
    # With cov both 1.0, equal density <=> x . mu = |mu|^2/2: a linear cut.
    mu = np.array([2.2, 2.2])
    w = np.stack([-mu, mu])  # logit1 - logit0 = 2 mu . x
    b = np.array([mu @ mu / 2.0, -(mu @ mu) / 2.0])
    return MlpModel([2, 2], [w], [b])


class TestBoundaryDisagreement:
    def test_exact_oracle_model_scores_zero(self):
        common = GaussianSpec((0.0, 0.0), 1.0, 10_000, 0)
        uncommon = GaussianSpec((2.2, 2.2), 1.0, 400, 1)
        assert boundary_disagreement(boundary_grid(oracle_model(), common, uncommon)) == 0.0

    def test_majority_model_equals_uncommon_area(self):
        m = MlpModel([2, 2], [np.zeros((2, 2))], [np.array([1.0, 0.0])])  # always class 0
        frac = boundary_disagreement(boundary_grid(m, DEFAULT_COMMON, DEFAULT_UNCOMMON))
        oracle = analytic_boundary_side(_eval_grid(), DEFAULT_COMMON, DEFAULT_UNCOMMON)
        assert frac == pytest.approx((oracle == -1.0).mean(), abs=1e-12)
        assert 0.0 < frac < 0.5

    def test_deterministic(self):
        m = MlpModel.initialize([2, 5, 2], 3)
        a = boundary_disagreement(boundary_grid(m, DEFAULT_COMMON, DEFAULT_UNCOMMON))
        b = boundary_disagreement(boundary_grid(m, DEFAULT_COMMON, DEFAULT_UNCOMMON))
        assert a == b

    @pytest.mark.parametrize("gen", [gen_two_gaussians, gen_hard_variant])
    @pytest.mark.parametrize("dims", [(2, 5, 2), (2, 5, 3)], ids=["2logit", "3logit"])
    def test_shared_grid_matches_standalone(self, gen, dims):
        """The disagreement read off a shared grid equals, bit for bit, the one
        that forwards the model and places the oracle on its own grid."""
        common, uncommon = gen(0).specs[:2]
        for seed in range(3):
            model = MlpModel.initialize(dims, seed)
            pts = _eval_grid()
            oracle = analytic_boundary_side(pts, common, uncommon)
            side = np.where(_row_argmax(forward_batch(model, pts)) == common.label, 1.0, -1.0)
            want = float(((oracle != 0.0) & (side != oracle)).mean())
            assert boundary_disagreement(boundary_grid(model, common, uncommon)) == want
            assert 0.0 < want < 1.0

    def test_nan_logits_disagree_off_the_curve(self):
        """argmax of an all-NaN row picks class 0, the common class: the model
        sides with the common density everywhere."""
        grid = boundary_grid(MlpModel.initialize([2, 5, 2], 0), DEFAULT_COMMON, DEFAULT_UNCOMMON)
        frac = boundary_disagreement(replace(grid, logits=np.full((grid.log_gap.size, 2), np.nan)))
        oracle = analytic_boundary_side(_eval_grid(), DEFAULT_COMMON, DEFAULT_UNCOMMON)
        assert frac == (oracle == -1.0).mean()


class TestBoundaryDistance:
    def test_on_boundary_is_near_zero(self):
        # construct boundary points analytically: circle centered 2 mu
        mu = np.array([2.2, 2.2])
        radius = np.sqrt(2 * mu @ mu + 2 * np.log(2.0))
        pts = 2 * mu + radius * np.array([[1.0, 0.0], [0.0, -1.0], [-np.sqrt(0.5), -np.sqrt(0.5)]])
        d = boundary_distance(pts, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        assert np.all(d <= 2e-4)

    def test_matches_true_euclidean_distance_to_circle(self):
        # the equal-density set for the defaults is the circle centered at
        # 2*mu with radius sqrt(2|mu|^2 + 2 ln 2); the marched distance must
        # agree with |  |x - c| - r  | to bisection tolerance
        mu = np.array([2.2, 2.2])
        center, radius = 2 * mu, np.sqrt(2 * mu @ mu + 2 * np.log(2.0))
        rng = np.random.default_rng(1)
        pts = rng.uniform(-4, 5, size=(200, 2))
        d = boundary_distance(pts, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        true_d = np.abs(np.linalg.norm(pts - center, axis=1) - radius)
        np.testing.assert_allclose(d, true_d, atol=2e-4)

    def test_equal_scale_linear_boundary_distance(self):
        # equal covariance scales: the boundary is the perpendicular bisector
        # hyperplane of the two means; distance has a closed form
        c = GaussianSpec((0.0, 0.0), 1.0, 10, 0)
        u = GaussianSpec((2.0, 0.0), 1.0, 5, 1)
        pts = np.array([[0.0, 0.0], [1.0, 3.0], [2.5, -1.0], [-2.0, 0.5]])
        d = boundary_distance(pts, c, u)
        np.testing.assert_allclose(d, np.abs(pts[:, 0] - 1.0), atol=2e-4)

    def test_monotone_in_radial_offset(self):
        mu = np.array([2.2, 2.2])
        center, radius = 2 * mu, np.sqrt(2 * mu @ mu + 2 * np.log(2.0))
        direction = np.array([-1.0, -1.0]) / np.sqrt(2)
        offs = np.array([0.1, 0.5, 1.0, 2.0])
        pts = center + (radius + offs)[:, None] * direction
        d = boundary_distance(pts, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        assert np.all(np.diff(d) > 0)

    @pytest.mark.parametrize("gen", [gen_two_gaussians, gen_hard_variant])
    def test_circle_matches_norm_form_bit_for_bit(self, gen):
        for seed in range(5):
            ds = gen(seed)
            common, uncommon = ds.specs[:2]
            mc, mu = np.asarray(common.mean), np.asarray(uncommon.mean)
            a, b = 1.0 / common.cov_scale, 1.0 / uncommon.cov_scale
            k = 2.0 * math.log(uncommon.cov_scale / common.cov_scale)
            centre = (a * mc - b * mu) / (a - b)
            radius = math.sqrt(centre @ centre - (a * (mc @ mc) - b * (mu @ mu) - k) / (a - b))
            want = np.abs(np.linalg.norm(ds.points - centre, axis=1) - radius)
            assert boundary_distance(ds.points, common, uncommon).tobytes() == want.tobytes()


def brute_force_distance(points, curve, lo, hi, rounds=4, samples=1025):
    """Minimum distance from each point to the curve(t), t in [lo, hi].

    A grid over t, then finer grids around the nearest sample: each round
    shrinks the spacing about 250-fold, so four rounds resolve well below 1e-6
    on curves of unimodal point distance (a circle, a line)."""
    out = []
    for p in np.asarray(points, dtype=float):
        a, b = lo, hi
        for _ in range(rounds):
            t = np.linspace(a, b, samples)
            d = np.linalg.norm(curve(t) - p, axis=1)
            i = int(np.argmin(d))
            step = t[1] - t[0]
            a, b = t[i] - 2 * step, t[i] + 2 * step
        out.append(d[i])
    return np.array(out)


def equal_density_curve(common, uncommon):
    """(curve, lo, hi) of the equal-density set, checked on its own samples."""
    mc, mu = np.array(common.mean), np.array(uncommon.mean)
    a, b = 1.0 / common.cov_scale, 1.0 / uncommon.cov_scale
    if a == b:
        normal = (mu - mc) / np.linalg.norm(mu - mc)
        foot = 0.5 * (mc + mu)
        curve = lambda t: foot + t[:, None] * np.array([-normal[1], normal[0]])
        lo, hi = -100.0, 100.0
    else:
        centre = (a * mc - b * mu) / (a - b)
        # a|x - mc|^2 - b|x - mu|^2 = 2 log(s_u / s_c) on the circle
        k = 2.0 * np.log(uncommon.cov_scale / common.cov_scale)
        radius = np.sqrt(centre @ centre - (a * mc @ mc - b * mu @ mu - k) / (a - b))
        curve = lambda t: centre + radius * np.stack([np.cos(t), np.sin(t)], axis=1)
        lo, hi = -np.pi, np.pi
    on_curve = curve(np.linspace(lo, hi, 97))
    gap = log_density(on_curve, common) - log_density(on_curve, uncommon)
    assert np.abs(gap).max() < 1e-9
    return curve, lo, hi


class TestBoundaryDistanceOracle:
    """boundary_distance against a brute-force minimum over the sampled curve."""

    CASES = {
        "apollonius": (DEFAULT_COMMON, DEFAULT_UNCOMMON),
        "apollonius_wide_common": (
            GaussianSpec((1.0, -0.5), 2.0, 10, 0), GaussianSpec((-2.0, 1.5), 0.7, 5, 1)
        ),
        "equal_scale": (
            GaussianSpec((0.5, -1.0), 1.3, 10, 0), GaussianSpec((2.0, 1.5), 1.3, 5, 1)
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_brute_force_minimum(self, case):
        common, uncommon = self.CASES[case]
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4, 5, size=(40, 2))
        got = boundary_distance(pts, common, uncommon)
        want = brute_force_distance(pts, *equal_density_curve(common, uncommon))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_far_points_report_their_true_distance(self, case):
        # the distance is not capped: points 25 and 40 away report 25 and 40
        common, uncommon = self.CASES[case]
        curve, lo, hi = equal_density_curve(common, uncommon)
        near = curve(np.array([0.3 * lo + 0.7 * hi]))[0]
        a, b = 1.0 / common.cov_scale, 1.0 / uncommon.cov_scale
        # the curve's normal at `near` is the gradient of a|x - m_c|^2 - b|x - m_u|^2;
        # on a circle it points away from the centre when a > b
        normal = a * (near - np.array(common.mean)) - b * (near - np.array(uncommon.mean))
        outward = np.sign(a - b or 1.0) * normal / np.linalg.norm(normal)
        pts = near + np.array([25.0, 40.0])[:, None] * outward
        d = boundary_distance(pts, common, uncommon)
        np.testing.assert_allclose(d, [25.0, 40.0], rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            d, brute_force_distance(pts, curve, lo, hi), rtol=0, atol=1e-6
        )


class TestRareSetStats:
    def test_empty_rare_set_flagged(self):
        ds = gen_two_gaussians(0, GaussianSpec((0, 0), 1.0, 30, 0), GaussianSpec((2.2, 2.2), 0.5, 5, 1))
        labels = np.full(35, COMMON)
        rep = rare_set_stats(labels, ds, *ds.specs)
        assert rep.empty and rep.mean_distance_rare is None and rep.rare_size == 0

    def test_counts_and_distances(self):
        ds = gen_two_gaussians(1, GaussianSpec((0, 0), 1.0, 30, 0), GaussianSpec((2.2, 2.2), 0.5, 10, 1))
        labels = np.full(40, COMMON)
        labels[0] = labels[1] = RARE  # two common-class points
        labels[30] = RARE  # one uncommon-class point
        labels[31] = UNVISITED
        rep = rare_set_stats(labels, ds, *ds.specs)
        assert rep.counts_per_class == {0: 2, 1: 1}
        assert rep.rare_size == 3
        assert rep.mean_distance_rare >= 0.0
        assert rep.mean_distance_all > 0.0


class TestRanking:
    """The order quartile_accuracy bins examples in: ascending mean alignment,
    ties by example id. With four examples every bin holds one example, so a
    one-hot correctness vector shows where that example landed."""

    @staticmethod
    def position(means, example):
        correct = np.zeros(len(means))
        correct[example] = 1.0
        return quartile_accuracy(np.asarray(means), correct).accuracies.index(1.0)

    def test_order_and_ties(self):
        means = [0.3, -0.2, 0.0, 0.1]
        assert [self.position(means, i) for i in range(4)] == [3, 0, 1, 2]
        assert [self.position([0.5] * 4, i) for i in range(4)] == [0, 1, 2, 3]

    def test_negation_reverses(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            means = rng.uniform(-1, 1, size=4)  # distinct with prob 1
            for i in range(4):
                assert self.position(-means, i) == 3 - self.position(means, i)

    def test_skips_unvisited(self):
        # the report ranks the examples label_examples marks as seen
        t = trace_with_alignments([0.1, 0.2, 0.3, 0.4, 0.5])
        t.occurrences[1] = 0
        _, seen, excluded = label_examples(t)
        assert excluded == 1
        correct = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
        q = quartile_accuracy(t.mean_alignment()[seen], correct[seen])
        assert q.accuracies == (0.0, 0.0, 0.0, 1.0)


class TestDenseBandMre:
    def test_perfect_predictions(self):
        t = np.full((4, 4), 5.0)
        rep = dense_band_mre(t, t, np.ones((4, 4), bool), (7.0,))
        assert rep.total_mre == 0.0
        assert rep.bands[0].mre == 0.0 and rep.bands[1].mre is None

    def test_constant_relative_error(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(2, 12, size=(8, 8))
        rep = dense_band_mre(1.1 * t, t, np.ones((8, 8), bool), (7.0,))
        for band in rep.bands:
            if band.mre is not None:
                assert band.mre == pytest.approx(0.1, rel=1e-12)
        assert rep.total_mre == pytest.approx(0.1, rel=1e-12)

    def test_total_is_count_weighted_band_mean(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(1, 14, size=(16, 16))
        p = t + rng.normal(size=t.shape)
        mask = rng.random(t.shape) > 0.1
        rep = dense_band_mre(p, t, mask, (4.0, 8.0, 11.0))
        total = sum(b.pixels * b.mre for b in rep.bands if b.mre is not None)
        count = sum(b.pixels for b in rep.bands)
        assert count == rep.total_pixels
        assert rep.total_mre == pytest.approx(total / count, abs=1e-12)

    def test_validation(self):
        t = np.ones((2, 2))
        with pytest.raises(ValueError):
            dense_band_mre(t, t, np.ones((2, 2), bool), (5.0, 5.0))
        with pytest.raises(ValueError):
            dense_band_mre(t, np.zeros((2, 2)), np.ones((2, 2), bool), (5.0,))
        with pytest.raises(ValueError):
            dense_band_mre(t, t, np.ones((3, 3), bool), (5.0,))


class TestExperimentReport:
    def test_full_report_from_short_run(self):
        from gradtail.engine import TrainConfig, train
        from gradtail.algorithm import GradTailConfig

        ds = gen_two_gaussians(0, GaussianSpec((0, 0), 1.0, 300, 0), GaussianSpec((2.2, 2.2), 0.5, 30, 1))
        cfg = TrainConfig(steps=150, batch_size=64, strategy="gradtail",
                          gradtail=GradTailConfig(warmup_batches=5))
        res = train(ds, 0, cfg)
        rep = experiment_report(res, ds, boundary_grid(res.model, *ds.specs[:2]))
        assert 0.0 <= rep.total_accuracy <= 1.0
        assert 0.0 <= rep.balanced_accuracy <= 1.0
        assert 0.0 <= rep.boundary_disagreement <= 1.0
        assert set(rep.tail_counts) == {"common", "rare", "hard"}
        assert sum(rep.tail_counts.values()) + rep.excluded_examples == ds.n
        assert len(rep.quartiles.accuracies) == 4
