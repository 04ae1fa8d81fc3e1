"""Analysis oracles: labeling bands, quartiles, metrics, boundary distances, MRE."""

import numpy as np
import pytest

from gradtail.analysis import (
    TailLabel,
    boundary_disagreement,
    boundary_distance,
    class_metrics,
    dense_band_mre,
    density_difference_grad,
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
    density_difference,
    gen_two_gaussians,
)
from gradtail.engine import TraceTable
from gradtail.mlp import MlpModel


def trace_with_alignments(means, occurrences=10):
    n = len(means)
    t = TraceTable.zeros(n)
    t.occurrences[:] = occurrences
    t.theta_sum[:] = np.asarray(means) * occurrences
    return t


class TestLabeling:
    def test_band_assignments(self):
        t = trace_with_alignments([0.5, 0.0, -0.07, 0.07, -0.5, 0.071])
        labels, seen, excluded = label_examples(t)
        assert excluded == 0 and seen.all()
        assert labels[0] is TailLabel.COMMON
        assert labels[1] is TailLabel.RARE
        assert labels[2] is TailLabel.RARE  # closed interval at -0.07
        assert labels[3] is TailLabel.RARE  # closed at +0.07
        assert labels[4] is TailLabel.HARD
        assert labels[5] is TailLabel.COMMON

    def test_unvisited_excluded(self):
        t = trace_with_alignments([0.2, 0.0])
        t.occurrences[1] = 0
        t.theta_sum[1] = 0.0
        labels, seen, excluded = label_examples(t)
        assert excluded == 1
        assert labels[1] is None and not seen[1]

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(0)
        t = trace_with_alignments(rng.uniform(-1, 1, size=500))
        labels, seen, _ = label_examples(t)
        assert all(lab in (TailLabel.COMMON, TailLabel.RARE, TailLabel.HARD) for lab in labels)


class TestQuartiles:
    def test_constant_correctness_flagged(self):
        rep = quartile_accuracy(np.linspace(-1, 1, 40), np.ones(40))
        assert rep.accuracies == (1.0, 1.0, 1.0, 1.0)
        assert rep.correlation == 0.0 and not rep.correlation_defined

    def test_step_function_oracle(self):
        # correct iff alignment above median -> accuracies (0,0,1,1),
        # Pearson((1,2,3,4),(0,0,1,1)) = 2/sqrt(5)
        theta = np.linspace(-1, 1, 40)
        correct = (theta > 0).astype(float)
        rep = quartile_accuracy(theta, correct)
        assert rep.accuracies == (0.0, 0.0, 1.0, 1.0)
        assert rep.correlation == pytest.approx(0.8944271909999159, rel=1e-12)
        assert rep.correlation_defined

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
        assert rep.point_biserial > 0.5 and rep.point_biserial_defined


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
        assert boundary_disagreement(oracle_model(), common, uncommon) == 0.0

    def test_majority_model_equals_uncommon_area(self):
        m = MlpModel([2, 2], [np.zeros((2, 2))], [np.array([1.0, 0.0])])  # always class 0
        from gradtail.datasets import analytic_boundary_side
        from gradtail.analysis import _eval_grid

        frac = boundary_disagreement(m, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        oracle = analytic_boundary_side(_eval_grid(), DEFAULT_COMMON, DEFAULT_UNCOMMON)
        assert frac == pytest.approx((oracle == -1.0).mean(), abs=1e-12)
        assert 0.0 < frac < 0.5

    def test_deterministic(self):
        m = MlpModel.initialize([2, 5, 2], 3)
        a = boundary_disagreement(m, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        b = boundary_disagreement(m, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        assert a == b


class TestBoundaryDistance:
    def test_on_boundary_is_near_zero(self):
        # construct boundary points analytically: circle centered 2 mu
        mu = np.array([2.2, 2.2])
        radius = np.sqrt(2 * mu @ mu + 2 * np.log(2.0))
        pts = 2 * mu + radius * np.array([[1.0, 0.0], [0.0, -1.0], [-np.sqrt(0.5), -np.sqrt(0.5)]])
        d = boundary_distance(pts, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        assert np.all(d <= 2e-4)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 4, size=(20, 2))
        g = density_difference_grad(pts, DEFAULT_COMMON, DEFAULT_UNCOMMON)
        h = 1e-6
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (
                density_difference(pts + e, DEFAULT_COMMON, DEFAULT_UNCOMMON)
                - density_difference(pts - e, DEFAULT_COMMON, DEFAULT_UNCOMMON)
            ) / (2 * h)
            np.testing.assert_allclose(g[:, axis], fd, rtol=1e-5, atol=1e-12)

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


class TestRareSetStats:
    def test_empty_rare_set_flagged(self):
        ds = gen_two_gaussians(0, GaussianSpec((0, 0), 1.0, 30, 0), GaussianSpec((2.2, 2.2), 0.5, 5, 1))
        labels = np.array([TailLabel.COMMON] * 35, dtype=object)
        rep = rare_set_stats(labels, ds, *ds.specs)
        assert rep.empty and rep.mean_distance_rare is None and rep.rare_size == 0

    def test_counts_and_distances(self):
        ds = gen_two_gaussians(1, GaussianSpec((0, 0), 1.0, 30, 0), GaussianSpec((2.2, 2.2), 0.5, 10, 1))
        labels = np.array([TailLabel.COMMON] * 40, dtype=object)
        labels[0] = labels[1] = TailLabel.RARE  # two common-class points
        labels[30] = TailLabel.RARE  # one uncommon-class point
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
        rep = experiment_report(res, ds)
        assert 0.0 <= rep.total_accuracy <= 1.0
        assert 0.0 <= rep.balanced_accuracy <= 1.0
        assert 0.0 <= rep.boundary_disagreement <= 1.0
        assert set(rep.tail_counts) == {"common", "rare", "hard"}
        assert sum(rep.tail_counts.values()) + rep.excluded_examples == ds.n
        assert len(rep.quartiles.accuracies) == 4
