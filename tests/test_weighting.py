"""Baseline weighter oracles: frequency tables, focal factors, entropy."""

import numpy as np
import pytest

from gradtail.baselines import FrequencyWeights, entropy_score, entropy_scores
from gradtail.engine import TrainConfig, focal_weights


def focal(probs, label, gamma=2.0):
    """engine.focal_weights on the logits log(probs) of one example."""
    with np.errstate(divide="ignore"):
        logits = np.log(np.asarray(probs, dtype=float))[None, :]
    return float(focal_weights(logits, np.array([label]), gamma)[0])


class TestFrequencyWeights:
    def test_from_counts_imbalanced(self):
        fw = FrequencyWeights.from_counts({0: 10_000, 1: 400})
        assert fw.table == {0: 1.0, 1: 25.0}

    def test_unknown_class(self):
        # a class_weights that does not list every class, or lists one too
        # many, is a config error, not a class trained at weight 1
        for weights in ((1.0,), (1.0, 3.0, 7.0)):
            with pytest.raises(ValueError, match="class_weights has"):
                TrainConfig(strategy="inverse_frequency", class_weights=weights)
        three = TrainConfig(class_weights=(1.0, 3.0, 7.0), model_dims=(2, 5, 3))
        assert three.class_weights == (1.0, 3.0, 7.0)

    def test_uniform_table(self):
        fw = FrequencyWeights.from_counts({0: 7, 1: 7, 2: 7})
        assert fw.table == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_reference_class_required(self):
        with pytest.raises(ValueError):
            FrequencyWeights({0: 2.0, 1: 3.0})
        with pytest.raises(ValueError):
            FrequencyWeights({0: 0.5, 1: 1.0})
        with pytest.raises(ValueError):
            FrequencyWeights({})

    def test_from_counts_validation(self):
        with pytest.raises(ValueError):
            FrequencyWeights.from_counts({0: 0, 1: 5})

    def test_constant_across_calls(self):
        tables = [FrequencyWeights.from_counts({0: 300, 1: 100}).table for _ in range(3)]
        assert [t[1] for t in tables] == [3.0, 3.0, 3.0]


class TestFocal:
    """engine.focal_weights: (1 - p_true)^gamma on a softmax of the logits."""

    def test_perfectly_classified_contributes_nothing(self):
        assert focal([1.0, 0.0], 0) == 0.0

    def test_gamma_zero_reduces_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            assert focal(p, 1, gamma=0.0) == 1.0

    def test_half_confidence_gamma_two(self):
        assert focal([0.5, 0.5], 0, gamma=2.0) == 0.25

    def test_monotone_decreasing_in_confidence(self):
        ps = np.linspace(0.01, 0.99, 50)
        ws = [focal([p, 1 - p], 0, gamma=2.0) for p in ps]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    def test_validation(self):
        # gamma is checked once, where the config is built
        with pytest.raises(ValueError):
            TrainConfig(strategy="focal", focal_gamma=-1.0)
        assert TrainConfig(strategy="focal", focal_gamma=0.0).focal_gamma == 0.0
        # one weight per row, each in [0, 1]
        logits = np.random.default_rng(4).normal(size=(6, 3)) * 5
        w = focal_weights(logits, np.array([0, 1, 2, 0, 1, 2]), 2.0)
        assert w.shape == (6,) and np.all((w >= 0.0) & (w <= 1.0))


class TestEntropy:
    def test_uniform_binary_is_ln2(self):
        assert entropy_score(np.array([0.5, 0.5])) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_deterministic_is_zero(self):
        assert entropy_score(np.array([1.0, 0.0])) == 0.0

    def test_hand_value(self):
        assert entropy_score(np.array([0.9, 0.1])) == pytest.approx(0.32508297339144824, rel=1e-14)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert entropy_score(p[::-1]) == pytest.approx(entropy_score(p), rel=1e-12)

    def test_uniform_maximizes_binary(self):
        rng = np.random.default_rng(2)
        top = entropy_score(np.array([0.5, 0.5]))
        for _ in range(200):
            q = rng.uniform(0.0, 1.0)
            assert entropy_score(np.array([q, 1 - q])) <= top + 1e-15

    def test_rowwise_matches_scalar(self):
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(3), size=20)
        rows[0] = [1.0, 0.0, 0.0]  # exercise the 0 ln 0 branch
        got = entropy_scores(rows)
        for i in range(20):
            assert got[i] == pytest.approx(entropy_score(rows[i]), rel=1e-12, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            entropy_score(np.array([0.5, 0.6]))
