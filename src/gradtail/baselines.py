"""Baseline pieces: the inverse-class-frequency table and entropy scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FrequencyWeights:
    """Per-class loss weights; the most frequent (reference) class carries 1.0."""

    table: dict[int, float]

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("empty weight table")
        vals = np.array(list(self.table.values()), dtype=float)
        if not np.all(np.isfinite(vals)) or np.any(vals < 1.0):
            raise ValueError("class weights must be finite and >= 1")
        if not np.any(vals == 1.0):
            raise ValueError("some class must be the weight-1 reference")

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "FrequencyWeights":
        """Inverse-frequency weights: weight(c) = max_count / count(c)."""
        if not counts or any(n < 1 for n in counts.values()):
            raise ValueError("counts must be positive")
        ref = max(counts.values())
        return cls({c: ref / n for c, n in counts.items()})


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-6:
        raise ValueError("not a probability vector")
    return probs


def entropy_score(probs: np.ndarray) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0."""
    probs = _check_probs(probs)
    nz = probs[probs > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def entropy_scores(prob_rows: np.ndarray) -> np.ndarray:
    """Row-wise entropy for an (N, K) matrix of probability vectors."""
    p = np.asarray(prob_rows, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -np.sum(terms, axis=1)
