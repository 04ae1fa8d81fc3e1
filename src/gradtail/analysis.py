"""Run analytics: tail labeling, quartile accuracy, boundary assays, band errors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import EQUAL_DENSITY_TOLERANCE, Dataset2D, GaussianSpec, log_density
from .engine import StepLog, TraceTable, TrainResult
from .mlp import MlpModel, _row_argmax, forward_batch

DEFAULT_BAND_HALF_WIDTH = 0.07
EVAL_BOUNDS = (-4.0, 5.0)
EVAL_RESOLUTION = 200
# splits the dense task's target ranges (common 3 +/- 0.6, rare 11 +/- 1.5)
DENSE_BAND_EDGES = (7.0,)


# tail codes: an example's band by run-mean alignment; TAIL_NAMES[code]
# names each visited code
UNVISITED, COMMON, RARE, HARD = -1, 0, 1, 2
TAIL_NAMES = ("common", "rare", "hard")


def label_examples(
    trace: TraceTable, band_half_width: float = DEFAULT_BAND_HALF_WIDTH
) -> tuple[np.ndarray, np.ndarray, int]:
    """Label every visited example by mean alignment.

    Returns (tail codes, UNVISITED for unvisited examples; evaluated mask;
    number excluded). The band is closed: |mean| equal to the half width
    still counts as rare.
    """
    if band_half_width < 0:
        raise ValueError("band_half_width must be nonnegative")
    mean = trace.mean_alignment()
    seen = trace.seen()
    labels = np.full(trace.n, UNVISITED)
    labels[seen & (mean > band_half_width)] = COMMON
    labels[seen & (np.abs(mean) <= band_half_width)] = RARE
    labels[seen & (mean < -band_half_width)] = HARD
    return labels, seen, int((~seen).sum())


@dataclass(frozen=True)
class QuartileReport:
    accuracies: tuple[float, float, float, float]
    correlation: float | None  # None when degenerate, as is point_biserial
    point_biserial: float | None


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xd, yd = x - x.mean(), y - y.mean()
    sx, sy = np.sqrt((xd * xd).sum()), np.sqrt((yd * yd).sum())
    if sx == 0.0 or sy == 0.0:
        return None
    return float((xd * yd).sum() / (sx * sy))


def quartile_accuracy(mean_alignment: np.ndarray, correct: np.ndarray) -> QuartileReport:
    """Accuracy within each alignment quartile plus its rank correlation.

    Examples sort ascending by (mean alignment, example id) and split into
    four near-equal bins; the correlation is Pearson of bin index {1..4}
    against bin accuracy, None when degenerate.
    """
    mean_alignment = np.asarray(mean_alignment, dtype=float)
    correct = np.asarray(correct, dtype=float)
    if mean_alignment.shape != correct.shape or mean_alignment.ndim != 1:
        raise ValueError("alignment/correctness arrays must be equal-length vectors")
    n = mean_alignment.shape[0]
    if n < 4:
        raise ValueError("need at least 4 examples for quartiles")
    order = np.lexsort((np.arange(n), mean_alignment))
    bins = np.array_split(correct[order], 4)
    accs = tuple(float(b.mean()) for b in bins)
    return QuartileReport(
        accs, _pearson(np.arange(1, 5), np.array(accs)), _pearson(mean_alignment, correct)
    )


@dataclass(frozen=True)
class ClassMetrics:
    total_accuracy: float
    balanced_accuracy: float
    per_class_recall: dict[int, float]


def metrics_from_predictions(pred_labels: np.ndarray, true_labels: np.ndarray) -> ClassMetrics:
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    if pred_labels.shape != true_labels.shape or pred_labels.size == 0:
        raise ValueError("prediction/label shape mismatch or empty input")
    classes = np.unique(true_labels)
    recalls = {}
    for c in classes:
        sel = true_labels == c
        if not sel.any():
            raise ValueError(f"class {c} has no examples")
        recalls[int(c)] = float((pred_labels[sel] == c).mean())
    total = float((pred_labels == true_labels).mean())
    balanced = float(np.mean(list(recalls.values())))
    return ClassMetrics(total, balanced, recalls)


def class_metrics(model: MlpModel, dataset: Dataset2D) -> ClassMetrics:
    """Total accuracy, per-class recall, and their unweighted (balanced) mean."""
    preds = _row_argmax(forward_batch(model, dataset.points))
    return metrics_from_predictions(preds, dataset.labels)


def _eval_grid() -> np.ndarray:
    axis = np.linspace(EVAL_BOUNDS[0], EVAL_BOUNDS[1], EVAL_RESOLUTION)
    xx, yy = np.meshgrid(axis, axis)
    return np.stack([xx.ravel(), yy.ravel()], axis=-1)


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """A model's ``logits`` and log phi_common - log phi_uncommon (``log_gap``) at
    the ``_eval_grid`` nodes, computed once for the disagreement and both
    boundary contours; row i * len(axis) + j is node (axis[j], axis[i])."""

    axis: np.ndarray
    logits: np.ndarray
    log_gap: np.ndarray
    common_label: int


def boundary_grid(model: MlpModel, common: GaussianSpec, uncommon: GaussianSpec) -> BoundaryGrid:
    pts = _eval_grid()
    log_gap = log_density(pts, common) - log_density(pts, uncommon)
    axis = pts[:EVAL_RESOLUTION, 0]  # the first row of nodes
    return BoundaryGrid(axis, forward_batch(model, pts), log_gap, common.label)


def boundary_disagreement(grid: BoundaryGrid) -> float:
    """Fraction of grid nodes where the model's class differs from the
    equal-density oracle (``analytic_boundary_side``). Nodes exactly on the
    oracle curve never disagree. The class is the argmax, which holds for NaN
    logits and any class count."""
    oracle = np.where(np.abs(grid.log_gap) <= EQUAL_DENSITY_TOLERANCE, 0.0, np.sign(grid.log_gap))
    model_side = np.where(_row_argmax(grid.logits) == grid.common_label, 1.0, -1.0)
    return float(((oracle != 0.0) & (model_side != oracle)).mean())


def boundary_distance(
    points: np.ndarray, common: GaussianSpec, uncommon: GaussianSpec
) -> np.ndarray:
    """Euclidean distance from each point to the equal-density curve.

    Both components are isotropic, so with a = 1/s_common, b = 1/s_uncommon
    equal log-density reads a|x - m_c|^2 - b|x - m_u|^2 = 2 log(s_u / s_c):
    an Apollonius circle with centre (a m_c - b m_u)/(a - b), or a line
    when the scales match."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    mc, mu = np.asarray(common.mean, dtype=float), np.asarray(uncommon.mean, dtype=float)
    a, b = 1.0 / common.cov_scale, 1.0 / uncommon.cov_scale
    k = 2.0 * math.log(uncommon.cov_scale / common.cov_scale)
    if a == b:
        normal = 2.0 * a * (mu - mc)
        if not normal.any():  # identical components: every point is on the curve
            return np.zeros(pts.shape[0])
        offset = a * (mc @ mc) - b * (mu @ mu)
        return np.abs(pts @ normal + offset) / np.linalg.norm(normal)
    centre = (a * mc - b * mu) / (a - b)
    radius = math.sqrt(centre @ centre - (a * (mc @ mc) - b * (mu @ mu) - k) / (a - b))
    dx, dy = pts[:, 0] - centre[0], pts[:, 1] - centre[1]
    return np.abs(np.sqrt(dx * dx + dy * dy) - radius)


@dataclass(frozen=True)
class RareSetReport:
    counts_per_class: dict[int, int]
    mean_distance_rare: float | None
    mean_distance_all: float
    empty: bool
    rare_size: int


def rare_set_stats(
    labels: np.ndarray,
    dataset: Dataset2D,
    common: GaussianSpec,
    uncommon: GaussianSpec,
) -> RareSetReport:
    """Class makeup and mean boundary distance of the rare-labeled set,
    against the whole dataset's mean distance. An empty rare set is flagged
    rather than an error (the dominated-distribution outcome)."""
    rare_mask = labels == RARE
    all_dist = boundary_distance(dataset.points, common, uncommon)
    if not rare_mask.any():
        return RareSetReport({}, None, float(all_dist.mean()), True, 0)
    classes, counts = np.unique(dataset.labels[rare_mask], return_counts=True)
    return RareSetReport(
        dict(zip(classes.tolist(), counts.tolist())),
        float(all_dist[rare_mask].mean()),
        float(all_dist.mean()),
        False,
        int(rare_mask.sum()),
    )


@dataclass(frozen=True)
class BandMre:
    lower: float
    upper: float
    pixels: int
    mre: float | None  # None when the band holds no pixels


@dataclass(frozen=True)
class BandMreReport:
    bands: tuple[BandMre, ...]
    total_mre: float
    total_pixels: int


def dense_band_mre(
    predictions: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    band_edges: tuple[float, ...],
) -> BandMreReport:
    """Mean relative error per target band (interior edges given) and overall."""
    edges = tuple(band_edges)
    if not edges or any(nxt <= prev for prev, nxt in zip(edges, edges[1:])):
        raise ValueError("band edges must be strictly increasing and nonempty")
    predictions, targets = np.asarray(predictions, float), np.asarray(targets, float)
    mask = np.asarray(mask, bool)
    if not (predictions.shape == targets.shape == mask.shape):
        raise ValueError("shape mismatch")
    p, t = predictions[mask], targets[mask]
    if np.any(t <= 0.0):
        raise ValueError("relative error requires positive targets")
    rel = np.abs(p - t) / t
    cuts = (-np.inf,) + edges + (np.inf,)
    bands = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sel = (t >= lo) & (t < hi)
        bands.append(
            BandMre(lo, hi, int(sel.sum()), float(rel[sel].mean()) if sel.any() else None)
        )
    return BandMreReport(tuple(bands), float(rel.mean()), int(t.size))


def mean_weight_after_warmup(step_log: StepLog, warmup_batches: int) -> float | None:
    """Mean of the step log's batch-mean weights over the steps at or after
    ``warmup_batches``; None when no step is past warm-up."""
    after = step_log.mean_weight[warmup_batches:]
    return float(after.mean()) if after.size else None


@dataclass
class ExperimentReport:
    """Everything the toy study reports for one trained run."""

    total_accuracy: float
    balanced_accuracy: float
    per_class_recall: dict[int, float]
    quartiles: QuartileReport
    boundary_disagreement: float
    rare_set: RareSetReport
    tail_counts: dict[str, int]
    excluded_examples: int
    mean_weight_after_warmup: float | None


def experiment_report(
    result: TrainResult,
    dataset: Dataset2D,
    grid: BoundaryGrid,
    band_half_width: float = DEFAULT_BAND_HALF_WIDTH,
) -> ExperimentReport:
    """Assemble the full classification report from a finished run and its grid."""
    if result.trace is None:
        raise ValueError("run has no traces; rerun with trace_logging")
    labels, seen, excluded = label_examples(result.trace, band_half_width)
    preds = _row_argmax(forward_batch(result.model, dataset.points))
    metrics = metrics_from_predictions(preds, dataset.labels)
    correct = (preds == dataset.labels).astype(float)
    quart = quartile_accuracy(result.trace.mean_alignment()[seen], correct[seen])

    counts = np.bincount(labels[labels != UNVISITED], minlength=len(TAIL_NAMES))
    tail_counts = dict(zip(TAIL_NAMES, counts.tolist()))
    return ExperimentReport(
        metrics.total_accuracy,
        metrics.balanced_accuracy,
        metrics.per_class_recall,
        quart,
        boundary_disagreement(grid),
        rare_set_stats(labels, dataset, *dataset.specs[:2]),
        tail_counts,
        excluded,
        mean_weight_after_warmup(result.step_log, result.config.gradtail.warmup_batches),
    )
