"""Seeded synthetic datasets: imbalanced 2-D Gaussians and a dense regression grid.

All sampling runs through Box-Muller on counter-based Philox streams, so a
(seed, spec) pair regenerates the same bits on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

COMMON, UNCOMMON = 0, 1


@dataclass(frozen=True)
class GaussianSpec:
    """Isotropic 2-D Gaussian component: N(mean, cov_scale * I) with a class label."""

    mean: tuple[float, float]
    cov_scale: float
    count: int
    label: int

    def __post_init__(self) -> None:
        if self.cov_scale <= 0.0:
            raise ValueError("cov_scale must be positive")
        if self.count < 1:
            raise ValueError("count must be >= 1")


DEFAULT_COMMON = GaussianSpec(mean=(0.0, 0.0), cov_scale=1.0, count=10_000, label=COMMON)
DEFAULT_UNCOMMON = GaussianSpec(mean=(2.2, 2.2), cov_scale=0.5, count=400, label=UNCOMMON)
HARD_UNCOMMON = GaussianSpec(mean=(1.0, 1.0), cov_scale=0.5, count=400, label=UNCOMMON)
EQUAL_DENSITY_TOLERANCE = 1e-12  # |log-density gap| on the equal-density curve


@dataclass
class Dataset2D:
    """Labeled 2-D point cloud with the specs and seed that generated it."""

    points: np.ndarray  # (N, 2)
    labels: np.ndarray  # (N,) int
    specs: tuple[GaussianSpec, ...]
    seed: int

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be (N, 2)")
        if self.labels.shape != (self.points.shape[0],):
            raise ValueError("labels length mismatch")
        if self.points.shape[0] != sum(s.count for s in self.specs):
            raise ValueError("point count != sum of spec counts")
        for lbl in {s.label for s in self.specs}:
            if not np.any(self.labels == lbl):
                raise ValueError(f"class {lbl} has no points")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def class_counts(self) -> dict[int, int]:
        labels, counts = np.unique(self.labels, return_counts=True)
        return {int(l): int(c) for l, c in zip(labels, counts)}


@dataclass
class DenseGrid:
    """Per-pixel regression grid: features, targets, validity, and band membership."""

    height: int
    width: int
    inputs: np.ndarray  # (H, W, 2) features
    targets: np.ndarray  # (H, W)
    valid_mask: np.ndarray  # (H, W) bool
    rare_mask: np.ndarray  # (H, W) bool: which pixels carry the high-range band
    seed: int = 0

    def __post_init__(self) -> None:
        hw = (self.height, self.width)
        if self.height < 1 or self.width < 1:
            raise ValueError("degenerate grid dims")
        if self.inputs.shape[:2] != hw or self.targets.shape != hw:
            raise ValueError("inputs/targets shape mismatch")
        if self.valid_mask.shape != hw or self.rare_mask.shape != hw:
            raise ValueError("mask shape mismatch")
        if not np.all(np.isfinite(self.targets[self.valid_mask])):
            raise ValueError("non-finite targets under valid mask")


def _philox(seed: int, stream: int) -> np.random.Generator:
    """Independent counter-based stream for one (seed, purpose) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard-normal pairs, shape (n, 2), via the polar-free Box-Muller map."""
    u1 = 1.0 - rng.random(n)  # (0, 1]: keeps the log finite
    u2 = rng.random(n)
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _sample_spec(seed: int, stream: int, spec: GaussianSpec) -> np.ndarray:
    z = box_muller(_philox(seed, stream), spec.count)
    return np.asarray(spec.mean) + np.sqrt(spec.cov_scale) * z


def gen_two_gaussians(
    seed: int,
    common: GaussianSpec = DEFAULT_COMMON,
    uncommon: GaussianSpec = DEFAULT_UNCOMMON,
) -> Dataset2D:
    """Imbalanced two-class cloud; common block first, then uncommon."""
    pts = np.concatenate([_sample_spec(seed, 0, common), _sample_spec(seed, 1, uncommon)])
    labels = np.concatenate(
        [np.full(common.count, common.label), np.full(uncommon.count, uncommon.label)]
    )
    return Dataset2D(pts, labels, (common, uncommon), seed)


def gen_hard_variant(seed: int) -> Dataset2D:
    """Same cloud but with the uncommon mean pulled inward so the common class
    out-numbers it everywhere (prior-weighted density dominance)."""
    return gen_two_gaussians(seed, DEFAULT_COMMON, HARD_UNCOMMON)


def log_density(x: np.ndarray, spec: GaussianSpec) -> np.ndarray:
    """Log N(mean, cov_scale*I) density at points x of shape (..., 2)."""
    x = np.asarray(x, dtype=np.float64)
    d = x - np.asarray(spec.mean)
    d *= d  # two columns added directly: numpy reduces a length-2 axis row by row
    d2 = d[..., 0] + d[..., 1]
    return -d2 / (2.0 * spec.cov_scale) - np.log(2.0 * np.pi * spec.cov_scale)


def _log_densities(
    x: np.ndarray, common: GaussianSpec, uncommon: GaussianSpec, use_priors: bool
) -> tuple[np.ndarray, np.ndarray]:
    lc, lu = log_density(x, common), log_density(x, uncommon)
    if use_priors:
        total = common.count + uncommon.count
        lc = lc + np.log(common.count / total)
        lu = lu + np.log(uncommon.count / total)
    return lc, lu


def density_difference(
    x: np.ndarray,
    common: GaussianSpec = DEFAULT_COMMON,
    uncommon: GaussianSpec = DEFAULT_UNCOMMON,
    use_priors: bool = False,
) -> np.ndarray:
    """phi_common(x) - phi_uncommon(x); optionally weighted by empirical priors."""
    lc, lu = _log_densities(x, common, uncommon, use_priors)
    return np.exp(lc) - np.exp(lu)


def analytic_boundary_side(
    x: np.ndarray,
    common: GaussianSpec = DEFAULT_COMMON,
    uncommon: GaussianSpec = DEFAULT_UNCOMMON,
    use_priors: bool = False,
    tolerance: float = EQUAL_DENSITY_TOLERANCE,
):
    """+1 where the common density wins, -1 where the uncommon one does, 0 on
    the equal-density curve, where |log phi_common - log phi_uncommon| <=
    ``tolerance``. The side comes from the log-density difference because far
    from both means the raw densities underflow together while their ratio
    stays well defined. Priors excluded by default: the reference curve is
    where the raw generating densities match."""
    lc, lu = _log_densities(x, common, uncommon, use_priors)
    diff = lc - lu
    side = np.where(np.abs(diff) <= tolerance, 0.0, np.sign(diff))
    return float(side) if np.ndim(side) == 0 else side


def dominance_holds(
    common: GaussianSpec = DEFAULT_COMMON,
    uncommon: GaussianSpec = HARD_UNCOMMON,
    bounds: tuple[float, float] = (-5.0, 5.0),
    resolution: int = 200,
) -> bool:
    """True when prior-weighted common density >= uncommon density at every
    node of a resolution^2 grid over bounds^2."""
    axis = np.linspace(bounds[0], bounds[1], resolution)
    xx, yy = np.meshgrid(axis, axis)
    grid = np.stack([xx, yy], axis=-1)
    return bool(np.all(density_difference(grid, common, uncommon, use_priors=True) >= 0.0))


# ---------------------------------------------------------------------------
# dense regression analog
# ---------------------------------------------------------------------------

COMMON_BASE, COMMON_SPAN = 3.0, 0.6
RARE_BASE, RARE_SPAN = 11.0, 1.5
INDICATOR_NOISE = 0.25
DROP_FRACTION = 0.05


def gen_dense_task(seed: int, height: int, width: int, rare_fraction: float) -> DenseGrid:
    """Per-pixel regression with a rare high-range band.

    Features per pixel: a standard-normal driver g and a noisy band indicator.
    Targets: common band 3 + 0.6*tanh(g), rare band 11 + 1.5*tanh(g). A random
    5% of pixels is marked invalid (sparse ground truth).
    """
    if height < 1 or width < 1:
        raise ValueError("degenerate grid dims")
    if not 0.0 < rare_fraction < 1.0:
        raise ValueError("rare_fraction must lie in (0,1)")
    n = height * width
    rare = _philox(seed, 10).random(n) < rare_fraction
    g = box_muller(_philox(seed, 11), (n + 1) // 2).ravel()[:n]
    noise = box_muller(_philox(seed, 12), (n + 1) // 2).ravel()[:n]
    indicator = rare.astype(np.float64) + INDICATOR_NOISE * noise
    targets = np.where(
        rare, RARE_BASE + RARE_SPAN * np.tanh(g), COMMON_BASE + COMMON_SPAN * np.tanh(g)
    )
    valid = _philox(seed, 13).random(n) >= DROP_FRACTION

    shape = (height, width)
    inputs = np.stack([g.reshape(shape), indicator.reshape(shape)], axis=-1)
    return DenseGrid(
        height, width, inputs, targets.reshape(shape),
        valid.reshape(shape), rare.reshape(shape), seed,
    )
