"""Gradient-alignment weighting state machine.

Each training batch, every example's loss gradient is compared (by cosine)
against an exponential moving average of past mean gradients. Examples whose
alignment lands near a chosen pivot get their loss upweighted smoothly, up to
``1 + amplitude/2``; everything else decays toward weight 1. The running
absolute-alignment average ``sigma`` rescales alignments so the pivot distance
is measured in units of typical alignment spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_finite(config) -> None:
    """Refuse NaN and +-inf in a config's float fields (range checks pass NaN)."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class GradTailConfig:
    """Hyperparameters for alignment-based example weighting.

    ``amplitude`` may be zero, which makes every weight exactly 1 (a clean
    way to run the full machinery as a no-op baseline).
    """

    pivot: float = 0.0
    decay: float = 0.99
    amplitude: float = 28.0
    slope: float = 0.75
    sigma_floor: float = 1e-3
    warmup_batches: int = 10
    epsilon_norm: float = 1e-12

    def __post_init__(self) -> None:
        check_finite(self)
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must lie in (0,1), got {self.decay}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.slope <= 0.0:
            raise ValueError(f"slope must be positive, got {self.slope}")
        if self.sigma_floor <= 0.0:
            raise ValueError(f"sigma_floor must be positive, got {self.sigma_floor}")
        if self.warmup_batches < 0:
            raise ValueError("warmup_batches must be nonnegative")
        if self.epsilon_norm <= 0.0:
            raise ValueError("epsilon_norm must be positive")

    @property
    def max_weight(self) -> float:
        return 1.0 + self.amplitude / 2.0

    @classmethod
    def from_max_weight(cls, max_weight: float, **kwargs) -> "GradTailConfig":
        """Build a config whose peak weight equals ``max_weight`` (>= 1)."""
        if max_weight < 1.0:
            raise ValueError(f"max_weight must be >= 1, got {max_weight}")
        return cls(amplitude=2.0 * (max_weight - 1.0), **kwargs)


@dataclass
class GradTailState:
    """EMA mean gradient, running alignment spread, and the update counter.

    ``ema_grad`` is a flat vector over the parameter blocks ``layout`` names,
    as (layer, "weight"|"bias") pairs in flattening order.
    """

    ema_grad: np.ndarray
    layout: tuple[tuple[int, str], ...]
    sigma: float = 0.0
    updates_seen: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.updates_seen < 0:
            raise ValueError("updates_seen must be nonnegative")

    def copy(self) -> "GradTailState":
        return GradTailState(self.ema_grad.copy(), self.layout, self.sigma, self.updates_seen)


@dataclass(frozen=True)
class BatchWeighting:
    """Per-example alignments and loss weights for one batch.

    Undefined alignments (a vanishing norm on either side of the cosine) are
    recorded as 0.0; ``defined`` marks which entries were real cosines.
    """

    alignments: np.ndarray
    weights: np.ndarray
    warmup_active: bool
    defined: np.ndarray

    def __post_init__(self) -> None:
        if not (self.alignments.shape == self.weights.shape == self.defined.shape):
            raise ValueError("field length mismatch")
        if self.warmup_active and not np.all(self.weights == 1.0):
            raise ValueError("warm-up batches must carry unit weights")


def activation_f(distance, amplitude: float, slope: float):
    """Weight as a function of pivot distance: 1 + amplitude*logistic(-slope*d).

    Monotonically decreasing from 1 + amplitude/2 at d = 0 toward 1 at
    infinity. Accepts scalars or arrays.
    """
    d = np.array(distance, dtype=np.float64)  # a copy: the formula runs in place
    if np.any(d < 0.0):
        raise ValueError("distance must be nonnegative")
    out = _activation(d, amplitude, slope)
    return float(out) if np.isscalar(distance) else out


def _activation(d: np.ndarray, amplitude: float, slope: float) -> np.ndarray:
    """activation_f's formula, 1 + amplitude / (1 + exp(slope * d)), overwriting
    the array ``d``, already known to be nonnegative, and returning it."""
    d *= slope
    np.exp(d, out=d)
    d += 1.0
    np.divide(amplitude, d, out=d)
    d += 1.0
    return d


def ema_update(current, observation, decay: float):
    """decay*current + (1-decay)*observation, elementwise; works on scalars or arrays."""
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in (0,1)")
    return _ema(current, observation, decay)


def _ema(current, observation, decay: float):
    """ema_update's formula for a decay that GradTailConfig has already checked."""
    return decay * current + (1.0 - decay) * observation


def step_arrays(
    state: GradTailState, grads: np.ndarray, config: GradTailConfig
) -> tuple[BatchWeighting, GradTailState]:
    """One batch update on a (batch, n_params) gradient matrix.

    Statement order per update: (1) alignments against the PRE-update EMA
    gradient; (2) batch mean of |alignment| over the defined entries; (3) EMA
    update of sigma; (4) EMA update of the mean gradient (unnormalized); (5)
    weights from the POST-update sigma. During warm-up (first
    ``warmup_batches`` updates, or an EMA gradient still too small to define a
    cosine) every weight is 1 while the statistics keep updating.
    """
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise ValueError("grads must be a nonempty (batch, n_params) matrix")
    ema = state.ema_grad
    if grads.shape[1] != ema.shape[0]:
        raise ValueError("gradient layout does not match state")

    # np.linalg.norm's formulas without its dispatch, so the same bits; the
    # reductions call their ufunc's reduce, which is what the ndarray methods
    # run after a Python-level wrapper
    ema_norm = math.sqrt(ema.dot(ema))
    grad_norms = np.sqrt(np.add.reduce(grads * grads, axis=1))
    ema_defined = ema_norm >= config.epsilon_norm
    if ema_defined:
        defined = grad_norms >= config.epsilon_norm
    else:
        defined = np.zeros(grads.shape[0], dtype=bool)

    # means are written sum / count: what ndarray.mean computes, minus its dispatch
    sigma = state.sigma
    if np.logical_and.reduce(defined):  # the common case: no masks to gather through
        alignments = grads @ ema
        alignments /= grad_norms * ema_norm
        np.minimum(np.maximum(alignments, -1.0, out=alignments), 1.0, out=alignments)
        magnitudes = np.abs(alignments)
    else:
        alignments = np.zeros(grads.shape[0])
        if ema_defined:
            with np.errstate(invalid="ignore", divide="ignore"):
                cos = (grads @ ema) / (grad_norms * ema_norm)
            alignments[defined] = np.minimum(np.maximum(cos[defined], -1.0), 1.0)
        magnitudes = np.abs(alignments[defined])
    if magnitudes.size:
        sigma = _ema(sigma, float(np.add.reduce(magnitudes) / magnitudes.size), config.decay)

    new_ema = _ema(ema, np.add.reduce(grads, axis=0) / grads.shape[0], config.decay)

    warmup = state.updates_seen < config.warmup_batches or not ema_defined
    if warmup:
        weights = np.ones(grads.shape[0])
    else:  # |alignment / scale - pivot| into a new buffer, then the activation in place
        weights = alignments / max(sigma, config.sigma_floor)
        weights -= config.pivot
        weights = _activation(np.abs(weights, out=weights), config.amplitude, config.slope)

    new_state = GradTailState(new_ema, state.layout, sigma, state.updates_seen + 1)
    return BatchWeighting(alignments, weights, warmup, defined), new_state
