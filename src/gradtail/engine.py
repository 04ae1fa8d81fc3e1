"""Deterministic minibatch training with pluggable example weighting.

One config type drives both the 2-D classification loop (`train`) and the
dense per-pixel regression loop (`train_dense`). Every run is a pure function
of (dataset seed, model seed, config): batches come from a counter-based
stream, and all reductions have fixed order. ``reference_mode`` additionally
forces per-example serial gradient computation for bitwise reproducibility
arguments that do not depend on BLAS batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithm import BatchWeighting, GradTailConfig, GradTailState, step_arrays
from .baselines import FrequencyWeights, entropy_scores
from .datasets import Dataset2D, DenseGrid
from .mlp import (
    LOSSES,
    MlpModel,
    ParamSubset,
    ParamVector,
    batch_gradients,
    forward_batch,
    softmax,
)
from .patches import patch_mean_loss, sample_patches

STRATEGIES = ("uniform", "gradtail", "inverse_frequency", "focal")


class TrainingDiverged(RuntimeError):
    """Raised when a step produces a non-finite loss; carries a diagnostic snapshot."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass(frozen=True)
class TrainConfig:
    """Run schedule, model shape, and weighting strategy.

    The defaults are the 2-D toy schedule: 10000 constant-rate steps of
    look-ahead momentum on batches of 128, weighting peak 15, pivot 0.
    """

    steps: int = 10_000
    learning_rate: float = 1e-4
    momentum: float = 0.9
    batch_size: int = 128
    seed: int = 0
    strategy: str = "gradtail"
    gradtail: GradTailConfig = field(default_factory=GradTailConfig)
    subset_spec: str = "all"
    focal_gamma: float = 2.0
    class_weights: tuple[float, ...] | None = None  # else inverse frequency from counts
    model_dims: tuple[int, ...] = (2, 5, 2)
    hidden_activation: str = "tanh"
    weight_scale: float = 1.0
    loss: str = "softmax_xent"
    trace_logging: bool = True
    reference_mode: bool = False

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0,1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        parse_subset_spec(self.subset_spec)  # fail fast on malformed specs


def parse_subset_spec(spec: str) -> tuple[str, tuple[int, ...] | None]:
    """Parse a subset description: 'all', 'biases', or 'biases:0,1'."""
    if spec == "all":
        return "all", None
    if spec == "biases":
        return "biases", None
    if spec.startswith("biases:"):
        try:
            layers = tuple(int(tok) for tok in spec.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise ValueError(f"malformed subset spec {spec!r}") from exc
        if not layers:
            raise ValueError(f"malformed subset spec {spec!r}")
        return "biases", layers
    raise ValueError(f"unknown subset spec {spec!r}")


def build_subset(model: MlpModel, spec: str) -> ParamSubset:
    kind, layers = parse_subset_spec(spec)
    if kind == "all":
        return ParamSubset.all_params(model)
    return ParamSubset.biases_only(model, layers)


def nesterov_update(
    params: np.ndarray,
    velocity: np.ndarray,
    grads: np.ndarray,
    learning_rate: float,
    momentum: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Look-ahead momentum step: the caller must evaluate ``grads`` at
    params + momentum * velocity; this applies v' = mu v - lr g, p' = p + v'."""
    if params.shape != velocity.shape or params.shape != grads.shape:
        raise ValueError("shape mismatch")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0,1)")
    new_velocity = momentum * velocity - learning_rate * grads
    return params + new_velocity, new_velocity


@dataclass
class ExampleTrace:
    """Aggregated per-example statistics across an entire run."""

    example_id: int
    occurrences: int
    theta_sum: float
    theta_sq_sum: float
    loss_sum: float
    entropy_sum: float
    correct_count: int

    @property
    def mean_alignment(self) -> float:
        return self.theta_sum / self.occurrences

    @property
    def mean_loss(self) -> float:
        return self.loss_sum / self.occurrences

    @property
    def mean_entropy(self) -> float:
        return self.entropy_sum / self.occurrences

    @property
    def accuracy(self) -> float:
        return self.correct_count / self.occurrences


@dataclass
class TraceTable:
    """Columnar per-example accumulators; one row per dataset example."""

    occurrences: np.ndarray
    theta_sum: np.ndarray
    theta_sq_sum: np.ndarray
    loss_sum: np.ndarray
    entropy_sum: np.ndarray
    correct_count: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "TraceTable":
        return cls(
            np.zeros(n, dtype=np.int64),
            np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
            np.zeros(n, dtype=np.int64),
        )

    @property
    def n(self) -> int:
        return self.occurrences.shape[0]

    def seen(self) -> np.ndarray:
        return self.occurrences > 0

    def mean_alignment(self) -> np.ndarray:
        """Per-example mean alignment; NaN where an example never appeared."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.occurrences > 0, self.theta_sum / self.occurrences, np.nan)

    def mean_entropy(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.occurrences > 0, self.entropy_sum / self.occurrences, np.nan)

    def accuracy(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.occurrences > 0, self.correct_count / self.occurrences, np.nan)

    def row(self, i: int) -> ExampleTrace:
        if self.occurrences[i] < 1:
            raise ValueError(f"example {i} never occurred; no statistics to read")
        return ExampleTrace(
            i,
            int(self.occurrences[i]),
            float(self.theta_sum[i]),
            float(self.theta_sq_sum[i]),
            float(self.loss_sum[i]),
            float(self.entropy_sum[i]),
            int(self.correct_count[i]),
        )


@dataclass
class StepLog:
    """One row per training step: batch means and weighting-state summaries."""

    step: np.ndarray
    mean_loss: np.ndarray
    mean_weight: np.ndarray
    sigma: np.ndarray
    ema_norm: np.ndarray

    @classmethod
    def zeros(cls, steps: int) -> "StepLog":
        return cls(
            np.arange(steps, dtype=np.int64),
            np.zeros(steps), np.zeros(steps), np.zeros(steps), np.zeros(steps),
        )


@dataclass
class TrainResult:
    model: MlpModel
    trace: TraceTable | None
    step_log: StepLog
    gradtail_state: GradTailState | None
    config: TrainConfig
    model_seed: int


def _batch_stream(config: TrainConfig, model_seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([config.seed, model_seed]))
    )


def train(dataset: Dataset2D, model_seed: int, config: TrainConfig) -> TrainResult:
    """Classification training on a 2-D point cloud; see module docstring."""
    if config.batch_size > dataset.n:
        raise ValueError("batch_size exceeds dataset size")
    if config.model_dims[0] != dataset.points.shape[1]:
        raise ValueError("model input dim does not match the dataset")
    model = MlpModel.initialize(
        list(config.model_dims), model_seed, config.hidden_activation, config.weight_scale
    )
    loss_fn = LOSSES[config.loss]
    full = ParamSubset.all_params(model)
    subset = build_subset(model, config.subset_spec)
    subset_idx = subset.index_map(model)
    params = full.pack(model)
    velocity = np.zeros_like(params)
    rng = _batch_stream(config, model_seed)

    track = config.trace_logging or config.strategy == "gradtail"
    state = GradTailState(ParamVector(np.zeros(subset_idx.size), subset)) if track else None
    trace = TraceTable.zeros(dataset.n) if config.trace_logging else None
    log = StepLog.zeros(config.steps)

    if config.class_weights is not None:
        freq = FrequencyWeights(dict(enumerate(config.class_weights)))
    else:
        freq = FrequencyWeights.from_counts(dataset.class_counts())
    freq_arr = np.array([freq.table.get(c, 1.0) for c in range(int(dataset.labels.max()) + 1)])

    points, labels = dataset.points, dataset.labels
    if int(labels.max()) >= config.model_dims[-1]:
        raise ValueError("label index exceeds model output dimension")
    # regression-style losses (squared/l1) train against one-hot targets
    if config.loss == "softmax_xent":
        step_targets = labels
    else:
        step_targets = np.eye(config.model_dims[-1])[labels]
    for step in range(config.steps):
        idx = rng.integers(0, dataset.n, size=config.batch_size)
        full.unpack_into(model, params + config.momentum * velocity)
        bg = batch_gradients(
            model, points[idx], step_targets[idx], loss_fn, full, serial=config.reference_mode
        )
        if not np.all(np.isfinite(bg.losses)):
            raise TrainingDiverged(
                f"non-finite loss at step {step}",
                {
                    "step": step,
                    "bad_examples": idx[~np.isfinite(bg.losses)].tolist(),
                    "param_norm": float(np.linalg.norm(params)),
                    "velocity_norm": float(np.linalg.norm(velocity)),
                },
            )

        weighting = None
        if track:
            weighting, state = step_arrays(state, bg.grads[:, subset_idx], config.gradtail)

        if config.strategy == "gradtail":
            weights = weighting.weights
        elif config.strategy == "uniform":
            weights = np.ones(config.batch_size)
        elif config.strategy == "inverse_frequency":
            weights = freq_arr[labels[idx]]
        else:  # focal
            weights = focal_weights(bg.outputs, labels[idx], config.focal_gamma)

        grad = np.einsum("b,bp->p", weights, bg.grads) / config.batch_size
        params, velocity = nesterov_update(
            params, velocity, grad, config.learning_rate, config.momentum
        )

        log.mean_loss[step] = bg.losses.mean()
        log.mean_weight[step] = weights.mean()
        if state is not None:
            log.sigma[step] = state.sigma
            log.ema_norm[step] = state.ema_grad.norm()
        if trace is not None:
            probs = softmax(bg.outputs)
            np.add.at(trace.occurrences, idx, 1)
            np.add.at(trace.theta_sum, idx, weighting.alignments)
            np.add.at(trace.theta_sq_sum, idx, weighting.alignments**2)
            np.add.at(trace.loss_sum, idx, bg.losses)
            np.add.at(trace.entropy_sum, idx, entropy_scores(probs))
            np.add.at(trace.correct_count, idx, np.argmax(bg.outputs, axis=1) == labels[idx])

    full.unpack_into(model, params)
    return TrainResult(model, trace, log, state, config, model_seed)


def focal_weights(outputs: np.ndarray, labels: np.ndarray, gamma: float) -> np.ndarray:
    probs = softmax(outputs)
    p_true = probs[np.arange(outputs.shape[0]), labels]
    return (1.0 - p_true) ** gamma


# ---------------------------------------------------------------------------
# dense per-pixel regression on patches
# ---------------------------------------------------------------------------


@dataclass
class PatchLog:
    """One row per (step, surviving patch): composition, alignment, weight, loss."""

    step: list[int]
    patch_index: list[int]
    pixels: list[int]
    rare_fraction: list[float]
    alignment: list[float]
    weight: list[float]
    loss: list[float]

    @classmethod
    def empty(cls) -> "PatchLog":
        return cls([], [], [], [], [], [], [])

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "step": np.array(self.step, dtype=np.int64),
            "patch_index": np.array(self.patch_index, dtype=np.int64),
            "pixels": np.array(self.pixels, dtype=np.int64),
            "rare_fraction": np.array(self.rare_fraction),
            "alignment": np.array(self.alignment),
            "weight": np.array(self.weight),
            "loss": np.array(self.loss),
        }


@dataclass
class DenseResult:
    model: MlpModel
    patch_log: PatchLog
    step_log: StepLog
    gradtail_state: GradTailState | None
    config: TrainConfig
    model_seed: int


DENSE_DIMS = (2, 16, 16, 1)
DENSE_SUBSET = "biases:0,1"


def dense_config(strategy: str = "gradtail", **overrides) -> TrainConfig:
    """Dense-demo schedule: smaller per-pixel model, bias-only alignment subset."""
    base = dict(
        steps=1500,
        learning_rate=3e-3,
        momentum=0.9,
        strategy=strategy,
        model_dims=DENSE_DIMS,
        subset_spec=DENSE_SUBSET,
        loss="l1",
        gradtail=GradTailConfig(pivot=-0.5, amplitude=28.0, warmup_batches=10),
    )
    base.update(overrides)
    return TrainConfig(**base)


def train_dense(
    grid: DenseGrid,
    model_seed: int,
    config: TrainConfig,
    size_min: int = 20,
    size_max: int = 100,
    patch_count: int = 6,
) -> DenseResult:
    """Patch-weighted dense regression: each step treats the sampled patches
    (plus the leftover-pixel region) as the weighting batch, with per-patch
    mean losses and gradients."""
    if config.strategy not in ("uniform", "gradtail"):
        raise ValueError(f"dense training supports uniform/gradtail, not {config.strategy!r}")
    if config.model_dims[0] != grid.inputs.shape[-1] or config.model_dims[-1] != 1:
        raise ValueError("dense model dims must map pixel features to one output")
    model = MlpModel.initialize(
        list(config.model_dims), model_seed, config.hidden_activation, config.weight_scale
    )
    loss_fn = LOSSES[config.loss]
    full = ParamSubset.all_params(model)
    subset = build_subset(model, config.subset_spec)
    subset_idx = subset.index_map(model)
    params = full.pack(model)
    velocity = np.zeros_like(params)
    rng = _batch_stream(config, model_seed)

    n_pix = grid.height * grid.width
    feats = grid.inputs.reshape(n_pix, -1)
    targets = grid.targets.reshape(n_pix, 1)
    valid = grid.valid_mask.ravel()
    rare = grid.rare_mask.ravel()

    track = config.trace_logging or config.strategy == "gradtail"
    state = GradTailState(ParamVector(np.zeros(subset_idx.size), subset)) if track else None
    patch_log = PatchLog.empty()
    log = StepLog.zeros(config.steps)

    for step in range(config.steps):
        patches = sample_patches(
            grid.height, grid.width, rng, size_min=size_min, size_max=size_max, count=patch_count
        )
        kept, sels = [], []
        for j, region in enumerate(patches.regions()):
            sel = region[valid[region]]
            if sel.size:  # an empty region is dropped: no pixels, no gradient, no cosine
                kept.append(j)
                sels.append(sel)
        full.unpack_into(model, params + config.momentum * velocity)
        bg = batch_gradients(
            model, feats, targets, loss_fn, full, serial=config.reference_mode, regions=sels
        )
        if not np.all(np.isfinite(bg.losses[valid])):
            raise TrainingDiverged(
                f"non-finite pixel loss at step {step}",
                {"step": step, "param_norm": float(np.linalg.norm(params))},
            )

        loss_grid = bg.losses.reshape(grid.height, grid.width)
        patch_losses = np.array([patch_mean_loss(loss_grid, grid.valid_mask, sel) for sel in sels])
        rare_fracs = [float(rare[sel].mean()) for sel in sels]

        weighting = None
        if track:
            weighting, state = step_arrays(state, bg.grads[:, subset_idx], config.gradtail)
        if config.strategy == "gradtail":
            weights = weighting.weights
        else:
            weights = np.ones(len(sels))

        grad = np.einsum("b,bp->p", weights, bg.grads) / len(sels)
        params, velocity = nesterov_update(
            params, velocity, grad, config.learning_rate, config.momentum
        )

        log.mean_loss[step] = patch_losses.mean()
        log.mean_weight[step] = weights.mean()
        if state is not None:
            log.sigma[step] = state.sigma
            log.ema_norm[step] = state.ema_grad.norm()
        for k, (j, sel) in enumerate(zip(kept, sels)):
            patch_log.step.append(step)
            patch_log.patch_index.append(j)
            patch_log.pixels.append(int(sel.size))
            patch_log.rare_fraction.append(rare_fracs[k])
            patch_log.alignment.append(float(weighting.alignments[k]) if weighting else 0.0)
            patch_log.weight.append(float(weights[k]))
            patch_log.loss.append(float(patch_losses[k]))

    full.unpack_into(model, params)
    return DenseResult(model, patch_log, log, state, config, model_seed)


def dense_predictions(model: MlpModel, grid: DenseGrid) -> np.ndarray:
    """Per-pixel model outputs, shaped back to (H, W)."""
    feats = grid.inputs.reshape(-1, grid.inputs.shape[-1])
    return forward_batch(model, feats)[:, 0].reshape(grid.height, grid.width)
