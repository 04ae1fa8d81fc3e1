"""Deterministic minibatch training with pluggable example weighting.

One config type drives both the 2-D classification loop (`train`) and the
dense per-pixel regression loop (`train_dense`), and both run every step
through the same kernel (`_step`). Every run is a pure function
of (dataset seed, model seed, config): batches come from a counter-based
stream, and all reductions have fixed order. ``reference_mode`` additionally
forces per-example serial gradient computation for bitwise reproducibility
arguments that do not depend on BLAS batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithm import GradTailConfig, GradTailState, check_finite, step_arrays
from .baselines import FrequencyWeights, entropy_scores
from .datasets import Dataset2D, DenseGrid
from .mlp import (
    ACTIVATIONS,
    LOSSES,
    PARAM_KINDS,
    Loss,
    MlpModel,
    Workspace,
    backprop,
    batch_gradients,
    coefficient_gradients,
    forward_batch,
    param_columns,
    softmax,
)
from .patches import patch_mean_loss, sample_patches

STRATEGIES = ("uniform", "gradtail", "inverse_frequency", "focal")


class TrainingDiverged(RuntimeError):
    """Raised when a step produces a non-finite loss; carries a diagnostic snapshot."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot

    def __reduce__(self):
        # ``args`` holds the message only, so the default pickling would drop the snapshot
        return type(self), (self.args[0], self.snapshot)


@dataclass(frozen=True)
class TrainConfig:
    """Run schedule, model shape, and weighting strategy.

    The defaults are the 2-D toy schedule: 10000 constant-rate steps of
    look-ahead momentum on batches of 128, weighting peak 15, pivot 0.
    Each field is the manifest key ``train.<field>``, in field order, except
    ``gradtail``, whose fields are the ``gradtail.*`` keys in its place.
    """

    steps: int = 10_000
    learning_rate: float = 1e-4
    momentum: float = 0.9
    batch_size: int = 128
    seed: int = 0
    strategy: str = "gradtail"
    subset: str = "all"
    focal_gamma: float = 2.0
    loss: str = "softmax_xent"
    model_dims: tuple[int, ...] = (2, 5, 2)
    hidden_activation: str = "tanh"
    weight_scale: float = 1.0
    trace_logging: bool = True
    reference_mode: bool = False
    gradtail: GradTailConfig = field(default_factory=GradTailConfig)
    class_weights: tuple[float, ...] | None = None  # else inverse frequency from counts

    def __post_init__(self) -> None:
        check_finite(self)
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
        if self.focal_gamma < 0.0:
            raise ValueError("focal_gamma must be nonnegative")
        parse_subset_spec(self.subset)  # fail fast on malformed specs
        if len(self.model_dims) < 2 or min(self.model_dims) < 1:
            raise ValueError(f"model_dims must be >= 2 positive entries, got {self.model_dims}")
        if self.hidden_activation not in ACTIVATIONS:
            raise ValueError(f"unknown hidden_activation {self.hidden_activation!r}")
        if self.weight_scale < 0.0:
            raise ValueError("weight_scale must be nonnegative")
        if self.class_weights is not None:
            n, classes = len(self.class_weights), self.model_dims[-1]
            if n != classes:
                raise ValueError(f"class_weights has {n} entries for {classes} classes")
            FrequencyWeights(dict(enumerate(self.class_weights)))  # fail fast on bad weights


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


def subset_selectors(spec: str, n_layers: int) -> tuple[tuple[int, str], ...]:
    """The (layer, kind) parameter blocks a subset spec names: 'all' is every
    block in ``MlpModel.params`` order, 'biases' every bias vector."""
    kind, layers = parse_subset_spec(spec)
    if kind == "all":
        return tuple((i, k) for i in range(n_layers) for k in PARAM_KINDS)
    return tuple((i, "bias") for i in (range(n_layers) if layers is None else layers))


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


def weighted_mean(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Weighted batch mean sum_b weights[b] * rows[b] / B of (B, P) gradient rows."""
    return np.einsum("b,bp->p", weights, rows) / rows.shape[0]


@dataclass
class TraceTable:
    """Columnar per-example accumulators; one row per dataset example."""

    occurrences: np.ndarray
    alignment_sum: np.ndarray
    entropy_sum: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "TraceTable":
        return cls(np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n))

    @property
    def n(self) -> int:
        return self.occurrences.shape[0]

    def seen(self) -> np.ndarray:
        return self.occurrences > 0

    def mean_alignment(self) -> np.ndarray:
        """Per-example mean alignment; NaN where an example never appeared."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.occurrences > 0, self.alignment_sum / self.occurrences, np.nan)

    def mean_entropy(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.occurrences > 0, self.entropy_sum / self.occurrences, np.nan)


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
    """A finished run of either loop: `train` fills ``trace`` (None when
    trace logging is off), `train_dense` fills ``patch_log`` instead."""

    model: MlpModel
    trace: TraceTable | None
    step_log: StepLog
    gradtail_state: GradTailState | None
    config: TrainConfig
    model_seed: int
    patch_log: PatchLog | None = None


def _batch_stream(config: TrainConfig, model_seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([config.seed, model_seed]))
    )


@dataclass
class _Run:
    """Per-run constants and the optimiser state that the step kernel advances."""

    config: TrainConfig
    model: MlpModel  # holds the look-ahead parameters during a step
    loss_fn: Loss
    subset_idx: np.ndarray  # the weighting subset's columns in a full gradient row
    class_weights: np.ndarray | None  # inverse-frequency weight per class label
    params: np.ndarray
    velocity: np.ndarray
    state: GradTailState | None
    log: StepLog
    ws: Workspace  # every step's forward and backward pass runs in it


def _start_run(
    config: TrainConfig, model_seed: int, class_weights: np.ndarray | None, rows: int
) -> _Run:
    """Seeded model, the weighting subset's columns, the optimiser state, and
    the workspace of a pass over ``rows`` inputs (a batch, or every pixel)."""
    model = MlpModel.initialize(
        list(config.model_dims), model_seed, config.hidden_activation, config.weight_scale
    )
    layout = subset_selectors(config.subset, model.n_layers)
    subset_idx = param_columns(model.layer_dims, layout)
    params = model.params.copy()
    track = config.trace_logging or config.strategy == "gradtail"
    state = GradTailState(np.zeros(subset_idx.size), layout) if track else None
    return _Run(
        config, model, LOSSES[config.loss], subset_idx, class_weights,
        params, np.zeros_like(params), state, StepLog.zeros(config.steps),
        Workspace(model.layer_dims, rows),
    )


def _step(run: _Run, step: int, labels, row_ids, gradients, *args):
    """One look-ahead momentum step; a gradient row is an example or a region.

    ``gradients(run, *args)`` returns, at the look-ahead parameters, the rows'
    gradients on the weighting subset, one loss per row, the model outputs,
    and ``update(weights)``, the weighted mean gradient. ``labels`` are the
    rows' classes and ``row_ids`` name them in a divergence snapshot. Returns
    the weighting (None when untracked) and the row weights, losses, outputs.
    """
    cfg = run.config
    np.add(run.params, cfg.momentum * run.velocity, out=run.model.params)  # look-ahead, in place
    rows, losses, outputs, update = gradients(run, *args)
    if not np.logical_and.reduce(np.isfinite(losses)):
        raise TrainingDiverged(
            f"non-finite loss at step {step}",
            {
                "step": step,
                "bad_examples": np.asarray(row_ids)[~np.isfinite(losses)].tolist(),
                "param_norm": float(np.linalg.norm(run.params)),
                "velocity_norm": float(np.linalg.norm(run.velocity)),
            },
        )

    weighting = None
    if run.state is not None:
        weighting, run.state = step_arrays(run.state, rows, cfg.gradtail)
    if cfg.strategy == "gradtail":
        weights = weighting.weights
    elif cfg.strategy == "uniform":
        weights = np.ones(losses.size)
    elif cfg.strategy == "inverse_frequency":
        weights = run.class_weights[labels]
    else:  # focal
        weights = focal_weights(outputs, labels, cfg.focal_gamma)

    run.params, run.velocity = nesterov_update(
        run.params, run.velocity, update(weights), cfg.learning_rate, cfg.momentum
    )
    run.log.mean_loss[step] = np.add.reduce(losses) / losses.size  # .mean() without its dispatch
    run.log.mean_weight[step] = np.add.reduce(weights) / weights.size
    if run.state is not None:
        ema = run.state.ema_grad
        run.log.sigma[step] = run.state.sigma
        run.log.ema_norm[step] = math.sqrt(ema.dot(ema))  # np.linalg.norm's formula
    return weighting, weights, losses, outputs


TRACE_FLUSH = 32  # steps of per-example trace inputs held between two TraceTable updates


class _TraceBuffer:
    """The per-example trace inputs of up to TRACE_FLUSH steps.

    A flush adds them to the TraceTable with one ``np.add.at`` per float
    column over the stacked steps, which adds every example's values in the
    same order as one call per step would, so the sums keep their bits.
    Softmax and entropy work row by row, so stacking does not change them
    either.
    """

    def __init__(self, trace: TraceTable, batch_size: int, classes: int):
        self.trace = trace
        self.idx = np.empty((TRACE_FLUSH, batch_size), dtype=np.int64)
        self.alignments = np.empty((TRACE_FLUSH, batch_size))
        self.outputs = np.empty((TRACE_FLUSH, batch_size, classes))
        self.filled = 0

    def add(self, idx, alignments, outputs) -> None:
        k = self.filled
        self.idx[k] = idx
        self.alignments[k] = alignments
        self.outputs[k] = outputs
        self.filled = k + 1
        if self.filled == TRACE_FLUSH:
            self.flush()

    def flush(self) -> None:
        k, trace = self.filled, self.trace
        if k == 0:
            return
        idx = self.idx[:k].ravel()
        outputs = self.outputs[:k].reshape(idx.size, -1)
        trace.occurrences += np.bincount(idx, minlength=trace.n)
        np.add.at(trace.alignment_sum, idx, self.alignments[:k].ravel())
        np.add.at(trace.entropy_sum, idx, entropy_scores(softmax(outputs)))
        self.filled = 0


def _example_gradients(run: _Run, inputs, targets, regions=None):
    """``gradients`` from materialised per-example rows (serial in reference
    mode), or their means per mask in ``regions``; the update is their weighted mean."""
    bg = batch_gradients(
        run.model, inputs, targets, run.loss_fn, ws=run.ws, serial=run.config.reference_mode
    )
    rows = bg.grads if regions is None else np.stack([bg.grads[sel].mean(axis=0) for sel in regions])
    # a column-major copy even for 'all': step_arrays sums it in other bits than a row-major view
    return rows[:, run.subset_idx], bg.losses, bg.outputs, lambda w: weighted_mean(w, rows)


def train(dataset: Dataset2D, model_seed: int, config: TrainConfig) -> TrainResult:
    """Classification training on a 2-D point cloud; see module docstring."""
    if config.batch_size > dataset.n:
        raise ValueError("batch_size exceeds dataset size")
    if config.model_dims[0] != dataset.points.shape[1]:
        raise ValueError("model input dim does not match the dataset")
    points, labels = dataset.points, dataset.labels
    if int(labels.max()) >= config.model_dims[-1]:
        raise ValueError("label index exceeds model output dimension")
    if config.class_weights is not None:  # one per class, checked by TrainConfig
        class_weights = np.array(config.class_weights)
    else:
        freq = FrequencyWeights.from_counts(dataset.class_counts())
        class_weights = np.array([freq.table.get(c, 1.0) for c in range(int(labels.max()) + 1)])
    run = _start_run(config, model_seed, class_weights, config.batch_size)
    rng = _batch_stream(config, model_seed)
    trace = buffer = None
    if config.trace_logging:
        trace = TraceTable.zeros(dataset.n)
        buffer = _TraceBuffer(trace, config.batch_size, config.model_dims[-1])

    # regression-style losses (squared/l1) train against one-hot targets
    one_hot = None if config.loss == "softmax_xent" else np.eye(config.model_dims[-1])[labels]
    for step in range(config.steps):
        if step % TRACE_FLUSH == 0:  # Philox gives the same indices as one draw per step
            block = rng.integers(0, dataset.n, size=(TRACE_FLUSH, config.batch_size))
        idx = block[step % TRACE_FLUSH]
        batch_labels = labels.take(idx)
        targets = batch_labels if one_hot is None else one_hot.take(idx, axis=0)
        weighting, _, _, outputs = _step(
            run, step, batch_labels, idx, _example_gradients, points.take(idx, axis=0), targets
        )
        if buffer is not None:
            buffer.add(idx, weighting.alignments, outputs)
    if buffer is not None:
        buffer.flush()

    run.model.params[...] = run.params
    return TrainResult(run.model, trace, run.log, run.state, config, model_seed)


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

    step: np.ndarray
    patch_index: np.ndarray
    pixels: np.ndarray
    rare_fraction: np.ndarray
    alignment: np.ndarray
    weight: np.ndarray
    loss: np.ndarray


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
        subset=DENSE_SUBSET,
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
) -> TrainResult:
    """Patch-weighted dense regression: each step treats the sampled patches
    (plus the leftover-pixel region) as the weighting batch, with per-patch
    mean losses and gradients. With M the kept regions' (R, N) mean matrix
    (each region's valid-pixel mask over its pixel count), the weighting's
    rows are M @ G and the update ((w / R) @ M) @ G, both by
    `coefficient_gradients`, so the per-pixel gradients G are never formed;
    reference mode forms G serially and averages it per region (the oracle).
    """
    if config.strategy not in ("uniform", "gradtail"):
        raise ValueError(f"dense training supports uniform/gradtail, not {config.strategy!r}")
    if config.model_dims[0] != grid.inputs.shape[-1] or config.model_dims[-1] != 1:
        raise ValueError("dense model dims must map pixel features to one output")
    n_pix = grid.height * grid.width
    run = _start_run(config, model_seed, None, n_pix)
    rng = _batch_stream(config, model_seed)

    feats = grid.inputs.reshape(n_pix, -1)
    targets = grid.targets.reshape(n_pix, 1)
    rare = grid.rare_mask.ravel()
    # per step, the kept regions' PatchLog columns; the first entry types a zero-step log
    columns = [[np.empty(0, dtype=np.int64)] * 3 + [np.empty(0)] * 4]
    every_block = subset_selectors("all", run.model.n_layers)

    def region_gradients(run, regions, pixels, masks):
        if config.reference_mode:
            rows, losses, outputs, update = _example_gradients(run, feats, targets, regions)
        else:
            m = regions / pixels[:, None]  # True / n is 1.0 / n
            ws = run.ws
            losses, outputs = backprop(run.model, feats, targets, run.loss_fn, ws)
            rows = coefficient_gradients(m, ws, run.state.layout) if run.state else None
            update = lambda w: coefficient_gradients(((w / w.size) @ m)[None], ws, every_block)[0]
        loss_grid = losses.reshape(grid.height, grid.width)
        region_losses = [patch_mean_loss(loss_grid, grid.valid_mask, mask) for mask in masks]
        return rows, np.array(region_losses), outputs, update

    for step in range(config.steps):
        patches = sample_patches(
            grid.height, grid.width, rng, size_min=size_min, size_max=size_max, count=patch_count
        )
        regions = (patches.masks & grid.valid_mask).reshape(len(patches.masks), n_pix)
        pixels = np.count_nonzero(regions, axis=1)
        kept = np.flatnonzero(pixels)  # an empty region has no pixels, gradient or cosine
        regions, pixels = regions[kept], pixels[kept]
        weighting, weights, losses, _ = _step(
            run, step, None, kept, region_gradients, regions, pixels, patches.masks[kept]
        )
        columns.append([
            np.full(kept.size, step, dtype=np.int64), kept, pixels,
            np.count_nonzero(regions & rare, axis=1) / pixels,
            weighting.alignments if weighting else np.zeros(kept.size), weights, losses,
        ])

    run.model.params[...] = run.params
    patch_log = PatchLog(*map(np.concatenate, zip(*columns)))
    return TrainResult(run.model, None, run.log, run.state, config, model_seed, patch_log)


def dense_predictions(model: MlpModel, grid: DenseGrid) -> np.ndarray:
    """Per-pixel model outputs, shaped back to (H, W)."""
    feats = grid.inputs.reshape(-1, grid.inputs.shape[-1])
    return forward_batch(model, feats)[:, 0].reshape(grid.height, grid.width)
