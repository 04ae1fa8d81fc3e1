"""Dense feed-forward network with exact per-example gradients.

Everything runs at double precision. The model is deliberately barebones:
no batch normalization, no dropout, nothing that couples examples inside a
batch, so each example's gradient is independent of the rest of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# activation -> (f(z), f'(.) computed from the activation value a and preact z)
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda a, z: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a, z: (z > 0.0).astype(np.float64)),
    "identity": (lambda z: z, lambda a, z: np.ones_like(z)),
}

PARAM_KINDS = ("weight", "bias")


@dataclass
class MlpModel:
    """MLP weights and biases; weights[i] has shape (layer_dims[i+1], layer_dims[i]).

    Hidden layers apply ``hidden_activation``; the final layer is always linear
    (logits for classification, raw values for regression).
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "tanh"
    init_seed: int | None = None

    def __post_init__(self) -> None:
        dims = self.layer_dims
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer_dims must be >= 2 positive entries, got {dims}")
        if self.hidden_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.hidden_activation!r}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("need one weight matrix and bias vector per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]):
                raise ValueError(f"weights[{i}] shape {w.shape} != {(dims[i + 1], dims[i])}")
            if b.shape != (dims[i + 1],):
                raise ValueError(f"biases[{i}] shape {b.shape} != {(dims[i + 1],)}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"non-finite parameters in layer {i}")

    @classmethod
    def initialize(
        cls,
        layer_dims: Sequence[int],
        seed: int,
        hidden_activation: str = "tanh",
        weight_scale: float = 1.0,
    ) -> "MlpModel":
        """Seeded init: weights ~ N(0, (weight_scale/sqrt(fan_in))^2), biases zero."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            std = weight_scale / np.sqrt(fan_in)
            weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(list(layer_dims), weights, biases, hidden_activation, init_seed=seed)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def copy(self) -> "MlpModel":
        return MlpModel(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.hidden_activation,
            self.init_seed,
        )


@dataclass(frozen=True)
class ParamSubset:
    """Ordered selection of (layer index, "weight"|"bias") parameter blocks.

    Defines the canonical flattening: blocks appear in selector order, each
    matrix flattened row-major. ParamVector layouts are only comparable when
    they share the exact same selector tuple.
    """

    selectors: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.selectors)) != len(self.selectors):
            raise ValueError("duplicate selectors")
        for layer, kind in self.selectors:
            if kind not in PARAM_KINDS:
                raise ValueError(f"bad parameter kind {kind!r}")
            if layer < 0:
                raise ValueError("negative layer index")

    @classmethod
    def all_params(cls, model: MlpModel) -> "ParamSubset":
        """Every parameter, layer ascending, weight before bias."""
        sel = []
        for i in range(model.n_layers):
            sel.append((i, "weight"))
            sel.append((i, "bias"))
        return cls(tuple(sel))

    @classmethod
    def biases_only(cls, model: MlpModel, layers: Sequence[int] | None = None) -> "ParamSubset":
        which = range(model.n_layers) if layers is None else layers
        return cls(tuple((i, "bias") for i in which))

    def validate(self, model: MlpModel) -> None:
        for layer, _ in self.selectors:
            if layer >= model.n_layers:
                raise ValueError(f"selector references layer {layer} of a {model.n_layers}-layer model")

    def block_shapes(self, model: MlpModel) -> list[tuple[int, ...]]:
        self.validate(model)
        shapes = []
        for layer, kind in self.selectors:
            arr = model.weights[layer] if kind == "weight" else model.biases[layer]
            shapes.append(arr.shape)
        return shapes

    def size(self, model: MlpModel) -> int:
        return sum(math.prod(s) for s in self.block_shapes(model))

    def pack(self, model: MlpModel) -> np.ndarray:
        """Flatten the selected parameters into one float64 vector."""
        self.validate(model)
        parts = []
        for layer, kind in self.selectors:
            arr = model.weights[layer] if kind == "weight" else model.biases[layer]
            parts.append(np.asarray(arr, dtype=np.float64).ravel())
        return np.concatenate(parts) if parts else np.zeros(0)

    def unpack_into(self, model: MlpModel, values: np.ndarray) -> None:
        """Write a flat vector back into the selected parameter blocks."""
        if values.shape != (self.size(model),):
            raise ValueError("flat vector length does not match subset size")
        pos = 0
        for layer, kind in self.selectors:
            arr = model.weights[layer] if kind == "weight" else model.biases[layer]
            n = arr.size
            arr[...] = values[pos : pos + n].reshape(arr.shape)
            pos += n

    def index_map(self, model: MlpModel) -> np.ndarray:
        """Indices of this subset's coordinates inside the all_params flattening."""
        full = ParamSubset.all_params(model)
        offsets, pos = {}, 0
        for layer, kind in full.selectors:
            arr = model.weights[layer] if kind == "weight" else model.biases[layer]
            offsets[(layer, kind)] = (pos, pos + arr.size)
            pos += arr.size
        idx = [np.arange(*offsets[sel]) for sel in self.selectors]
        return np.concatenate(idx) if idx else np.zeros(0, dtype=np.intp)


@dataclass
class ParamVector:
    """Flat float64 vector over a ParamSubset; combinable only with identical layouts."""

    values: np.ndarray
    layout: ParamSubset

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("ParamVector values must be 1-D")

    def _check_combinable(self, other: "ParamVector") -> None:
        if self.layout != other.layout or self.values.shape != other.values.shape:
            raise ValueError("ParamVectors have different layouts")

    def dot(self, other: "ParamVector") -> float:
        self._check_combinable(other)
        return float(self.values @ other.values)

    def add(self, other: "ParamVector") -> "ParamVector":
        self._check_combinable(other)
        return ParamVector(self.values + other.values, self.layout)

    def scale(self, c: float) -> "ParamVector":
        return ParamVector(self.values * c, self.layout)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    @classmethod
    def zeros(cls, model: MlpModel, layout: ParamSubset) -> "ParamVector":
        return cls(np.zeros(layout.size(model)), layout)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Loss:
    """Loss on a single model output vector, with its gradient w.r.t. that output.

    ``batch_value``/``batch_output_grad`` are vectorized fast paths over
    (B, K) outputs; when absent the engine falls back to a per-example loop.
    """

    name: str
    value: Callable[[np.ndarray, object], float]
    output_grad: Callable[[np.ndarray, object], np.ndarray] | None = None
    batch_value: Callable | None = None
    batch_output_grad: Callable | None = None


def loss_softmax_xent(logits: np.ndarray, label: int) -> float:
    """Cross entropy -log softmax(logits)[label].

    Stabilized by max subtraction and written as log1p/expm1 so near-zero
    losses keep full relative precision instead of cancelling against 1.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[-1]:
        raise ValueError(f"label {label} out of range for {logits.shape[-1]} logits")
    m = np.max(logits)
    d = float(logits[label] - m)  # <= 0
    rest = np.exp(logits - m)
    rest[label] = 0.0
    # loss = -d + log(e^d + sum_{i != label} e^{z_i}), via log1p for accuracy
    return float(np.log1p(np.expm1(d) + np.sum(rest)) - d)


def softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def loss_l1(prediction: float, target: float) -> float:
    if not (np.isfinite(prediction) and np.isfinite(target)):
        raise ValueError("l1 loss requires finite inputs")
    return abs(float(prediction) - float(target))


def _xent_value(out: np.ndarray, label) -> float:
    return loss_softmax_xent(out, int(label))


def _xent_grad(out: np.ndarray, label) -> np.ndarray:
    g = softmax(out)
    g[int(label)] -= 1.0
    return g


def _xent_batch_value(out: np.ndarray, labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    rows = np.arange(out.shape[0])
    m = out.max(axis=1)
    d = out[rows, labels] - m
    rest = np.exp(out - m[:, None])
    rest[rows, labels] = 0.0
    return np.log1p(np.expm1(d) + rest.sum(axis=1)) - d


def _xent_batch_grad(out: np.ndarray, labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    g = softmax(out)
    g[np.arange(out.shape[0]), labels] -= 1.0
    return g


SOFTMAX_XENT = Loss(
    "softmax_xent", _xent_value, _xent_grad, _xent_batch_value, _xent_batch_grad
)

# sign(0) = 0: the standard subgradient choice at the l1 kink
L1 = Loss(
    "l1",
    lambda out, t: float(np.sum(np.abs(out - t))),
    lambda out, t: np.sign(out - t),
    lambda out, t: np.sum(np.abs(out - np.atleast_2d(t).reshape(out.shape)), axis=1),
    lambda out, t: np.sign(out - np.atleast_2d(t).reshape(out.shape)),
)

SQUARED = Loss(
    "squared",
    lambda out, t: float(0.5 * np.sum((out - t) ** 2)),
    lambda out, t: out - t,
    lambda out, t: 0.5 * np.sum((out - np.atleast_2d(t).reshape(out.shape)) ** 2, axis=1),
    lambda out, t: out - np.atleast_2d(t).reshape(out.shape),
)

LOSSES = {loss.name: loss for loss in (SOFTMAX_XENT, L1, SQUARED)}


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Run one input vector through the network; returns the output vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.layer_dims[0],):
        raise ValueError(f"input shape {x.shape} != ({model.layer_dims[0]},)")
    return forward_batch(model, x[None, :])[0]


def forward_batch(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != model.layer_dims[0]:
        raise ValueError(f"batch shape {inputs.shape} incompatible with input dim {model.layer_dims[0]}")
    acts, _ = _forward_cache(model.weights, model.biases, model.hidden_activation, inputs)
    return acts[-1]


def _forward_cache(weights, biases, activation: str, inputs: np.ndarray):
    """Forward pass keeping every layer's activation and preactivation."""
    act, _ = _ACTIVATIONS[activation]
    acts, preacts = [inputs], []
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T + b
        preacts.append(z)
        acts.append(act(z) if l < last else z)
    return acts, preacts


def raw_batch_gradients(
    weights,
    biases,
    activation: str,
    inputs: np.ndarray,
    targets,
    loss_fn: Loss,
    regions: Sequence[np.ndarray] | None = None,
):
    """Per-example gradients of the unweighted loss over all parameters.

    Returns (grads (B, P) in all_params order, losses (B,), outputs (B, K)).
    Every row depends only on its own example; batch order is preserved.

    With ``regions`` (a list of index arrays into the batch), ``grads`` is
    (R, P) instead: row r is the mean gradient over the examples
    ``regions[r]``. A dense layer's per-example weight gradient is the outer
    product delta_b act_b^T, so a region mean is delta[sel]^T @ act[sel] / |sel|
    and no per-example row is ever formed.
    """
    _, deriv = _ACTIVATIONS[activation]
    acts, preacts = _forward_cache(weights, biases, activation, inputs)
    out = acts[-1]
    bsz = inputs.shape[0]

    if loss_fn.batch_value is not None:
        losses = np.asarray(loss_fn.batch_value(out, targets), dtype=np.float64)
        delta = np.asarray(loss_fn.batch_output_grad(out, targets), dtype=np.float64)
    else:
        losses = np.array([loss_fn.value(out[i], _target_at(targets, i)) for i in range(bsz)])
        delta = np.stack([loss_fn.output_grad(out[i], _target_at(targets, i)) for i in range(bsz)])

    n_layers = len(weights)
    grad_w: list[np.ndarray | None] = [None] * n_layers
    grad_b: list[np.ndarray | None] = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        if regions is None:
            grad_w[l] = np.einsum("bi,bj->bij", delta, acts[l]).reshape(bsz, -1)
            grad_b[l] = delta
        else:
            grad_w[l], grad_b[l] = _region_means(delta, acts[l], regions)
        if l > 0:
            delta = (delta @ weights[l]) * deriv(acts[l], preacts[l - 1])

    parts = []
    for l in range(n_layers):
        parts.append(grad_w[l])
        parts.append(grad_b[l])
    return np.concatenate(parts, axis=1), losses, out


def _region_means(delta: np.ndarray, act: np.ndarray, regions) -> tuple[np.ndarray, np.ndarray]:
    """One layer's region-mean weight gradients (R, out*in) and bias gradients (R, out)."""
    rows_w, rows_b = [], []
    for sel in regions:
        d = delta[sel]
        rows_w.append((d.T @ act[sel]).ravel() / sel.size)
        rows_b.append(d.mean(axis=0))
    return np.stack(rows_w), np.stack(rows_b)


def _target_at(targets, i):
    if isinstance(targets, np.ndarray):
        return targets[i]
    return targets[i]


@dataclass
class BatchGradients:
    """Per-example (or per-region) gradients on a subset layout plus the
    per-example forward-pass byproducts."""

    grads: np.ndarray  # (B, P) on `layout`; (R, P) region means when regions are given
    losses: np.ndarray  # (B,)
    outputs: np.ndarray  # (B, K)
    layout: ParamSubset


def batch_gradients(
    model: MlpModel,
    inputs: np.ndarray,
    targets,
    loss_fn: Loss,
    subset: ParamSubset | None = None,
    serial: bool = False,
    regions: Sequence[np.ndarray] | None = None,
) -> BatchGradients:
    """Vectorized per-example gradients; `serial` forces a per-example loop.

    ``regions`` (index arrays into the batch, possibly overlapping) switches
    ``grads`` to one mean-gradient row per region. The serial path computes
    every per-example row and averages it per region: it is the oracle of
    the region-reduced vectorized path.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be (batch, input_dim)")
    if inputs.shape[0] == 0:
        raise ValueError("empty batch")
    if regions is not None:
        regions = [np.asarray(sel, dtype=np.intp) for sel in regions]
        if not regions or any(sel.ndim != 1 or sel.size == 0 for sel in regions):
            raise ValueError("regions must be a non-empty list of non-empty 1-D index arrays")
    subset = subset if subset is not None else ParamSubset.all_params(model)
    subset.validate(model)

    if serial:
        rows, losses, outs = [], [], []
        for i in range(inputs.shape[0]):
            g, lo, ou = raw_batch_gradients(
                model.weights, model.biases, model.hidden_activation,
                inputs[i : i + 1], _slice_targets(targets, i), loss_fn,
            )
            rows.append(g[0])
            losses.append(lo[0])
            outs.append(ou[0])
        full = np.stack(rows)
        losses = np.array(losses)
        out = np.stack(outs)
        if regions is not None:
            full = np.stack([full[sel].mean(axis=0) for sel in regions])
    else:
        full, losses, out = raw_batch_gradients(
            model.weights, model.biases, model.hidden_activation, inputs, targets, loss_fn,
            regions,
        )

    idx = subset.index_map(model)
    grads = full[:, idx] if len(idx) != full.shape[1] else full
    return BatchGradients(grads, losses, out, subset)


def _slice_targets(targets, i):
    if isinstance(targets, np.ndarray):
        return targets[i : i + 1]
    return [targets[i]]


def per_example_gradients(
    model: MlpModel,
    batch: Sequence[tuple[np.ndarray, object]],
    loss_fn: Loss,
    subset: ParamSubset,
) -> list[ParamVector]:
    """One ParamVector per (input, target) pair, computed on the unweighted loss."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    inputs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in batch])
    targets = [t for _, t in batch]
    bg = batch_gradients(model, inputs, targets, loss_fn, subset)
    return [ParamVector(bg.grads[i].copy(), subset) for i in range(len(batch))]


def finite_diff_gradient(
    model: MlpModel,
    example: tuple[np.ndarray, object],
    loss_fn: Loss,
    subset: ParamSubset,
    step: float = 1e-5,
) -> ParamVector:
    """Central-difference gradient (L(p+h) - L(p-h)) / 2h per subset coordinate.

    Independent of the analytic backward pass; used as its oracle.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x, target = example
    x = np.asarray(x, dtype=np.float64)
    work = model.copy()
    flat = subset.pack(work)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        subset.unpack_into(work, flat)
        up = loss_fn.value(forward(work, x), target)
        flat[i] = orig - step
        subset.unpack_into(work, flat)
        down = loss_fn.value(forward(work, x), target)
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    subset.unpack_into(work, flat)
    return ParamVector(grad, subset)
