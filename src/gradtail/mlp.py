"""Dense feed-forward network with exact per-example gradients.

Everything runs at double precision. The model is deliberately barebones:
no batch normalization, no dropout, nothing that couples examples inside a
batch, so each example's gradient is independent of the rest of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# activation -> (f applied in place to the preactivation z, f' from the
# activation value a = f(z) alone, into the buffer ``out``; relu's a > 0 is z > 0)
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (lambda z: np.tanh(z, out=z),
             lambda a, out: np.subtract(1.0, np.multiply(a, a, out=out), out=out)),
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a, out: np.greater(a, 0.0, out=out)),
    "identity": (lambda z: z, lambda a, out: np.ones_like(a)),
}

PARAM_KINDS = ("weight", "bias")


def _param_spans(layer_dims: Sequence[int]) -> list[tuple[int, int]]:
    """(start, stop) of every block of the flat parameter vector, in its one
    order [w0, b0, w1, b1, ...]; each weight matrix is flattened row-major."""
    spans, pos = [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        for size in (fan_out * fan_in, fan_out):
            spans.append((pos, pos + size))
            pos += size
    return spans


@dataclass
class MlpModel:
    """MLP weights and biases; weights[i] has shape (layer_dims[i+1], layer_dims[i]).

    The constructor copies the arrays into one float64 vector ``params`` and
    makes ``weights`` and ``biases`` views of it, so a write to ``params`` is
    a write to the model. Hidden layers apply ``hidden_activation``; the final
    layer is always linear (logits for classification, raw values for
    regression).
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "tanh"
    init_seed: int | None = None
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = self.layer_dims
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer_dims must be >= 2 positive entries, got {dims}")
        if self.hidden_activation not in ACTIVATIONS:
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
        spans = _param_spans(dims)
        self.params = np.empty(spans[-1][1])
        blocks = [arr for pair in zip(self.weights, self.biases) for arr in pair]
        views = []
        for arr, (lo, hi) in zip(blocks, spans):
            self.params[lo:hi] = arr.ravel()
            views.append(self.params[lo:hi].reshape(arr.shape))
        self.weights, self.biases = views[0::2], views[1::2]

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
        """A model on its own parameter vector (the constructor copies)."""
        return MlpModel(
            list(self.layer_dims), self.weights, self.biases, self.hidden_activation, self.init_seed
        )


def param_columns(layer_dims: Sequence[int], selectors) -> np.ndarray:
    """Indices into ``MlpModel.params`` of the (layer, "weight"|"bias") blocks
    ``selectors`` names, block after block in selector order."""
    if len(set(selectors)) != len(selectors):
        raise ValueError("duplicate selectors")
    spans, n_layers = _param_spans(layer_dims), len(layer_dims) - 1
    cols = []
    for layer, kind in selectors:
        if kind not in PARAM_KINDS:
            raise ValueError(f"bad parameter kind {kind!r}")
        if not 0 <= layer < n_layers:
            raise ValueError(f"selector references layer {layer} of a {n_layers}-layer model")
        cols.append(np.arange(*spans[2 * layer + PARAM_KINDS.index(kind)]))
    return np.concatenate(cols)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Loss:
    """A loss in two forms: ``value`` on a single output vector (what the
    finite-difference oracle differentiates), and ``batch`` over (B, K)
    outputs, which returns the per-example losses (B,) and their gradients
    with respect to the outputs (B, K) for the backward pass.
    """

    name: str
    value: Callable[[np.ndarray, object], float]
    batch: Callable[[np.ndarray, object], tuple[np.ndarray, np.ndarray]]


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


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` column by column: numpy reduces a short last axis row by row."""
    top = x[..., 0]
    for k in range(1, x.shape[-1]):
        top = np.maximum(top, x[..., k])
    return top


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` column by column, as numpy adds: from +0.0, left to right.
    The row helpers give numpy's bits for K <= 7 (numpy 2.4); on longer rows numpy's
    unrolled loops can round the sum and pick the max's signed zero differently."""
    total = np.add(0.0, x[..., 0])  # new (a numpy scalar when x is one row): += may write it
    for k in range(1, x.shape[-1]):
        total += x[..., k]
    return total


def _row_argmax(x: np.ndarray) -> np.ndarray:
    """``np.argmax(x, axis=-1)``: the first maximum, or the first NaN."""
    m, idx = _row_max(x), np.full(x.shape[:-1], x.shape[-1] - 1, dtype=np.intp)
    for k in range(x.shape[-1] - 2, -1, -1):  # no earlier hit: the last column holds it
        idx[(x[..., k] == m) | np.isnan(x[..., k])] = k
    return idx


def softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - _row_max(logits)[..., None])
    return e / _row_sum(e)[..., None]


def _xent_value(out: np.ndarray, label) -> float:
    return loss_softmax_xent(out, int(label))


def _xent_batch(out: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise loss_softmax_xent and its gradient softmax - onehot, from one exp."""
    flat_label = np.ravel_multi_index((np.arange(out.shape[0]), labels), out.shape)
    m = _row_max(out)
    d = out.take(flat_label) - m
    e = np.exp(out - m[:, None])
    grad = e / _row_sum(e)[:, None]  # softmax(out), bit for bit
    grad.put(flat_label, grad.take(flat_label) - 1.0)
    e.put(flat_label, 0.0)
    return np.log1p(np.expm1(d) + _row_sum(e)) - d, grad


def _l1_batch(out: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    diff = out - np.atleast_2d(t).reshape(out.shape)
    return _row_sum(np.abs(diff)), np.sign(diff)  # sign(0) = 0 at the kink


def _squared_batch(out: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    diff = out - np.atleast_2d(t).reshape(out.shape)
    return 0.5 * _row_sum(diff**2), diff


SOFTMAX_XENT = Loss("softmax_xent", _xent_value, _xent_batch)
L1 = Loss("l1", lambda out, t: float(np.sum(np.abs(out - t))), _l1_batch)
SQUARED = Loss("squared", lambda out, t: float(0.5 * np.sum((out - t) ** 2)), _squared_batch)

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
    return _forward(model, inputs, Workspace(model.layer_dims, inputs.shape[0]))


class Workspace:
    """Buffers of one pass over ``n`` rows: ``acts[l]`` is layer l's input
    (``acts[0]`` the batch, ``acts[-1]`` the outputs), ``deltas[l]`` the loss
    gradient w.r.t. its output, and ``scratch[l]`` holds the activation
    derivative, then `coefficient_gradients`' scaled deltas. Each pass
    overwrites them all, so a run owns its workspace and copies what it keeps.
    """

    def __init__(self, layer_dims: Sequence[int], n: int):
        widths = layer_dims[1:]
        self.acts = [None] + [np.empty((n, d)) for d in widths]
        self.deltas = [np.empty((n, d)) for d in widths[:-1]] + [None]
        self.scratch = [np.empty((n, d)) for d in widths]


def _forward(model: MlpModel, inputs: np.ndarray, ws: Workspace) -> np.ndarray:
    act = ACTIVATIONS[model.hidden_activation][0]
    acts, last = ws.acts, model.n_layers - 1
    acts[0] = inputs
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(acts[l], w.T, out=acts[l + 1])
        z += b
        if l < last:
            act(z)
    return acts[-1]


def backprop(
    model: MlpModel, inputs: np.ndarray, targets, loss_fn: Loss, ws: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward pass over a batch into ``ws``.

    Returns the per-example losses and the outputs (``ws.acts[-1]``); the
    per-example gradient of a layer's weights is ``outer(deltas[l], acts[l])``
    and of its biases ``deltas[l]``, row by row.
    """
    out = _forward(model, inputs, ws)
    deriv = ACTIVATIONS[model.hidden_activation][1]
    losses, ws.deltas[-1] = loss_fn.batch(out, targets)
    for l in range(model.n_layers - 1, 0, -1):
        delta = np.matmul(ws.deltas[l], model.weights[l], out=ws.deltas[l - 1])
        delta *= deriv(ws.acts[l], ws.scratch[l - 1])
    return losses, out


def coefficient_gradients(coeffs: np.ndarray, ws: Workspace, selectors) -> np.ndarray:
    """``coeffs @ G`` (K, columns) on the columns `param_columns` gives for
    ``selectors``, where G (N, P) holds the per-example gradients of the pass
    in ``ws``, never formed: a row's weight gradient is the outer product
    delta a^T and its bias gradient delta, so row k is (c_k * delta)^T a and
    c_k @ delta on each layer."""
    parts = []
    for layer, kind in selectors:
        delta, scaled, act = ws.deltas[layer], ws.scratch[layer], ws.acts[layer]
        if kind == "bias":
            parts.append(coeffs @ delta)
        else:  # one row per coefficient vector, its deltas scaled in the scratch buffer
            parts.append(np.stack([
                (np.multiply(c[:, None], delta, out=scaled).T @ act).ravel() for c in coeffs
            ]))
    return np.concatenate(parts, axis=1)


def _example_rows(model: MlpModel, inputs: np.ndarray, targets, loss_fn: Loss, ws: Workspace):
    """(grads (B, P) in ``MlpModel.params`` order, losses (B,), outputs (B, K)),
    from one pass into ``ws``; the outputs are ``ws.acts[-1]``."""
    bsz = inputs.shape[0]
    losses, out = backprop(model, inputs, targets, loss_fn, ws)
    parts = []
    for delta, act in zip(ws.deltas, ws.acts):
        parts.append(np.einsum("bi,bj->bij", delta, act).reshape(bsz, -1))
        parts.append(delta)
    return np.concatenate(parts, axis=1), losses, out


@dataclass
class BatchGradients:
    """Per-example gradients plus the per-example forward-pass byproducts."""

    grads: np.ndarray  # (B, P) in params order
    losses: np.ndarray  # (B,)
    outputs: np.ndarray  # (B, K)


def batch_gradients(
    model: MlpModel,
    inputs: np.ndarray,
    targets,
    loss_fn: Loss,
    ws: Workspace | None = None,
    serial: bool = False,
) -> BatchGradients:
    """Vectorized per-example gradients; `serial` forces a per-example loop.

    The columns are every parameter in ``MlpModel.params`` order, and every
    row depends only on its own example; batch order is preserved. The pass
    runs in ``ws`` (a fresh workspace when None), as `backprop` does, so the
    outputs are its ``acts[-1]`` and stay valid until the next pass into it;
    ``grads`` and ``losses`` are new arrays. The serial loop ignores ``ws``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be (batch, input_dim)")
    if inputs.shape[0] == 0:
        raise ValueError("empty batch")

    if serial:  # one workspace per example: the rows' outputs are its buffers
        per = [_example_rows(model, inputs[i : i + 1], targets[i : i + 1], loss_fn,
                             Workspace(model.layer_dims, 1))
               for i in range(inputs.shape[0])]
        return BatchGradients(*(np.concatenate(part) for part in zip(*per)))
    if ws is None:
        ws = Workspace(model.layer_dims, inputs.shape[0])
    return BatchGradients(*_example_rows(model, inputs, targets, loss_fn, ws))


def finite_diff_gradient(
    model: MlpModel,
    example: tuple[np.ndarray, object],
    loss_fn: Loss,
    columns: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient (L(p+h) - L(p-h)) / 2h for each of the
    ``columns`` of ``model.params``, in their order.

    Independent of the analytic backward pass; used as its oracle.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x, target = example
    x = np.asarray(x, dtype=np.float64)
    work = model.copy()
    grad = np.zeros(len(columns))
    for k, i in enumerate(columns):
        orig = work.params[i]
        work.params[i] = orig + step
        up = loss_fn.value(forward(work, x), target)
        work.params[i] = orig - step
        down = loss_fn.value(forward(work, x), target)
        work.params[i] = orig
        grad[k] = (up - down) / (2.0 * step)
    return grad
