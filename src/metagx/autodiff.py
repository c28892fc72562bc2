"""Dense float64 tensors with reverse-mode automatic differentiation.

Forward math runs eagerly on numpy arrays. When any operand is registered on
a Tape, the operation is recorded so that ``backward`` can sweep the tape once
in reverse creation order and hand back one gradient per watched leaf. Node
ids are creation-ordered, so parents always precede children and a single
reversed pass visits every node exactly once.

One tape serves one forward/backward cycle: training loops build a fresh tape
per step and drop it afterwards. Tensors that never touch a tape behave like
plain numpy containers with zero bookkeeping cost.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError

Array = np.ndarray

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "mul",
    "matmul",
    "linear",
    "reshape",
    "pad_last",
    "mean",
    "reduce_sum",
    "leaky_relu",
    "sigmoid_head",
    "softmax",
    "conv1d",
    "max_pool1d",
    "bce_loss",
]


class Tensor:
    """A dense float64 array, optionally recorded on a Tape.

    ``data`` is always a numpy float64 array. ``tape``/``node`` are set only
    for tensors produced by (or watched on) a tape; constants carry None.
    """

    __slots__ = ("data", "tape", "node")

    def __init__(self, values, tape: "Tape | None" = None, node: int | None = None):
        self.data = np.asarray(values, dtype=np.float64)
        self.tape = tape
        self.node = node

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = "" if self.tape is None else f", node={self.node}"
        return f"Tensor(shape={self.data.shape}{tag})"


class _Node:
    __slots__ = ("parents", "vjp", "shape")

    def __init__(self, parents, vjp, shape):
        self.parents = parents
        self.vjp = vjp
        self.shape = shape


class Tape:
    """Ordered op record for one forward/backward cycle.

    ``watch`` registers a leaf whose gradient ``backward`` must report, even
    when the loss never touches it (the gradient is then zero). A tape is
    consumed by its backward pass; recording onto it afterwards is an error.
    """

    __slots__ = ("_nodes", "_watched", "_consumed")

    def __init__(self):
        self._nodes: list[_Node] = []
        self._watched: list[int] = []
        self._consumed = False

    def watch(self, values) -> Tensor:
        """Register a parameter leaf and return its tape-bound tensor."""
        data = values.data if isinstance(values, Tensor) else np.asarray(values, dtype=np.float64)
        node = self._push((), None, data.shape)
        self._watched.append(node)
        return Tensor(data, tape=self, node=node)

    def _push(self, parents, vjp, shape) -> int:
        if self._consumed:
            raise RuntimeError("tape already consumed by backward; build a fresh tape")
        self._nodes.append(_Node(tuple(parents), vjp, shape))
        return len(self._nodes) - 1


def backward(loss: Tensor, weight: float | Array = 1.0) -> dict[int, Tensor]:
    """Reverse sweep: gradients of ``weight * loss`` for every watched leaf.

    Returns a map from leaf node id (as handed out by ``Tape.watch``) to the
    gradient tensor, shaped like the leaf. Leaves the loss never reached get
    exact zeros. The loss must be a 0-d tensor recorded on a tape, or the [Λ]
    per-slice losses of a stacked model with a [Λ] ``weight``: slice i of each
    gradient is then slice i's own gradient of ``weight[i] * loss[i]``.
    Seeding the sweep with ``weight`` gives the same bits as recording
    ``mul(loss, weight)`` and sweeping from that.
    """
    if loss.tape is None or loss.node is None:
        raise ValueError("backward requires a tensor recorded on a tape")
    shape = loss.data.shape
    if shape != () and (len(shape) != 1 or np.shape(weight) != shape):
        raise DimensionError(
            f"backward requires a scalar loss, or a [Λ] loss with a [Λ] weight, "
            f"got shapes {shape} and {np.shape(weight)}"
        )
    tape = loss.tape
    if tape._consumed:
        raise RuntimeError("tape already consumed by backward; build a fresh tape")
    tape._consumed = True

    nodes = tape._nodes
    grads: list[Array | None] = [None] * len(nodes)
    grads[loss.node] = np.ones(shape) * weight
    for nid in range(loss.node, -1, -1):
        g = grads[nid]
        node = nodes[nid]
        if g is None or node.vjp is None:
            continue
        # each node is visited once, so its gradient and the activations its
        # closure holds can be released as the sweep goes
        grads[nid] = nodes[nid] = None
        for pid, pg in zip(node.parents, node.vjp(g)):
            if pid is None or pg is None:
                continue
            grads[pid] = pg if grads[pid] is None else grads[pid] + pg

    out: dict[int, Tensor] = {}
    for nid in tape._watched:
        g = grads[nid]
        if g is None:
            g = np.zeros(nodes[nid].shape, dtype=np.float64)
        out[nid] = Tensor(np.asarray(g, dtype=np.float64))
    # a consumed tape records nothing more; tensors that outlive it keep no
    # activations alive
    nodes.clear()
    return out


# ---------------------------------------------------------------------------
# op plumbing


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands were recorded on different tapes")
    return tape


def _record(parents: Sequence[Tensor], out: Array, vjp: Callable) -> Tensor:
    """Record one op if any parent sits on a tape; else return a constant.

    ``vjp(g)`` maps the output gradient to one gradient per parent, with None
    for a parent that is not tracked (``p.node is None``), so that dead work
    is skipped. The closure holds arrays and shapes only, never a Tensor: a
    Tensor refers to its tape and the tape to the closure, so holding one
    would keep the tape and its activations alive until the cycle collector
    runs.
    """
    tape = _tape_of(*parents)
    if tape is None:
        return Tensor(out)
    node = tape._push((p.node for p in parents), vjp, out.shape)
    return Tensor(out, tape=tape, node=node)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient down to ``shape`` (the inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = _lift(a), _lift(b)
    adata, bdata = a.data, b.data
    ta, tb = a.node is not None, b.node is not None

    def vjp(g):
        ga = _unbroadcast(g * bdata, adata.shape) if ta else None
        gb = _unbroadcast(g * adata, bdata.shape) if tb else None
        return ga, gb

    return _record((a, b), adata * bdata, vjp)


def _check_matmul(op: str, a: Array, b: Array, b_stored_t: bool = False) -> None:
    """Raise unless ``a @ b`` (``a @ b^T`` if ``b_stored_t``) is defined."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"{op} needs operands with ndim >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-1 if b_stored_t else -2]:
        raise DimensionError(f"{op} inner dimensions differ: {a.shape} vs {b.shape}")


def _matmul_grads(g: Array, a: Array, b: Array, ta: bool, tb: bool) -> list:
    """Gradients of ``a @ b`` for the tracked operands, None for the others."""
    ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape) if ta else None
    gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape) if tb else None
    return [ga, gb]


def matmul(a, b) -> Tensor:
    """Matrix product on the last two axes, batch dims broadcast.

    Both operands must have ndim >= 2 and matching inner dimensions.
    """
    a, b = _lift(a), _lift(b)
    adata, bdata = a.data, b.data
    _check_matmul("matmul", adata, bdata)
    ta, tb = a.node is not None, b.node is not None
    return _record((a, b), adata @ bdata, lambda g: _matmul_grads(g, adata, bdata, ta, tb))


def linear(x, w, b=None) -> Tensor:
    """``x @ w^T (+ b)`` with ``w`` stored [..., out, in], batch dims broadcast, as
    one node bitwise equal to the transpose/matmul/add chain it replaces.

    ``b`` is shaped ``w.shape[:-1]`` and added over the batch axis, so a
    stacked weight [Λ, out, in] takes a stacked bias [Λ, out] and maps a
    shared [B, in] or a stacked [Λ, B, in] input to [Λ, B, out], each slice
    bitwise equal to the 2-D call on that slice's parameters.
    """
    parents = [_lift(t) for t in ((x, w) if b is None else (x, w, b))]
    xdata, wdata = parents[0].data, parents[1].data
    _check_matmul("linear", xdata, wdata, b_stored_t=True)
    wt = np.swapaxes(wdata, -1, -2)
    if b is None:
        out = xdata @ wt
    else:
        bshape = parents[2].data.shape
        if bshape != wdata.shape[:-1]:
            raise DimensionError(
                f"linear bias must be shaped {wdata.shape[:-1]} for weight {wdata.shape}, "
                f"got {bshape}"
            )
        brow = np.expand_dims(parents[2].data, -2)
        out = xdata @ wt + brow
    tracked = [p.node is not None for p in parents]

    def vjp(g):
        grads = _matmul_grads(g, xdata, wt, tracked[0], tracked[1])
        if tracked[1]:
            grads[1] = np.swapaxes(grads[1], -1, -2)
        if len(tracked) == 3:
            grads.append(_unbroadcast(g, brow.shape).reshape(bshape) if tracked[2] else None)
        return grads

    return _record(parents, out, vjp)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    """Reshape without copying semantics; total size must be preserved."""
    a = _lift(a)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.data.shape} to {shape}: {exc}") from None
    old = a.data.shape
    return _record((a,), out, lambda g: (g.reshape(old),))


def pad_last(a, count: int) -> Tensor:
    """Append ``count`` zeros along the last axis."""
    a = _lift(a)
    if count < 0:
        raise ValueError(f"pad count must be >= 0, got {count}")
    if count == 0:
        return a
    width = [(0, 0)] * (a.data.ndim - 1) + [(0, count)]
    keep = a.data.shape[-1]
    return _record((a,), np.pad(a.data, width), lambda g: (g[..., :keep],))


# ---------------------------------------------------------------------------
# reductions


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def mean(a, axis: int | None = None) -> Tensor:
    """Arithmetic mean over one axis, or over all elements when axis is None."""
    a = _lift(a)
    shape = a.data.shape
    if axis is None:
        n = a.data.size
        return _record((a,), a.data.mean(), lambda g: (np.broadcast_to(g / n, shape),))
    ax = _normalize_axis(axis, a.data.ndim)
    n = shape[ax]

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g / n, ax), shape),)

    return _record((a,), a.data.mean(axis=ax), vjp)


def reduce_sum(a, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over all elements when axis is None."""
    a = _lift(a)
    shape = a.data.shape
    if axis is None:
        return _record((a,), a.data.sum(), lambda g: (np.broadcast_to(g, shape),))
    ax = _normalize_axis(axis, a.data.ndim)

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, ax), shape),)

    return _record((a,), a.data.sum(axis=ax), vjp)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    """max(x, slope*x) with 0 < slope < 1; the gradient at exactly 0 is 1."""
    a = _lift(a)
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    if _tape_of(a) is None:
        # same values as x * factor below, without the slow np.where
        out = a.data * slope
        return Tensor(np.maximum(a.data, out, out=out))
    factor = np.where(a.data >= 0, 1.0, slope)
    return _record((a,), a.data * factor, lambda g: (g * factor,))


def _sigmoid_values(x: Array) -> Array:
    out = np.empty_like(x)
    nonneg = x >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-x[nonneg]))
    ex = np.exp(x[~nonneg])
    out[~nonneg] = ex / (1.0 + ex)
    return out


# the probability rails of sigmoid_head and bce_loss: [_EPS, 1 - _EPS]
_EPS = 1e-7


def sigmoid_head(x, w) -> Tensor:
    """[n] probabilities ``clip(sigmoid(x @ w^T), _EPS, 1 - _EPS)`` of [n, k] features
    and a [1, k] weight, zero gradient on the rails, as one node bitwise equal
    to the transpose/matmul/reshape/sigmoid/clamp chain it replaces.

    A stacked [Λ, n, k] input and [Λ, 1, k] weight give [Λ, n], each slice
    bitwise equal to the 2-D call on that slice.
    """
    x, w = _lift(x), _lift(w)
    xdata, wdata = x.data, w.data
    _check_matmul("sigmoid_head", xdata, wdata, b_stored_t=True)
    if wdata.shape != xdata.shape[:-2] + (1, xdata.shape[-1]):
        raise DimensionError(
            f"sigmoid_head needs [n, k] and [1, k] inputs, or [Λ, n, k] and [Λ, 1, k], "
            f"got {xdata.shape} and {wdata.shape}"
        )
    wt = np.swapaxes(wdata, -1, -2)
    shape = xdata.shape[:-1]
    s = _sigmoid_values((xdata @ wt).reshape(shape))
    tx, tw = x.node is not None, w.node is not None

    def vjp(g):
        g = (g * ((s > _EPS) & (s < 1.0 - _EPS)) * s * (1.0 - s)).reshape(shape + (1,))
        grads = _matmul_grads(g, xdata, wt, tx, tw)
        if tw:
            grads[1] = np.swapaxes(grads[1], -1, -2)
        return grads

    return _record((x, w), np.clip(s, _EPS, 1.0 - _EPS), vjp)


def softmax(a, axis: int = -1) -> Tensor:
    """Shift-stabilized softmax along one axis; rows sum to 1."""
    a = _lift(a)
    ax = _normalize_axis(axis, a.data.ndim)
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=ax, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - inner),)

    return _record((a,), out, vjp)


# ---------------------------------------------------------------------------
# structured ops


def conv1d(x, w, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation: out[b,o,j] = sum_{c,k} w[o,c,k] * x[b,c,j*stride+k-padding].

    ``x`` is [batch, channels, length]; ``w`` is [out_channels, in_channels,
    width]. Zero padding is applied to both ends.

    Runs as im2col plus matmul: the windows are copied once into a column
    matrix [batch, in_channels*width, out_length], so the forward pass and
    both gradients are contiguous BLAS products.
    """
    x, w = _lift(x), _lift(w)
    if stride < 1:
        raise ValueError(f"conv1d stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv1d padding must be >= 0, got {padding}")
    if w.data.ndim != 3:
        raise DimensionError(f"conv1d weight must be [out, in, width], got {w.data.shape}")
    x3 = x.data
    if x3.ndim != 3:
        raise DimensionError(f"conv1d expects [batch, channels, length], got {x3.shape}")
    c_out, c_in, width = w.data.shape
    if x3.shape[1] != c_in:
        raise DimensionError(
            f"conv1d channel mismatch: input has {x3.shape[1]}, weight expects {c_in}"
        )
    length = x3.shape[2]
    padded_len = length + 2 * padding
    if padded_len < width:
        raise DimensionError(
            f"conv1d window {width} exceeds padded length {padded_len}"
        )
    xp = np.pad(x3, ((0, 0), (0, 0), (padding, padding))) if padding else x3
    windows = np.lib.stride_tricks.sliding_window_view(xp, width, axis=2)[:, :, ::stride]
    nb, out_len = xp.shape[0], windows.shape[2]
    cols = windows.transpose(0, 1, 3, 2).reshape(nb, c_in * width, out_len)
    w2 = w.data.reshape(c_out, c_in * width)
    tx, tw = x.node is not None, w.node is not None

    def vjp(g):
        gx = gw = None
        if tw:
            gw = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(c_out, c_in, width)
        if tx:
            gcols = (w2.T @ g).reshape(nb, c_in, width, out_len)
            gxp = np.zeros_like(xp)
            for k in range(width):
                gxp[:, :, k : k + stride * out_len : stride] += gcols[:, :, k]
            gx = gxp[:, :, padding : padding + length] if padding else gxp
        return gx, gw

    return _record((x, w), w2 @ cols, vjp)


def max_pool1d(x, size: int, stride: int) -> Tensor:
    """Max over sliding windows along the last axis; ties keep the first index.

    ``x`` is [batch, channels, length]; the window must fit at least once.
    """
    x = _lift(x)
    if size < 1:
        raise ValueError(f"max_pool1d size must be >= 1, got {size}")
    if stride < 1:
        raise ValueError(f"max_pool1d stride must be >= 1, got {stride}")
    x3 = x.data
    if x3.ndim != 3:
        raise DimensionError(f"max_pool1d expects [batch, channels, length], got {x3.shape}")
    length = x3.shape[2]
    if length < size:
        raise DimensionError(f"max_pool1d window {size} exceeds length {length}")
    # one strided slice per window offset k holds element k of every window
    span = (length - size) // stride * stride + 1
    out = x3[:, :, 0:span:stride].copy()
    arg = np.zeros(out.shape, dtype=np.intp)
    for k in range(1, size):
        cand = x3[:, :, k : k + span : stride]
        np.copyto(arg, k, where=cand > out)
        np.maximum(out, cand, out=out)

    # the VJP needs the input's shape and size only; holding the input itself
    # would keep every pooled activation alive until backward
    shape, size = x3.shape, x3.size

    def vjp(g):
        nb, nc, nw = arg.shape
        # flat index of each window's maximum; bincount sums repeated picks
        rows = np.arange(nb * nc).reshape(nb, nc, 1) * length
        flat = rows + np.arange(nw) * stride + arg
        gx = np.bincount(flat.ravel(), weights=g.ravel(), minlength=size)
        return (gx.reshape(shape),)

    return _record((x,), out, vjp)


# ---------------------------------------------------------------------------
# loss


def bce_loss(pred, label) -> Tensor:
    """Mean binary cross-entropy over a 1-D batch of probabilities.

    Predictions are clipped to sigmoid_head's rails before the logs (a no-op
    on its outputs) so that hard 0/1 scores stay finite; the gradient is zero
    at and beyond the rails. Labels must be exactly 0 or 1 and get no
    gradient. Records one node. Stacked [Λ, n] predictions of one [n] batch
    give the [Λ] per-slice means, each bitwise equal to the 1-D call.
    """
    pred, label = _lift(pred), _lift(label)
    if pred.data.ndim not in (1, 2) or label.data.ndim != 1:
        raise DimensionError(
            f"bce_loss expects [n] or [Λ, n] predictions and [n] labels, "
            f"got {pred.data.shape} and {label.data.shape}"
        )
    if pred.data.shape[-1:] != label.data.shape:
        raise DimensionError(
            f"bce_loss length mismatch: {pred.data.shape} vs {label.data.shape}"
        )
    if pred.data.size == 0:
        raise DimensionError("bce_loss requires a non-empty batch")
    if not np.all((label.data == 0.0) | (label.data == 1.0)):
        raise ValueError("bce_loss labels must be exactly 0 or 1")
    x, y = pred.data, label.data
    lo, hi = _EPS, 1.0 - _EPS
    p = np.clip(x, lo, hi)
    q = 1.0 - p
    n = y.size

    # these expressions, in this order, are those of the unfused
    # clamp/log/mul/mean chain; tests hold the op to that chain bit for bit
    def vjp(g):
        gm = -g[..., None] / n
        gp = -(gm * (1.0 - y) / q) + gm * y / p
        return gp * ((x > lo) & (x < hi)), None

    return _record((pred, label), -(y * np.log(p) + (1.0 - y) * np.log(q)).mean(axis=-1), vjp)
