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
    "mean",
    "reduce_sum",
    "leaky_relu",
    "dense_block",
    "sigmoid_head",
    "softmax",
    "conv1d",
    "max_pool1d",
    "conv_block",
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


def backward(loss: Tensor, weight: float | Array = 1.0) -> dict[int, Array]:
    """Reverse sweep: gradients of ``weight * loss`` for every watched leaf.

    Returns a map from leaf node id (as handed out by ``Tape.watch``) to the
    gradient array, shaped like the leaf. Leaves the loss never reached get
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

    out: dict[int, Array] = {}
    for nid in tape._watched:
        g = grads[nid]
        if g is None:
            g = np.zeros(nodes[nid].shape, dtype=np.float64)
        out[nid] = np.asarray(g, dtype=np.float64)
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


def _linear_operands(x, w, b, op: str):
    """Lift and check operands in ``linear``'s layout, naming ``op`` in errors;
    returns the parents, the input, the weight as [..., in, out] and the bias
    as a [..., 1, out] row (None without a bias)."""
    parents = [_lift(t) for t in ((x, w) if b is None else (x, w, b))]
    xdata, wdata = parents[0].data, parents[1].data
    _check_matmul(op, xdata, wdata, b_stored_t=True)
    brow = None
    if b is not None:
        bshape = parents[2].data.shape
        if bshape != wdata.shape[:-1]:
            raise DimensionError(
                f"{op} bias must be shaped {wdata.shape[:-1]} for weight {wdata.shape}, "
                f"got {bshape}"
            )
        brow = parents[2].data[..., None, :]
    return parents, xdata, np.swapaxes(wdata, -1, -2), brow


def _linear_grads(g: Array, xdata: Array, wt: Array, brow: Array | None, tracked) -> list:
    """Gradients of ``xdata @ wt (+ brow)`` for ``linear``'s tracked operands,
    None for the others."""
    grads = _matmul_grads(g, xdata, wt, tracked[0], tracked[1])
    if tracked[1]:
        grads[1] = np.swapaxes(grads[1], -1, -2)
    if brow is not None:
        grads.append(_unbroadcast(g, brow.shape).squeeze(-2) if tracked[2] else None)
    return grads


def linear(x, w, b=None) -> Tensor:
    """``x @ w^T (+ b)`` with ``w`` stored [..., out, in], batch dims broadcast, as
    one node bitwise equal to the transpose/matmul/add chain it replaces.

    ``b`` is shaped ``w.shape[:-1]`` and added over the batch axis, so a
    stacked weight [Λ, out, in] takes a stacked bias [Λ, out] and maps a
    shared [B, in] or a stacked [Λ, B, in] input to [Λ, B, out], each slice
    bitwise equal to the 2-D call on that slice's parameters.
    """
    parents, xdata, wt, brow = _linear_operands(x, w, b, "linear")
    out = xdata @ wt if brow is None else xdata @ wt + brow
    tracked = [p.node is not None for p in parents]
    return _record(parents, out, lambda g: _linear_grads(g, xdata, wt, brow, tracked))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    """Reshape without copying semantics; total size must be preserved."""
    a = _lift(a)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.data.shape} to {shape}: {exc}") from None
    old = a.data.shape
    return _record((a,), out, lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# reductions


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def mean(a, axis: int) -> Tensor:
    """Arithmetic mean over ``axis``, which the result drops; the transformer
    pools its tokens with ``mean(att, axis=1)``."""
    a = _lift(a)
    shape = a.data.shape
    ax = _normalize_axis(axis, a.data.ndim)
    n = shape[ax]

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g / n, ax), shape),)

    return _record((a,), a.data.mean(axis=ax), vjp)


def reduce_sum(a) -> Tensor:
    """Sum of all elements as a 0-d tensor, a scalar to run ``backward`` from."""
    a = _lift(a)
    shape = a.data.shape
    return _record((a,), a.data.sum(), lambda g: (np.broadcast_to(g, shape),))


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    """max(x, slope*x) with 0 < slope < 1; the gradient at exactly 0 is 1."""
    a = _lift(a)
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    x = a.data
    out = x * slope
    np.maximum(x, out, out=out)
    return _record((a,), out, lambda g: (g * np.where(x >= 0, 1.0, slope),))


def dense_block(x, w, b, slope: float) -> Tensor:
    """``leaky_relu(linear(x, w, b), slope)`` as one node, bitwise equal to that
    chain in values and gradients, with the same argument checks; stacked
    [Λ] parameters work as in ``linear``.

    The leaky-relu runs in place on the affine output. The VJP keeps a bool
    mask of the outputs whose chain factor is the slope, built only when an
    operand is on a tape, instead of a float factor array.
    """
    parents, xdata, wt, brow = _linear_operands(x, w, b, "linear")
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    z = xdata @ wt
    z += brow
    tracked = [p.node is not None for p in parents]
    taped = any(tracked)
    if taped:
        # ~(z >= 0) marks where the chain's leaky-relu factor is the slope,
        # NaN included
        neg = z >= 0
        np.logical_not(neg, out=neg)
    np.maximum(z, z * slope, out=z)
    if not taped:
        return Tensor(z)

    def vjp(g):
        # the factor is slope where neg and 1.0 elsewhere, so factor * g is
        # the chain's product bit for bit
        gz = np.multiply(neg, slope)
        gz += ~neg
        gz *= g
        return _linear_grads(gz, xdata, wt, brow, tracked)

    return _record(parents, z, vjp)


def _sigmoid_values(x: Array) -> Array:
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere: it never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# the probability rails of sigmoid_head and bce_loss: [_EPS, 1 - _EPS]
_EPS = 1e-7


def sigmoid_head(x, w) -> Tensor:
    """[n] probabilities ``clip(sigmoid(x @ w^T), _EPS, 1 - _EPS)`` of [n, k] features
    and a [1, k] weight, zero gradient on the rails, as one node bitwise equal
    to the transpose/matmul/reshape/sigmoid/clamp chain it replaces. It shares
    ``linear``'s operand check and gradient.

    A stacked [Λ, n, k] input and [Λ, 1, k] weight give [Λ, n], each slice
    bitwise equal to the 2-D call on that slice.
    """
    parents, xdata, wt, _ = _linear_operands(x, w, None, "sigmoid_head")
    if wt.shape != xdata.shape[:-2] + (xdata.shape[-1], 1):
        raise DimensionError(
            f"sigmoid_head needs [n, k] and [1, k] inputs, or [Λ, n, k] and [Λ, 1, k], "
            f"got {xdata.shape} and {parents[1].data.shape}"
        )
    shape = xdata.shape[:-1]
    s = _sigmoid_values((xdata @ wt).reshape(shape))
    tracked = [p.node is not None for p in parents]

    def vjp(g):
        g = (g * ((s > _EPS) & (s < 1.0 - _EPS)) * s * (1.0 - s)).reshape(shape + (1,))
        return _linear_grads(g, xdata, wt, None, tracked)

    return _record(parents, np.clip(s, _EPS, 1.0 - _EPS), vjp)


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


def _check_conv(x3: Array, w_shape: tuple[int, ...], stride: int, padding: int) -> int:
    """Raise unless conv1d's arguments fit; returns the output length."""
    if stride < 1:
        raise ValueError(f"conv1d stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv1d padding must be >= 0, got {padding}")
    if len(w_shape) != 3:
        raise DimensionError(f"conv1d weight must be [out, in, width], got {w_shape}")
    if x3.ndim != 3:
        raise DimensionError(f"conv1d expects [batch, channels, length], got {x3.shape}")
    _, c_in, width = w_shape
    if x3.shape[1] != c_in:
        raise DimensionError(
            f"conv1d channel mismatch: input has {x3.shape[1]}, weight expects {c_in}"
        )
    padded_len = x3.shape[2] + 2 * padding
    if padded_len < width:
        raise DimensionError(
            f"conv1d window {width} exceeds padded length {padded_len}"
        )
    return (padded_len - width) // stride + 1


# conv_block runs the batch in blocks of rows whose temporaries take about
# this many bytes (at least one row a block), so that its working memory does
# not grow with the batch; of 0.25 to 4 MiB, 1 MiB gave the fastest CNN steps
# at d=695
_BLOCK_BYTES = 1 << 20


def _row_blocks(nb: int, row_bytes: int) -> tuple[int, list[slice]]:
    """The rows of a block, as many as fit ``_BLOCK_BYTES`` at ``row_bytes``
    a row (at least one, at most ``nb``), and the consecutive blocks that
    cover a batch of ``nb`` rows."""
    rows = min(nb, max(1, _BLOCK_BYTES // max(1, row_bytes)))
    return rows, [slice(lo, min(lo + rows, nb)) for lo in range(0, nb, max(rows, 1))]


def _im2col_blocks(x3: Array, width: int, stride: int, padding: int, rows: int, blocks):
    """Each block of batch rows of ``x3`` as im2col columns [rows,
    in_channels*width, out_length]: the rows are zero-padded into one
    buffer, whose windows are copied into one column buffer, and the next
    block overwrites both. With one input channel the reshape keeps an
    overlapping strided view of the padded rows instead of a copy (the
    layout that sets the matrix products' bits)."""
    _, c_in, length = x3.shape
    xp = np.zeros((rows, c_in, length + 2 * padding))
    windows = np.lib.stride_tricks.sliding_window_view(xp, width, axis=2)[:, :, ::stride]
    windows = windows.transpose(0, 1, 3, 2)
    cols = windows.reshape(rows, c_in * width, windows.shape[3])
    # a view of the windows is read-only; a copy is the column buffer
    copy = cols.flags.writeable
    for blk in blocks:
        n = blk.stop - blk.start
        xp[:n, :, padding : padding + length] = x3[blk]
        if copy:
            np.copyto(cols[:n].reshape(windows[:n].shape), windows[:n])
        yield cols[:n]


def _fold_cols(gx: Array, gcols: Array, width: int, stride: int, padding: int) -> None:
    """Add column gradients [rows, in_channels*width, out_length] into the
    unpadded input gradient ``gx`` in place, dropping what falls on the padding."""
    n, c_in, length = gx.shape
    out_len = gcols.shape[2]
    gcols4 = gcols.reshape(n, c_in, width, out_len)
    for k in range(width):
        # window j reads input position k + j*stride - padding; the windows
        # lo <= j < hi read the input rather than the padding
        lo = max(0, -((k - padding) // stride))
        hi = min(out_len, (length + padding - k - 1) // stride + 1)
        if lo < hi:
            start = k + lo * stride - padding
            gx[:, :, start : start + (hi - lo) * stride : stride] += gcols4[:, :, k, lo:hi]


def conv1d(x, w, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation: out[b,o,j] = sum_{c,k} w[o,c,k] * x[b,c,j*stride+k-padding].

    ``x`` is [batch, channels, length]; ``w`` is [out_channels, in_channels,
    width]. Zero padding is applied to both ends.

    Runs as im2col plus matmul: the windows are copied once into a column
    matrix [batch, in_channels*width, out_length], so the forward pass and
    both gradients are contiguous BLAS products over the whole batch. No
    model calls it: it is the reference chain that ``conv_block``'s tests
    check against, and perfbench times it as a kernel.
    """
    x, w = _lift(x), _lift(w)
    x3, w_shape = x.data, w.data.shape
    _check_conv(x3, w_shape, stride, padding)
    c_out, c_in, width = w_shape
    (cols,) = _im2col_blocks(x3, width, stride, padding, len(x3), [slice(0, len(x3))])
    w2 = w.data.reshape(c_out, c_in * width)
    x_shape, tx, tw = x3.shape, x.node is not None, w.node is not None

    def vjp(g):
        gx = gw = None
        if tw:
            gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
        if tx:
            gx = np.zeros(x_shape)
            _fold_cols(gx, np.matmul(w2.T, g), width, stride, padding)
        return gx, gw

    return _record((x, w), w2 @ cols, vjp)


def _check_pool(size: int, stride: int, length: int) -> None:
    if size < 1:
        raise ValueError(f"max_pool1d size must be >= 1, got {size}")
    if stride < 1:
        raise ValueError(f"max_pool1d stride must be >= 1, got {stride}")
    if length < size:
        raise DimensionError(f"max_pool1d window {size} exceeds length {length}")


def _pool(x3: Array, size: int, stride: int, with_arg: bool = True, out=None, arg=None):
    """Window maxima of ``x3`` along its last axis and, if ``with_arg``, each
    maximum's offset in its window (the first on ties), in the smallest
    integer dtype that holds ``size - 1``; else None. They are written into
    ``out`` and ``arg`` when given."""
    # one strided slice per window offset k holds element k of every window
    span = (x3.shape[2] - size) // stride * stride + 1
    first = x3[:, :, 0:span:stride]
    out = np.empty(first.shape) if out is None else out
    np.copyto(out, first)
    took = None
    if with_arg:
        arg = np.empty(out.shape, dtype=np.min_scalar_type(size - 1)) if arg is None else arg
        arg.fill(0)
        took = np.empty(out.shape, dtype=bool)
    for k in range(1, size):
        cand = x3[:, :, k : k + span : stride]
        if with_arg:
            # k exceeds every offset taken so far, so the maximum sets it
            # exactly where cand beats the running maximum
            np.greater(cand, out, out=took)
            np.maximum(arg, took * arg.dtype.type(k), out=arg)
        np.maximum(out, cand, out=out)
    return out, arg


def _unpool(g: Array, arg: Array, stride: int, length: int) -> Array:
    """Route each window's gradient to its maximum; a fresh [batch, channels,
    ``length``] array."""
    nb, nc, nw = arg.shape
    # flat index of each window's maximum; bincount sums repeated picks
    rows = np.arange(nb * nc).reshape(nb, nc, 1) * length
    flat = rows + np.arange(nw) * stride + arg
    gx = np.bincount(flat.ravel(), weights=g.ravel(), minlength=nb * nc * length)
    # bincount of no index gives int64 whatever the weights
    return gx.astype(np.float64, copy=False).reshape(nb, nc, length)


def max_pool1d(x, size: int, stride: int) -> Tensor:
    """Max over sliding windows along the last axis; ties keep the first index.

    ``x`` is [batch, channels, length]; the window must fit at least once.
    """
    x = _lift(x)
    x3 = x.data
    if x3.ndim != 3:
        raise DimensionError(f"max_pool1d expects [batch, channels, length], got {x3.shape}")
    _check_pool(size, stride, x3.shape[2])
    out, arg = _pool(x3, size, stride)
    # the VJP needs the input's shape only; holding the input itself would
    # keep every pooled activation alive until backward
    shape = x3.shape
    return _record((x,), out, lambda g: (_unpool(g, arg, stride, shape[2]),))


def conv_block(
    x, w, *, stride: int, padding: int, slope: float, pool_size: int, pool_stride: int
) -> Tensor:
    """``max_pool1d(leaky_relu(conv1d(x, w, stride, padding), slope), pool_size,
    pool_stride)`` as one node, bitwise equal to that chain in values and
    gradients, with the same argument checks.

    Both passes run the batch in blocks of rows under ``_BLOCK_BYTES``: a
    block is padded into a reused buffer, cut into its im2col columns,
    multiplied by the weight, put through the leaky-relu in place and
    pooled, so neither the batch's columns nor its conv outputs are ever
    formed whole. The VJP keeps the block's input, the weight, a bool mask
    of the negative conv outputs and the pool's small-integer argmax, and
    rebuilds each block's columns as it goes. Without a tape neither the
    mask nor the argmax is built.
    """
    x, w = _lift(x), _lift(w)
    x3, w_shape = x.data, w.data.shape
    conv_len = _check_conv(x3, w_shape, stride, padding)
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    _check_pool(pool_size, pool_stride, conv_len)
    c_out, c_in, width = w_shape
    w2 = w.data.reshape(c_out, c_in * width)
    tx, tw = x.node is not None, w.node is not None
    taped = tx or tw
    nb = x3.shape[0]
    rows, blocks = _row_blocks(nb, conv_len * (c_out + w2.shape[1]) * 8)
    out = np.empty((nb, c_out, (conv_len - pool_size) // pool_stride + 1))
    neg = np.empty((nb, c_out, conv_len), dtype=bool) if taped else None
    arg = np.empty(out.shape, dtype=np.min_scalar_type(pool_size - 1)) if taped else None
    z = np.empty((rows, c_out, conv_len))
    buf = np.empty(z.shape)
    for blk, cols in zip(blocks, _im2col_blocks(x3, width, stride, padding, rows, blocks)):
        n = blk.stop - blk.start
        np.matmul(w2, cols, out=z[:n])
        if taped:
            # ~(z >= 0) marks where the chain's leaky-relu factor is the
            # slope, NaN included
            np.greater_equal(z[:n], 0.0, out=neg[blk])
            np.logical_not(neg[blk], out=neg[blk])
        # max(z, z * slope) is z * factor bit for bit
        np.multiply(z[:n], slope, out=buf[:n])
        np.maximum(z[:n], buf[:n], out=z[:n])
        _pool(z[:n], pool_size, pool_stride, taped, out[blk], arg[blk] if taped else None)
    if not taped:
        return Tensor(out)

    def vjp(g):
        gx = np.zeros(x3.shape) if tx else None
        gw = np.empty((nb,) + w2.shape) if tw else None
        factor = np.empty((rows, c_out, conv_len))
        gcols = np.empty((rows, w2.shape[1], conv_len)) if tx else None
        for blk, cols in zip(blocks, _im2col_blocks(x3, width, stride, padding, rows, blocks)):
            n = blk.stop - blk.start
            ga = _unpool(g[blk], arg[blk], pool_stride, conv_len)
            # the factor is slope where neg and 1.0 elsewhere, so ga * factor
            # is the chain's product bit for bit
            np.multiply(neg[blk], slope, out=factor[:n])
            factor[:n] += ~neg[blk]
            ga *= factor[:n]
            if tw:
                np.matmul(ga, cols.transpose(0, 2, 1), out=gw[blk])
            if tx:
                np.matmul(w2.T, ga, out=gcols[:n])
                _fold_cols(gx[blk], gcols[:n], width, stride, padding)
        # one sum over the rows' products, as the batched product would
        return gx, None if gw is None else gw.sum(axis=0).reshape(w_shape)

    return _record((x, w), out, vjp)


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
