"""Tape engine: forward values against numpy, gradients against finite differences."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metagx import autodiff as ad
from metagx.errors import DimensionError

from conftest import max_rel_err, numeric_grad

GRAD_TOL = 1e-4


def tape_grad(build, x):
    """Gradient of ``build(leaf_tensor)`` at x via one tape backward pass."""
    tape = ad.Tape()
    leaf = tape.watch(x)
    loss = build(leaf)
    return ad.backward(loss)[leaf.node]


def check_op_grad(build, x, step=1e-5):
    got = tape_grad(build, x)
    want = numeric_grad(lambda a: build(ad.Tensor(a.copy())).item(), np.array(x), step=step)
    assert max_rel_err(got, want) < GRAD_TOL


# ---------------------------------------------------------------------------
# forward values


def test_add_mul_forward_and_broadcast():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([10.0, 20.0])
    # linear's bias is the broadcast add: a @ I^T + b
    np.testing.assert_array_equal(ad.linear(a, np.eye(2), b).data, [[11.0, 22.0], [13.0, 24.0]])
    np.testing.assert_array_equal(ad.mul(a, 2.0).data, [[2.0, 4.0], [6.0, 8.0]])
    np.testing.assert_array_equal(ad.mul(a, b).data, [[10.0, 40.0], [30.0, 80.0]])
    np.testing.assert_array_equal(ad.mul(1.0, b).data, [10.0, 20.0])


def test_matmul_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    np.testing.assert_allclose(ad.matmul(ad.Tensor(a), ad.Tensor(b)).data, a @ b)


def test_matmul_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))


def test_leaky_relu_forward():
    x = ad.Tensor([-2.0, 0.0, 3.0])
    y = ad.leaky_relu(x, slope=0.01)
    np.testing.assert_allclose(y.data, [-0.02, 0.0, 3.0])
    with pytest.raises(ValueError):
        ad.leaky_relu(x, slope=1.5)


def test_leaky_relu_bitwise_on_special_values():
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([-0.0, 0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1e308, -1e308, -1.5, 3.25])
    for slope in (0.01, 0.2):
        got = ad.leaky_relu(ad.Tensor(x), slope=slope).data
        assert got.tobytes() == np.where(x >= 0, x, slope * x).tobytes()
    x = np.array([0.0, -0.0, -1.0, 2.0])
    grad = tape_grad(lambda t: ad.reduce_sum(ad.leaky_relu(t, 0.2)), x)
    np.testing.assert_array_equal(grad, [1.0, 1.0, 0.2, 1.0])


def test_leaky_relu_tape_free_forward_equals_taped_bitwise():
    tiny = np.nextafter(0.0, 1.0)
    special = [-0.0, 0.0, tiny, -tiny, 1e308, -1e308, np.inf, -np.inf, np.nan]
    x = np.concatenate([special, np.random.default_rng(0).standard_normal(1000)])
    for slope in (0.01, 0.2, 1.0 - 2.0**-52):
        free = ad.leaky_relu(ad.Tensor(x), slope).data
        taped = ad.leaky_relu(ad.Tape().watch(x), slope).data
        assert free.tobytes() == taped.tobytes()


def test_sigmoid_extremes_stay_finite_and_ordered():
    def head(logits):
        return ad.sigmoid_head(np.array(logits).reshape(-1, 1), np.ones((1, 1))).data

    y = head([-50.0, -10.0, 0.0, 10.0, 50.0])
    # the logistic saturates far below and above; the head clips it to the rails
    assert y[0] == 1e-7 and y[4] == 1.0 - 1e-7
    assert y[2] == 0.5
    assert np.all(np.diff(y) > 0.0)
    np.testing.assert_array_equal(head([-1e6, 1e6]), [1e-7, 1.0 - 1e-7])


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7)) * 30
    s = ad.softmax(ad.Tensor(x), axis=-1).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(5), atol=1e-12)
    s2 = ad.softmax(ad.Tensor(x + 1000.0), axis=-1).data
    np.testing.assert_allclose(s, s2, atol=1e-12)


def test_conv1d_hand_example():
    x = ad.Tensor([[[1.0, 2.0, 3.0]]])
    w = ad.Tensor([[[1.0, 0.0, -1.0]]])
    out = ad.conv1d(x, w, stride=1, padding=1)
    np.testing.assert_allclose(out.data, [[[-2.0, -2.0, 2.0]]])


def test_conv1d_stride_and_batch():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 11))
    w = rng.standard_normal((4, 3, 3))
    out = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride=2, padding=1).data
    assert out.shape == (2, 4, 6)
    # brute-force reference
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    for b in range(2):
        for o in range(4):
            for j in range(6):
                want = (xp[b, :, 2 * j : 2 * j + 3] * w[o]).sum()
                assert abs(out[b, o, j] - want) < 1e-12


def test_conv1d_window_too_large_raises():
    with pytest.raises(DimensionError):
        ad.conv1d(ad.Tensor(np.ones((1, 1, 2))), ad.Tensor(np.ones((1, 1, 5))), padding=1)


def test_max_pool1d_forward_and_tie_break():
    x = ad.Tensor([[[1.0, 3.0, 3.0, 0.0]]])
    out = ad.max_pool1d(x, size=2, stride=2)
    np.testing.assert_array_equal(out.data, [[[3.0, 3.0]]])
    # ties take the first position: gradient flows to index 1, not 2
    tape = ad.Tape()
    leaf = tape.watch(np.array([[[1.0, 3.0, 3.0, 0.0]]]))
    loss = ad.reduce_sum(ad.max_pool1d(leaf, size=4, stride=4))
    g = ad.backward(loss)[leaf.node]
    np.testing.assert_array_equal(g, [[[0.0, 1.0, 0.0, 0.0]]])


def test_conv1d_and_max_pool1d_need_a_batch_axis():
    with pytest.raises(DimensionError, match=r"conv1d expects \[batch, channels, length\]"):
        ad.conv1d(ad.Tensor(np.ones((3, 9))), ad.Tensor(np.ones((2, 3, 3))))
    with pytest.raises(DimensionError, match=r"max_pool1d expects \[batch, channels, length\]"):
        ad.max_pool1d(ad.Tensor(np.ones((3, 9))), 2, 2)


def test_bce_loss_hand_example():
    loss = ad.bce_loss(ad.Tensor([0.9, 0.1]), ad.Tensor([1.0, 0.0]))
    assert abs(loss.item() - (-math.log(0.9))) < 1e-12


def test_bce_loss_saturated_inputs_finite():
    loss = ad.bce_loss(ad.Tensor([0.0, 1.0]), ad.Tensor([1.0, 0.0]))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(-math.log(1e-7), rel=1e-9)


def test_bce_loss_validates_inputs():
    with pytest.raises(DimensionError):
        ad.bce_loss(ad.Tensor([0.5, 0.5]), ad.Tensor([1.0]))
    with pytest.raises(ValueError):
        ad.bce_loss(ad.Tensor([0.5]), ad.Tensor([0.5]))
    with pytest.raises(DimensionError):
        ad.bce_loss(ad.Tensor([[0.5]]), ad.Tensor([[1.0]]))


def unfused_bce(x, y, g):
    """Value of the clamp/log/mul/sub/add/mean/neg chain that bce_loss once
    recorded, and the gradient of ``g * loss`` by that chain's backward sweep:
    one line per node, in its order of accumulation."""
    lo, hi = 1e-7, 1.0 - 1e-7
    p = np.clip(x, lo, hi)  # clamp
    log_p = np.log(p)  # log
    pos = y * log_p  # mul(label, log p)
    one_minus_y = 1.0 - y  # sub(1, label), a constant
    q = 1.0 - p  # sub(1, p)
    log_q = np.log(q)  # log
    negt = one_minus_y * log_q  # mul
    loss = -(pos + negt).mean()  # add, mean, neg
    g_mean = np.broadcast_to(-np.float64(g) / x.size, x.shape)  # neg, mean
    g_q = g_mean * one_minus_y / q  # add, mul, log
    g_p = -g_q  # sub(1, p): the first gradient to reach p
    g_p = g_p + g_mean * y / p  # add, mul, log: the second
    return loss, g_p * ((x > lo) & (x < hi))  # clamp


_BCE_PREDS = {
    "random": np.random.default_rng(43).random(9),
    "rails": np.array([0.0, 1e-7, 0.5, 1.0 - 1e-7, 1.0, 0.0, 1e-7, 1.0 - 1e-7, 1.0]),
}
_BCE_LABELS = {
    "mixed": np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]),
    "zeros": np.zeros(9),
    "ones": np.ones(9),
}


@pytest.mark.parametrize("upstream", [1.0, 0.3])
@pytest.mark.parametrize("labels", _BCE_LABELS)
@pytest.mark.parametrize("preds", _BCE_PREDS)
def test_bce_loss_is_one_node_bitwise_equal_to_the_unfused_chain(preds, labels, upstream):
    x, y = _BCE_PREDS[preds], _BCE_LABELS[labels]
    want_loss, want_grad = unfused_bce(x, y, upstream)
    tape = ad.Tape()
    leaf = tape.watch(x)
    loss = ad.bce_loss(leaf, ad.Tensor(y))
    assert loss.node == leaf.node + 1
    assert loss.data.tobytes() == np.asarray(want_loss).tobytes()
    grad = ad.backward(loss if upstream == 1.0 else ad.mul(loss, upstream))[leaf.node]
    assert grad.tobytes() == want_grad.tobytes()


def unfused_linear(x, w, b, g):
    """Value of the transpose/matmul/add chain that linear replaced, and the
    gradients of ``sum(out * g)`` for x, w and b by that chain's backward
    sweep: one line per node, in its order of accumulation."""
    wt = np.swapaxes(w, -1, -2)  # transpose
    out = x @ wt  # matmul
    if b is not None:
        out = out + b  # add
    g_b = None if b is None else g.sum(axis=tuple(range(g.ndim - 1)))  # add
    g_x = g @ np.swapaxes(wt, -1, -2)  # matmul
    g_wt = np.swapaxes(x, -1, -2) @ g
    g_wt = g_wt.sum(axis=tuple(range(g_wt.ndim - wt.ndim)))  # matmul's batch dims
    g_w = np.swapaxes(g_wt, -1, -2)  # transpose
    return out, g_x, g_w, g_b


def masked_sigmoid(x):
    """The four-mask sigmoid the unfused chain ran, kept here so that the
    bitwise tests below do not compare ``ad._sigmoid_values`` with itself."""
    out = np.empty_like(x)
    nonneg = x >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-x[nonneg]))
    ex = np.exp(x[~nonneg])
    out[~nonneg] = ex / (1.0 + ex)
    return out


def test_sigmoid_values_equal_the_masked_sigmoid_bitwise():
    edges = np.array([0.0, np.inf, 5e-324, 36.7, 709.78, 745.2, 1e308])
    rng = np.random.default_rng(8)
    scales = (1e-300, 1e-8, 1.0, 40.0, 800.0, 1e300)
    draws = [rng.standard_normal((40, 500)) * scale for scale in scales]
    for x in (np.concatenate([edges, -edges]), *draws):
        assert ad._sigmoid_values(x).tobytes() == masked_sigmoid(x).tobytes()
    assert np.isnan(ad._sigmoid_values(np.array([np.nan, -np.nan]))).all()


def unfused_head(x, w, g):
    """Value of the transpose/matmul/reshape/sigmoid/clamp chain that
    sigmoid_head replaced, and the gradients of ``sum(out * g)`` for x and w
    by that chain's backward sweep: one line per node."""
    lo, hi = 1e-7, 1.0 - 1e-7
    wt = np.swapaxes(w, -1, -2)  # transpose
    m = x @ wt  # matmul
    z = m.reshape(x.shape[0])  # reshape
    s = masked_sigmoid(z)  # sigmoid
    out = np.clip(s, lo, hi)  # clamp
    g_s = g * ((s > lo) & (s < hi))  # clamp
    g_z = g_s * s * (1.0 - s)  # sigmoid
    g_m = g_z.reshape(m.shape)  # reshape
    g_x = g_m @ np.swapaxes(wt, -1, -2)  # matmul
    g_wt = np.swapaxes(x, -1, -2) @ g_m
    return out, g_x, np.swapaxes(g_wt, -1, -2)  # transpose


# input shape, weight shape, bias shape or None; the 2-D products are large
# enough that (x^T g)^T and g^T x round differently
_LINEAR_SHAPES = {
    "2d-bias": ((64, 300), (128, 300), (128,)),  # an MLP layer
    "2d": ((64, 300), (128, 300), None),
    "batched-input": ((2, 4, 5), (3, 5), None),  # the token and q/k/v projections
    "batched-weight": ((2, 4, 5), (2, 4, 5), None),  # the scores q @ k^T
}


@pytest.mark.parametrize("case", _LINEAR_SHAPES)
def test_linear_is_one_node_bitwise_equal_to_the_unfused_chain(case):
    x_shape, w_shape, b_shape = _LINEAR_SHAPES[case]
    rng = np.random.default_rng(len(case))
    x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    b = None if b_shape is None else rng.standard_normal(b_shape)
    g = rng.standard_normal(x_shape[:-1] + w_shape[-2:-1])
    want_out, *want_grads = unfused_linear(x, w, b, g)
    tape = ad.Tape()
    leaves = [tape.watch(a) for a in (x, w, b) if a is not None]
    out = ad.linear(*leaves)
    assert out.node == leaves[-1].node + 1
    assert out.data.tobytes() == want_out.tobytes()
    grads = ad.backward(ad.reduce_sum(ad.mul(out, g)))
    for leaf, want in zip(leaves, want_grads):
        assert grads[leaf.node].tobytes() == want.tobytes()


_HEAD_INPUTS = {
    "random": (np.random.default_rng(5).standard_normal((200, 40)), np.full((1, 40), 0.2)),
    # logits inside, just past and far beyond the rails at +-16.118
    "rails": (
        np.array([[-800.0], [-40.0], [-16.2], [-16.1], [0.0], [16.1], [16.2], [40.0], [800.0]]),
        np.ones((1, 1)),
    ),
}


@pytest.mark.parametrize("case", _HEAD_INPUTS)
def test_sigmoid_head_is_one_node_bitwise_equal_to_the_unfused_chain(case):
    x, w = _HEAD_INPUTS[case]
    g = np.random.default_rng(6).standard_normal(x.shape[0])
    want_out, want_gx, want_gw = unfused_head(x, w, g)
    tape = ad.Tape()
    xt, wt = tape.watch(x), tape.watch(w)
    out = ad.sigmoid_head(xt, wt)
    assert out.node == wt.node + 1
    assert out.data.tobytes() == want_out.tobytes()
    grads = ad.backward(ad.reduce_sum(ad.mul(out, g)))
    assert grads[xt.node].tobytes() == want_gx.tobytes()
    assert grads[wt.node].tobytes() == want_gw.tobytes()


def test_linear_and_sigmoid_head_shape_errors():
    x = np.ones((2, 3))
    with pytest.raises(DimensionError, match="linear inner dimensions differ"):
        ad.linear(x, np.ones((4, 2)))
    with pytest.raises(DimensionError, match="ndim >= 2"):
        ad.linear(x, np.ones(3))
    with pytest.raises(DimensionError, match="sigmoid_head inner dimensions differ"):
        ad.sigmoid_head(x, np.ones((1, 4)))
    for weight in (np.ones((2, 3)), np.ones((1, 1, 3))):
        with pytest.raises(DimensionError, match=r"\[n, k\] and \[1, k\] inputs"):
            ad.sigmoid_head(x, weight)
    with pytest.raises(DimensionError, match=r"\[n, k\] and \[1, k\] inputs"):
        ad.sigmoid_head(np.ones((2, 2, 3)), np.ones((1, 3)))
    # a bias is shaped like the weight without its input axis: [out], or [Λ, out]
    for w, b in ((np.ones((4, 3)), np.ones(1)), (np.ones((2, 4, 3)), np.ones(4))):
        with pytest.raises(DimensionError, match="linear bias must be shaped"):
            ad.linear(x, w, b)


@pytest.mark.parametrize("d", [50, 695])
@pytest.mark.parametrize("batch", [32, 7])
def test_stacked_ops_equal_per_slice_calls_bitwise(batch, d):
    """An MLP's ops with a leading [Λ] parameter axis: every value and every
    gradient of slice i is the 2-D call on slice i, bit for bit."""
    lam = 3
    rng = np.random.default_rng(batch + d)
    x = rng.standard_normal((batch, d))
    y = (rng.random(batch) < 0.5).astype(np.float64)
    shapes = {"w0": (128, d), "b0": (128,), "w1": (64, 128), "b1": (64,), "w2": (1, 64)}
    params = {n: rng.standard_normal((lam,) + s) / np.sqrt(s[-1]) for n, s in shapes.items()}
    weights = np.array([0.1, 0.45, 1.0])

    def run(p, weight):
        tape = ad.Tape()
        leaves = {n: tape.watch(a) for n, a in p.items()}
        h = ad.leaky_relu(ad.linear(x, leaves["w0"], leaves["b0"]))
        h = ad.leaky_relu(ad.linear(h, leaves["w1"], leaves["b1"]))
        probs = ad.sigmoid_head(h, leaves["w2"])
        loss = ad.bce_loss(probs, y)
        grads = ad.backward(loss, weight)
        return probs.data, loss.data, {n: grads[leaf.node] for n, leaf in leaves.items()}

    probs, loss, grads = run(params, weights)
    assert probs.shape == (lam, batch) and loss.shape == (lam,)
    for i in range(lam):
        want_probs, want_loss, want_grads = run({n: a[i] for n, a in params.items()}, weights[i])
        assert probs[i].tobytes() == want_probs.tobytes()
        assert loss[i].tobytes() == want_loss.tobytes()
        for name, want in want_grads.items():
            assert grads[name][i].tobytes() == want.tobytes(), (i, name)


def unfused_dense_block(x, w, b, slope):
    """The linear -> leaky_relu chain that dense_block replaced."""
    return ad.leaky_relu(ad.linear(x, w, b), slope)


def _dense_values_and_grads(op, x, w, b, g, slope, watch_x):
    """The nodes ``op`` records, and its values and gradients of sum(out * g);
    the gradient of a constant ``x`` is None."""
    tape = ad.Tape()
    xt = tape.watch(x) if watch_x else ad.Tensor(x)
    wt, bt = tape.watch(w), tape.watch(b)
    out = op(xt, wt, bt, slope)
    grads = ad.backward(ad.reduce_sum(ad.mul(out, g)))
    gx = grads[xt.node] if watch_x else None
    return out.node - bt.node, (out.data, gx, grads[wt.node], grads[bt.node])


# input, weight and bias shapes: an MLP layer, the stacked first layer on a
# shared batch, and a stacked later layer
_DENSE_SHAPES = {
    "2d": ((64, 300), (128, 300), (128,)),
    "stacked": ((32, 50), (3, 128, 50), (3, 128)),
    "stacked-input": ((3, 32, 128), (3, 64, 128), (3, 64)),
}


def _dense_inputs(shapes, values, rng):
    """x, w, b and an upstream gradient: normal draws, small integers (exact
    zeros and signed zeros of the affine output), or those integers with a
    few infinities and NaNs."""
    x_shape, w_shape, b_shape = shapes
    out_shape = np.broadcast_shapes(x_shape[:-2], w_shape[:-2]) + x_shape[-2:-1] + w_shape[-2:-1]
    if values == "normal":
        arrays = [rng.standard_normal(s) for s in (x_shape, w_shape, b_shape, out_shape)]
    else:
        ties = np.array([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.5])
        arrays = [rng.choice(ties, size=s) for s in (x_shape, w_shape, b_shape, out_shape)]
        if values == "special":
            for a in arrays:
                hit = rng.random(a.shape) < 0.002
                a[hit] = rng.choice([np.inf, -np.inf, np.nan], size=hit.sum())
    return arrays


@pytest.mark.parametrize("values", ["normal", "ties", "special"])
@pytest.mark.parametrize("case", _DENSE_SHAPES)
@np.errstate(invalid="ignore")  # inf * 0 in the special values' products
def test_dense_block_is_one_node_bitwise_equal_to_the_unfused_chain(case, values):
    rng = np.random.default_rng([len(case), len(values)])
    x, w, b, g = _dense_inputs(_DENSE_SHAPES[case], values, rng)
    if values != "normal":
        # the cases reach the leaky-relu's kink
        assert (ad.linear(x, w, b).data == 0.0).any()
    for slope in (0.01, 0.2):
        for watch_x in (True, False):
            _, want = _dense_values_and_grads(unfused_dense_block, x, w, b, g, slope, watch_x)
            nodes, got = _dense_values_and_grads(ad.dense_block, x, w, b, g, slope, watch_x)
            assert nodes == 1
            for a, c in zip(got, want):
                if c is None:
                    assert a is None
                else:
                    assert a.shape == c.shape and a.tobytes() == c.tobytes()
        # without a tape the op records nothing and gives the same values
        free = ad.dense_block(x, w, b, slope)
        assert free.node is None and free.data.tobytes() == want[0].tobytes()


def test_dense_block_argument_checks_are_the_chain_ops():
    x, w, b = np.ones((2, 3)), np.ones((4, 3)), np.ones(4)
    for args, error, message in [
        ((x, np.ones((4, 2)), b, 0.01), DimensionError, "linear inner dimensions differ"),
        ((x, np.ones(3), b, 0.01), DimensionError, "ndim >= 2"),
        ((x, w, np.ones(1), 0.01), DimensionError, "linear bias must be shaped"),
        ((x, np.ones((2, 4, 3)), b, 0.01), DimensionError, "linear bias must be shaped"),
        ((x, w, b, 0.0), ValueError, r"leaky_relu slope must be in \(0, 1\)"),
        ((x, w, b, 1.0), ValueError, r"leaky_relu slope must be in \(0, 1\)"),
        ((x, w, b, np.nan), ValueError, r"leaky_relu slope must be in \(0, 1\)"),
        # the affine checks run first, as in the chain
        ((x, np.ones((4, 2)), b, 1.0), DimensionError, "linear inner dimensions differ"),
    ]:
        with pytest.raises(error, match=message) as got:
            ad.dense_block(*args)
        with pytest.raises(error) as want:
            unfused_dense_block(*args)
        assert str(got.value) == str(want.value)


def test_dense_block_keeps_a_bool_mask_not_a_float_factor():
    rng = np.random.default_rng(45)
    tape = ad.Tape()
    x = rng.standard_normal((32, 50))
    w = tape.watch(rng.standard_normal((3, 128, 50)))
    b = tape.watch(rng.standard_normal((3, 128)))
    out = ad.dense_block(x, w, b, 0.01)
    cells = [c.cell_contents for c in tape._nodes[out.node].vjp.__closure__]
    arrays = [a for a in cells if isinstance(a, np.ndarray)]
    assert any(a.dtype == bool and a.shape == out.data.shape for a in arrays)
    assert not any(a.dtype.kind == "f" and a.size == out.data.size for a in arrays)


@settings(deadline=None, max_examples=30)
@given(
    batch=st.sampled_from([(), (2,)]),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    out=st.integers(1, 3),
    slope=st.sampled_from([0.01, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_block_vjp_matches_finite_differences(batch, n, k, out, slope, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(batch + (n, k))
    w = rng.standard_normal(batch + (out, k))
    b = rng.standard_normal(batch + (out,))
    g = rng.standard_normal(batch + (n, out))
    # every affine output clear of the kink, so that no step crosses it
    assume(np.abs(ad.linear(x, w, b).data).min() > 1e-2)

    def loss(x, w, b):
        return ad.reduce_sum(ad.mul(ad.dense_block(x, w, b, slope), g))

    check_op_grad(lambda t: loss(t, w, b), x)
    check_op_grad(lambda t: loss(x, t, b), w)
    check_op_grad(lambda t: loss(x, w, t), b)


def conv1d_loop_oracle(x, w, stride, padding, g):
    """conv1d output and the gradients of sum(out * g), by plain loops."""
    nb, c_in, length = x.shape
    c_out, _, width = w.shape
    xp = np.zeros((nb, c_in, length + 2 * padding))
    xp[:, :, padding : padding + length] = x
    out_len = (length + 2 * padding - width) // stride + 1
    out = np.zeros((nb, c_out, out_len))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for b in range(nb):
        for o in range(c_out):
            for j in range(out_len):
                for c in range(c_in):
                    for k in range(width):
                        i = j * stride + k
                        out[b, o, j] += w[o, c, k] * xp[b, c, i]
                        gw[o, c, k] += g[b, o, j] * xp[b, c, i]
                        gxp[b, c, i] += g[b, o, j] * w[o, c, k]
    return out, gxp[:, :, padding : padding + length], gw


@pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding",
    [
        ((1, 3, 9), (2, 3, 3), 1, 1),  # batch of one
        ((2, 1, 12), (4, 1, 3), 1, 1),  # one input channel
        ((2, 3, 17), (2, 3, 2), 3, 0),  # stride > width
        ((2, 2, 6), (3, 2, 3), 2, 4),  # padding >= width
    ],
)
def test_conv1d_matches_loop_oracle(x_shape, w_shape, stride, padding):
    rng = np.random.default_rng(sum(x_shape) + stride + padding)
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    out_len = (x_shape[-1] + 2 * padding - w_shape[2]) // stride + 1
    g = rng.standard_normal((x_shape[0], w_shape[0], out_len))
    want_out, want_gx, want_gw = conv1d_loop_oracle(x, w, stride, padding, g)

    tape = ad.Tape()
    xt, wt = tape.watch(x), tape.watch(w)
    out = ad.conv1d(xt, wt, stride=stride, padding=padding)
    grads = ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g))))
    np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[xt.node], want_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[wt.node], want_gw, rtol=0, atol=1e-12)


def test_max_pool1d_overlapping_windows_with_ties():
    # size 3, stride 1 windows: [1 5 5] [5 5 2] [5 2 5] [2 5 0]
    # first maxima at positions 1, 1, 2, 4
    x = np.array([[1.0, 5.0, 5.0, 2.0, 5.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    g = np.array([[1.0, 10.0, 100.0, 1000.0], [1.0, 2.0, 4.0, 8.0]])
    tape = ad.Tape()
    leaf = tape.watch(x[np.newaxis])
    out = ad.max_pool1d(leaf, size=3, stride=1)
    np.testing.assert_array_equal(out.data, [[[5.0] * 4, [0.0] * 4]])
    grad = ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g[np.newaxis]))))[leaf.node]
    # a position picked by several windows gets the sum of their gradients
    np.testing.assert_array_equal(
        grad[0],
        [[0.0, 11.0, 100.0, 0.0, 1000.0, 0.0], [1.0, 2.0, 4.0, 8.0, 0.0, 0.0]],
    )


def unfused_conv_block(x, w, stride, padding, slope, pool_size, pool_stride):
    """The conv1d -> leaky_relu -> max_pool1d chain that conv_block replaced."""
    h = ad.conv1d(x, w, stride=stride, padding=padding)
    return ad.max_pool1d(ad.leaky_relu(h, slope), pool_size, pool_stride)


def _block_values_and_grads(op, x, w, g, **kw):
    """The nodes ``op`` records, and its values and gradients of sum(out * g)."""
    tape = ad.Tape()
    xt, wt = tape.watch(x), tape.watch(w)
    out = op(xt, wt, **kw)
    grads = ad.backward(ad.reduce_sum(ad.mul(out, g)))
    return out.node - wt.node, (out.data, grads[xt.node], grads[wt.node])


# small integers make exact zeros and tied conv outputs common
_BLOCK_VALUES = np.array([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.5, np.nan])


@settings(deadline=None, max_examples=200)
@given(
    batch=st.integers(1, 2),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    length=st.integers(1, 10),
    width=st.integers(1, 4),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    pool_size=st.integers(1, 3),
    pool_stride=st.integers(1, 3),
    slope=st.sampled_from([0.01, 0.2]),
    values=st.sampled_from(["normal", "ties", "nan"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_block_is_one_node_bitwise_equal_to_the_unfused_chain(
    batch, c_in, c_out, length, width, stride, padding, pool_size, pool_stride, slope, values, seed
):
    conv_len = (length + 2 * padding - width) // stride + 1
    assume(length + 2 * padding >= width and conv_len >= pool_size)
    rng = np.random.default_rng(seed)
    if values == "normal":
        x = rng.standard_normal((batch, c_in, length))
        w = rng.standard_normal((c_out, c_in, width))
    else:
        palette = _BLOCK_VALUES if values == "nan" else _BLOCK_VALUES[:-1]
        x = rng.choice(palette, size=(batch, c_in, length))
        w = rng.choice(_BLOCK_VALUES[:-1], size=(c_out, c_in, width))
    n_out = (conv_len - pool_size) // pool_stride + 1
    g = rng.standard_normal((batch, c_out, n_out))
    kw = dict(
        stride=stride, padding=padding, slope=slope, pool_size=pool_size, pool_stride=pool_stride
    )
    _, want = _block_values_and_grads(unfused_conv_block, x, w, g, **kw)
    nodes, got = _block_values_and_grads(ad.conv_block, x, w, g, **kw)
    assert nodes == 1
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # without a tape the op records nothing and gives the same values
    free = ad.conv_block(ad.Tensor(x), ad.Tensor(w), **kw)
    assert free.node is None and free.data.tobytes() == want[0].tobytes()


def test_conv_block_argument_checks_name_the_chain_ops():
    x, w = ad.Tensor(np.ones((2, 3, 8))), ad.Tensor(np.ones((4, 3, 3)))
    kw = dict(stride=1, padding=1, slope=0.01, pool_size=2, pool_stride=2)
    for bad, error, message in [
        ({"stride": 0}, ValueError, "conv1d stride must be >= 1"),
        ({"padding": -1}, ValueError, "conv1d padding must be >= 0"),
        ({"slope": 1.0}, ValueError, r"leaky_relu slope must be in \(0, 1\)"),
        ({"pool_size": 0}, ValueError, "max_pool1d size must be >= 1"),
        ({"pool_stride": 0}, ValueError, "max_pool1d stride must be >= 1"),
        ({"pool_size": 9}, DimensionError, "max_pool1d window 9 exceeds length 8"),
    ]:
        with pytest.raises(error, match=message):
            ad.conv_block(x, w, **{**kw, **bad})
    with pytest.raises(DimensionError, match=r"conv1d expects \[batch, channels, length\]"):
        ad.conv_block(ad.Tensor(np.ones((3, 8))), w, **kw)
    with pytest.raises(DimensionError, match="conv1d channel mismatch"):
        ad.conv_block(ad.Tensor(np.ones((2, 2, 8))), w, **kw)
    with pytest.raises(DimensionError, match="conv1d window 3 exceeds padded length 2"):
        ad.conv_block(ad.Tensor(np.ones((2, 3, 2))), w, **{**kw, "padding": 0})


def conv_block_loop_oracle(x, w, stride, padding, slope, pool_size, pool_stride, g):
    """conv_block's output and the gradients of sum(out * g), by plain loops:
    conv1d_loop_oracle's conv, a loop leaky-relu and a pool loop that routes
    each window's gradient to its first maximum. Shares no code with autodiff."""
    nb, c_out = x.shape[0], w.shape[0]
    conv_len = (x.shape[2] + 2 * padding - w.shape[2]) // stride + 1
    z, _, _ = conv1d_loop_oracle(x, w, stride, padding, np.zeros((nb, c_out, conv_len)))
    n_out = (conv_len - pool_size) // pool_stride + 1
    out = np.zeros((nb, c_out, n_out))
    gz = np.zeros_like(z)
    for b in range(nb):
        for o in range(c_out):
            act = [v if v >= 0 else slope * v for v in z[b, o]]
            for j in range(n_out):
                best = j * pool_stride
                for i in range(best + 1, best + pool_size):
                    if act[i] > act[best]:
                        best = i
                out[b, o, j] = act[best]
                gz[b, o, best] += g[b, o, j] * (1.0 if z[b, o, best] >= 0 else slope)
    _, gx, gw = conv1d_loop_oracle(x, w, stride, padding, gz)
    return out, gx, gw


@pytest.mark.parametrize("values", ["normal", "ties"])
@pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding,pool_size,pool_stride",
    [
        ((1, 3, 9), (2, 3, 3), 1, 1, 3, 1),  # batch of one, overlapping windows
        ((2, 1, 14), (4, 1, 3), 1, 1, 2, 2),  # the model's first-layer layout
        ((2, 3, 17), (2, 3, 2), 3, 0, 2, 1),  # conv stride > width, overlapping windows
        ((2, 2, 6), (3, 2, 3), 2, 4, 4, 3),  # padding >= width, pool stride < size
    ],
)
def test_conv_block_matches_loop_oracle(
    x_shape, w_shape, stride, padding, pool_size, pool_stride, values
):
    rng = np.random.default_rng(sum(x_shape) + pool_size + len(values))
    if values == "normal":
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    else:
        palette = _BLOCK_VALUES[:-1]  # tied conv outputs, exact zeros and -0.0
        x, w = rng.choice(palette, size=x_shape), rng.choice(palette, size=w_shape)
    conv_len = (x_shape[-1] + 2 * padding - w_shape[2]) // stride + 1
    g = rng.standard_normal((x_shape[0], w_shape[0], (conv_len - pool_size) // pool_stride + 1))
    kw = dict(stride=stride, padding=padding, slope=0.2)
    want = conv_block_loop_oracle(x, w, **kw, pool_size=pool_size, pool_stride=pool_stride, g=g)
    _, got = _block_values_and_grads(
        ad.conv_block, x, w, g, **kw, pool_size=pool_size, pool_stride=pool_stride
    )
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def pool_loop_reference(x, size, stride):
    """Window maxima and offsets by a plain loop over windows: the offset is
    the first maximum before the window's first NaN, and a window holding NaN
    has a NaN maximum."""
    nb, nc, length = x.shape
    n_out = (length - size) // stride + 1
    out = np.empty((nb, nc, n_out))
    arg = np.empty((nb, nc, n_out), dtype=np.int64)
    for b in range(nb):
        for c in range(nc):
            for j in range(n_out):
                window = list(x[b, c, j * stride : j * stride + size])
                nans = [k for k, v in enumerate(window) if v != v]
                head = window[: nans[0]] if nans else window
                arg[b, c, j] = head.index(max(head)) if head else 0
                out[b, c, j] = np.nan if nans else max(head)
    return out, arg


@settings(deadline=None, max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 12)),
    size=st.integers(1, 4),
    stride=st.integers(1, 4),
    values=st.sampled_from(["normal", "ties", "nan"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pool_offsets_are_the_first_maximum_of_each_window(shape, size, stride, values, seed):
    assume(shape[2] >= size)
    rng = np.random.default_rng(seed)
    if values == "normal":
        x = rng.standard_normal(shape)
    else:
        x = rng.choice(_BLOCK_VALUES if values == "nan" else _BLOCK_VALUES[:-1], size=shape)
    out, arg = ad._pool(x, size, stride)
    want_out, want_arg = pool_loop_reference(x, size, stride)
    assert arg.dtype == np.uint8
    np.testing.assert_array_equal(arg, want_arg)
    np.testing.assert_array_equal(out, want_out)
    # the maxima alone, as a tape-free conv_block takes them, are the same bits
    free, none = ad._pool(x, size, stride, with_arg=False)
    assert none is None and free.tobytes() == out.tobytes()


# ---------------------------------------------------------------------------
# gradients vs central finite differences


@pytest.mark.parametrize("seed", range(5))
def test_grad_add_mul_sub_broadcast(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    c = rng.standard_normal(4)
    eye = np.eye(4)
    half = np.full(4, -0.5)
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.linear(t, eye, c), ad.linear(t, eye, half))), x)


@pytest.mark.parametrize("seed", range(5))
def test_grad_matmul_both_sides(seed):
    rng = np.random.default_rng(seed + 10)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    check_op_grad(lambda t: ad.reduce_sum(ad.matmul(t, ad.Tensor(b))), a)
    check_op_grad(lambda t: ad.reduce_sum(ad.matmul(ad.Tensor(a), t)), b)


def test_grad_matmul_batched_operand():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 5))
    check_op_grad(lambda t: ad.reduce_sum(ad.matmul(ad.Tensor(a), t)), b)
    check_op_grad(lambda t: ad.reduce_sum(ad.matmul(t, ad.Tensor(b))), a)


@pytest.mark.parametrize(
    "build",
    [
        lambda t: ad.reduce_sum(ad.leaky_relu(t, 0.01)),
        lambda t: ad.reduce_sum(ad.sigmoid_head(t, np.array([[0.5, -1.0, 2.0, 0.25]]))),
        lambda t: ad.reduce_sum(
            ad.mul(ad.softmax(t, axis=-1), ad.Tensor(np.arange(12.0).reshape(3, 4)))
        ),
        lambda t: ad.bce_loss(
            ad.sigmoid_head(ad.reshape(t, (12, 1)), np.ones((1, 1))), ad.Tensor(np.arange(12.0) % 2)
        ),
        lambda t: ad.reduce_sum(ad.mean(ad.mul(t, t), axis=1)),
        lambda t: ad.reduce_sum(ad.linear(t, np.arange(8.0).reshape(2, 4), np.array([1.0, -1.0]))),
        lambda t: ad.reduce_sum(ad.reshape(t, (4, 3))),
        lambda t: ad.reduce_sum(ad.mul(ad.mean(t, axis=0), np.arange(4.0))),
        lambda t: ad.reduce_sum(
            ad.mul(ad.linear(np.arange(20.0).reshape(5, 4) / 10, t), np.arange(3.0))
        ),
    ],
)
def test_grad_elementwise_and_shape_ops(build):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 4))
    check_op_grad(build, x)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_grad_conv1d(stride, padding):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 10))
    w = rng.standard_normal((4, 3, 3))
    check_op_grad(lambda t: ad.reduce_sum(ad.conv1d(t, ad.Tensor(w), stride, padding)), x)
    check_op_grad(lambda t: ad.reduce_sum(ad.conv1d(ad.Tensor(x), t, stride, padding)), w)


@pytest.mark.parametrize("size,stride", [(2, 2), (3, 1), (2, 3)])
def test_grad_max_pool1d(size, stride):
    rng = np.random.default_rng(13)
    # well-separated values keep finite differences away from tie flips
    x = rng.permutation(np.arange(2 * 2 * 9, dtype=np.float64)).reshape(2, 2, 9)
    check_op_grad(lambda t: ad.reduce_sum(ad.max_pool1d(t, size, stride)), x)


@pytest.mark.parametrize("seed", range(5))
def test_grad_bce_loss(seed):
    rng = np.random.default_rng(seed + 20)
    logits = rng.standard_normal(8)
    labels = (rng.random(8) < 0.5).astype(np.float64)
    check_op_grad(
        lambda t: ad.bce_loss(ad.sigmoid_head(ad.reshape(t, (8, 1)), np.ones((1, 1))), labels),
        logits,
    )


def test_grad_softmax_attention_stack():
    rng = np.random.default_rng(31)
    q = rng.standard_normal((2, 3, 4))
    k = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal((2, 3, 4))

    def build(t):
        scores = ad.mul(ad.linear(t, ad.Tensor(k)), 1.0 / 2.0)
        att = ad.matmul(ad.softmax(scores, axis=-1), ad.Tensor(v))
        return ad.reduce_sum(att)

    check_op_grad(build, q)


@settings(deadline=None, max_examples=40)
@given(
    batch=st.sampled_from([(), (2,)]),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    out=st.integers(1, 3),
    bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_and_sigmoid_head_vjps_match_finite_differences(batch, n, k, out, bias, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(batch + (n, k))
    w = rng.standard_normal((out, k))
    b = rng.standard_normal(out) if bias else None
    g = rng.standard_normal(batch + (n, out))
    # linear is linear in each input, so a wide step differences it exactly
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.linear(t, w, b), g)), x, step=1e-3)
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.linear(x, t, b), g)), w, step=1e-3)
    if bias:
        check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.linear(x, w, t), g)), b, step=1e-3)
    h, v, gh = x.reshape(-1, k), w[:1], g.reshape(-1, out)[:, 0]
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.sigmoid_head(t, v), gh)), h, step=1e-4)
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.sigmoid_head(h, t), gh)), v, step=1e-4)


@settings(deadline=None, max_examples=30)
@given(
    batch=st.integers(1, 2),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    length=st.integers(1, 9),
    width=st.integers(1, 4),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv1d_vjp_matches_finite_differences(
    batch, c_in, c_out, length, width, stride, padding, seed
):
    assume(length + 2 * padding >= width)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, c_in, length))
    w = rng.standard_normal((c_out, c_in, width))
    out_len = (length + 2 * padding - width) // stride + 1
    g = rng.standard_normal((batch, c_out, out_len))
    # conv1d is linear in each input, so a wide step differences it exactly
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.conv1d(t, w, stride, padding), g)), x, 1e-3)
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.conv1d(x, t, stride, padding), g)), w, 1e-3)


@pytest.mark.parametrize(
    "stride,padding,pool_size,pool_stride", [(1, 1, 2, 2), (2, 0, 3, 1), (1, 2, 2, 3)]
)
def test_grad_conv_block(stride, padding, pool_size, pool_stride):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 10))
    w = rng.standard_normal((4, 3, 3))
    kw = dict(
        stride=stride, padding=padding, slope=0.1, pool_size=pool_size, pool_stride=pool_stride
    )
    check_op_grad(lambda t: ad.reduce_sum(ad.conv_block(t, w, **kw)), x)
    check_op_grad(lambda t: ad.reduce_sum(ad.conv_block(x, t, **kw)), w)


@settings(deadline=None, max_examples=30)
@given(
    batch=st.integers(1, 2),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    length=st.integers(1, 9),
    width=st.integers(1, 4),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    pool_size=st.integers(1, 3),
    pool_stride=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_block_vjp_matches_finite_differences(
    batch, c_in, c_out, length, width, stride, padding, pool_size, pool_stride, seed
):
    conv_len = (length + 2 * padding - width) // stride + 1
    assume(length + 2 * padding >= width and conv_len >= pool_size)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, c_in, length))
    w = rng.standard_normal((c_out, c_in, width))
    # keep every conv output off the leaky-relu kink and every window's
    # maximum clear of its runner-up, so that no finite-difference step
    # crosses a kink or flips a maximum
    z = ad.conv1d(x, w, stride, padding).data
    assume(np.abs(z).min() > 1e-2)
    a = ad.leaky_relu(z, 0.1).data
    span = (conv_len - pool_size) // pool_stride * pool_stride + 1
    win = np.stack([a[:, :, k : k + span : pool_stride] for k in range(pool_size)], axis=-1)
    top2 = np.sort(win, axis=-1)[..., -2:]
    assume(pool_size == 1 or (top2[..., 1] - top2[..., 0]).min() > 1e-2)
    n_out = (conv_len - pool_size) // pool_stride + 1
    g = rng.standard_normal((batch, c_out, n_out))
    kw = dict(
        stride=stride, padding=padding, slope=0.1, pool_size=pool_size, pool_stride=pool_stride
    )
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.conv_block(t, w, **kw), g)), x)
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.conv_block(x, t, **kw), g)), w)


@settings(deadline=None, max_examples=30)
@given(
    shape=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 9)),
    size=st.integers(1, 4),
    stride=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_pool1d_vjp_matches_finite_differences(shape, size, stride, seed):
    assume(shape[2] >= size)
    rng = np.random.default_rng(seed)
    # distinct values a unit apart: a finite-difference step never flips a maximum
    x = rng.permutation(np.arange(math.prod(shape), dtype=np.float64)).reshape(shape)
    n_out = (shape[2] - size) // stride + 1
    g = rng.standard_normal(shape[:2] + (n_out,))
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.max_pool1d(t, size, stride), g)), x)


@settings(deadline=None, max_examples=30)
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    axis=st.integers(-3, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_softmax_vjp_matches_finite_differences(shape, axis, seed):
    assume(-len(shape) <= axis < len(shape))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    g = rng.standard_normal(shape)
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, axis=axis), g)), x)


@settings(deadline=None, max_examples=30)
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    slope=st.floats(0.01, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_leaky_relu_vjp_matches_finite_differences(shape, slope, seed):
    rng = np.random.default_rng(seed)
    # magnitudes of at least 0.1 keep every finite-difference step off the kink
    x = rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.1, 2.0, size=shape)
    g = rng.standard_normal(shape)
    check_op_grad(lambda t: ad.reduce_sum(ad.mul(ad.leaky_relu(t, slope), g)), x)


# ---------------------------------------------------------------------------
# tape mechanics


def test_watched_leaf_unreached_gets_zero_gradient():
    tape = ad.Tape()
    a = tape.watch(np.array([1.0, 2.0]))
    b = tape.watch(np.array([3.0, 4.0]))
    loss = ad.reduce_sum(ad.mul(a, a))
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads[b.node], [0.0, 0.0])
    np.testing.assert_allclose(grads[a.node], [2.0, 4.0])


def test_gradient_accumulates_across_reuse():
    tape = ad.Tape()
    a = tape.watch(np.array(3.0).reshape(()))
    # f = a*a*a  -> df/da = 3a^2 = 27, summed over three uses
    loss = ad.mul(ad.mul(a, a), a)
    g = ad.backward(loss)[a.node]
    assert float(g) == pytest.approx(27.0, abs=1e-12)


def test_backward_requires_scalar_and_tape():
    tape = ad.Tape()
    a = tape.watch(np.ones(3))
    with pytest.raises(DimensionError):
        ad.backward(ad.mul(a, 2.0))
    with pytest.raises(DimensionError):
        ad.backward(ad.mul(a, 2.0), np.ones(2))  # a [Λ] loss needs a [Λ] weight
    with pytest.raises(ValueError):
        ad.backward(ad.Tensor(1.0))


def test_tape_single_use():
    tape = ad.Tape()
    a = tape.watch(np.array(2.0).reshape(()))
    loss = ad.mul(a, a)
    ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.mul(a, a)


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.watch(np.ones(2))
    b = t2.watch(np.ones(2))
    with pytest.raises(ValueError):
        ad.mul(a, b)


def test_constants_do_not_record():
    out = ad.reduce_sum(ad.mul(ad.Tensor([1.0, 2.0]), 3.0))
    assert out.tape is None and out.node is None


def _conv_pool_probe(tape):
    """Record conv1d, max_pool1d and a dense layer; returns the layer's output
    and a weak reference to the pooled features, which only the dense
    layer's VJP keeps alive (it needs them for its weight gradient)."""
    rng = np.random.default_rng(41)
    x = tape.watch(rng.standard_normal((2, 3, 10)))
    w = tape.watch(rng.standard_normal((4, 3, 3)))
    v = tape.watch(rng.standard_normal((2, 5)))
    pooled = ad.max_pool1d(ad.conv1d(x, w, stride=1, padding=1), 2, 2)
    return ad.linear(pooled, v), weakref.ref(pooled.data)


def test_backward_releases_recorded_activations():
    tape = ad.Tape()
    pooled, probe = _conv_pool_probe(tape)
    loss = ad.reduce_sum(pooled)
    del pooled
    assert probe() is not None
    ad.backward(loss)
    # the loss still references the tape, but the tape holds no activations
    assert probe() is None


def test_max_pool1d_keeps_only_the_shape_of_its_input():
    tape = ad.Tape()
    x = tape.watch(np.random.default_rng(42).standard_normal((2, 3, 10)))
    h = ad.leaky_relu(x)
    probe = weakref.ref(h.data)
    pooled = ad.max_pool1d(h, 2, 2)
    del h
    # the pool's VJP needs the input's shape and size, not its values
    assert probe() is None
    grad = ad.backward(ad.reduce_sum(pooled))[x.node]
    assert grad.shape == (2, 3, 10) and np.count_nonzero(grad) == 2 * 3 * 5


def test_conv1d_keeps_only_the_shape_of_its_input():
    tape = ad.Tape()
    rng = np.random.default_rng(43)
    x = tape.watch(rng.standard_normal((2, 3, 10)))
    w = tape.watch(rng.standard_normal((4, 3, 3)))
    h = ad.leaky_relu(x)
    probe = weakref.ref(h.data)
    out = ad.conv1d(h, w, stride=1, padding=0)
    del h
    # at padding 0 the input is its own padded copy; the VJP needs its shape
    assert probe() is None
    grads = ad.backward(ad.reduce_sum(out))
    assert grads[x.node].shape == (2, 3, 10) and grads[w.node].shape == (4, 3, 3)


def test_conv_block_keeps_no_float_array_of_the_conv_output_size():
    rng = np.random.default_rng(44)
    nb, c_in, length, c_out, width = 4, 3, 40, 8, 3
    tape = ad.Tape()
    x = tape.watch(rng.standard_normal((nb, c_in, length)))
    w = tape.watch(rng.standard_normal((c_out, c_in, width)))
    out = ad.conv_block(x, w, stride=1, padding=1, slope=0.01, pool_size=2, pool_stride=2)
    conv_elems = nb * c_out * length
    cols_nbytes = nb * c_in * width * length * 8
    cells = [c.cell_contents for c in tape._nodes[out.node].vjp.__closure__]
    arrays = [a for a in cells if isinstance(a, np.ndarray)]
    # the input, the weight, a bool mask and a one-byte argmax; the backward
    # pass rebuilds the im2col columns block by block
    assert sum(a.nbytes for a in arrays) <= x.data.nbytes + w.data.nbytes + 2 * conv_elems
    assert all(a.nbytes < cols_nbytes for a in arrays)
    assert not any(a.dtype.kind == "f" and a.size == conv_elems for a in arrays)
    grads = ad.backward(ad.reduce_sum(out))
    assert grads[x.node].shape == x.data.shape and grads[w.node].shape == w.data.shape


def test_tape_free_conv_block_memory_follows_its_output():
    # the model's second layer at the panel size: without a tape the block's
    # temporaries stay within one block of rows, whatever the batch
    w = ad.Tensor(np.random.default_rng(45).standard_normal((32, 32, 3)))
    kw = dict(stride=1, padding=1, slope=0.01, pool_size=2, pool_stride=2)
    extra = {}
    for nb in (64, 256):
        x = ad.Tensor(np.random.default_rng(nb).standard_normal((nb, 32, 695)))
        tracemalloc.start()
        try:
            out = ad.conv_block(x, w, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.shape == (nb, 32, 347)
        extra[nb] = peak - out.data.nbytes
        del x, out
    # whole-batch im2col columns alone would grow it by 192 * 96 * 695 * 8 bytes
    assert extra[256] <= extra[64] + 64 * 1024
    assert extra[64] < 4 * ad._BLOCK_BYTES


def test_taped_conv_block_backward_memory_follows_one_block():
    # the same layer on a tape: beyond the input gradient and the rows'
    # [32, 96] weight products, the VJP's temporaries stay within one block
    w = np.random.default_rng(48).standard_normal((32, 32, 3))
    kw = dict(stride=1, padding=1, slope=0.01, pool_size=2, pool_stride=2)
    extra = {}
    for nb in (64, 256):
        tape = ad.Tape()
        x = tape.watch(np.random.default_rng(nb).standard_normal((nb, 32, 695)))
        out = ad.conv_block(x, tape.watch(w), **kw)
        vjp = tape._nodes[out.node].vjp
        g = np.ones(out.data.shape)
        tracemalloc.start()
        try:
            gx, gw = vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.shape == x.data.shape and gw.shape == w.shape
        extra[nb] = peak - gx.nbytes - nb * 32 * 96 * 8
        del tape, x, out, vjp, gx
    # a whole-batch pool gradient alone would grow it by 192 * 32 * 695 * 8 bytes
    assert abs(extra[256] - extra[64]) <= 64 * 1024
    assert extra[256] < 4 * ad._BLOCK_BYTES


@pytest.mark.parametrize("budget", [1, 2000, None], ids=["row", "rows", "default"])
def test_row_blocks_give_the_bits_of_one_block(monkeypatch, budget):
    # a batch split into blocks of rows gives conv_block the same values and
    # gradients as one block holding the whole batch, pools overlapping or not
    rng = np.random.default_rng(46)
    x = rng.choice(_BLOCK_VALUES[:-1], size=(7, 2, 11)) + rng.standard_normal((7, 2, 11))
    w = rng.standard_normal((3, 2, 3))
    for pool_size, pool_stride in [(3, 1), (2, 2)]:
        kw = dict(stride=1, padding=1, slope=0.2, pool_size=pool_size, pool_stride=pool_stride)
        n_out = (11 - pool_size) // pool_stride + 1
        g = rng.standard_normal((7, 3, n_out))

        def run():
            return _block_values_and_grads(ad.conv_block, x, w, g, **kw)[1]

        monkeypatch.setattr(ad, "_BLOCK_BYTES", 1 << 40)
        want = run()
        if budget is not None:
            monkeypatch.setattr(ad, "_BLOCK_BYTES", budget)
        else:
            monkeypatch.undo()
        for a, b in zip(run(), want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_empty_channel_axis_gives_empty_and_zero_gradients():
    # a row of no channels takes no bytes; the ops still return the empty
    # input gradient and a zero weight gradient
    x, w = np.ones((3, 0, 8)), np.ones((2, 0, 3))
    kw = dict(stride=1, padding=1, slope=0.2, pool_size=2, pool_stride=2)
    conv = _block_values_and_grads(ad.conv1d, x, w, np.ones((3, 2, 8)), padding=1)[1]
    block = _block_values_and_grads(ad.conv_block, x, w, np.ones((3, 2, 4)), **kw)[1]
    for out, gx, gw in (conv, block):
        assert gx.shape == x.shape and gw.shape == w.shape and not out.any()
    # no output channels: an empty output, a zero input gradient and an
    # empty weight gradient, with input channels or without
    for c_in in (2, 0):
        x, w = np.ones((3, c_in, 8)), np.ones((0, c_in, 3))
        conv = _block_values_and_grads(ad.conv1d, x, w, np.ones((3, 0, 8)), padding=1)[1]
        block = _block_values_and_grads(ad.conv_block, x, w, np.ones((3, 0, 4)), **kw)[1]
        free = ad.conv_block(ad.Tensor(x), ad.Tensor(w), **kw).data
        assert free.shape == block[0].shape == (3, 0, 4) and conv[0].shape == (3, 0, 8)
        for out, gx, gw in (conv, block):
            assert gx.shape == x.shape and not gx.any() and gw.shape == w.shape
            assert out.dtype == gx.dtype == gw.dtype == free.dtype == np.float64
    x = np.ones((3, 0, 8))
    tape = ad.Tape()
    leaf = tape.watch(x)
    pooled = ad.max_pool1d(leaf, 2, 2)
    assert pooled.data.shape == (3, 0, 4)
    # the VJP's own result, before backward casts it
    (routed,) = tape._nodes[pooled.node].vjp(np.ones((3, 0, 4)))
    assert routed.shape == x.shape and routed.dtype == np.float64
    assert ad.backward(ad.reduce_sum(pooled))[leaf.node].shape == x.shape


# a pool of two windows with stride one over the five conv outputs: 4 windows
_WIDE_POOL = dict(stride=1, padding=0, slope=0.2, pool_size=2, pool_stride=1)


def test_conv_weight_gradient_sums_rows_as_the_batched_product_does():
    # with a [1, 1, 1] weight each row's product is [1, 1], so numpy sums the
    # batch's products pairwise; a running sum over the rows rounds otherwise
    rng = np.random.default_rng(47)
    x = rng.standard_normal((64, 1, 5)) * 10.0 ** rng.integers(-8, 8, (64, 1, 5))
    w = np.array([[[0.5]]])
    g = rng.standard_normal((64, 1, 5))
    products = np.matmul(g, x.transpose(0, 2, 1))
    running = np.zeros((1, 1))
    for p in products:
        running += p
    want = products.sum(axis=0)
    assert running.tobytes() != want.tobytes()
    tape = ad.Tape()
    wt = tape.watch(w)
    out = ad.conv1d(ad.Tensor(x), wt)
    assert ad.backward(ad.reduce_sum(ad.mul(out, g)))[wt.node].tobytes() == want.tobytes()
    chain = _block_values_and_grads(unfused_conv_block, x, w, g[:, :, :4], **_WIDE_POOL)[1]
    block = _block_values_and_grads(ad.conv_block, x, w, g[:, :, :4], **_WIDE_POOL)[1]
    for a, b in zip(block, chain):
        assert a.tobytes() == b.tobytes()


def test_dropped_tape_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        tape = ad.Tape()
        pooled, probe = _conv_pool_probe(tape)
        del tape, pooled
        # no VJP closure refers back to its tape, so reference counting alone
        # frees a tape that never ran backward
        assert probe() is None
    finally:
        gc.enable()


def _watched(tape, *shape):
    return tape.watch(np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape))


# one call per recording op on watched leaves
_OP_CALLS = {
    "mul": lambda t: ad.mul(_watched(t, 2, 3), _watched(t, 3)),
    "matmul": lambda t: ad.matmul(_watched(t, 2, 3), _watched(t, 3, 4)),
    "linear": lambda t: ad.linear(
        ad.linear(_watched(t, 2, 3), _watched(t, 4, 3)), _watched(t, 5, 4), _watched(t, 5)
    ),
    "reshape": lambda t: ad.reshape(_watched(t, 2, 3), (3, 2)),
    "mean": lambda t: ad.mean(_watched(t, 2, 3), axis=-1),
    "reduce_sum": lambda t: ad.reduce_sum(_watched(t, 2, 3)),
    "leaky_relu": lambda t: ad.leaky_relu(_watched(t, 2, 3)),
    "dense_block": lambda t: ad.dense_block(
        _watched(t, 2, 3), _watched(t, 4, 3), _watched(t, 4), slope=0.01
    ),
    "sigmoid_head": lambda t: ad.sigmoid_head(_watched(t, 2, 3), _watched(t, 1, 3)),
    "softmax": lambda t: ad.softmax(_watched(t, 2, 3)),
    "conv1d": lambda t: ad.conv1d(_watched(t, 2, 3, 8), _watched(t, 4, 3, 3), padding=1),
    "max_pool1d": lambda t: ad.max_pool1d(_watched(t, 2, 3, 8), 2, 2),
    "conv_block": lambda t: ad.conv_block(
        _watched(t, 2, 3, 8),
        _watched(t, 4, 3, 3),
        stride=1,
        padding=1,
        slope=0.01,
        pool_size=2,
        pool_stride=2,
    ),
    "bce_loss": lambda t: ad.bce_loss(_watched(t, 4), np.array([0.0, 1.0, 1.0, 0.0])),
}


@pytest.mark.parametrize(
    "name", [n for n in ad.__all__ if n not in ("Tensor", "Tape", "backward")]
)
def test_no_op_keeps_its_tape_alive(name):
    record = _OP_CALLS[name]
    gc.collect()
    gc.disable()
    try:
        tape = ad.Tape()
        out = record(tape)
        assert out.node is not None
        del tape, out
        # a VJP closure that held a Tensor would close a tape -> node ->
        # closure -> tensor -> tape cycle, left for the collector to find
        assert gc.collect() == 0
    finally:
        gc.enable()
