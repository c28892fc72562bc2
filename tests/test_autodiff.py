"""Tape engine: forward values against numpy, gradients against finite differences."""

import gc
import math
import weakref

import numpy as np
import pytest

from metagx import autodiff as ad
from metagx.errors import DimensionError

from conftest import max_rel_err, numeric_grad

GRAD_TOL = 1e-4


def tape_grad(build, x):
    """Gradient of ``build(leaf_tensor)`` at x via one tape backward pass."""
    tape = ad.Tape()
    leaf = tape.watch(x)
    loss = build(leaf)
    return ad.backward(loss)[leaf.node].data


def check_op_grad(build, x, step=1e-5):
    got = tape_grad(build, x)
    want = numeric_grad(lambda a: build(ad.Tensor(a.copy())).item(), np.array(x), step=step)
    assert max_rel_err(got, want) < GRAD_TOL


# ---------------------------------------------------------------------------
# forward values


def test_add_mul_forward_and_broadcast():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([10.0, 20.0])
    np.testing.assert_array_equal(ad.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])
    np.testing.assert_array_equal(ad.mul(a, 2.0).data, [[2.0, 4.0], [6.0, 8.0]])
    np.testing.assert_array_equal(ad.mul(a, b).data, [[10.0, 40.0], [30.0, 80.0]])
    np.testing.assert_array_equal(ad.add(1.0, b).data, [11.0, 21.0])


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
    grad = tape_grad(lambda t: ad.mean(ad.leaky_relu(t, 0.2)), np.array([0.0, -0.0, -1.0, 2.0]))
    np.testing.assert_array_equal(grad * 4, [1.0, 1.0, 0.2, 1.0])


def test_leaky_relu_tape_free_forward_equals_taped_bitwise():
    tiny = np.nextafter(0.0, 1.0)
    special = [-0.0, 0.0, tiny, -tiny, 1e308, -1e308, np.inf, -np.inf, np.nan]
    x = np.concatenate([special, np.random.default_rng(0).standard_normal(1000)])
    for slope in (0.01, 0.2, 1.0 - 2.0**-52):
        free = ad.leaky_relu(ad.Tensor(x), slope).data
        taped = ad.leaky_relu(ad.Tape().watch(x), slope).data
        assert free.tobytes() == taped.tobytes()


def test_sigmoid_extremes_stay_finite_and_ordered():
    y = ad.sigmoid(ad.Tensor([-50.0, 0.0, 50.0])).data
    assert 0.0 <= y[0] < 1e-20
    assert y[1] == 0.5
    assert y[2] <= 1.0 and 1.0 - y[2] < 1e-20
    assert np.all(np.isfinite(ad.sigmoid(ad.Tensor([-1e6, 1e6])).data))


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
    g = ad.backward(loss)[leaf.node].data
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
    grad = ad.backward(loss if upstream == 1.0 else ad.mul(loss, upstream))[leaf.node].data
    assert grad.tobytes() == want_grad.tobytes()


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
    np.testing.assert_allclose(grads[xt.node].data, want_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[wt.node].data, want_gw, rtol=0, atol=1e-12)


def test_max_pool1d_overlapping_windows_with_ties():
    # size 3, stride 1 windows: [1 5 5] [5 5 2] [5 2 5] [2 5 0]
    # first maxima at positions 1, 1, 2, 4
    x = np.array([[1.0, 5.0, 5.0, 2.0, 5.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    g = np.array([[1.0, 10.0, 100.0, 1000.0], [1.0, 2.0, 4.0, 8.0]])
    tape = ad.Tape()
    leaf = tape.watch(x[np.newaxis])
    out = ad.max_pool1d(leaf, size=3, stride=1)
    np.testing.assert_array_equal(out.data, [[[5.0] * 4, [0.0] * 4]])
    grad = ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g[np.newaxis]))))[leaf.node].data
    # a position picked by several windows gets the sum of their gradients
    np.testing.assert_array_equal(
        grad[0],
        [[0.0, 11.0, 100.0, 0.0, 1000.0, 0.0], [1.0, 2.0, 4.0, 8.0, 0.0, 0.0]],
    )


# ---------------------------------------------------------------------------
# gradients vs central finite differences


@pytest.mark.parametrize("seed", range(5))
def test_grad_add_mul_sub_broadcast(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    c = rng.standard_normal(4)
    check_op_grad(lambda t: ad.mean(ad.mul(ad.add(t, ad.Tensor(c)), ad.add(t, -0.5))), x)


@pytest.mark.parametrize("seed", range(5))
def test_grad_matmul_both_sides(seed):
    rng = np.random.default_rng(seed + 10)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    check_op_grad(lambda t: ad.mean(ad.matmul(t, ad.Tensor(b))), a)
    check_op_grad(lambda t: ad.mean(ad.matmul(ad.Tensor(a), t)), b)


def test_grad_matmul_batched_operand():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 5))
    check_op_grad(lambda t: ad.mean(ad.matmul(ad.Tensor(a), t)), b)
    check_op_grad(lambda t: ad.mean(ad.matmul(t, ad.Tensor(b))), a)


@pytest.mark.parametrize(
    "build",
    [
        lambda t: ad.mean(ad.leaky_relu(t, 0.01)),
        lambda t: ad.mean(ad.sigmoid(t)),
        lambda t: ad.mean(ad.mul(ad.softmax(t, axis=-1), ad.Tensor(np.arange(12.0).reshape(3, 4)))),
        lambda t: ad.bce_loss(ad.sigmoid(ad.reshape(t, (12,))), ad.Tensor(np.arange(12.0) % 2)),
        lambda t: ad.mean(ad.reduce_sum(ad.mul(t, t), axis=1)),
        lambda t: ad.mean(ad.transpose(t)),
        lambda t: ad.mean(ad.reshape(t, (4, 3))),
        lambda t: ad.mean(ad.pad_last(t, 3)),
        lambda t: ad.mean(ad.mul(ad.clamp(t, -0.5, 0.5), ad.Tensor(np.ones((3, 4))))),
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
    check_op_grad(lambda t: ad.mean(ad.conv1d(t, ad.Tensor(w), stride, padding)), x)
    check_op_grad(lambda t: ad.mean(ad.conv1d(ad.Tensor(x), t, stride, padding)), w)


@pytest.mark.parametrize("size,stride", [(2, 2), (3, 1), (2, 3)])
def test_grad_max_pool1d(size, stride):
    rng = np.random.default_rng(13)
    # well-separated values keep finite differences away from tie flips
    x = rng.permutation(np.arange(2 * 2 * 9, dtype=np.float64)).reshape(2, 2, 9)
    check_op_grad(lambda t: ad.mean(ad.max_pool1d(t, size, stride)), x)


@pytest.mark.parametrize("seed", range(5))
def test_grad_bce_loss(seed):
    rng = np.random.default_rng(seed + 20)
    logits = rng.standard_normal(8)
    labels = (rng.random(8) < 0.5).astype(np.float64)
    check_op_grad(lambda t: ad.bce_loss(ad.sigmoid(t), ad.Tensor(labels)), logits)


def test_grad_softmax_attention_stack():
    rng = np.random.default_rng(31)
    q = rng.standard_normal((2, 3, 4))
    k = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal((2, 3, 4))

    def build(t):
        scores = ad.mul(ad.matmul(t, ad.transpose(ad.Tensor(k))), 1.0 / 2.0)
        att = ad.matmul(ad.softmax(scores, axis=-1), ad.Tensor(v))
        return ad.mean(att)

    check_op_grad(build, q)


# ---------------------------------------------------------------------------
# tape mechanics


def test_watched_leaf_unreached_gets_zero_gradient():
    tape = ad.Tape()
    a = tape.watch(np.array([1.0, 2.0]))
    b = tape.watch(np.array([3.0, 4.0]))
    loss = ad.mean(ad.mul(a, a))
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads[b.node].data, [0.0, 0.0])
    np.testing.assert_allclose(grads[a.node].data, [1.0, 2.0])


def test_gradient_accumulates_across_reuse():
    tape = ad.Tape()
    a = tape.watch(np.array(3.0).reshape(()))
    # f = a*a + 2a  -> df/da = 2a + 2 = 8
    loss = ad.add(ad.mul(a, a), ad.mul(a, 2.0))
    g = ad.backward(loss)[a.node].data
    assert float(g) == pytest.approx(8.0, abs=1e-12)


def test_backward_requires_scalar_and_tape():
    tape = ad.Tape()
    a = tape.watch(np.ones(3))
    with pytest.raises(DimensionError):
        ad.backward(ad.mul(a, 2.0))
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
        ad.add(a, b)


def test_constants_do_not_record():
    out = ad.mean(ad.mul(ad.Tensor([1.0, 2.0]), 3.0))
    assert out.tape is None and out.node is None


def _conv_pool_probe(tape):
    """Record conv1d then max_pool1d; returns the pooled tensor and a weak
    reference to the conv output, which only the pool's VJP keeps alive."""
    rng = np.random.default_rng(41)
    x = tape.watch(rng.standard_normal((2, 3, 10)))
    w = tape.watch(rng.standard_normal((4, 3, 3)))
    h = ad.conv1d(x, w, stride=1, padding=1)
    return ad.max_pool1d(h, 2, 2), weakref.ref(h.data)


def test_backward_releases_recorded_activations():
    tape = ad.Tape()
    pooled, probe = _conv_pool_probe(tape)
    loss = ad.mean(pooled)
    del pooled
    assert probe() is not None
    ad.backward(loss)
    # the loss still references the tape, but the tape holds no activations
    assert probe() is None


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


# one call per recording op on watched leaves; the reductions chain their
# axis and whole-array forms
_OP_CALLS = {
    "add": lambda t: ad.add(_watched(t, 2, 3), _watched(t, 3)),
    "mul": lambda t: ad.mul(_watched(t, 2, 3), _watched(t, 3)),
    "matmul": lambda t: ad.matmul(_watched(t, 2, 3), _watched(t, 3, 4)),
    "transpose": lambda t: ad.transpose(_watched(t, 2, 3)),
    "reshape": lambda t: ad.reshape(_watched(t, 2, 3), (3, 2)),
    "pad_last": lambda t: ad.pad_last(_watched(t, 2, 3), 2),
    "mean": lambda t: ad.mean(ad.mean(_watched(t, 2, 3), axis=0)),
    "reduce_sum": lambda t: ad.reduce_sum(ad.reduce_sum(_watched(t, 2, 3), axis=1)),
    "clamp": lambda t: ad.clamp(_watched(t, 2, 3), 0.2, 0.8),
    "leaky_relu": lambda t: ad.leaky_relu(_watched(t, 2, 3)),
    "sigmoid": lambda t: ad.sigmoid(_watched(t, 2, 3)),
    "softmax": lambda t: ad.softmax(_watched(t, 2, 3)),
    "conv1d": lambda t: ad.conv1d(_watched(t, 2, 3, 8), _watched(t, 4, 3, 3), padding=1),
    "max_pool1d": lambda t: ad.max_pool1d(_watched(t, 2, 3, 8), 2, 2),
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
