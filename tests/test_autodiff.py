"""Finite-difference validation of every autodiff primitive and fused node,
in float64, and the contracts every node keeps."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sowa
from sowa import autodiff as ag
from sowa import training
from sowa.errors import UsageError


def _fd_check(build, shapes, seed=0, step=1e-6, tol=1e-6):
    """Compare analytic gradients of a scalar graph against central differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    leaves = [ag.Var(a.copy(), requires_grad=True) for a in arrays]
    out = build(*leaves)
    out.backward()
    for leaf, base in zip(leaves, arrays):
        flat = leaf.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = float(build(*leaves).data)
            flat[idx] = orig - step
            lo = float(build(*leaves).data)
            flat[idx] = orig
            fd = (hi - lo) / (2 * step)
            an = float(leaf.grad.reshape(-1)[idx])
            assert abs(an - fd) <= tol * max(1.0, abs(fd)), (an, fd)


def test_add_mul_broadcast():
    _fd_check(lambda a, b: ag.sum_(ag.mul(ag.add(a, b), a)), [(3, 4), (4,)])


def test_matmul_2d():
    _fd_check(lambda a, b: ag.sum_(ag.matmul(a, b)), [(3, 4), (4, 2)])


def test_matmul_stacked():
    _fd_check(lambda a, b: ag.sum_(ag.matmul(a, b)), [(2, 3, 4), (2, 4, 3)])


@pytest.mark.parametrize("shapes", [((4,), (4, 3)), ((3, 4), (4,)), ((4,), (4,))])
def test_matmul_rejects_a_vector_var(shapes):
    a, b = (np.ones(shape) for shape in shapes)
    with pytest.raises(UsageError, match="rank >= 2"):
        ag.matmul(ag.Var(a, requires_grad=True), b)
    with pytest.raises(UsageError, match="rank >= 2"):
        ag.matmul(a, ag.Var(b))
    np.testing.assert_array_equal(ag.matmul(a, b), a @ b)  # plain arrays stay numpy's


def test_reductions():
    _fd_check(lambda a: ag.sum_(ag.mul(ag.sum_(a, axis=0, keepdims=True), a)), [(3, 4)])
    _fd_check(lambda a: ag.mean(ag.mul(a, a)), [(2, 5)])
    _fd_check(lambda a: ag.sum_(ag.mean(a, axis=1)), [(3, 4)])


@pytest.mark.parametrize("call", [
    lambda: ag.mean(np.zeros((0,), np.float32)),
    lambda: ag.mean(ag.Var(np.zeros(0))),
    lambda: ag.mean(np.zeros((3, 0)), axis=-1),
    lambda: ag.layer_norm(np.zeros((3, 0))),
    lambda: ag.layer_norm(ag.Var(np.zeros((3, 0)))),
])
def test_mean_of_nothing_is_a_usage_error(call):
    with pytest.raises(UsageError, match="mean over no elements"):
        call()


def test_shape_ops():
    _fd_check(lambda a: ag.sum_(ag.mul(ag.reshape(a, (6,)), 2.0)), [(2, 3)])
    _fd_check(lambda a: ag.sum_(ag.mul(ag.transpose(a, (1, 0, 2)), 1.5)), [(2, 3, 4)])
    _fd_check(lambda a, b: ag.sum_(ag.mul(ag.concat([a, b], axis=0), 1.0)), [(2, 3), (4, 3)])


def test_take():
    _fd_check(lambda a: ag.sum_(ag.mul(a[1], 3.0)), [(4, 3)])
    _fd_check(lambda a: ag.sum_(a[:, 1]), [(4, 3)])


def test_softmax_last_and_norm():
    _fd_check(lambda a: ag.sum_(ag.mul(ag.softmax_last(a), np.arange(4.0))), [(3, 4)])
    _fd_check(lambda a: ag.sum_(ag.mul(ag.l2_normalize_rows(a), 1.0)), [(3, 4)])


def test_gelu_layer_norm():
    _fd_check(lambda a: ag.sum_(ag.gelu(a)), [(3, 4)])
    _fd_check(lambda a: ag.sum_(ag.mul(ag.layer_norm(a), np.arange(6.0))), [(2, 6)])


def test_gelu_matches_power_formula():
    x = np.linspace(-6.0, 6.0, 121)
    c = np.sqrt(2.0 / np.pi)
    expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
    np.testing.assert_allclose(ag.gelu(x), expected, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(ag.gelu(ag.Var(x, requires_grad=True)).data, ag.gelu(x), atol=0)


def _einsum_attention(x, w_q, w_k, w_v, w_o, heads, mode):
    """Reference: the head-split einsum formula the shared attention replaced."""
    b, n, c = x.shape
    dh = c // heads
    v = (x @ w_v).reshape(b, n, heads, dh)
    if mode == "vv":
        q = k = v
    else:
        q = (x @ w_q).reshape(b, n, heads, dh)
        k = (x @ w_k).reshape(b, n, heads, dh)
    scores = np.einsum("bihd,bjhd->bhij", q, k) / np.sqrt(dh)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = np.einsum("bhij,bjhd->bihd", attn, v).reshape(b, n, c) @ w_o
    return out


@pytest.mark.parametrize("mode", ["vv", "qkv"])
@pytest.mark.parametrize("shape", [(1, 5, 8), (3, 5, 8)])
def test_attention_matches_einsum_reference(mode, shape):
    rng = np.random.default_rng(3)
    x = rng.normal(size=shape)
    mats = [rng.normal(0.0, 8**-0.5, size=(8, 8)) for _ in range(4)]
    out = ag.attention(x, *mats, 2, mode)
    assert isinstance(out, np.ndarray) and out.shape == shape
    np.testing.assert_allclose(out, _einsum_attention(x, *mats, 2, mode), atol=1e-12)
    graph = ag.attention(ag.Var(x, requires_grad=True), *mats, 2, mode)
    np.testing.assert_allclose(graph.data, out, atol=1e-12)


def test_attention_gradients():
    probe = np.random.default_rng(4).normal(size=(2, 3, 4))
    mats = [np.random.default_rng(9 + i).normal(size=(4, 4)) for i in range(4)]
    for mode in ("qkv", "vv"):  # vv mode never reads W_q or W_k
        _fd_check(lambda x: ag.sum_(ag.mul(ag.attention(x, *mats, 2, mode), probe)), [(2, 3, 4)])


@pytest.mark.parametrize("which", range(4))
def test_attention_weights_that_are_vars_are_a_usage_error(which):
    """Nothing trains an attention weight (backbone, adapter and text encoder
    are frozen), so the node has no weight gradient and refuses a Var."""
    mats = [np.eye(4) for _ in range(4)]
    mats[which] = ag.Var(mats[which], requires_grad=True)
    with pytest.raises(UsageError, match="frozen constants"):
        ag.attention(ag.Var(np.ones((1, 3, 4)), requires_grad=True), *mats, 2, "qkv")


@pytest.mark.parametrize("mode", ["vv", "qkv"])
def test_attention_at_the_paper_like_shape_matches_the_einsum_reference(mode):
    # 224 px: one image of 1 + 16 x 16 tokens, 64 channels in 4 heads
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 257, 64))
    mats = [rng.normal(0.0, 64**-0.5, size=(64, 64)) for _ in range(4)]
    np.testing.assert_allclose(ag.attention(x, *mats, 4, mode),
                               _einsum_attention(x, *mats, 4, mode), rtol=0, atol=1e-12)


def _window_stack(rng, c=8):
    """A (B, STAGES, windows, 16, C) stack of 4 x 4 windows, as the adapter
    attends, and (STAGES, 1, C, C) weights with the adapter's window axis."""
    x = rng.normal(size=(2, 4, 3, 16, c))
    mats = [rng.normal(0.0, c**-0.5, size=(4, 1, c, c)) for _ in range(4)]
    return x, mats


@pytest.mark.parametrize("mode", ["vv", "qkv"])
def test_attention_at_the_window_shape_matches_the_einsum_reference(mode):
    x, mats = _window_stack(np.random.default_rng(12))
    out = ag.attention(x, *mats, 2, mode)
    for stage in range(4):
        want = _einsum_attention(x[:, stage].reshape(-1, 16, 8), *(m[stage, 0] for m in mats),
                                 2, mode)
        np.testing.assert_allclose(out[:, stage], want.reshape(2, 3, 16, 8), rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["vv", "qkv"])
def test_attention_gradient_at_the_window_shape(mode):
    rng = np.random.default_rng(13)
    _, mats = _window_stack(rng)
    probe = rng.normal(size=(2, 4, 3, 16, 8))
    _fd_check(lambda x: ag.sum_(ag.mul(ag.attention(x, *mats, 2, mode), probe)),
              [(2, 4, 3, 16, 8)], seed=14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["vv", "qkv"])
def test_a_stage_stack_attends_as_each_stage_alone(mode, dtype):
    """(B, W, STAGES, N, C) token sets against (STAGES, C, C) weights: each
    stage's sets are the same bits as their own call on that stage's weights."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4, 5, 8)).astype(dtype)
    mats = [rng.normal(0.0, 8**-0.5, size=(4, 8, 8)).astype(dtype) for _ in range(4)]
    out = ag.attention(x, *mats, 2, mode)
    assert out.shape == x.shape and out.dtype == dtype
    for stage in range(4):
        alone = ag.attention(x[:, :, stage].reshape(-1, 5, 8), *(m[stage] for m in mats), 2, mode)
        np.testing.assert_array_equal(out[:, :, stage], alone.reshape(2, 3, 5, 8))


def test_attention_rejects_bad_input():
    w = np.eye(4)
    with pytest.raises(UsageError):
        ag.attention(np.ones((1, 3, 4)), w, w, w, w, 2, "vq")
    with pytest.raises(UsageError, match="stack"):
        ag.attention(np.ones((3, 4)), w, w, w, w, 2, "vv")
    with pytest.raises(UsageError, match="width 5"):
        ag.attention(np.ones((1, 3, 5)), w, w, w, w, 2, "vv")
    with pytest.raises(UsageError, match="3 heads"):
        ag.attention(np.ones((1, 3, 4)), w, w, w, w, 3, "qkv")


def test_every_module_imports_first():
    """config -> backbone -> autodiff: no import order may close that cycle."""
    code = (
        "import importlib, pkgutil, sys, sowa\n"
        "for info in pkgutil.iter_modules(sowa.__path__):\n"
        "    for key in [k for k in sys.modules if k.startswith('sowa')]:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module('sowa.' + info.name)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sowa.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_numpy_branch_matches_var_branch():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    var_out = ag.softmax_last(ag.Var(x, requires_grad=True)).data
    np.testing.assert_allclose(ag.softmax_last(x), var_out, atol=1e-12)
    var_norm = ag.l2_normalize_rows(ag.Var(x, requires_grad=True)).data
    np.testing.assert_allclose(ag.l2_normalize_rows(x), var_norm, atol=1e-12)


def _read_only(rng, shape, dtype, scale=1.0):
    arr = (rng.normal(size=shape) * scale).astype(dtype)
    arr.setflags(write=False)
    return arr


# return a view of their input, as numpy's reshape and transpose do
_VIEW_OPS = ("reshape", "transpose")


def _every_op(rng, dtype, width):
    """(name, op, inputs) for every primitive and every composite formula;
    inputs are read-only."""
    mats = [_read_only(rng, (width, width), dtype, width**-0.5) for _ in range(4)]

    def rows(scale=1.0):
        return _read_only(rng, (5, width), dtype, scale)

    # a map at the clamp's edges, and one sample's mask empty
    probs = rng.uniform(0.0, 1.0, size=(3, 4, width)).astype(dtype)
    probs[0, 0, :3] = 0.0, 1.0, training.PRED_CLAMP
    mask = (rng.uniform(size=probs.shape) < 0.3).astype(dtype)
    mask[1] = 0.0
    # scores at and beyond the clamp's edges, against both labels
    scores = np.array([0.0, 1.0, training.PRED_CLAMP, 0.2, 0.5, 0.9], dtype=dtype)
    labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0], dtype=dtype)
    for arr in (probs, mask, scores, labels):
        arr.setflags(write=False)

    return [
        ("add", ag.add, [rows(), _read_only(rng, (width,), dtype)]),
        ("mul", ag.mul, [rows(), _read_only(rng, (width,), dtype)]),
        ("matmul", ag.matmul, [rows(), mats[0]]),
        ("sum_", lambda x: ag.sum_(x, axis=-1), [rows()]),
        ("mean", lambda x: ag.mean(x, axis=-1), [rows()]),
        ("reshape", lambda x: ag.reshape(x, (width, 5)), [rows()]),
        ("transpose", lambda x: ag.transpose(x, (1, 0)), [rows()]),
        ("take", lambda x: ag.take(x, (slice(None), [0, 2, 2])), [rows()]),
        ("concat", lambda a, b: ag.concat([a, b], axis=0), [rows(), rows()]),
        ("l2_normalize_rows", ag.l2_normalize_rows, [rows()]),
        ("softmax_last", ag.softmax_last, [_read_only(rng, (3, 7, width), dtype, 4.0)]),
        ("gelu", ag.gelu, [rows(3.0)]),
        ("layer_norm", ag.layer_norm, [rows(2.0)]),
        ("attention_vv", lambda x, *w: ag.attention(x, *w, 4, "vv"),
         [_read_only(rng, (2, 9, width), dtype)] + mats),
        ("attention_qkv", lambda x, *w: ag.attention(x, *w, 4, "qkv"),
         [_read_only(rng, (2, 9, width), dtype)] + mats),
        ("dice_loss", training.dice_loss, [probs, mask]),
        ("focal_loss", training.focal_loss, [probs, mask]),
        ("bce_loss", training.bce_loss, [scores, labels]),
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [48, 64])
def test_array_branches_equal_their_var_branches_bit_for_bit(dtype, width):
    # a width of 48 has no exact reciprocal, so a mean must be the sum * (1 / width) in both
    for name, op, inputs in _every_op(np.random.default_rng(width), dtype, width):
        plain = op(*inputs)
        graph = op(ag.Var(inputs[0], requires_grad=True), *inputs[1:])
        assert isinstance(plain, (np.ndarray, np.generic)) and plain.dtype == dtype, name
        np.testing.assert_allclose(plain, graph.data, rtol=0, atol=0, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_array_branches_never_write_into_their_inputs(dtype):
    # every input is read-only, so a write into one would raise
    for name, op, inputs in _every_op(np.random.default_rng(5), dtype, 16):
        before = [arr.tobytes() for arr in inputs]
        out = op(*inputs)
        assert all(out is not arr for arr in inputs), name
        if name not in _VIEW_OPS:
            assert not any(np.shares_memory(out, arr) for arr in inputs), name
        assert [arr.tobytes() for arr in inputs] == before, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_rule_writes_into_the_gradient_it_is_given(dtype):
    # the gradient is read-only, so a rule writing into it would raise
    for name, op, inputs in _every_op(np.random.default_rng(6), dtype, 16):
        out = op(ag.Var(inputs[0], requires_grad=True), *inputs[1:])
        g = np.random.default_rng(7).normal(size=out.shape).astype(dtype)
        g.setflags(write=False)
        before = g.tobytes()
        out._backward(g)
        assert g.tobytes() == before, name


def _fd_gradient(f, x, step, one_sided=()):
    """Differences of the scalar ``f`` at every coordinate of ``x``: central,
    or towards one side only at the ``one_sided`` (index, +1 or -1) pairs,
    each over the step as rounded (near 1 it is not ``step``)."""
    sides = dict(one_sided)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[idx] += step if sides.get(idx) != -1 else 0.0
        lo[idx] -= step if sides.get(idx) != 1 else 0.0
        grad[idx] = (float(f(hi)) - float(f(lo))) / (hi[idx] - lo[idx])
    return grad


def _analytic_gradient(f, x):
    leaf = ag.Var(x.copy(), requires_grad=True)
    f(leaf).backward()
    return leaf.grad


def test_l2_normalize_rows_gradient_on_both_sides_of_the_eps_clamp():
    # with eps 0.5: two rows above it, one of norm 0.1 and a zero row clamped
    rng = np.random.default_rng(20)
    x = np.concatenate([rng.normal(size=(2, 5)), [[0.06, -0.08, 0.0, 0.0, 0.0]], np.zeros((1, 5))])
    probe = rng.normal(size=x.shape)
    f = lambda a: ag.sum_(ag.mul(ag.l2_normalize_rows(a, 0.5), probe))
    np.testing.assert_allclose(_analytic_gradient(f, x), _fd_gradient(f, x, 1e-6),
                               rtol=1e-7, atol=1e-9)
    # at the default eps a zero row's gradient is the probe over eps, exactly
    f = lambda a: ag.sum_(ag.mul(ag.l2_normalize_rows(a), probe))
    np.testing.assert_array_equal(_analytic_gradient(f, x)[3], probe[3] / 1e-12)


def test_softmax_gradient_on_shifted_rows():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 6)) + np.array([[0.0], [1e3], [-50.0], [7.0]])
    probe = rng.normal(size=x.shape)
    f = lambda a: ag.sum_(ag.mul(ag.softmax_last(a), probe))
    np.testing.assert_allclose(_analytic_gradient(f, x), _fd_gradient(f, x, 1e-6),
                               rtol=1e-6, atol=1e-9)


def test_layer_norm_gradient_under_a_non_uniform_probe():
    # a uniform probe has zero gradient through a mean-free output; this one does not
    rng = np.random.default_rng(22)
    x = rng.normal(size=(3, 7)) * np.array([[1.0], [10.0], [0.01]])
    probe = rng.normal(size=x.shape)
    f = lambda a: ag.sum_(ag.mul(ag.layer_norm(a), probe))
    np.testing.assert_allclose(_analytic_gradient(f, x), _fd_gradient(f, x, 1e-7),
                               rtol=1e-5, atol=1e-7)


def test_gelu_gradient_at_large_magnitudes():
    x = np.array([[-40.0, -12.0, -5.0, -1.3, 0.0], [0.4, 2.0, 5.0, 12.0, 40.0]])
    probe = np.random.default_rng(23).normal(size=x.shape)
    f = lambda a: ag.sum_(ag.mul(ag.gelu(a), probe))
    np.testing.assert_allclose(_analytic_gradient(f, x), _fd_gradient(f, x, 1e-6),
                               rtol=1e-7, atol=1e-9)


def test_dice_gradient_with_an_empty_mask():
    rng = np.random.default_rng(30)
    pred = rng.uniform(0.05, 0.95, size=(3, 3, 4))
    target = (rng.uniform(size=pred.shape) < 0.4).astype(float)
    target[1] = 0.0  # no defect in sample 1
    f = lambda p: training.dice_loss(p, target)
    np.testing.assert_allclose(_analytic_gradient(f, pred), _fd_gradient(f, pred, 1e-6),
                               rtol=1e-7, atol=1e-10)


def test_focal_gradient_at_the_clamp_edges():
    """Predictions exactly 0 and 1 sit in the clamp, where the gradient is
    zero; exactly at PRED_CLAMP and 1 - PRED_CLAMP it is the inner side's."""
    lo, hi = training.PRED_CLAMP, 1.0 - training.PRED_CLAMP
    pred = np.tile([0.0, 1.0, lo, hi, 0.3, 0.7, 0.5, 0.9], (2, 1))
    target = np.array([[1.0] * 8, [0.0] * 8])  # an abnormal row and a normal one
    f = lambda p: training.focal_loss(p, target)
    grad = _analytic_gradient(f, pred)
    edges = [((row, 2), 1) for row in range(2)] + [((row, 3), -1) for row in range(2)]
    fd = _fd_gradient(f, pred, 1e-14, edges)
    np.testing.assert_allclose(grad[:, 2:4], fd[:, 2:4], rtol=1e-5, atol=0.1)
    assert abs(grad[0, 2]) > 1e5 and abs(grad[1, 3]) > 1e5  # log(p_t) at p_t = PRED_CLAMP
    # a step below PRED_CLAMP keeps 0 and 1 inside the clamp
    fd = _fd_gradient(f, pred, 5e-8)
    assert np.all(grad[:, :2] == 0.0) and np.all(fd[:, :2] == 0.0)
    np.testing.assert_allclose(grad[:, 4:], fd[:, 4:], rtol=1e-6, atol=1e-9)


def test_bce_gradient_matches_central_differences():
    """Inside the clamp the gradient is (s - y) / (s (1 - s) B), and the loss
    is the mean cross-entropy; exactly at PRED_CLAMP and 1 - PRED_CLAMP the
    gradient is the inner side's."""
    lo, hi = training.PRED_CLAMP, 1.0 - training.PRED_CLAMP
    score = np.array([lo, hi, lo, hi, 0.3, 0.7, 0.5, 0.9, 0.05, 0.6])
    label = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    f = lambda s: training.bce_loss(s, label)
    want = np.mean(-label * np.log(score) - (1.0 - label) * np.log(1.0 - score))
    np.testing.assert_allclose(float(f(score)), want, rtol=1e-15)
    grad = _analytic_gradient(f, score)
    np.testing.assert_allclose(grad, (score - label) / (score * (1.0 - score)) / len(score),
                               rtol=1e-15)
    # one-sided, inwards: a tiny step where log(s) or log(1 - s) is steep,
    # a longer one where the loss is near flat and a tiny step only rounds
    edges = [((0,), 1), ((2,), 1), ((1,), -1), ((3,), -1)]
    np.testing.assert_allclose(grad[:2], _fd_gradient(f, score, 1e-14, edges)[:2], rtol=1e-5)
    np.testing.assert_allclose(grad[2:4], _fd_gradient(f, score, 1e-9, edges)[2:4], rtol=1e-5)
    assert abs(grad[0]) > 1e5 and abs(grad[1]) > 1e5  # log(s) at s = PRED_CLAMP
    np.testing.assert_allclose(grad[4:], _fd_gradient(f, score, 1e-6)[4:], rtol=1e-8)


def test_bce_gradient_is_zero_where_the_clamp_holds_a_score():
    """A score the clamp holds (beyond [PRED_CLAMP, 1 - PRED_CLAMP]) gets a
    zero gradient, which a step that stays beyond the clamp confirms."""
    score = np.array([0.0, 1.0, -0.5, 1.5, 1e-9, 1.0 - 1e-9, 0.4])
    label = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    f = lambda s: training.bce_loss(s, label)
    grad = _analytic_gradient(f, score)
    assert np.all(grad[:6] == 0.0) and np.all(_fd_gradient(f, score, 5e-8)[:6] == 0.0)
    assert grad[6] < 0.0  # a score inside the clamp still moves towards its label


def test_python_scalars_lift_to_numpys_result_type():
    ints = np.array([1, 2, 3])
    assert float(ag.mean(ag.Var(ints)).data) == float(ag.mean(ints)) == 2.0
    np.testing.assert_array_equal(ag.mul(ag.Var(ints), 0.5).data, [0.5, 1.0, 1.5])
    np.testing.assert_array_equal(ag.add(0.5, ag.Var(ints)).data, ag.add(0.5, ints))
    assert ag.mul(ag.Var(ints), 2).dtype == ints.dtype


def test_layer_norm_of_an_integer_var_is_its_array_call():
    row = np.array([[1, 2, 4, 7], [3, 3, 3, 3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ag.layer_norm(ag.Var(row, requires_grad=True))
    assert np.isfinite(out.data).all()
    np.testing.assert_array_equal(out.data, ag.layer_norm(row))


def test_integer_input_keeps_its_float64_result():
    row = np.array([[1, 2, 4, 7]])
    as_float = row.astype(np.float64)
    for name, out, expected in [
        ("softmax_last", ag.softmax_last(np.array([1, 2])), ag.softmax_last(np.array([1.0, 2.0]))),
        ("gelu", ag.gelu(np.array([1, 2])), ag.gelu(np.array([1.0, 2.0]))),
        ("layer_norm", ag.layer_norm(row), ag.layer_norm(as_float)),
    ]:
        assert out.dtype == np.float64, name
        np.testing.assert_array_equal(out, expected, err_msg=name)


def test_backward_requires_scalar():
    x = ag.Var(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        ag.mul(x, 2.0).backward()


def test_gradient_accumulates_on_reuse():
    x = ag.Var(np.array([2.0]), requires_grad=True)
    out = ag.sum_(ag.add(ag.mul(x, x), x))  # x^2 + x -> d/dx = 2x + 1 = 5
    out.backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_a_gradient_reaching_a_leaf_twice_sums_and_each_leaf_owns_its_grad():
    a = ag.Var(np.array([1.0, 2.0]), requires_grad=True)
    b = ag.Var(np.array([3.0, 4.0]), requires_grad=True)
    c = ag.add(a, b)
    ag.sum_(ag.add(c, a)).backward()
    np.testing.assert_array_equal(a.grad, [2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])
    # intermediates adopt the gradient they are given; leaves keep a copy
    c.grad *= 10.0
    np.testing.assert_array_equal(a.grad, [2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_backward_skips_untracked_parents():
    w = ag.Var(np.ones((3, 2)), requires_grad=True)
    x, shift, scale = ag.Var(np.ones((4, 3))), ag.Var(np.ones(2)), ag.Var(np.full(2, 2.0))
    ag.sum_(ag.mul(ag.mul(ag.add(ag.matmul(x, w), shift), scale), scale)).backward()
    assert x.grad is None and shift.grad is None and scale.grad is None
    np.testing.assert_array_equal(w.grad, np.full((3, 2), 16.0))


def test_constants_do_not_track():
    x = ag.Var(np.ones(3))  # requires_grad defaults False
    out = ag.mul(x, 2.0)
    assert not out.requires_grad and out._backward is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_scalars_keep_the_array_dtype(dtype):
    x = np.linspace(0.5, 2.0, 6, dtype=dtype).reshape(2, 3)
    for op in (ag.add, ag.mul):
        for operand in (x, ag.Var(x, requires_grad=True)):
            for out in (op(operand, 0.1), op(3, operand)):
                data = out.data if ag.is_var(out) else out
                assert data.dtype == dtype, (op.__name__, type(operand).__name__)
    # composite formulas full of scalar constants, and their gradients
    leaf = ag.Var(x, requires_grad=True)
    var = ag.gelu(ag.layer_norm(leaf))
    plain = ag.gelu(ag.layer_norm(x))
    assert var.data.dtype == plain.dtype == dtype
    np.testing.assert_allclose(var.data, plain, atol=1e-6 if dtype == np.float32 else 1e-12)
    ag.mean(var).backward()
    assert leaf.grad.dtype == dtype
    # numpy scalars keep their own dtype, as in NumPy arithmetic
    assert ag.mul(ag.Var(x), np.float64(2.0)).dtype == np.float64
