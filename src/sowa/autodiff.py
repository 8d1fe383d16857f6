"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps an ndarray and records the closure that routes output
gradients back to its parents; ``backward()`` walks the tape in reverse
topological order. The primitives are broadcast arithmetic, (stacked)
matmul of operands of rank >= 2, reductions, shape ops and indexed gather;
there is no elementwise log or clamp. The model's composite formulas
(softmax, row normalisation, GELU, layer norm and multi-head attention) are
one node each: one numpy forward for arrays and Vars alike, and one
analytic gradient rule; ``training`` writes its dice, focal and
cross-entropy terms the same way. Row normalisation and layer norm take
their row sums as vector products (``einsum``, a matrix-vector product),
where a last-axis reduction runs one short loop per row.

The functional helpers (``matmul``, ``softmax_last`` ...) accept either
``Var`` or plain ndarray and return the same kind, so model formulas are
written once: training passes Vars and gets a graph, inference passes
arrays and runs plain numpy with no graph at all. Since both kinds run the
same forward, they give the same bits. A Python scalar operand takes NumPy's
weak-scalar result type against the other operand's dtype in both modes, so
float32 inputs give a float32 graph and float32 outputs, and an integer
operand times 0.5 is float64.

Every node but the n-ary ``concat`` and ``attention`` is a numpy forward and
one gradient rule per operand, module-level functions, dispatched by one
rule (``_unary``, ``_binary``): arrays give the forward's result; with a
``Var`` operand, one node whose backward sends each tracked operand (one
that requires gradients, directly or through its parents) its rule's
gradient, summed over the axes it was broadcast along. So a node costs one
closure, and constants, such as frozen weights, never get a ``grad``. A node
adopts its first gradient as its ``grad``, cast to its dtype, and adds later
ones out of place. No rule writes into the gradient it is given, so an
intermediate's ``grad`` may share memory with other intermediates' grads. A
leaf copies its first gradient and owns its ``grad``. A forward may compute
in place, but only on arrays it allocated itself, never on an argument.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

ATTENTION_MODES = ("vv", "qkv")
GELU_C = float(np.sqrt(2.0 / np.pi))


class Var:
    """Node in the reverse-mode tape; ``data`` is a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        dtype = self.data.dtype
        if self.grad is None:
            # a leaf copies its first gradient, so in-place edits of any
            # other node's grad cannot reach it; intermediates adopt theirs
            self.grad = grad.astype(dtype, copy=not self._parents)
        else:
            self.grad = (self.grad + grad).astype(dtype, copy=False)

    def backward(self) -> None:
        if self.data.size != 1:
            raise UsageError("backward() requires a scalar root")
        order = _toposort(self)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self):
        return f"Var(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _toposort(root: Var) -> list:
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def is_var(x) -> bool:
    return isinstance(x, Var)


def _lift(x, like=None) -> Var:
    """``x`` as a graph constant; a Python scalar takes NumPy's result type with ``like``."""
    if isinstance(x, Var):
        return x
    if like is not None and isinstance(x, (int, float)) and not isinstance(x, np.generic):
        return Var(np.asarray(x, dtype=np.result_type(like.dtype, x)))
    return Var(np.asarray(x))


def _node(data, parents, backward) -> Var:
    out = Var(data)
    tracked = tuple(p for p in parents if p.requires_grad or p._parents)
    if tracked:
        out._parents = tracked
        out._backward = backward
        out.requires_grad = True
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _unary(forward, grad, x, *args):
    """Dispatch ``forward(x, *args)``; the rule is ``grad(g, x, out, *args)`` on data."""
    if not isinstance(x, Var):
        return forward(x, *args)
    data = forward(x.data, *args)
    return _node(data, (x,), lambda g: x._accumulate(grad(g, x.data, data, *args)))


def _binary(forward, grad_a, grad_b, a, b):
    """Dispatch ``forward(a, b)``; each rule is ``grad(g, a, b)`` on the operands' data."""
    if not (isinstance(a, Var) or isinstance(b, Var)):
        return forward(a, b)
    a, b = _lift(a, b), _lift(b, a)
    data = forward(a.data, b.data)

    def backward(g):
        for operand, grad in ((a, grad_a), (b, grad_b)):
            if operand.requires_grad:
                operand._accumulate(_unbroadcast(grad(g, a.data, b.data), operand.data.shape))

    return _node(data, (a, b), backward)


_grad_through = lambda g, a, b: g
_grad_mul_a = lambda g, a, b: g * b
_grad_mul_b = lambda g, a, b: g * a
_grad_matmul_a = lambda g, a, b: g @ np.swapaxes(b, -1, -2)
_grad_matmul_b = lambda g, a, b: np.swapaxes(a, -1, -2) @ g
_grad_softmax = lambda g, x, y: y * (g - np.sum(g * y, axis=-1, keepdims=True))
_sum = lambda x, axis, keepdims: np.sum(x, axis=axis, keepdims=keepdims)
_grad_reshape = lambda g, x, out, shape: g.reshape(x.shape)
_grad_transpose = lambda g, x, out, axes: np.transpose(g, np.argsort(axes))
_take = lambda x, key: np.asarray(x)[key]


def _grad_sum(g, x, out, axis, keepdims):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, x.shape).copy()


def _grad_take(g, x, out, key):
    full = np.zeros_like(x)
    np.add.at(full, key, g)
    return full


def add(a, b):
    return _binary(np.add, _grad_through, _grad_through, a, b)


def mul(a, b):
    return _binary(np.multiply, _grad_mul_a, _grad_mul_b, a, b)


def matmul(a, b):
    if is_var(a) or is_var(b):
        a, b = _lift(a, b), _lift(b, a)
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise UsageError(f"matmul of Vars needs rank >= 2 operands, got {a.shape} and {b.shape}")
    return _binary(np.matmul, _grad_matmul_a, _grad_matmul_b, a, b)


def sum_(x, axis=None, keepdims: bool = False):
    return _unary(_sum, _grad_sum, x, axis, keepdims)


def mean(x, axis=None, keepdims: bool = False):
    """The sum times the reciprocal of the count, for arrays and Vars alike.
    Empty input is rejected."""
    shape = x.shape if is_var(x) else np.shape(x)
    count = np.prod(shape if axis is None else np.take(shape, axis))
    if count == 0:
        raise UsageError(f"mean over no elements (shape {shape}, axis {axis}) is undefined")
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / float(count))


def reshape(x, shape):
    return _unary(np.reshape, _grad_reshape, x, shape)


def transpose(x, axes):
    return _unary(np.transpose, _grad_transpose, x, axes)


def concat(parts, axis: int = 0):
    if not any(is_var(p) for p in parts):
        return np.concatenate(parts, axis=axis)
    parts = [_lift(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for p, chunk in zip(parts, np.split(g, splits, axis=axis)):
            p._accumulate(chunk)

    return _node(data, tuple(parts), backward)


def take(x, key):
    return _unary(_take, _grad_take, x, key)


def _softmax(x):
    x = np.asarray(x)
    if x.size == 0:
        raise UsageError("softmax of an empty array is undefined")
    e = np.subtract(x, np.max(x, axis=-1, keepdims=True))
    e = np.exp(e, out=e if e.dtype.kind == "f" else None)  # exp of integers is float
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_last(x):
    """Softmax along the last axis; its gradient is ``y (g - sum(g y))``.

    The row maximum is subtracted before exponentiation, so shifted inputs
    give identical outputs. Empty input is rejected.
    """
    return _unary(_softmax, _grad_softmax, x)


def _row_norms(x):
    # row dot products by einsum: a last-axis sum runs one short loop per row
    return np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]


def _l2_normalize(x, eps):
    return np.divide(x, np.maximum(_row_norms(x), eps))


def _grad_l2_normalize(g, x, y, eps):
    norm = _row_norms(x)
    along = np.einsum("...i,...i->...", g, y)[..., None] * (norm > eps)  # a clamped row: x / eps
    return (g - y * along) / np.maximum(norm, eps)


def l2_normalize_rows(x, eps: float = 1e-12):
    """Scale rows (the last axis) to unit L2 norm, with gradient ``(g - y
    sum(g y)) / norm``. Rows with norm below ``eps`` are divided by ``eps``
    instead, so a zero row maps to zero rather than NaN, with gradient ``g / eps``."""
    return _unary(_l2_normalize, _grad_l2_normalize, x, eps)


def _gelu(x):
    x = np.asarray(x)
    t = np.multiply(x, x, out=np.empty_like(x))
    np.multiply(t, x, out=t)
    t = np.multiply(t, 0.044715, out=t if t.dtype.kind == "f" else None)  # of integers: float
    np.add(x, t, out=t)
    np.multiply(t, GELU_C, out=t)
    np.tanh(t, out=t)
    np.add(t, 1.0, out=t)
    np.multiply(x, t, out=t)
    np.multiply(t, 0.5, out=t)
    return t


def _grad_gelu(g, x, y):
    x2 = x * x
    t = np.tanh(GELU_C * x * (1.0 + 0.044715 * x2))
    return g * 0.5 * (1.0 + t) * (1.0 + (1.0 - t) * x * GELU_C * (1.0 + 3 * 0.044715 * x2))


def gelu(x):
    """tanh-approximate GELU, ``0.5 x (1 + t)`` with ``t = tanh(GELU_C (x +
    0.044715 x^3))``, and its exact gradient (arXiv 1606.08415)."""
    return _unary(_gelu, _grad_gelu, x)


def _row_statistics(x):
    """``x`` less its row means, its row variances, and the vector of ``1 /
    width`` that took both as matrix-vector products: a last-axis sum runs
    one short loop per row."""
    w = np.full(x.shape[-1], 1.0 / x.shape[-1], dtype=np.result_type(x.dtype, 1.0))
    centered = np.subtract(x, (x @ w)[..., None])
    return centered, (centered * centered) @ w, w


def _layer_norm(x, eps):
    x = np.asarray(x)
    if x.shape[-1] == 0:
        raise UsageError(f"mean over no elements (shape {x.shape}, axis -1) is undefined")
    centered, var, _ = _row_statistics(x)
    return np.divide(centered, np.sqrt(var + eps)[..., None], out=centered)


def _grad_layer_norm(g, x, y, eps):
    _, var, w = _row_statistics(x)
    d = g - (g @ w)[..., None] - y * ((g * y) @ w)[..., None]
    return d / np.sqrt(var + eps)[..., None]


def layer_norm(x, eps: float = 1e-5):
    """Row-wise layer normalization over the last axis, with no affine part.

    The row mean and variance, in the forward and in the gradient, are
    matrix-vector products with a vector of ``1 / width``, which round
    differently from ``mean``'s sums. The gradient is ``(g - mean(g) - y
    mean(g y)) / sqrt(var + eps)`` (arXiv 1607.06450)."""
    return _unary(_layer_norm, _grad_layer_norm, x, eps)


def attention(x, w_q, w_k, w_v, w_o, heads: int, mode: str):
    """Multi-head self-attention over a (B, ..., N, C) stack of token sets,
    one node with one forward for arrays and Vars alike.

    ``mode='qkv'`` scores queries against keys; ``mode='vv'`` scores the
    values against themselves (CLIP Surgery), so per head the pre-softmax
    scores V V^T / sqrt(d_head) are symmetric and W_q, W_k go unused. Weights
    may be stacked, e.g. (STAGES, C, C) against a (B, STAGES, N, C) stack: a
    set's products are then the ones it makes alone against its own slice.
    They are frozen constants: a Var weight raises ``UsageError``, and the
    gradient flows to ``x`` only.

    The forward scales the (N, d_head) queries, not the N x N scores, and
    writes the scores keys-first into one keys-outermost buffer, (N_k, ...,
    heads, N_q), through its (..., heads, N_k, N_q) view: the max shift, the
    exponential and the sums then run over axis 0, each numpy inner loop
    over every set, head and query at once, where a last-axis reduction runs
    one short loop per row. The value product reads the same view
    transposed, and then the (..., N_q, d_head) product is divided by the
    sums: the deferred normalisation of online softmax (arXiv 1805.02867)
    and FlashAttention (arXiv 2205.14135), without the tiling.
    """
    if mode not in ATTENTION_MODES:
        raise UsageError(f"attention mode must be one of {ATTENTION_MODES}, got {mode!r}")
    if any(is_var(w) for w in (w_q, w_k, w_v, w_o)):
        raise UsageError("attention weights are frozen constants: pass arrays, not Vars")
    shape = tuple(x.shape)
    if len(shape) < 3:
        raise UsageError(f"expected a (B, ..., N, C) stack of token sets, got {shape}")
    *lead, n, c = shape
    if c % heads or w_v.shape[-2] != c:
        raise UsageError(f"token width {c} does not fit {heads} heads and weights {w_v.shape}")
    r = len(lead)
    swap = (*range(r), r + 1, r, r + 2)  # (..., N, heads, dh) <-> (..., heads, N, dh)
    scale = (c // heads) ** -0.5

    def split(t):
        return t.reshape(*lead, n, heads, c // heads).transpose(swap)

    def merge(t):
        return t.transpose(swap).reshape(*lead, n, c)

    data = x.data if is_var(x) else np.asarray(x)
    v = split(data @ w_v)
    q, k = (v, v) if mode == "vv" else (split(data @ w_q), split(data @ w_k))
    q = q * scale
    scores = np.empty((n, *q.shape[:-2], n), dtype=np.result_type(k, q))  # (N_k, ..., heads, N_q)
    e = np.moveaxis(scores, 0, -2)  # its (..., heads, N_k, N_q) view
    np.matmul(k, np.swapaxes(q, -1, -2), out=e)
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    sums = scores.sum(axis=0)  # (..., heads, N_q)
    ctx = np.swapaxes(e, -1, -2) @ v
    ctx /= sums[..., None]
    out = merge(ctx) @ w_o
    if not is_var(x):
        return out

    def backward(g):
        p = e / sums[..., None, :]
        dctx = split(g @ np.swapaxes(w_o, -1, -2))
        dv = p @ dctx
        ds = v @ np.swapaxes(dctx, -1, -2)  # dL/dp, keys-first
        ds -= (ds * p).sum(axis=-2, keepdims=True)
        ds *= p
        dk, dq = ds @ q, np.swapaxes(ds, -1, -2) @ k * scale
        if mode == "vv":
            dx = merge(dq + dk + dv) @ np.swapaxes(w_v, -1, -2)
        else:
            dx = sum(merge(d) @ np.swapaxes(w, -1, -2) for d, w in ((dq, w_q), (dk, w_k), (dv, w_v)))
        x._accumulate(_unbroadcast(dx, shape))

    return _node(out, (x,), backward)
