"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is an eager tape: every op computes its value immediately and
records its inputs together with a closure that routes the incoming
gradient back to them.  ``backward`` walks the tape in reverse
topological order, so calling it on a scalar loss leaves d(loss)/d(leaf)
in the ``grad`` slot of every reachable tensor.

Guarantees enforced here instead of by callers:

* every op output is finite; NaN/Inf raises ``NonFiniteError`` naming the op
* incompatible operand shapes raise ``ShapeError`` naming the op
* ReLU and ``clamp_min`` use subgradient 0 at their kink

Tensors are value-like: once created their array is never mutated, so
they are safe to share across threads.  A tape, by contrast, belongs to
the single thread that builds and differentiates it.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "GradientContractError",
    "parameter",
    "constant",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "transpose",
    "relu",
    "clamp_min",
    "square",
    "sqrt",
    "softplus",
    "reduce_sum",
    "reduce_mean",
    "softmax_cross_entropy",
    "backward",
    "gradient",
]


class ShapeError(ValueError):
    """Op inputs have incompatible shapes."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


class GradientContractError(ValueError):
    """Gradients were requested from a non-scalar root."""


class Tensor:
    """A float64 array plus the tape bookkeeping needed for backward.

    Leaves are created with :func:`parameter` (trainable) or
    :func:`constant`; every op returns a fresh Tensor whose value is
    computed eagerly.
    """

    __slots__ = ("value", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, name=None, _parents=(), _backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        tag = self.name or ("param" if self.requires_grad else "node")
        return f"Tensor({tag}, shape={self.value.shape})"


def parameter(value, name=None) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(value, requires_grad=True, name=name)


def constant(value, name=None) -> Tensor:
    """Non-trainable leaf tensor."""
    return Tensor(value, name=name)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op: str, value, parents, backward_fn) -> Tensor:
    value = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"{op}: output contains NaN or Inf")
    return Tensor(value, _parents=tuple(parents), _backward=backward_fn)


def _broadcast_shape(op: str, a: Tensor, b: Tensor):
    try:
        return np.broadcast_shapes(a.value.shape, b.value.shape)
    except ValueError:
        raise ShapeError(f"{op}: cannot broadcast {a.value.shape} with {b.value.shape}") from None


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _accum(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_shape("add", a, b)

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(g, b.value.shape))

    return _make("add", a.value + b.value, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_shape("sub", a, b)

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(-g, b.value.shape))

    return _make("sub", a.value - b.value, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_shape("mul", a, b)

    def backward_fn(g):
        _accum(a, _unbroadcast(g * b.value, a.value.shape))
        _accum(b, _unbroadcast(g * a.value, b.value.shape))

    return _make("mul", a.value * b.value, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_shape("div", a, b)

    def backward_fn(g):
        _accum(a, _unbroadcast(g / b.value, a.value.shape))
        _accum(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return _make("div", a.value / b.value, (a, b), backward_fn)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.value.shape} and {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.value.shape} @ {b.value.shape}")

    def backward_fn(g):
        _accum(a, g @ b.value.T)
        _accum(b, a.value.T @ g)

    return _make("matmul", a.value @ b.value, (a, b), backward_fn)


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.value.ndim != 2:
        raise ShapeError(f"transpose: expects a 2-D operand, got {a.value.shape}")

    def backward_fn(g):
        _accum(a, g.T)

    return _make("transpose", a.value.T, (a,), backward_fn)


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.value > 0.0

    def backward_fn(g):
        _accum(a, g * mask)

    return _make("relu", np.where(mask, a.value, 0.0), (a,), backward_fn)


def clamp_min(a, bound: float) -> Tensor:
    """max(a, bound) elementwise; subgradient 0 where a <= bound."""
    a = _wrap(a)
    bound = float(bound)
    mask = a.value > bound

    def backward_fn(g):
        _accum(a, g * mask)

    return _make("clamp_min", np.maximum(a.value, bound), (a,), backward_fn)


def square(a) -> Tensor:
    a = _wrap(a)

    def backward_fn(g):
        _accum(a, g * (2.0 * a.value))

    return _make("square", a.value * a.value, (a,), backward_fn)


def sqrt(a) -> Tensor:
    a = _wrap(a)
    value = np.sqrt(a.value)

    def backward_fn(g):
        _accum(a, g * (0.5 / value))

    return _make("sqrt", value, (a,), backward_fn)


def softplus(a) -> Tensor:
    """log(1 + exp(a)), numerically stable; derivative is sigmoid(a)."""
    a = _wrap(a)

    def backward_fn(g):
        v = a.value
        sig = np.where(v >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(v))), np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
        _accum(a, g * sig)

    return _make("softplus", np.logaddexp(0.0, a.value), (a,), backward_fn)


# ---------------------------------------------------------------------------
# reductions


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    axes = _normalize_axes(axis, a.value.ndim)

    def backward_fn(g):
        gg = g
        if not keepdims:
            for ax in sorted(axes):
                gg = np.expand_dims(gg, ax)
        _accum(a, np.broadcast_to(gg, a.value.shape))

    return _make("sum", np.sum(a.value, axis=axes or None, keepdims=keepdims), (a,), backward_fn)


def reduce_mean(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    axes = _normalize_axes(axis, a.value.ndim)
    count = 1
    for ax in axes:
        count *= a.value.shape[ax]
    count = max(count, 1)

    def backward_fn(g):
        gg = g
        if not keepdims:
            for ax in sorted(axes):
                gg = np.expand_dims(gg, ax)
        _accum(a, np.broadcast_to(gg / count, a.value.shape))

    return _make("mean", np.mean(a.value, axis=axes or None, keepdims=keepdims), (a,), backward_fn)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean of -log softmax(logits)[label] over the batch (fused op).

    ``labels`` is a non-differentiable integer vector; out-of-range
    entries are a contract violation.
    """
    logits = _wrap(logits)
    if logits.value.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-D, got {logits.value.shape}")
    n, k = logits.value.shape
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ShapeError(f"softmax_cross_entropy: expected {n} labels, got shape {y.shape}")
    y = y.astype(np.int64)
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ValueError(f"softmax_cross_entropy: labels must lie in [0, {k})")

    shifted = logits.value - np.max(logits.value, axis=1, keepdims=True)
    expv = np.exp(shifted)
    sumexp = np.sum(expv, axis=1, keepdims=True)
    log_probs = shifted - np.log(sumexp)
    loss = -np.mean(log_probs[np.arange(n), y])

    def backward_fn(g):
        p = expv / sumexp
        p[np.arange(n), y] -= 1.0
        _accum(logits, np.asarray(g) * p / n)

    return _make("softmax_cross_entropy", loss, (logits,), backward_fn)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order  # every node appears after its parents


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(node) into ``grad`` for every node reachable
    from the scalar ``root``."""
    if root.value.size != 1:
        raise GradientContractError(f"backward: root must be scalar, got shape {root.value.shape}")
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def gradient(root: Tensor, params) -> dict:
    """Return d(root)/d(p) for each requested leaf, keyed by the leaf.

    Leaves that do not influence ``root`` get a zero gradient of their
    own shape.  Non-finite gradients are an error.
    """
    params = list(params)
    backward(root)
    out = {}
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"gradient: non-finite gradient for {p!r}")
        out[p] = np.asarray(g, dtype=np.float64)
    return out
