"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation builds a node in an implicit computation graph (parents plus a
closure computing local gradients), in the style of scalar micrograd engines but
generalized to numpy arrays. Calling ``backward()`` on a scalar node runs the
closures in reverse topological order and accumulates gradients into ``.grad``.

Broadcasting in binary elementwise ops is deliberately restricted to three
cases: identical shapes, a scalar on either side, and a trailing-axis vector
against a higher-rank operand (the row-wise bias/scale case). Pairwise
structures have no general op here: :func:`custom` builds a node from a
forward value and a hand-written backward, which is how the fused pairwise
similarities in :mod:`probalign.gaussians` enter a graph.

A node's first incoming gradient is stored as is, without a copy, so gradient
arrays may alias one another (``add`` hands the same array to both parents).
Nothing here writes into a ``.grad`` array; callers must not either.

There is no global tape: independent graphs can be built concurrently.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an operation."""


def _shape_error(op: str, a_shape, b_shape) -> ShapeError:
    return ShapeError(f"{op}: operand shapes {tuple(a_shape)} and {tuple(b_shape)} do not conform")


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A dense float64 array plus the graph bookkeeping needed for backward."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple["Tensor", ...] = (), backward=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- backward pass ---------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into every reachable node's ``.grad``.

        Requires a scalar root; gradients add onto any existing ``.grad``
        content of parameter nodes, so callers reusing parameters across
        passes must ``zero_grad()`` between them.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss node, got shape {self.shape}")
        order = _topo_order(self)
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS: graphs from long training expressions can exceed the
    # recursion limit.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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


def tensor(value) -> Tensor:
    """Wrap a scalar/array as a leaf Tensor (no-op on an existing Tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    # The first write stores the array itself; later writes allocate a new sum,
    # so an array shared with another node is never modified.
    if node.grad is None:
        node.grad = grad
    else:
        node.grad = node.grad + grad


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum())
    # Trailing-axis vector case: sum over the leading axes.
    lead = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(lead)))


def _check_elementwise(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape == b.shape or a.shape == () or b.shape == ():
        return
    if a.ndim > b.ndim and b.shape == a.shape[a.ndim - b.ndim :] and b.ndim == 1:
        return
    if b.ndim > a.ndim and a.shape == b.shape[b.ndim - a.ndim :] and a.ndim == 1:
        return
    raise _shape_error(op, a.shape, b.shape)


# -- elementwise binary ops ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    _check_elementwise("add", a.data, b.data)
    out = Tensor(a.data + b.data, (a, b))

    def _back(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(g, b.shape))

    out._backward = _back
    return out


def sub(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    _check_elementwise("sub", a.data, b.data)
    out = Tensor(a.data - b.data, (a, b))

    def _back(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(-g, b.shape))

    out._backward = _back
    return out


def mul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    _check_elementwise("mul", a.data, b.data)
    out = Tensor(a.data * b.data, (a, b))

    def _back(g):
        _accumulate(a, _reduce_to(g * b.data, a.shape))
        _accumulate(b, _reduce_to(g * a.data, b.shape))

    out._backward = _back
    return out


def div(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    _check_elementwise("div", a.data, b.data)
    out = Tensor(a.data / b.data, (a, b))

    def _back(g):
        _accumulate(a, _reduce_to(g / b.data, a.shape))
        _accumulate(b, _reduce_to(-g * a.data / (b.data * b.data), b.shape))

    out._backward = _back
    return out


def neg(a) -> Tensor:
    a = tensor(a)
    out = Tensor(-a.data, (a,))

    def _back(g):
        _accumulate(a, -g)

    out._backward = _back
    return out


# -- elementwise unary ops -------------------------------------------------


def exp(a) -> Tensor:
    a = tensor(a)
    value = np.exp(a.data)
    out = Tensor(value, (a,))

    def _back(g):
        _accumulate(a, g * value)

    out._backward = _back
    return out


def log(a) -> Tensor:
    a = tensor(a)
    out = Tensor(np.log(a.data), (a,))

    def _back(g):
        _accumulate(a, g / a.data)

    out._backward = _back
    return out


def sqrt(a) -> Tensor:
    a = tensor(a)
    value = np.sqrt(a.data)
    out = Tensor(value, (a,))

    def _back(g):
        _accumulate(a, g * 0.5 / value)

    out._backward = _back
    return out


def relu(a) -> Tensor:
    a = tensor(a)
    mask = a.data > 0.0
    # NaN passes through (NaN <= 0 is false): a corrupt weight must show up in
    # the output, not be zeroed like a negative pre-activation.
    out = Tensor(np.where(a.data <= 0.0, 0.0, a.data), (a,))

    def _back(g):
        _accumulate(a, g * mask)

    out._backward = _back
    return out


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; the gradient is zero at and below the floor."""
    a = tensor(a)
    mask = a.data > floor
    out = Tensor(np.where(mask, a.data, floor), (a,))

    def _back(g):
        _accumulate(a, g * mask)

    out._backward = _back
    return out


# -- linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_error("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data, (a, b))

    def _back(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    out._backward = _back
    return out


def transpose(a) -> Tensor:
    a = tensor(a)
    if a.data.ndim != 2:
        raise _shape_error("transpose", a.shape, a.shape)
    out = Tensor(a.data.T.copy(), (a,))

    def _back(g):
        _accumulate(a, g.T)

    out._backward = _back
    return out


def diagonal(a) -> Tensor:
    """Diagonal of a square matrix as a vector."""
    a = tensor(a)
    if a.data.ndim != 2 or a.shape[0] != a.shape[1]:
        raise _shape_error("diagonal", a.shape, a.shape)
    n = a.shape[0]
    out = Tensor(np.diagonal(a.data).copy(), (a,))

    def _back(g):
        full = np.zeros_like(a.data)
        full[np.arange(n), np.arange(n)] = g
        _accumulate(a, full)

    out._backward = _back
    return out


# -- reductions --------------------------------------------------------------


def sum_all(a) -> Tensor:
    a = tensor(a)
    out = Tensor(a.data.sum(), (a,))

    def _back(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    out._backward = _back
    return out


def mean_all(a) -> Tensor:
    a = tensor(a)
    n = a.size
    out = Tensor(a.data.mean(), (a,))

    def _back(g):
        _accumulate(a, np.full_like(a.data, float(g) / n))

    out._backward = _back
    return out


def sum_last(a) -> Tensor:
    """Sum over the last axis."""
    a = tensor(a)
    if a.data.ndim == 0:
        raise _shape_error("sum_last", a.shape, a.shape)
    out = Tensor(a.data.sum(axis=-1), (a,))

    def _back(g):
        _accumulate(a, np.broadcast_to(g[..., None], a.shape).copy())

    out._backward = _back
    return out


def mean_axis0(a) -> Tensor:
    """Mean over the leading axis (batch mean of row vectors)."""
    a = tensor(a)
    if a.data.ndim < 1:
        raise _shape_error("mean_axis0", a.shape, a.shape)
    n = a.shape[0]
    out = Tensor(a.data.mean(axis=0), (a,))

    def _back(g):
        _accumulate(a, np.broadcast_to(g / n, a.shape).copy())

    out._backward = _back
    return out


def logsumexp(a) -> Tensor:
    """log(sum(exp(a))) over the last axis, computed with max subtraction."""
    a = tensor(a)
    if a.data.ndim == 0:
        raise _shape_error("logsumexp", a.shape, a.shape)
    m = a.data.max(axis=-1, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=-1, keepdims=True)
    value = (m + np.log(total)).reshape(a.data.shape[:-1])
    softmax_weights = shifted / total
    out = Tensor(value, (a,))

    def _back(g):
        _accumulate(a, g[..., None] * softmax_weights)

    out._backward = _back
    return out


def softmax(a) -> Tensor:
    """Softmax over the last axis via the logsumexp identity."""
    a = tensor(a)
    if a.data.ndim == 0:
        raise _shape_error("softmax", a.shape, a.shape)
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s, (a,))

    def _back(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(a, s * (g - inner))

    out._backward = _back
    return out


# -- structure ops ------------------------------------------------------------


def concat(parts, axis: int = 0) -> Tensor:
    parts = [tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat: need at least one operand")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def _back(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            _accumulate(p, g[tuple(idx)])

    out._backward = _back
    return out


def l2_normalize(a) -> Tensor:
    """Normalize each row (last axis) to unit Euclidean norm."""
    a = tensor(a)
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    y = a.data / norm
    out = Tensor(y, (a,))

    def _back(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(a, (g - y * inner) / norm)

    out._backward = _back
    return out


def custom(value, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """A node with a hand-written backward.

    ``vjp(g)`` maps the upstream gradient to one gradient per parent, in the
    order of ``parents``.
    """
    out = Tensor(value, parents)

    def _back(g):
        for parent, grad in zip(parents, vjp(g)):
            _accumulate(parent, grad)

    out._backward = _back
    return out


# -- verification -------------------------------------------------------------


def grad_check(f, params: list[Tensor], h: float = 1e-5) -> float:
    """Max relative error between backward gradients and central differences.

    ``f`` maps the parameter list to a scalar Tensor. The error for each
    coordinate is |analytic - numeric| / max(1, |numeric|); the max over all
    coordinates of all parameters is returned.
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    for p in params:
        p.zero_grad()
    loss = f(params)
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f(params).item()
            flat[i] = orig - h
            f_minus = f(params).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
