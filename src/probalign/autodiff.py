"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation builds its node through one constructor, :func:`_node`: the
value, the parents, and per parent a function of the upstream gradient, in the
style of scalar micrograd engines but generalized to numpy arrays. Calling
``backward()`` on a scalar node runs them in reverse topological order and
accumulates gradients into ``.grad``.

A leaf built with ``Tensor(...)`` is trainable. A leaf built with
:func:`constant`, and any scalar or raw array an op wraps implicitly, needs no
gradient; neither does an op output whose parents are all constants. The
backward pass does not visit such nodes and never sets their ``.grad``, and
it alone skips the gradient function of a constant parent; no op tests
``needs_grad``.

Broadcasting in binary elementwise ops is deliberately restricted to three
cases: identical shapes, a scalar on either side, and a trailing-axis vector
against a higher-rank operand (the row-wise bias/scale case). Pairwise
structures have no general op here: :func:`custom` builds a node from a
forward value and a hand-written joint backward, which is how the fused
pairwise similarities in :mod:`probalign.gaussians` enter a graph.

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


class Tensor:
    """A dense float64 array plus the graph bookkeeping needed for backward."""

    __slots__ = ("data", "grad", "needs_grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple["Tensor", ...] = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        # A leaf is trainable; an op's output needs a gradient when a parent does.
        self.needs_grad = not parents
        for parent in parents:
            if parent.needs_grad:
                self.needs_grad = True
                break
        self._parents = parents

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
            g = node.grad
            if g is None or not node._parents:
                continue
            if type(node._backward) is tuple:  # built by _node
                for parent, grad in zip(node._parents, node._backward):
                    if parent.needs_grad:
                        _accumulate(parent, grad(g))
            else:  # a custom node's joint vjp
                for parent, grad in zip(node._parents, node._backward(g)):
                    _accumulate(parent, grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS: graphs from long training expressions can exceed the
    # recursion limit. Constants are not descended into: no gradient flows
    # through them.
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
            if parent.needs_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def constant(value) -> Tensor:
    """A leaf that needs no gradient: inputs, noise, masks, scalar factors."""
    out = Tensor(value)
    out.needs_grad = False
    return out


def tensor(value) -> Tensor:
    """An existing Tensor as is; a scalar or raw array as a :func:`constant`."""
    if isinstance(value, Tensor):
        return value
    return constant(value)


def _node(value, parents: tuple[Tensor, ...], *grads) -> Tensor:
    """An op's output. ``grads[i](g)`` is the gradient for ``parents[i]`` given
    the upstream gradient ``g``; backward calls it only when that parent needs
    one. A leaf has no ``_backward``."""
    out = Tensor(value, parents)
    out._backward = grads
    return out


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    # The first write stores the array itself; later writes allocate a new sum,
    # so an array shared with another node is never modified. A constant keeps
    # no gradient.
    if not node.needs_grad:
        return
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
    return _node(a.data + b.data, (a, b), lambda g: _reduce_to(g, a.shape), lambda g: _reduce_to(g, b.shape))


def sub(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    _check_elementwise("sub", a.data, b.data)
    return _node(a.data - b.data, (a, b), lambda g: _reduce_to(g, a.shape), lambda g: _reduce_to(-g, b.shape))


def mul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    _check_elementwise("mul", a.data, b.data)
    return _node(
        a.data * b.data,
        (a, b),
        lambda g: _reduce_to(g * b.data, a.shape),
        lambda g: _reduce_to(g * a.data, b.shape),
    )


def div(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    _check_elementwise("div", a.data, b.data)
    return _node(
        a.data / b.data,
        (a, b),
        lambda g: _reduce_to(g / b.data, a.shape),
        lambda g: _reduce_to(-g * a.data / (b.data * b.data), b.shape),
    )


def neg(a) -> Tensor:
    a = tensor(a)
    return _node(-a.data, (a,), lambda g: -g)


# -- elementwise unary ops -------------------------------------------------


def exp(a) -> Tensor:
    a = tensor(a)
    value = np.exp(a.data)
    return _node(value, (a,), lambda g: g * value)


def log(a) -> Tensor:
    a = tensor(a)
    return _node(np.log(a.data), (a,), lambda g: g / a.data)


def sqrt(a) -> Tensor:
    a = tensor(a)
    value = np.sqrt(a.data)
    return _node(value, (a,), lambda g: g * 0.5 / value)


def relu_values(x: np.ndarray) -> np.ndarray:
    """max(x, 0) on an array, the forward of :func:`relu`. NaN passes through
    (NaN <= 0 is false): a corrupt weight must show up in the output, not be
    zeroed like a negative pre-activation."""
    return np.where(x <= 0.0, 0.0, x)


def relu(a) -> Tensor:
    a = tensor(a)
    mask = a.data > 0.0
    return _node(relu_values(a.data), (a,), lambda g: g * mask)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; the gradient is zero at and below the floor."""
    a = tensor(a)
    mask = a.data > floor
    return _node(np.where(mask, a.data, floor), (a,), lambda g: g * mask)


# -- linear algebra ---------------------------------------------------------

# Multiply-adds per gemm call of matmul_values: OpenBLAS runs a gemm of at most
# 65536 * 4 on the calling thread and splits a larger one over its worker
# threads. On 2 vCPUs, 71 x 32 x 918 gemms that it split had a p99 of 15 ms
# against a p50 of 0.1 ms, as the worker woke; 8-row calls (under this size) a
# p99 of 0.25 ms. The first split gemm also adds the worker's buffer, about
# 1 MB, to the process's RSS. No result depends on it.
SERIAL_GEMM = 262144


def matmul_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of 2-D arrays, the forward of :func:`matmul`, on the calling thread.

    A product of more than SERIAL_GEMM multiply-adds goes in row slices of
    ``a`` of at most that many, sized within one row of each other: with a
    short tail slice, a few row counts gave other bits than one call. A
    product that fits is one call. A single row over the size stays one call.
    """
    n, m = a.shape[0], b.shape[1]
    rows = max(1, SERIAL_GEMM // max(1, a.shape[1] * m))
    count = -(-n // rows)
    if count <= 1:
        return np.matmul(a, b)
    out = np.empty((n, m), dtype=np.result_type(a, b))
    bounds = [i * n // count for i in range(count + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        np.matmul(a[start:stop], b, out=out[start:stop])
    return out


def matmul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_error("matmul", a.shape, b.shape)
    return _node(
        matmul_values(a.data, b.data),
        (a, b),
        lambda g: matmul_values(g, b.data.T),
        lambda g: matmul_values(a.data.T, g),
    )


def transpose(a) -> Tensor:
    a = tensor(a)
    if a.data.ndim != 2:
        raise _shape_error("transpose", a.shape, a.shape)
    return _node(a.data.T.copy(), (a,), lambda g: g.T)


def diagonal(a) -> Tensor:
    """Diagonal of a square matrix as a vector."""
    a = tensor(a)
    if a.data.ndim != 2 or a.shape[0] != a.shape[1]:
        raise _shape_error("diagonal", a.shape, a.shape)
    n = a.shape[0]

    def grad(g):
        full = np.zeros_like(a.data)
        full[np.arange(n), np.arange(n)] = g
        return full

    return _node(np.diagonal(a.data).copy(), (a,), grad)


# -- reductions --------------------------------------------------------------


def mean_all(a) -> Tensor:
    a = tensor(a)
    n = a.size
    return _node(a.data.mean(), (a,), lambda g: np.full_like(a.data, float(g) / n))


def sum_last(a) -> Tensor:
    """Sum over the last axis."""
    a = tensor(a)
    if a.data.ndim == 0:
        raise _shape_error("sum_last", a.shape, a.shape)
    return _node(a.data.sum(axis=-1), (a,), lambda g: np.broadcast_to(g[..., None], a.shape).copy())


def mean_axis0(a) -> Tensor:
    """Mean over the leading axis (batch mean of row vectors)."""
    a = tensor(a)
    if a.data.ndim < 1:
        raise _shape_error("mean_axis0", a.shape, a.shape)
    n = a.shape[0]
    return _node(a.data.mean(axis=0), (a,), lambda g: np.broadcast_to(g / n, a.shape).copy())


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
    return _node(value, (a,), lambda g: g[..., None] * softmax_weights)


# -- structure ops ------------------------------------------------------------


def concat(parts, axis: int = 0) -> Tensor:
    parts = [tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat: need at least one operand")
    value = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def slice_of(start, stop):
        idx = (slice(None),) * (axis % value.ndim) + (slice(start, stop),)
        return lambda g: g[idx]

    return _node(value, tuple(parts), *map(slice_of, offsets[:-1], offsets[1:]))


def l2_normalize(a) -> Tensor:
    """Normalize each row (last axis) to unit Euclidean norm."""
    a = tensor(a)
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    y = a.data / norm

    def grad(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (g - y * inner) / norm

    return _node(y, (a,), grad)


def custom(value, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """A node with a hand-written backward.

    ``vjp(g)`` maps the upstream gradient to one gradient per parent, in the
    order of ``parents``, computed jointly so that they can share intermediates.
    """
    out = Tensor(value, parents)
    out._backward = vjp
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
