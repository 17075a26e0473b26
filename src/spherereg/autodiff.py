"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced: its
parents and one VJP, which maps the node's cotangent to one gradient per
parent, in parent order, with ``None`` for a parent that needs none.
Calling ``backward`` on a scalar walks the tape in reverse topological
order, calls each node's VJP once and accumulates the gradients into every
reachable node.  Work that several parents' gradients share is a local of
that one call, so it goes when the call returns.  A node that needs no
gradient (every input is a constant) keeps no tape: it holds neither its
parents nor its VJP, so the arrays the VJP closes over are freed once the
next operation has read its value, and a network pass over constant
weights holds one layer's intermediates at a time.  Only the operations the
program composes on the tape are provided; its stages with hand-written
VJPs build their own nodes and share ``scatter_rows``, the one row
scatter-add.  All arithmetic is double precision.
"""

from __future__ import annotations

import numpy as np

LEAKY_SLOPE = 0.2  # negative-side slope of leaky_relu


class Tensor:
    __slots__ = ("value", "grad", "parents", "vjp", "requires_grad", "name")

    # an ndarray on the left of an operator defers to the Tensor's
    # reflected one instead of building an object array; only ``__rmul__``
    # exists, since the program puts a constant first only in a product
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None, requires_grad=True, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents if requires_grad else ()
        self.vjp = vjp if requires_grad else None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, name={self.name})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar) tensor w.r.t. the tape:
        each node's VJP runs once, and its gradients are added into the
        parents in parent order."""
        if seed is None:
            if self.value.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.value)
        order = _toposort(self)
        self.grad = np.asarray(seed, dtype=np.float64)
        for node in order:
            g = node.grad
            if g is None or node.vjp is None:
                continue
            for parent, contrib in zip(node.parents, node.vjp(g)):
                if contrib is None:
                    continue
                # out of place: a VJP may return a view of ``g`` or an array
                # its node still holds, so no gradient is written into
                if parent.grad is None:
                    parent.grad = contrib
                else:
                    parent.grad = parent.grad + contrib


def _toposort(root: Tensor):
    seen = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return list(reversed(order))


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast when producing it."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _binary(a, b, out, grad_a, grad_b):
    """A node of two operands: ``grad_a(g, x, y)`` and ``grad_b(g, x, y)``
    are the operands' gradients given the cotangent and the operand values,
    each evaluated only when its operand needs a gradient."""
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return (grad_a(g, a.value, b.value) if a.requires_grad else None,
                grad_b(g, a.value, b.value) if b.requires_grad else None)

    return Tensor(out(a.value, b.value), (a, b), vjp,
                  requires_grad=a.requires_grad or b.requires_grad)


def add(a, b):
    return _binary(a, b, np.add,
                   lambda g, x, y: _unbroadcast(g, x.shape),
                   lambda g, x, y: _unbroadcast(g, y.shape))


def sub(a, b):
    return _binary(a, b, np.subtract,
                   lambda g, x, y: _unbroadcast(g, x.shape),
                   lambda g, x, y: _unbroadcast(-g, y.shape))


def mul(a, b):
    return _binary(a, b, np.multiply,
                   lambda g, x, y: _unbroadcast(g * y, x.shape),
                   lambda g, x, y: _unbroadcast(g * x, y.shape))


def div(a, b):
    return _binary(a, b, np.divide,
                   lambda g, x, y: _unbroadcast(g / y, x.shape),
                   lambda g, x, y: _unbroadcast(-g * x / y**2, y.shape))


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    return _binary(a, b, np.matmul,
                   lambda g, x, y: g @ y.T,
                   lambda g, x, y: x.T @ g)


def leaky_relu(a):
    a = as_tensor(a)
    pos = a.value > 0
    factor = np.where(pos, 1.0, LEAKY_SLOPE)
    return Tensor(a.value * factor, (a,), lambda g: (g * factor,),
                  requires_grad=a.requires_grad)


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.value.shape).copy(),)

    return Tensor(out, (a,), vjp, requires_grad=a.requires_grad)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.value.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(part if t.requires_grad else None
                     for t, part in zip(tensors, np.split(g, splits, axis=axis)))

    return Tensor(
        np.concatenate([t.value for t in tensors], axis=axis),
        tuple(tensors), vjp,
        requires_grad=any(t.requires_grad for t in tensors),
    )


def scatter_rows(index, values, n):
    """The transpose of a row gather: row ``i`` of ``values`` (flattened to
    columns) is added into row ``index[i]`` of an (n, columns) result.  One
    ``bincount`` per column, so each output row sums in index order."""
    index = np.ravel(index)
    cols = np.reshape(values, (len(index), -1))
    return np.stack([np.bincount(index, weights=cols[:, c], minlength=n)
                     for c in range(cols.shape[1])], axis=1)


def gather(a, index):
    """Index rows (axis 0) with an arbitrary integer array; gradients
    scatter-add back."""
    a = as_tensor(a)
    index = np.asarray(index)

    def vjp(g):
        return (scatter_rows(index, g, a.value.shape[0])
                .reshape(a.value.shape),)

    # np.take gathers rows several times faster than fancy indexing
    return Tensor(np.take(a.value, index, axis=0), (a,), vjp,
                  requires_grad=a.requires_grad)


def softmax_rows(a):
    """Numerically stable softmax along the last axis."""
    a = as_tensor(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return Tensor(out, (a,), vjp, requires_grad=a.requires_grad)


# -- primitive registry for gradient verification -------------------------

def _rand(shapes):
    def gen(rng):
        return [rng.standard_normal(s) for s in shapes]
    return gen


def _randpos(shapes):
    def gen(rng):
        return [rng.random(s) + 0.5 for s in shapes]
    return gen


# name -> (builder taking Tensors, sample-input generator)
OP_REGISTRY = {
    "add": (add, _rand([(4, 3), (4, 3)])),
    "sub": (sub, _rand([(4, 3), (4, 3)])),
    "mul": (mul, _rand([(4, 3), (4, 3)])),
    "mul_broadcast": (mul, _rand([(4, 1, 3), (1, 5, 3)])),
    "div": (div, _randpos([(4, 3), (4, 3)])),
    "matmul": (matmul, _rand([(4, 3), (3, 5)])),
    "leaky_relu": (leaky_relu, _rand([(4, 3)])),
    "sum": (lambda a: sum_(a, axis=1), _rand([(4, 3)])),
    "concat": (lambda a, b: concat([a, b], axis=1), _rand([(4, 3), (4, 2)])),
    "gather": (
        lambda a: gather(a, np.array([[0, 1], [2, 2], [3, 0]])),
        _rand([(5, 3)]),
    ),
    "softmax_rows": (softmax_rows, _rand([(4, 6)])),
}
