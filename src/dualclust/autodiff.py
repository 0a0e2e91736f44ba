"""Dense float64 matrices with reverse-mode differentiation.

The engine is deliberately small: a fixed set of primitives, each with a
hand-written vector-Jacobian product, sufficient to express the encoder,
the two projection heads, and both contrastive losses, which share the
fused NT-Xent primitive ``ntxent``. There is no general broadcasting
(the single exception is row-wise bias addition) and no higher-order
machinery. Every primitive is finite-difference tested.

Matrices are plain 2-D float64 numpy arrays throughout; ``as_matrix``
is the boundary check. Values are treated as immutable once wrapped in
a :class:`Node`; a graph belongs to one training step on one thread.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

__all__ = [
    "Matrix",
    "Node",
    "as_matrix",
    "lift",
    "backward",
    "matmul",
    "add",
    "mul",
    "add_row_vector",
    "relu",
    "softmax_rows",
    "log",
    "clip_min",
    "scale",
    "transpose",
    "sum_all",
    "ntxent",
]

# Type alias for readability: a 2-D float64 ndarray in row-major order.
Matrix = np.ndarray


def as_matrix(data) -> Matrix:
    """Coerce ``data`` to a 2-D float64 array, the only kind the engine accepts."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    return np.ascontiguousarray(m)


class Node:
    """One vertex of the gradient tape.

    Holds a value, a gradient slot, and provenance (primitive name plus
    parent references). The slot is ``None`` until ``backward`` zero-fills
    it for every node reachable from its root, then accumulates into it
    by summation when a node is consumed more than once. Leaves have no
    parents.
    """

    __slots__ = ("value", "grad", "op", "parents", "_vjp")

    def __init__(
        self,
        value,
        op: str = "leaf",
        parents: Sequence["Node"] = (),
        vjp: Callable[[Matrix], tuple[Matrix, ...]] | None = None,
    ):
        self.value = as_matrix(value)
        self.grad = None
        self.op = op
        self.parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def lift(x) -> Node:
    """Wrap an array-like as a leaf node; pass existing nodes through."""
    return x if isinstance(x, Node) else Node(x)


def _toposort(root: Node) -> list[Node]:
    """Iterative post-order over the provenance DAG: parents before consumers."""
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, int]] = [(root, 0)]
    while stack:
        node, child = stack.pop()
        if child == 0:
            if id(node) in visited:
                continue
            visited.add(id(node))
        if child < len(node.parents):
            stack.append((node, child + 1))
            stack.append((node.parents[child], 0))
        else:
            order.append(node)
    return order


def backward(root: Node) -> None:
    """Reverse-mode sweep from a scalar root.

    Zeroes the gradient slots of every node reachable from ``root``,
    seeds the root with 1, and accumulates exact vector-Jacobian
    products into each parent. Multiple uses of a node sum.
    """
    if root.shape != (1, 1):
        raise ContractError(f"backward requires a 1x1 scalar root, got shape {root.shape}")
    order = _toposort(root)
    for node in order:
        node.grad = np.zeros_like(node.value)
    root.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._vjp is None:
            continue
        contributions = node._vjp(node.grad)
        for parent, contrib in zip(node.parents, contributions):
            parent.grad += contrib


# ---------------------------------------------------------------------------
# Primitives


def matmul(a, b) -> Node:
    """Matrix product. Gradients: dA = G @ B^T, dB = A^T @ G."""
    a, b = lift(a), lift(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    av, bv = a.value, b.value

    def vjp(g):
        return g @ bv.T, av.T @ g

    return Node(av @ bv, "matmul", (a, b), vjp)


def _require_same_shape(op: str, a: Node, b: Node) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ, {a.shape} vs {b.shape}")


def add(a, b) -> Node:
    a, b = lift(a), lift(b)
    _require_same_shape("add", a, b)
    return Node(a.value + b.value, "add", (a, b), lambda g: (g, g))


def mul(a, b) -> Node:
    """Elementwise (Hadamard) product."""
    a, b = lift(a), lift(b)
    _require_same_shape("mul", a, b)
    av, bv = a.value, b.value
    return Node(av * bv, "mul", (a, b), lambda g: (g * bv, g * av))


def add_row_vector(m, v) -> Node:
    """Add a 1 x d bias row to every row of an n x d matrix.

    The only broadcast the engine supports.
    """
    m, v = lift(m), lift(v)
    if v.shape != (1, m.shape[1]):
        raise ShapeError(
            f"add_row_vector: bias shape {v.shape} does not match matrix {m.shape}"
        )

    def vjp(g):
        return g, g.sum(axis=0, keepdims=True)

    return Node(m.value + v.value, "add_row_vector", (m, v), vjp)


def relu(m) -> Node:
    m = lift(m)
    mv = m.value
    return Node(np.maximum(mv, 0.0), "relu", (m,), lambda g: (g * (mv > 0.0),))


def softmax_rows(m) -> Node:
    """Row-wise softmax with max subtraction for overflow safety."""
    m = lift(m)
    shifted = m.value - m.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return Node(y, "softmax_rows", (m,), vjp)


def log(m) -> Node:
    """Elementwise natural log; requires strictly positive entries."""
    m = lift(m)
    mv = m.value
    if not (mv > 0.0).all():
        raise DegenerateInputError("log: input has nonpositive entries")
    return Node(np.log(mv), "log", (m,), lambda g: (g / mv,))


def clip_min(m, floor: float) -> Node:
    """Elementwise max(x, floor). Gradient passes through where x > floor."""
    m = lift(m)
    mv = m.value
    floor = float(floor)
    return Node(np.maximum(mv, floor), "clip_min", (m,), lambda g: (g * (mv > floor),))


def scale(m, c: float) -> Node:
    """Multiply every entry by the constant ``c``."""
    m = lift(m)
    c = float(c)
    return Node(m.value * c, "scale", (m,), lambda g: (g * c,))


def transpose(m) -> Node:
    m = lift(m)
    return Node(m.value.T, "transpose", (m,), lambda g: (np.ascontiguousarray(g.T),))


def sum_all(m) -> Node:
    """Sum of all entries as a 1 x 1 matrix."""
    m = lift(m)
    return Node(
        [[m.value.sum()]],
        "sum_all",
        (m,),
        lambda g: (np.full_like(m.value, g[0, 0]),),
    )


def ntxent(a, b, temperature: float, exclude_self: bool) -> Node:
    """Mean normalized temperature-scaled cross-entropy of two n-row views,
    the shared core of both contrastive losses, as a 1 x 1 node.

    The 2n rows of [a; b] are scaled to unit norm; row i's logits are its
    cosine similarities over ``temperature``, its positive is row
    (i + n) mod 2n, and its denominator sums over every row, minus the
    self term when ``exclude_self``. A zero row is reported by index.
    """
    a, b = lift(a), lift(b)
    _require_same_shape("ntxent", a, b)
    n = a.shape[0]
    if n < 1:
        raise DegenerateInputError("ntxent: need at least one row per view")
    x = np.vstack([a.value, b.value])
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    zero_rows = np.flatnonzero(norms[:, 0] == 0.0)
    if zero_rows.size:
        raise DegenerateInputError(f"ntxent: row {int(zero_rows[0])} has zero norm")
    u = x / norms
    ut = np.ascontiguousarray(u.T)
    inv_temperature = float(1.0 / temperature)
    inv_rows = float(1.0 / (2 * n))
    # One 2n x 2n buffer goes from logits to exp(logits - row max) in
    # place; the positive logits are read off before the diagonal is masked.
    e = u @ ut
    e *= inv_temperature
    rows = np.arange(2 * n)
    positives = (rows + n) % (2 * n)
    positive_logits = e[rows, positives].reshape(2 * n, 1)
    if exclude_self:
        np.fill_diagonal(e, -np.inf)
    mx = e.max(axis=1, keepdims=True)
    e -= mx
    np.exp(e, out=e)  # exactly 0 on an excluded diagonal
    s = e.sum(axis=1, keepdims=True)
    per_row = mx + np.log(s) - positive_logits

    def vjp(g):
        # d/d logits = (softmax - one-hot positive) / 2n; then tau, U U^T, norms.
        # Only fresh arrays are written: e, s, u and norms serve every call.
        g_row = g[0, 0] * inv_rows
        dlogits = e / s
        dlogits *= g_row
        dlogits[rows, positives] -= g_row
        dlogits *= inv_temperature
        # Two products rather than (G + G^T) U: this rounds as the unfused chain did.
        du = dlogits @ ut.T
        du += (u.T @ dlogits).T
        du -= (du * u).sum(axis=1, keepdims=True) * u
        du /= norms
        return du[:n], du[n:]

    return Node([[per_row.sum() * inv_rows]], "ntxent", (a, b), vjp)
