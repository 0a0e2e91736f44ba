"""Dense float64 matrices with reverse-mode differentiation.

The engine is deliberately small: a fixed set of primitives, each with a
hand-written vector-Jacobian product, sufficient to express the encoder,
the two projection heads, and both contrastive losses. There is no
general broadcasting (the single exception is row-wise bias addition)
and no higher-order machinery. Every primitive is finite-difference
tested.

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
    "sub",
    "mul",
    "add_row_vector",
    "relu",
    "row_l2_normalize",
    "softmax_rows",
    "log",
    "clip_min",
    "scale",
    "transpose",
    "concat_rows",
    "sum_all",
    "take_per_row",
    "masked_row_logsumexp",
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

    Holds a value, a gradient slot of identical shape, and provenance
    (primitive name plus parent references). Leaves have no parents;
    ``backward`` accumulates into ``grad`` by summation when a node is
    consumed more than once.
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
        self.grad = np.zeros_like(self.value)
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


def sub(a, b) -> Node:
    a, b = lift(a), lift(b)
    _require_same_shape("sub", a, b)
    return Node(a.value - b.value, "sub", (a, b), lambda g: (g, -g))


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


def row_l2_normalize(m) -> Node:
    """Scale every row to unit Euclidean norm.

    Exact per-row Jacobian (I - u u^T) / ||z|| where u is the normalized
    row; a zero row is a degenerate input, reported by index.
    """
    m = lift(m)
    mv = m.value
    norms = np.sqrt((mv * mv).sum(axis=1, keepdims=True))
    zero_rows = np.flatnonzero(norms[:, 0] == 0.0)
    if zero_rows.size:
        raise DegenerateInputError(
            f"row_l2_normalize: row {int(zero_rows[0])} has zero norm"
        )
    y = mv / norms

    def vjp(g):
        return ((g - (g * y).sum(axis=1, keepdims=True) * y) / norms,)

    return Node(y, "row_l2_normalize", (m,), vjp)


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


def concat_rows(a, b) -> Node:
    """Stack two matrices with equal column counts vertically."""
    a, b = lift(a), lift(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: column counts differ, {a.shape} vs {b.shape}")
    na = a.shape[0]
    return Node(
        np.vstack([a.value, b.value]),
        "concat_rows",
        (a, b),
        lambda g: (g[:na], g[na:]),
    )


def sum_all(m) -> Node:
    """Sum of all entries as a 1 x 1 matrix."""
    m = lift(m)
    return Node(
        [[m.value.sum()]],
        "sum_all",
        (m,),
        lambda g: (np.full_like(m.value, g[0, 0]),),
    )


def take_per_row(m, cols) -> Node:
    """Pick one entry per row: output[i, 0] = m[i, cols[i]]."""
    m = lift(m)
    cols = np.asarray(cols, dtype=np.int64)
    n = m.shape[0]
    if cols.shape != (n,):
        raise ContractError(f"take_per_row: need {n} column indices, got shape {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= m.shape[1]):
        raise ContractError("take_per_row: column index out of range")
    rows = np.arange(n)

    def vjp(g):
        out = np.zeros_like(m.value)
        out[rows, cols] = g[:, 0]
        return (out,)

    return Node(m.value[rows, cols].reshape(n, 1), "take_per_row", (m,), vjp)


def masked_row_logsumexp(m, mask) -> Node:
    """Per row: log sum_j mask[i,j] * exp(m[i,j]), with max subtraction.

    ``mask`` is a constant 0/1 matrix; every row must keep at least one
    entry. This is the numerically stable core of both contrastive
    losses (the mask drops excluded self-similarity terms).
    """
    m = lift(m)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != m.shape:
        raise ShapeError(f"masked_row_logsumexp: mask shape {mask.shape} vs {m.shape}")
    if not np.isin(mask, (0.0, 1.0)).all():
        raise ContractError("masked_row_logsumexp: mask entries must be 0 or 1")
    keep = mask > 0.0
    if not keep.any(axis=1).all():
        raise ContractError("masked_row_logsumexp: a row has no unmasked entries")
    shifted = np.where(keep, m.value, -np.inf)
    mx = shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted - mx)  # exactly 0 where masked out
    s = e.sum(axis=1, keepdims=True)
    w = e / s

    def vjp(g):
        return (g * w,)

    return Node(mx + np.log(s), "masked_row_logsumexp", (m,), vjp)
