"""Dense float64 matrices with reverse-mode differentiation.

The engine is deliberately small: a fixed set of primitives, each with a
hand-written vector-Jacobian product, sufficient to express the encoder,
the two projection heads, and both contrastive losses, which share the
fused NT-Xent primitive ``ntxent``; the fused ``mass_entropy`` is the
cluster loss's entropy term. There is no general broadcasting (the
single exception is the bias row that ``linear`` adds to every row) and
no higher-order machinery. Every primitive is finite-difference tested.

Matrices are plain 2-D float64 numpy arrays throughout; ``as_matrix``
is the boundary check. A primitive lifts a plain-array argument to a
leaf, except ``linear``, which takes a plain-array input as a constant
and forms no gradient for it. Values are treated as immutable once
wrapped in a :class:`Node`, and so are gradient slots: ``backward``
keeps a node's first gradient contribution as is, so one array may
fill several slots. A graph belongs to one training step on one thread.
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
    "add",
    "linear",
    "relu",
    "softmax_rows",
    "scale",
    "transpose",
    "ntxent",
    "mass_entropy",
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
    parent references). ``backward`` fills the slot of every node
    reachable from its root, summing when a node is consumed more than
    once. The slot is read-only: it may share storage with other slots.
    Leaves have no parents.
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

    Clears the gradient slots of every node reachable from ``root``,
    seeds the root with 1, and passes exact vector-Jacobian products to
    each parent. A parent keeps its first contribution as is; each later
    one is summed into a new array, so no slot is ever written in place
    and arrays that an earlier sweep returned stay unchanged.
    """
    if root.shape != (1, 1):
        raise ContractError(f"backward requires a 1x1 scalar root, got shape {root.shape}")
    order = _toposort(root)
    for node in order:
        node.grad = None
    root.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._vjp is None:
            continue
        contributions = node._vjp(node.grad)
        for parent, contrib in zip(node.parents, contributions):
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


# ---------------------------------------------------------------------------
# Primitives


def _require_same_shape(op: str, a: Node, b: Node) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ, {a.shape} vs {b.shape}")


def add(a, b) -> Node:
    a, b = lift(a), lift(b)
    _require_same_shape("add", a, b)
    return Node(a.value + b.value, "add", (a, b), lambda g: (g, g))


def linear(x, w, b) -> Node:
    """Affine layer ``x @ w`` plus the 1 x d bias row ``b`` on every row.

    Gradients: dX = G @ W^T, dW = X^T @ G, db = column sums of G. A
    plain-array ``x`` is a constant: the node's parents are then
    ``(w, b)`` and G @ W^T is never formed.
    """
    w, b = lift(w), lift(b)
    inputs = (x,) if isinstance(x, Node) else ()
    xv = x.value if inputs else as_matrix(x)
    wv = w.value
    if xv.shape[1] != wv.shape[0]:
        raise ShapeError(f"linear: inner dimensions differ, {xv.shape} x {wv.shape}")
    if b.shape != (1, wv.shape[1]):
        raise ShapeError(f"linear: bias shape {b.shape} does not match weight {wv.shape}")
    out = xv @ wv
    out += b.value

    def vjp(g):
        param_grads = (xv.T @ g, g.sum(axis=0, keepdims=True))
        return (g @ wv.T, *param_grads) if inputs else param_grads

    return Node(out, "linear", (*inputs, w, b), vjp)


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


def scale(m, c: float) -> Node:
    """Multiply every entry by the constant ``c``."""
    m = lift(m)
    c = float(c)
    return Node(m.value * c, "scale", (m,), lambda g: (g * c,))


def transpose(m) -> Node:
    m = lift(m)
    return Node(m.value.T, "transpose", (m,), lambda g: (np.ascontiguousarray(g.T),))


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


def mass_entropy(y, floor: float) -> Node:
    """Entropy -sum_j p_j log max(p_j, floor) of the column masses
    p = (1^T Y) / n of an n-row matrix, as a 1 x 1 node.

    The floor defines 0 log 0 = 0 with a bounded gradient. Column sums
    come before the division, so integer-valued sums stay exact and
    concentrated masses give entropy exactly 0. A mass that is not
    finite is reported by column.
    """
    y = lift(y)
    n = y.shape[0]
    if n < 1:
        raise DegenerateInputError("mass_entropy: need at least one row")
    floor = float(floor)
    inv_n = float(1.0 / n)
    p = np.ones((1, n)) @ y.value
    p *= inv_n
    bad = np.flatnonzero(~np.isfinite(p[0]))
    if bad.size:
        raise DegenerateInputError(f"mass_entropy: column {int(bad[0])} has non-finite mass")
    clipped = np.maximum(p, floor)
    logp = np.log(clipped)

    def vjp(g):
        # (gs p) / clipped is kept as written: it rounds as the unfused chain did.
        gs = -g
        dp = gs * logp
        dp += (gs * p) / clipped * (p > floor)
        dp *= inv_n
        return (np.ones((n, 1)) @ dp,)

    return Node([[(p * logp).sum() * -1.0]], "mass_entropy", (y,), vjp)
