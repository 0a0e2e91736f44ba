"""Dense float64 matrices with reverse-mode differentiation.

The engine is deliberately small: a fixed set of primitives, each with a
hand-written vector-Jacobian product, sufficient to express the encoder,
the two projection heads, and both contrastive losses, which share the
fused NT-Xent primitive ``ntxent``; the fused ``mass_entropy`` is the
cluster loss's entropy term. These take both augmented views as 2N
stacked rows [A; B], row i paired with row i + N; ``transpose_halves``
stacks the soft-label columns. There is no general broadcasting (the
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
    "view_rows",
    "unit_rows",
    "lift",
    "backward",
    "add",
    "linear",
    "relu",
    "softmax_rows",
    "scale",
    "transpose_halves",
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
    Leaves have no parents. ``unit`` is None except on a contrastive
    loss node, where it holds the unit rows that its ``ntxent`` formed,
    in input order, for readers that need them again.
    """

    __slots__ = ("value", "grad", "op", "parents", "_vjp", "unit")

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
        self.unit = None

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


def add(a, b) -> Node:
    a, b = lift(a), lift(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")
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


def view_rows(op: str, m) -> int:
    """Rows per view of a matrix that stacks two views as [A; B]."""
    rows = m.shape[0]
    if rows % 2:
        raise ShapeError(f"{op}: {rows} rows do not split into two equal views")
    if rows < 2:
        raise DegenerateInputError(f"{op}: need at least one row per view")
    return rows // 2


def unit_rows(op: str, x: Matrix) -> tuple[Matrix, Matrix]:
    """(rows of ``x`` scaled to unit norm, the n x 1 norms). A row whose
    norm is zero or overflows is reported by index."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    bad = np.flatnonzero(~((norms[:, 0] > 0.0) & (norms[:, 0] < np.inf)))
    if bad.size:
        kind = "zero" if norms[bad[0], 0] == 0.0 else "non-finite"
        raise DegenerateInputError(f"{op}: row {int(bad[0])} has {kind} norm")
    return x / norms, norms


def transpose_halves(m) -> Node:
    """Map the 2n x M stack [A; B] to the 2M x n stack [A^T; B^T]."""
    m = lift(m)
    n, cols = view_rows("transpose_halves", m), m.shape[1]
    out = np.vstack([m.value[:n].T, m.value[n:].T])
    return Node(out, "transpose_halves", (m,), lambda g: (np.vstack([g[:cols].T, g[cols:].T]),))


# Above this 1/temperature, exp(-2/temperature) is no longer a normal
# float, so a row sum of logits shifted by 1/temperature could underflow;
# ``ntxent`` then shifts each row by its own max.
SYMMETRIC_SHIFT_LIMIT = 350.0

# Rows per band of the upper triangle that ``ntxent`` stores below the
# limit; 2n rows up to this many are one band, the whole matrix.
BAND_ROWS = 128


def _exp_bands(v, vt, positives, shift, exclude_self):
    """The upper triangle of E = exp(V V^T - shift), its row sums and the
    positive logits, for ``ntxent``'s symmetric path.

    Band [i0, i1) is the (i1 - i0) x (2n - i0) block V[i0:i1] V^T[:, i0:]
    of logits, which is exp'd in place after its positives are read off
    and its diagonal is masked. Its row sums go to s[i0:i1] and its column
    sums right of the diagonal block to s[i1:], whose rows E mirrors. A row
    whose positive lies left of its band takes the logit that the earlier
    band read for that positive's own row.
    """
    rows = v.shape[0]
    start = np.arange(rows) // BAND_ROWS * BAND_ROWS
    column = np.maximum(positives - start, 0)
    s = np.zeros(rows)
    positive_logits = np.empty(rows)
    bands = []
    for i0 in range(0, rows, BAND_ROWS):
        i1 = min(i0 + BAND_ROWS, rows)
        band = v[i0:i1] @ vt[:, i0:]
        positive_logits[i0:i1] = band[np.arange(i1 - i0), column[i0:i1]]
        if exclude_self:
            np.fill_diagonal(band, -np.inf)
        band -= shift
        np.exp(band, out=band)  # exactly 0 on an excluded diagonal
        s[i0:i1] += band.sum(axis=1)
        if i1 < rows:
            s[i1:] += band[:, i1 - i0 :].sum(axis=0)
        bands.append(band)
    left = positives < start
    positive_logits[left] = positive_logits[positives[left]]
    return bands, s, positive_logits


def _band_product(bands, r, u):
    """(P + P^T) U from the stored bands of E, with r = 1/s: one band-sized
    M = E_band * (r_rows + r_cols) at a time, whose part right of the
    diagonal block also stands for its mirror below it. The bands are only
    read. The first band writes every row of the result, so one band gives
    exactly M U."""
    i0 = 0
    for band in bands:
        i1 = i0 + band.shape[0]
        m = np.add.outer(r[i0:i1], r[i0:])
        m *= band
        own = m @ u[i0:]
        if i0 == 0:
            du = np.concatenate((own, m[:, i1:].T @ u[:i1])) if i1 < len(u) else own
        else:
            du[i0:i1] += own
            du[i1:] += m[:, i1 - i0 :].T @ u[i0:i1]
        i0 = i1
    return du


def ntxent(x, temperature: float, exclude_self: bool) -> Node:
    """Mean normalized temperature-scaled cross-entropy over the 2N stacked
    rows [A; B] of two n-row views, the shared core of both contrastive
    losses, as a 1 x 1 node.

    The rows are scaled to unit norm; row i's logits are its cosine
    similarities over ``temperature``, its positive is row (i + n) mod 2n,
    and its denominator sums over every row, minus the self term when
    ``exclude_self``. It is evaluated with the view whose bytes sort
    first on top, so swapping the views gives the same value bit for bit.
    The node's ``unit`` keeps the unit rows in input order, before that
    swap. A row whose norm is zero or overflows is reported by index.

    Every logit is shifted by 1/temperature, the largest a cosine allows,
    before the exp, so the 2n x 2n exp matrix E is symmetric and its row
    sums s cannot overflow. Only its upper triangle is formed and kept,
    in bands of ``BAND_ROWS`` rows: band [i0, i1) holds columns i0 onward,
    so the bands hold about half of E, (2n)^2 * 4 bytes plus the diagonal
    blocks. The softmax P = E / s has P + P^T = E * (1/s_i + 1/s_j), and
    the VJP forms it one band at a time, with two products of at most
    (band x 2n)(2n x d) per band: it holds one band-sized temporary, never
    a 2n x 2n one. With 2n <= ``BAND_ROWS`` the one band is all of E.
    Above 1/temperature = ``SYMMETRIC_SHIFT_LIMIT`` a row sum could
    underflow, so each row is shifted by its own max, the whole of E is
    formed, and P + P^T with a transpose.
    """
    x = lift(x)
    n = view_rows("ntxent", x)
    u, norms = unit_rows("ntxent", x.value)
    unit = u
    swapped = x.value[n:].tobytes() < x.value[:n].tobytes()
    if swapped:
        u, norms = np.concatenate((u[n:], u[:n])), np.concatenate((norms[n:], norms[:n]))
    inv_temperature = float(1.0 / temperature)
    inv_rows = float(1.0 / (2 * n))
    symmetric = inv_temperature <= SYMMETRIC_SHIFT_LIMIT
    v = u * np.sqrt(inv_temperature)
    # General products on a contiguous V^T: numpy's A @ A.T is slower here.
    vt = np.ascontiguousarray(v.T)
    rows = np.arange(2 * n)
    positives = (rows + n) % (2 * n)
    if symmetric:
        shift = inv_temperature
        bands, s, positive_logits = _exp_bands(v, vt, positives, shift, exclude_self)
    else:
        # One 2n x 2n buffer goes from logits to exp(logits - row max) in
        # place; the positive logits are read off before the diagonal is masked.
        e = v @ vt
        positive_logits = e[rows, positives]
        if exclude_self:
            np.fill_diagonal(e, -np.inf)
        shift = e.max(axis=1)
        e -= shift[:, None]
        np.exp(e, out=e)  # exactly 0 on an excluded diagonal
        s = e.sum(axis=1)
    r = 1.0 / s
    per_row = shift + np.log(s) - positive_logits

    def vjp(g):
        # d/d logits = (P - positive one-hot) g / 2n and the logits are
        # U U^T / tau, so dU = ((P + P^T) U - 2 U[positives]) g / (2n tau):
        # the positive map is its own inverse. Then the unit-norm Jacobian.
        # Only fresh arrays are written: E, r, u and norms serve every call.
        if symmetric:
            du = _band_product(bands, r, u)
        else:
            p = e * r[:, None]
            du = (p + p.T) @ u
        du -= 2.0 * u[positives]
        du *= g[0, 0] * inv_rows * inv_temperature
        du -= (du * u).sum(axis=1, keepdims=True) * u
        du /= norms
        return (np.concatenate((du[n:], du[:n])) if swapped else du,)

    node = Node([[per_row.sum() * inv_rows]], "ntxent", (x,), vjp)
    node.unit = unit
    return node


def mass_entropy(y, floor: float) -> Node:
    """Summed entropy of the two views' column masses over the 2N stacked
    rows [A; B] of two n-row matrices, as a 1 x 1 node: the sum over
    views of -sum_j p_j log max(p_j, floor), p = (1^T V) / n.

    The floor defines 0 log 0 = 0 with a bounded gradient. Column sums
    come before the division, so integer-valued sums stay exact and
    concentrated masses give entropy exactly 0. A mass that is not
    finite is reported by view and column.
    """
    y = lift(y)
    n = view_rows("mass_entropy", y)
    floor = float(floor)
    inv_n = float(1.0 / n)
    ones = np.ones((1, n))
    p = np.vstack([ones @ y.value[:n], ones @ y.value[n:]])  # one row per view
    p *= inv_n
    bad = np.argwhere(~np.isfinite(p))
    if bad.size:
        view, column = ("first", "second")[bad[0, 0]], int(bad[0, 1])
        raise DegenerateInputError(f"mass_entropy: {view} view, column {column}: mass not finite")
    clipped = np.maximum(p, floor)
    logp = np.log(clipped)

    def vjp(g):
        # (gs p) / clipped is kept as written: it rounds as the unfused chain did.
        gs = -g
        dp = gs * logp
        dp += (gs * p) / clipped * (p > floor)
        dp *= inv_n
        return (np.vstack([ones.T @ dp[:1], ones.T @ dp[1:]]),)

    per_view = (p * logp).sum(axis=1)
    return Node([[(per_view[0] + per_view[1]) * -1.0]], "mass_entropy", (y,), vjp)
