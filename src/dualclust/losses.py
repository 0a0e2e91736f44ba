"""Instance- and cluster-level contrastive losses.

Every entry point takes one matrix that holds both augmented views as
2N stacked rows [A; B]: row i and row i + N are the two views of sample
i. An odd row count is a ``ShapeError``.

Both losses share one normalized temperature-scaled cross-entropy core,
the fused primitive ``autodiff.ntxent``: cosine similarities of 2n
stacked rows are divided by a temperature, and each row's positive
partner is the matching row of the other view. The instance loss
contrasts the 2N projected samples; the cluster loss contrasts the 2M
soft-label columns, stacked by ``autodiff.transpose_halves``, and
subtracts an assignment-entropy term, one fused and weighted
``autodiff.mass_entropy`` node over both views, that pushes cluster
masses toward uniform to prevent the all-in-one-cluster collapse.

Both losses take their settings from one ``config.LossSection``, which
holds each default and range check: the instance loss reads
``instance_temperature``, the cluster loss ``cluster_temperature`` and
``entropy_weight``. Sign conventions, both fields of that section:

* ``exclude_self_similarity`` (default on) drops the constant
  exp(1/temperature) self term from each denominator, the standard
  normalized cross-entropy convention. Turning it off keeps the literal
  2n-term denominator.
* ``literal_entropy_sign`` (default off) flips the entropy term so that
  minimizing the loss also minimizes assignment entropy. The default
  subtracts true entropy (minimizing the loss maximizes it), which is
  what the anti-collapse role of the term requires.

All loss entry points accept plain arrays or graph nodes and return a
1x1 node, so they can be evaluated standalone or differentiated as part
of a training step. ``pair_similarity_stats``, the per-epoch report of
mean positive and negative cosine similarity, takes O(n d) per call: it
sums unit rows instead of forming the 2n x 2n similarity matrix.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .config import LossSection
from .errors import ContractError, DegenerateInputError

__all__ = [
    "instance_loss",
    "assignment_entropy",
    "cluster_loss",
    "pair_similarity_stats",
]

# Floor inside log for the entropy term: p * log(max(p, floor)) is exact
# for p >= floor and defines 0 * log(0) = 0 with a bounded gradient.
ENTROPY_LOG_FLOOR = 1e-12

ROW_SUM_TOL = 1e-9


def instance_loss(z, config: LossSection = LossSection()) -> ad.Node:
    """Contrastive loss over the 2N stacked projections [Z_a; Z_b]; the
    two views of one instance are a positive pair, everything else in the
    batch is negative. Returns a differentiable 1x1 node.

    Cosine similarity makes the loss invariant to positive per-row
    scaling; with self terms excluded it is nonnegative. N = 1 is
    degenerate (no negatives) and evaluates to exactly 0.
    """
    z = ad.lift(z)
    if ad.view_rows("instance_loss", z) < 2 and config.exclude_self_similarity:
        # A single pair with the self term excluded has numerator equal to
        # denominator: the loss is identically 0 and carries no signal.
        raise DegenerateInputError(
            "instance_loss: need at least 2 samples per view when self terms are excluded"
        )
    return ad.ntxent(z, config.instance_temperature, config.exclude_self_similarity)


def _check_row_stochastic(name: str, y: ad.Node) -> None:
    n = ad.view_rows(name, y)
    sums = y.value.sum(axis=1)
    # Negated so that a NaN sum, which compares false, is flagged too.
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))
    if bad.size:
        row = int(bad[0])
        raise ContractError(
            f"{name} ({'first' if row < n else 'second'} view): row {row % n} "
            f"sums to {sums[row]:.12g}, expected 1"
        )


def assignment_entropy(y) -> ad.Node:
    """Entropy of the per-view cluster-mass distributions of the 2N
    stacked soft-label rows [Y_a; Y_b].

    For each view, p_i = (column-i sum) / N; the result is
    -sum_i [p^a_i log p^a_i + p^b_i log p^b_i], nonnegative, maximal at
    uniform masses with value 2 log M. Zero masses contribute zero.
    """
    y = ad.lift(y)
    _check_row_stochastic("assignment_entropy", y)
    return ad.mass_entropy(y, ENTROPY_LOG_FLOOR)


def cluster_loss(y, config: LossSection = LossSection()) -> ad.Node:
    """Contrastive loss over the 2M cluster columns plus the entropy term.

    The input stacks the two views' row-stochastic N x M soft-label
    matrices, [Y_a; Y_b]. Column j of Y_a and column j of Y_b form the
    positive pair; the remaining 2M - 2 columns are negatives. The
    entropy of column masses is subtracted (scaled by ``entropy_weight``)
    so that minimizing the loss spreads mass across clusters;
    ``literal_entropy_sign`` flips that term. The returned node's
    ``unit`` holds the unit-scaled stacked columns that its NT-Xent formed.
    """
    y = ad.lift(y)
    if y.shape[1] < 2:
        raise DegenerateInputError("cluster_loss: need at least 2 clusters")
    _check_row_stochastic("cluster_loss", y)
    empty = np.argwhere(np.linalg.norm(y.value.reshape(2, -1, y.shape[1]), axis=1) == 0.0)
    if empty.size:
        view, cluster = "ab"[empty[0, 0]], int(empty[0, 1])
        raise DegenerateInputError(f"cluster_loss: cluster {cluster} has zero mass in view {view}")
    contrastive = ad.ntxent(
        ad.transpose_halves(y), config.cluster_temperature, config.exclude_self_similarity
    )
    # The rows were checked above: the fused term, not assignment_entropy,
    # which would check them again.
    sign = 1.0 if config.literal_entropy_sign else -1.0
    entropy = ad.mass_entropy(y, ENTROPY_LOG_FLOOR, sign * config.entropy_weight)
    loss = ad.add(contrastive, entropy)
    loss.unit = contrastive.unit
    return loss


def pair_similarity_stats(x) -> tuple[float, float]:
    """Mean positive- and negative-pair cosine similarity over the 2N
    stacked rows [A; B] of two views (row i pairs with row i + N).

    Positive pairs are the n matched rows; negatives are every other
    ordered pair among the 2n rows, self-pairs excluded. Used for the
    per-epoch similarity trend export. Both means take O(n d): the
    ordered pairs of unit rows u_i sum to |sum_i u_i|^2, so the negatives
    sum to that less the self terms and twice the positives. A row whose
    norm is zero or overflows is reported by its index among the 2n rows.

    ``x`` may also be a node. The node of a contrastive loss carries the
    unit rows that its NT-Xent formed (``unit``), and they are read from
    it, not formed again; any other node gives its value.
    """
    if isinstance(x, ad.Node) and x.unit is not None:
        u = x.unit
    else:
        x = ad.as_matrix(x.value if isinstance(x, ad.Node) else x)
        ad.view_rows("pair_similarity_stats", x)
        u, _ = ad.unit_rows("pair_similarity_stats", x)
    n = u.shape[0] // 2
    pos = np.einsum("ij,ij->i", u[:n], u[n:])
    total = u.sum(axis=0)
    neg_sum = total @ total - np.einsum("ij,ij->", u, u) - 2.0 * pos.sum()
    neg_count = 4 * n * n - 4 * n
    pos_mean = float(np.clip(pos.mean(), -1.0, 1.0))
    neg_mean = float(np.clip(neg_sum / neg_count, -1.0, 1.0)) if neg_count else float("nan")
    return pos_mean, neg_mean
