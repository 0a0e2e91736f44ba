"""Instance- and cluster-level contrastive losses.

Both losses share one normalized temperature-scaled cross-entropy core,
the fused primitive ``autodiff.ntxent``: the 2n rows to contrast are
stacked, cosine similarities are divided by a temperature, and each
row's positive partner is the matching row of the other view. The
instance loss contrasts the 2N projected samples; the cluster loss
contrasts the 2M soft-label columns and subtracts an assignment-entropy
term, one fused ``autodiff.mass_entropy`` node per view, that pushes
cluster masses toward uniform to prevent the all-in-one-cluster
collapse.

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
from .errors import ContractError, DegenerateInputError, ShapeError

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


def _canonical_view_order(a: ad.Node, b: ad.Node) -> tuple[ad.Node, ad.Node]:
    # The losses are symmetric in their two views. Evaluating in a fixed
    # canonical order makes the swap equality hold bit-for-bit instead of
    # merely up to summation-order rounding.
    if b.value.tobytes() < a.value.tobytes():
        return b, a
    return a, b


def instance_loss(z_a, z_b, config: LossSection = LossSection()) -> ad.Node:
    """Contrastive loss over 2N augmented samples; positive pairs are the
    two views of the same instance, everything else in the batch is
    negative. Returns a differentiable 1x1 node.

    Cosine similarity makes the loss invariant to positive per-row
    scaling; with self terms excluded it is nonnegative. N = 1 is
    degenerate (no negatives) and evaluates to exactly 0.
    """
    z_a, z_b = ad.lift(z_a), ad.lift(z_b)
    if z_a.shape != z_b.shape:
        raise ShapeError(f"instance_loss: view shapes differ, {z_a.shape} vs {z_b.shape}")
    if z_a.shape[0] < 1 or (z_a.shape[0] < 2 and config.exclude_self_similarity):
        # A single pair with the self term excluded has numerator equal to
        # denominator: the loss is identically 0 and carries no signal.
        raise DegenerateInputError(
            "instance_loss: need at least 2 samples per view when self terms are excluded"
        )
    first, second = _canonical_view_order(z_a, z_b)
    return ad.ntxent(first, second, config.instance_temperature, config.exclude_self_similarity)


def _check_row_stochastic(name: str, y: ad.Node) -> None:
    sums = y.value.sum(axis=1)
    # Negated so that a NaN sum, which compares false, is flagged too.
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))
    if bad.size:
        raise ContractError(
            f"{name}: row {int(bad[0])} sums to {sums[bad[0]]:.12g}, expected 1"
        )


def assignment_entropy(y_a, y_b) -> ad.Node:
    """Entropy of the per-view cluster-mass distributions.

    For each view, p_i = (column-i sum) / N; the result is
    -sum_i [p^a_i log p^a_i + p^b_i log p^b_i], nonnegative, maximal at
    uniform masses with value 2 log M. Zero masses contribute zero.
    """
    y_a, y_b = ad.lift(y_a), ad.lift(y_b)
    if y_a.shape != y_b.shape:
        raise ShapeError(f"assignment_entropy: view shapes differ, {y_a.shape} vs {y_b.shape}")
    _check_row_stochastic("assignment_entropy (first view)", y_a)
    _check_row_stochastic("assignment_entropy (second view)", y_b)
    return ad.add(
        ad.mass_entropy(y_a, ENTROPY_LOG_FLOOR), ad.mass_entropy(y_b, ENTROPY_LOG_FLOOR)
    )


def cluster_loss(y_a, y_b, config: LossSection = LossSection()) -> ad.Node:
    """Contrastive loss over the 2M cluster columns plus the entropy term.

    Inputs are row-stochastic soft-label matrices (N x M) for the two
    views. The two columns representing the same cluster form the
    positive pair; the remaining 2M - 2 columns are negatives. The
    entropy of column masses is subtracted (scaled by
    ``entropy_weight``) so that minimizing the loss spreads mass across
    clusters; ``literal_entropy_sign`` flips that term.
    """
    y_a, y_b = ad.lift(y_a), ad.lift(y_b)
    if y_a.shape != y_b.shape:
        raise ShapeError(f"cluster_loss: view shapes differ, {y_a.shape} vs {y_b.shape}")
    if y_a.shape[1] < 2:
        raise DegenerateInputError("cluster_loss: need at least 2 clusters")
    y_a, y_b = _canonical_view_order(y_a, y_b)
    _check_row_stochastic("cluster_loss (first view)", y_a)
    _check_row_stochastic("cluster_loss (second view)", y_b)
    for view, y in (("a", y_a), ("b", y_b)):
        mass = np.linalg.norm(y.value, axis=0)
        empty = np.flatnonzero(mass == 0.0)
        if empty.size:
            raise DegenerateInputError(
                f"cluster_loss: cluster {int(empty[0])} has zero mass in view {view}"
            )
    contrastive = ad.ntxent(
        ad.transpose(y_a),
        ad.transpose(y_b),
        config.cluster_temperature,
        config.exclude_self_similarity,
    )
    entropy = assignment_entropy(y_a, y_b)
    sign = 1.0 if config.literal_entropy_sign else -1.0
    return ad.add(contrastive, ad.scale(entropy, sign * config.entropy_weight))


def pair_similarity_stats(a, b) -> tuple[float, float]:
    """Mean positive- and negative-pair cosine similarity for two stacked
    views (rows of ``a`` pair with the same rows of ``b``).

    Positive pairs are the n matched rows; negatives are every other
    ordered pair among the 2n rows, self-pairs excluded. Used for the
    per-epoch similarity trend export. Both means take O(n d): the
    ordered pairs of unit rows u_i sum to |sum_i u_i|^2, so the negatives
    sum to that less the self terms and twice the positives. A zero row
    is reported by its index among the 2n stacked rows.
    """
    a = ad.as_matrix(a)
    b = ad.as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"pair_similarity_stats: view shapes differ, {a.shape} vs {b.shape}")
    n = a.shape[0]
    x = np.vstack([a, b])
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    zero = np.flatnonzero(norms[:, 0] == 0.0)
    if zero.size:
        raise DegenerateInputError(f"pair_similarity_stats: row {int(zero[0])} has zero norm")
    u = x / norms
    pos = np.einsum("ij,ij->i", u[:n], u[n:])
    total = u.sum(axis=0)
    neg_sum = total @ total - np.einsum("ij,ij->", u, u) - 2.0 * pos.sum()
    neg_count = 4 * n * n - 4 * n
    pos_mean = float(np.clip(pos.mean(), -1.0, 1.0))
    neg_mean = float(np.clip(neg_sum / neg_count, -1.0, 1.0)) if neg_count else float("nan")
    return pos_mean, neg_mean
