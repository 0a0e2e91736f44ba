"""Instance- and cluster-level contrastive losses.

Both losses share one normalized temperature-scaled cross-entropy core:
the 2n rows to contrast are stacked, cosine similarities are divided by
a temperature, and each row's positive partner is the matching row of
the other view. The instance loss contrasts the 2N projected samples;
the cluster loss contrasts the 2M soft-label columns and subtracts an
assignment-entropy term that pushes cluster masses toward uniform to
prevent the all-in-one-cluster collapse.

Sign conventions, both configurable:

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
of a training step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, DegenerateInputError, ShapeError

__all__ = [
    "InstanceLossConfig",
    "ClusterLossConfig",
    "cosine_similarity_matrix",
    "instance_loss",
    "assignment_entropy",
    "cluster_loss",
    "pair_similarity_stats",
]

# Floor inside log for the entropy term: p * log(max(p, floor)) is exact
# for p >= floor and defines 0 * log(0) = 0 with a bounded gradient.
ENTROPY_LOG_FLOOR = 1e-12

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class InstanceLossConfig:
    temperature: float = 0.5
    exclude_self_similarity: bool = True

    def __post_init__(self):
        if not self.temperature > 0:
            raise ConfigError(
                f"instance loss temperature must be positive, got {self.temperature}"
            )


@dataclass(frozen=True)
class ClusterLossConfig:
    temperature: float = 1.0
    entropy_weight: float = 1.0
    exclude_self_similarity: bool = True
    literal_entropy_sign: bool = False

    def __post_init__(self):
        if not self.temperature > 0:
            raise ConfigError(
                f"cluster loss temperature must be positive, got {self.temperature}"
            )


def cosine_similarity_matrix(a, b) -> np.ndarray:
    """Pairwise cosine similarities: out[i, j] = cos(a_i, b_j), in [-1, 1]."""
    a = ad.as_matrix(a)
    b = ad.as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_similarity_matrix: widths differ, {a.shape} vs {b.shape}")
    for name, m in (("first", a), ("second", b)):
        norms = np.linalg.norm(m, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DegenerateInputError(
                f"cosine_similarity_matrix: {name} input row {int(zero[0])} has zero norm"
            )
    an = a / np.linalg.norm(a, axis=1, keepdims=True)
    bn = b / np.linalg.norm(b, axis=1, keepdims=True)
    return np.clip(an @ bn.T, -1.0, 1.0)


def _canonical_view_order(a: ad.Node, b: ad.Node) -> tuple[ad.Node, ad.Node]:
    # The losses are symmetric in their two views. Evaluating in a fixed
    # canonical order makes the swap equality hold bit-for-bit instead of
    # merely up to summation-order rounding.
    if b.value.tobytes() < a.value.tobytes():
        return b, a
    return a, b


def _ntxent_mean(stacked: ad.Node, temperature: float, exclude_self: bool) -> ad.Node:
    """Mean normalized temperature-scaled cross-entropy over 2n stacked rows.

    Row i's positive partner is row (i + n) mod 2n; the denominator sums
    over all rows (minus the self term when excluded).
    """
    two_n = stacked.shape[0]
    n = two_n // 2
    normalized = ad.row_l2_normalize(stacked)
    logits = ad.scale(ad.matmul(normalized, ad.transpose(normalized)), 1.0 / temperature)
    mask = np.ones((two_n, two_n))
    if exclude_self:
        np.fill_diagonal(mask, 0.0)
    positive_cols = (np.arange(two_n) + n) % two_n
    per_row = ad.sub(
        ad.masked_row_logsumexp(logits, mask),
        ad.take_per_row(logits, positive_cols),
    )
    return ad.scale(ad.sum_all(per_row), 1.0 / two_n)


def instance_loss(z_a, z_b, config: InstanceLossConfig = InstanceLossConfig()) -> ad.Node:
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
    stacked = ad.concat_rows(first, second)
    return _ntxent_mean(stacked, config.temperature, config.exclude_self_similarity)


def _check_row_stochastic(name: str, y: ad.Node) -> None:
    sums = y.value.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
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
    n = y_a.shape[0]
    ones_row = np.ones((1, n))

    def neg_entropy(y):
        # Sum columns first, then divide: keeps integer-valued column sums
        # exact so concentrated masses give entropy exactly 0.
        p = ad.scale(ad.matmul(ones_row, y), 1.0 / n)  # 1 x M column masses
        return ad.sum_all(ad.mul(p, ad.log(ad.clip_min(p, ENTROPY_LOG_FLOOR))))

    return ad.scale(ad.add(neg_entropy(y_a), neg_entropy(y_b)), -1.0)


def cluster_loss(y_a, y_b, config: ClusterLossConfig = ClusterLossConfig()) -> ad.Node:
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
    stacked = ad.concat_rows(ad.transpose(y_a), ad.transpose(y_b))
    contrastive = _ntxent_mean(stacked, config.temperature, config.exclude_self_similarity)
    entropy = assignment_entropy(y_a, y_b)
    sign = 1.0 if config.literal_entropy_sign else -1.0
    return ad.add(contrastive, ad.scale(entropy, sign * config.entropy_weight))


def pair_similarity_stats(a, b) -> tuple[float, float]:
    """Mean positive- and negative-pair cosine similarity for two stacked
    views (rows of ``a`` pair with the same rows of ``b``).

    Positive pairs are the n matched rows; negatives are every other
    ordered pair among the 2n rows, self-pairs excluded. Used for the
    per-epoch similarity trend export.
    """
    a = ad.as_matrix(a)
    b = ad.as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"pair_similarity_stats: view shapes differ, {a.shape} vs {b.shape}")
    n = a.shape[0]
    sim = cosine_similarity_matrix(np.vstack([a, b]), np.vstack([a, b]))
    pos_cols = (np.arange(2 * n) + n) % (2 * n)
    pos_mask = np.zeros_like(sim, dtype=bool)
    pos_mask[np.arange(2 * n), pos_cols] = True
    neg_mask = ~pos_mask & ~np.eye(2 * n, dtype=bool)
    pos_mean = float(sim[pos_mask].mean())
    neg_mean = float(sim[neg_mask].mean()) if neg_mask.any() else float("nan")
    return pos_mean, neg_mean
