"""Clustering metrics: NMI, accuracy under optimal matching, ARI.

All three compare a predicted labeling against ground truth through the
contingency table, a count matrix that ``_contingency`` builds after
checking the labels, and all are invariant to relabeling either side.
NMI normalizes mutual information by the arithmetic mean of the two
label entropies (natural logs). Accuracy maximizes the matched fraction
over one-to-one cluster-to-class assignments, solved exactly on the
contingency table with its shorter side as rows. ARI keeps its pair-counting
combinatorics in exact integers until the final division.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError

__all__ = [
    "nmi",
    "clustering_accuracy",
    "ari",
    "hungarian",
]


def _contingency(pred, truth, min_n=1) -> np.ndarray:
    """The K_pred x K_true matrix of nonnegative int counts, one row per
    distinct predicted label and one column per distinct true label, each
    side in sorted label order."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.ndim != 1:
            raise ContractError(f"{name}: labels must be one-dimensional, got shape {arr.shape}")
    if pred.shape[0] != truth.shape[0]:
        raise ContractError(
            f"label length mismatch: pred has {pred.shape[0]}, truth has {truth.shape[0]}"
        )
    if pred.shape[0] < min_n:
        raise ContractError(f"need at least {min_n} samples, got {pred.shape[0]}")
    _, pred_idx = np.unique(pred, return_inverse=True)
    _, truth_idx = np.unique(truth, return_inverse=True)
    counts = np.zeros((pred_idx.max() + 1, truth_idx.max() + 1), dtype=np.int64)
    np.add.at(counts, (pred_idx, truth_idx), 1)
    return counts


def _log_p(marginals, n):
    return {
        int(i): math.log(int(v) / n) for i, v in enumerate(marginals) if v > 0
    }


def nmi(pred, truth) -> float:
    """Mutual information over the arithmetic mean of the two entropies,
    in [0, 1]. Two single-cluster partitions are identical, hence 1.

    Every term reuses the same log(marginal/n) evaluations and all sums
    go through fsum, so relabeling either side cannot move the result
    and identical partitions score exactly 1.
    """
    counts = _contingency(pred, truth)
    n = int(counts.sum())
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    log_rows = _log_p(rows, n)
    log_cols = _log_p(cols, n)
    h_pred = -math.fsum(
        (int(v) / n) * log_rows[i] for i, v in enumerate(rows) if v > 0
    )
    h_truth = -math.fsum(
        (int(v) / n) * log_cols[j] for j, v in enumerate(cols) if v > 0
    )
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    info = math.fsum(
        (int(counts[i, j]) / n)
        * (math.log(int(counts[i, j]) / n) - log_rows[int(i)] - log_cols[int(j)])
        for i, j in zip(*np.nonzero(counts))
    )
    value = info / ((h_pred + h_truth) / 2.0)
    return min(max(value, 0.0), 1.0)


def clustering_accuracy(pred, truth) -> float:
    """Fraction matched under the best one-to-one cluster-to-class map.

    The match count is maximized by optimal assignment on the
    contingency table, transposed so that its shorter side is the rows;
    a padded square table would match the same count at far more cost.
    """
    counts = _contingency(pred, truth)
    if counts.shape[0] > counts.shape[1]:
        counts = counts.T
    assignment = hungarian(-counts.astype(np.float64))
    matched = counts[np.arange(counts.shape[0]), assignment].sum()
    return float(matched / counts.sum())


def ari(pred, truth) -> float:
    """Pair-counting index adjusted for chance, at most 1; 0 in
    expectation for independent partitions. Integer-exact until the
    final ratio."""
    counts = _contingency(pred, truth, min_n=2)
    sum_cells = sum(math.comb(int(v), 2) for v in counts.ravel())
    sum_rows = sum(math.comb(int(v), 2) for v in counts.sum(axis=1))
    sum_cols = sum(math.comb(int(v), 2) for v in counts.sum(axis=0))
    total_pairs = math.comb(int(counts.sum()), 2)
    numerator = 2 * (sum_cells * total_pairs - sum_rows * sum_cols)
    denominator = total_pairs * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denominator == 0:
        # Both partitions degenerate in the same way (all-singletons or
        # single-cluster on both sides): identical, by convention 1.
        return 1.0
    return numerator / denominator


# Costs are shifted into [0, R]; the potentials then stay in [-R, 0]
# (columns) and [0, R] (rows), and every reduced cost in [-R, 2R]. Costs
# whose magnitude exceeds this are scaled by a power of two, which keeps
# every normal float exact, so that 2R cannot overflow.
MAX_COST_MAGNITUDE = 2.0**1020


def hungarian(cost) -> np.ndarray:
    """Minimal-cost assignment of every row to a distinct column; returns
    the column assigned to each row. Needs a finite cost matrix with no
    more rows than columns.

    Shortest augmenting paths with row and column potentials (Jonker and
    Volgenant 1987), O(rows^2 * columns): each row joins the matching
    along the cheapest reduced-cost path, grown one column at a time by
    vector operations over one row. Index 0 of the column arrays is a
    virtual column holding the row being added.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] > cost.shape[1]:
        raise ContractError(
            f"hungarian: cost matrix must be 2-D with rows <= columns, got {cost.shape}"
        )
    if not np.all(np.isfinite(cost)):
        raise ContractError("hungarian: cost matrix must be finite")
    n, m = cost.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if np.abs(cost).max() > MAX_COST_MAGNITUDE:
        cost = cost * 2.0**-4
    reduced = np.zeros((n + 1, m + 1))
    reduced[1:, 1:] = cost - cost.min()
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    row_of = np.zeros(m + 1, dtype=np.int64)  # 1-based row matched to each column; 0: free
    way = np.zeros(m + 1, dtype=np.int64)  # previous column on the shortest path
    for row in range(1, n + 1):
        row_of[0] = row
        col = 0
        dist = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[col] != 0:
            used[col] = True
            r = row_of[col]
            step = reduced[r] - u[r] - v
            closer = ~used & (step < dist)
            dist[closer] = step[closer]
            way[closer] = col
            free_dist = np.where(used, np.inf, dist)
            col = int(np.argmin(free_dist))
            delta = free_dist[col]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[~used] -= delta
        while col != 0:
            prev = way[col]
            row_of[col] = row_of[prev]
            col = prev
    assignment = np.empty(n, dtype=np.int64)
    matched = np.flatnonzero(row_of[1:])
    assignment[row_of[1:][matched] - 1] = matched
    return assignment
