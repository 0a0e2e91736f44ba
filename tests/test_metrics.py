"""Clustering metrics against hand fixtures and brute-force oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from dualclust.errors import ContractError
from dualclust.metrics import (
    _contingency,
    ari,
    clustering_accuracy,
    hungarian,
    nmi,
)


def counted_table(pred, truth):
    """The contingency table counted pair by pair into a dict, rows and
    columns over the sorted distinct labels; shares no code with
    ``metrics``."""
    pred, truth = list(pred), list(truth)
    cells = {}
    for pair in zip(pred, truth):
        cells[pair] = cells.get(pair, 0) + 1
    rows, cols = sorted(set(pred)), sorted(set(truth))
    return np.array([[cells.get((r, c), 0) for c in cols] for r in rows], dtype=np.int64)


def brute_force_accuracy(pred, truth):
    """Exhaustive max over one-to-one cluster-to-class mappings."""
    table = counted_table(pred, truth)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    best = max(
        sum(padded[i, perm[i]] for i in range(size))
        for perm in itertools.permutations(range(size))
    )
    return best / len(pred)


def padded_square_accuracy(pred, truth):
    """The accuracy formula of earlier versions: the contingency table
    zero-padded to square and solved by scipy."""
    table = counted_table(pred, truth)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(-padded)
    return float(padded[rows, cols].sum() / len(pred))


@st.composite
def tied_costs(draw):
    """Integer costs, rows <= columns <= 30, drawn from a few values so
    that most optima are tied."""
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(rows, 30))
    levels = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(-levels, levels, size=(rows, cols))


def brute_force_assignment_cost(cost):
    n = cost.shape[0]
    return min(
        sum(cost[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


class TestContingencyTable:
    def test_counts_and_marginals(self):
        # Each row sums to its predicted label's frequency and each column
        # to its true label's, so every sample is counted once.
        counts = _contingency([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(counts, [[2, 0], [1, 1], [0, 2]])
        np.testing.assert_array_equal(counts.sum(axis=1), [2, 2, 2])
        np.testing.assert_array_equal(counts.sum(axis=0), [3, 3])

    def test_arbitrary_label_values_are_compacted(self):
        # Rows and columns follow the sorted label values: -5 before 10,
        # 2 before 7.
        counts = _contingency([10, 10, -5], [7, 2, 7])
        np.testing.assert_array_equal(counts, [[0, 1], [1, 1]])
        np.testing.assert_array_equal(counts, counted_table([10, 10, -5], [7, 2, 7]))


class TestNmi:
    def test_identical_partitions_score_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            labels = rng.integers(0, 4, size=50)
            if np.unique(labels).size < 2:
                continue
            assert nmi(labels, labels) == 1.0

    def test_constant_prediction_scores_zero(self):
        assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_hand_contingency_fixture(self):
        pred = [0, 0, 1, 1, 2, 2]
        truth = [0, 0, 0, 1, 1, 1]
        # Contingency [[2,0],[1,1],[0,2]], n=6; direct computation.
        n = 6
        info = (
            (2 / n) * math.log(n * 2 / (2 * 3))
            + (1 / n) * math.log(n * 1 / (2 * 3))
            + (1 / n) * math.log(n * 1 / (2 * 3))
            + (2 / n) * math.log(n * 2 / (2 * 3))
        )
        h_pred = -3 * (2 / n) * math.log(2 / n)
        h_truth = -2 * (3 / n) * math.log(3 / n)
        expected = info / ((h_pred + h_truth) / 2)
        np.testing.assert_allclose(nmi(pred, truth), expected, rtol=0, atol=1e-12)

    def test_both_single_cluster_convention(self):
        assert nmi([3, 3, 3], [1, 1, 1]) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_relabeling_invariance_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 5, size=60)
        truth = rng.integers(0, 4, size=60)
        base = nmi(pred, truth)
        perm_p = rng.permutation(5)
        perm_t = rng.permutation(4)
        assert nmi(perm_p[pred], perm_t[truth]) == base

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pred = rng.integers(0, 6, size=40)
            truth = rng.integers(0, 3, size=40)
            assert 0.0 <= nmi(pred, truth) <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            nmi([0, 1], [0, 1, 2])


class TestClusteringAccuracy:
    def test_permuted_relabeling_scores_one(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 5, size=80)
        perm = rng.permutation(5)
        assert clustering_accuracy(perm[truth], truth) == 1.0

    def test_single_cluster_takes_majority(self):
        assert clustering_accuracy([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_over_mappings(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 5, size=40)
        truth = rng.integers(0, 5, size=40)
        assert clustering_accuracy(pred, truth) == brute_force_accuracy(pred, truth)

    @pytest.mark.parametrize("kp,kt", [(3, 5), (5, 3), (2, 6)])
    def test_unequal_cluster_counts_are_padded(self, kp, kt):
        rng = np.random.default_rng(kp * 10 + kt)
        pred = rng.integers(0, kp, size=50)
        truth = rng.integers(0, kt, size=50)
        assert clustering_accuracy(pred, truth) == brute_force_accuracy(pred, truth)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(12, 120),
        ks=st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda k: k[0] != k[1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_unequal_cluster_counts_match_padded_square_formula(self, seed, n, ks):
        """Either side may have more clusters; every label occurs."""
        rng = np.random.default_rng(seed)
        pred, truth = (rng.permutation(np.arange(n) % k) for k in ks)
        assert clustering_accuracy(pred, truth) == padded_square_accuracy(pred, truth)

    def test_relabeling_invariance_is_exact(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 4, size=30)
        truth = rng.integers(0, 4, size=30)
        base = clustering_accuracy(pred, truth)
        assert clustering_accuracy(rng.permutation(4)[pred], truth) == base

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            clustering_accuracy([0], [0, 1])


class TestAri:
    def test_identical_partitions_score_one(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=30)
        assert ari(labels, labels) == 1.0

    def test_single_cluster_vs_balanced_is_chance_level(self):
        assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_hand_pair_counting_fixture(self):
        # Contingency [[1,1],[1,1]]: no agreeing pairs beyond chance;
        # classic value -0.5.
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5

    def test_relabeling_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 4, size=40)
        truth = rng.integers(0, 3, size=40)
        base = ari(pred, truth)
        assert ari(rng.permutation(4)[pred], rng.permutation(3)[truth]) == base

    def test_independent_partitions_concentrate_near_zero(self):
        rng = np.random.default_rng(6)
        values = []
        for _ in range(30):
            pred = rng.integers(0, 4, size=500)
            truth = rng.integers(0, 4, size=500)
            values.append(ari(pred, truth))
        assert abs(np.mean(values)) < 0.05

    def test_at_most_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pred = rng.integers(0, 5, size=25)
            truth = rng.integers(0, 5, size=25)
            assert ari(pred, truth) <= 1.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ContractError):
            ari([0], [0])


class TestHungarian:
    def test_diagonal_favoring_cost_gives_identity(self):
        cost = np.full((4, 4), 5.0) - 4.0 * np.eye(4)
        np.testing.assert_array_equal(hungarian(cost), np.arange(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        cost = rng.integers(0, 50, size=(n, n)).astype(float)
        assignment = hungarian(cost)
        total = cost[np.arange(n), assignment].sum()
        assert total == brute_force_assignment_cost(cost)

    def test_row_constant_shift_preserves_assignment(self):
        rng = np.random.default_rng(8)
        cost = rng.normal(size=(5, 5))
        shifted = cost + rng.normal(size=(5, 1))
        np.testing.assert_array_equal(hungarian(cost), hungarian(shifted))

    def test_non_square_rejected(self):
        with pytest.raises(ContractError, match="rows <= columns"):
            hungarian(np.ones((4, 3)))

    def test_non_finite_rejected(self):
        cost = np.ones((3, 3))
        cost[1, 1] = np.inf
        with pytest.raises(ContractError, match="finite"):
            hungarian(cost)

    @given(cost=tied_costs())
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_optimum(self, cost):
        assignment = hungarian(cost.astype(float))
        assert assignment.shape == (cost.shape[0],)
        assert np.unique(assignment).size == cost.shape[0]
        assert ((0 <= assignment) & (assignment < cost.shape[1])).all()
        rows, cols = linear_sum_assignment(cost)
        assert cost[np.arange(cost.shape[0]), assignment].sum() == cost[rows, cols].sum()

    @given(
        cost=tied_costs(),
        exponent=st.one_of(st.integers(-1022, 1021), st.integers(1015, 1021)),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scaling_keeps_the_optimum(self, cost, exponent):
        """Costs up to 6 * 2**1021 in size, all exact: near the top the
        spread overflows float64 unless the solver scales it down."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assignment = hungarian(np.ldexp(cost.astype(float), exponent))
        rows, cols = linear_sum_assignment(cost)
        assert cost[np.arange(cost.shape[0]), assignment].sum() == cost[rows, cols].sum()

    def test_spread_beyond_float_range_is_solved(self):
        cost = np.array([[1e308, -1e308], [-1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(hungarian(cost), [1, 0])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_no_rows_give_an_empty_assignment(self, shape):
        assert hungarian(np.zeros(shape)).shape == (0,)
