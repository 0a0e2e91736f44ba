"""Seeded k-means utility."""

import numpy as np
import pytest

from dualclust.errors import ConfigError, ContractError
from dualclust.kmeans import RESTARTS, _lloyd, _plus_plus_init, _row_sq_norms, kmeans


def blob_data(seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate([c + 0.3 * rng.normal(size=(40, 2)) for c in centers])
    truth = np.repeat([0, 1, 2], 40)
    return points, truth


def serial_kmeans(x, k, seed, n_restarts=RESTARTS):
    """The restarts one after another, keeping the lowest inertia and the
    earliest restart among equals; also returns every restart's result."""
    results = []
    x_sq = _row_sq_norms(x)
    for restart in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, restart)))
        results.append(_lloyd(x, x_sq, _plus_plus_init(x, x_sq, k, rng)))
    best = results[0]
    for result in results[1:]:
        if result[2] < best[2]:
            best = result
    return best, results


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


class TestRestarts:
    """The best of the restarts must be the reference loop's, bit for bit."""

    @pytest.mark.parametrize("n_restarts", [RESTARTS])
    def test_matches_serial_loop(self, n_restarts):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(300, 8))
        want, _ = serial_kmeans(points, 7, 5, n_restarts)
        assert_same_bits(kmeans(points, 7, seed=5), want)

    def test_tie_goes_to_first_restart(self):
        # One cluster per point: every restart reaches inertia 0 with its
        # own numbering of the clusters, so only the tie rule picks one.
        points = np.random.default_rng(2).normal(size=(8, 3))
        want, results = serial_kmeans(points, 8, 0)
        assert all(result[2] == 0.0 for result in results)
        assert any(not np.array_equal(r[0], results[0][0]) for r in results[1:])
        assert want is results[0]
        assert_same_bits(kmeans(points, 8, seed=0), want)


class TestKmeans:
    def test_recovers_separated_clusters(self):
        points, truth = blob_data()
        labels, centers, inertia = kmeans(points, 3, seed=0)
        assert centers.shape == (3, 2)
        assert inertia >= 0.0
        # Each true cluster maps to exactly one predicted cluster.
        for t in range(3):
            assert np.unique(labels[truth == t]).size == 1
        assert np.unique(labels).size == 3

    def test_deterministic_per_seed(self):
        points, _ = blob_data()
        a = kmeans(points, 3, seed=42)
        b = kmeans(points, 3, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_restarts_never_hurt(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(60, 4))
        (_, _, single), _ = serial_kmeans(points, 5, 0, n_restarts=1)
        multi = kmeans(points, 5, seed=0)[2]
        assert multi <= single

    def test_labels_within_range(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 3))
        labels, _, _ = kmeans(points, 4, seed=1)
        assert labels.min() >= 0 and labels.max() < 4

    def test_empty_cluster_is_reseeded(self):
        # Second center starts far outside the data: its cluster is empty
        # on the first assignment and must be reseeded, not dropped.
        points = np.concatenate([np.zeros((5, 2)), np.full((1, 2), 3.0)])
        centers = np.array([[0.0, 0.0], [100.0, 100.0]])
        labels, final_centers, _ = _lloyd(points, _row_sq_norms(points), centers)
        assert set(labels.tolist()) == {0, 1}

    def test_fewer_samples_than_clusters_rejected(self):
        with pytest.raises(ContractError):
            kmeans(np.ones((2, 3)), 3, seed=0)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigError):
            kmeans(np.ones((5, 2)), 0, seed=0)
