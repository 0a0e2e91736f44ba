"""Seeded k-means for clustering raw features or instance projections.

Standard Lloyd iterations, at most ``MAX_ITER`` each, with k-means++
seeding, run as ``RESTARTS`` restarts keeping the lowest-inertia
solution. Deterministic given the seed. Clusters that empty out mid-run
are reseeded to the point farthest from its assigned center.

Each restart draws from its own ``(seed, restart)`` stream, so its
result does not depend on the others; the best is picked in restart
order, the first one winning a tie. Squared row norms of the data are
computed once per call and shared by every restart.
"""

from __future__ import annotations

import numpy as np

from .autodiff import as_matrix
from .errors import ConfigError, ContractError

__all__ = ["kmeans"]

RESTARTS = 10
MAX_ITER = 300
CONVERGENCE_TOL = 1e-10


def _row_sq_norms(x):
    return np.einsum("ij,ij->i", x, x)


def _squared_distances(x, x_sq, centers):
    # ||x - c||^2 expanded, x_sq being ||x||^2 per row; clip tiny
    # negatives from cancellation. In place, with the same roundings as
    # x_sq - 2 x.c + ||c||^2.
    sq = x @ centers.T
    sq *= -2.0
    sq += x_sq[:, None]
    sq += _row_sq_norms(centers)[None, :]
    return np.maximum(sq, 0.0, out=sq)


def _plus_plus_init(x, x_sq, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = _squared_distances(x, x_sq, centers[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[i] = x[rng.integers(n)]
        else:
            centers[i] = x[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, _squared_distances(x, x_sq, centers[i : i + 1]).ravel())
    return centers


def _lloyd(x, x_sq, centers):
    settled = False
    for _ in range(MAX_ITER):
        distances = _squared_distances(x, x_sq, centers)
        labels = distances.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(centers.shape[0]):
            members = labels == j
            if members.any():
                new_centers[j] = x[members].mean(axis=0)
            else:
                farthest = distances[np.arange(x.shape[0]), labels].argmax()
                new_centers[j] = x[farthest]
        shift = np.linalg.norm(new_centers - centers)
        centers = new_centers
        if shift <= CONVERGENCE_TOL:
            # Centers that did not move keep these distances and labels.
            settled = shift == 0.0
            break
    if not settled:
        distances = _squared_distances(x, x_sq, centers)
        labels = distances.argmin(axis=1)
    inertia = float(distances[np.arange(x.shape[0]), labels].sum())
    return labels, centers, inertia


def kmeans(x, k, seed):
    """Cluster rows of x into k groups; returns (labels, centers, inertia)
    of the best restart by inertia, the earliest restart among equals."""
    x = as_matrix(x)
    if k < 1:
        raise ConfigError(f"kmeans: k must be >= 1, got {k}")
    if x.shape[0] < k:
        raise ContractError(f"kmeans: {x.shape[0]} samples cannot form {k} clusters")
    x_sq = _row_sq_norms(x)
    rngs = (np.random.default_rng(np.random.SeedSequence((seed, r))) for r in range(RESTARTS))
    results = (_lloyd(x, x_sq, _plus_plus_init(x, x_sq, k, rng)) for rng in rngs)
    # min keeps the first of equal keys: the earliest restart wins a tie.
    return min(results, key=lambda result: result[2])
