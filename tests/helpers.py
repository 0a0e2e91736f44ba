"""Shared test utilities: central finite differences, gradient checks and
reference computations."""

import numpy as np

from dualclust import autodiff as ad
from dualclust.losses import cosine_similarity_matrix

FD_STEP = 1e-5
GRAD_TOL = 1e-4
REL_FLOOR = 1e-8


def rel_error(a, b, floor=REL_FLOOR):
    """Elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def numerical_gradient(f, x, h=FD_STEP):
    """Central-difference gradient of scalar-valued ``f`` at matrix ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def check_gradients(build, arrays, tol=GRAD_TOL, h=FD_STEP):
    """Compare reverse-mode gradients of ``build(*nodes)`` against finite
    differences for every input array. ``build`` must return a scalar node
    and be safe to call repeatedly."""
    nodes = [ad.lift(a) for a in arrays]
    root = build(*nodes)
    ad.backward(root)
    worst = 0.0
    for k, base in enumerate(arrays):
        def f(perturbed, k=k):
            xs = [perturbed if j == k else arrays[j] for j in range(len(arrays))]
            return build(*[ad.lift(x) for x in xs]).value[0, 0]

        fd = numerical_gradient(f, base, h=h)
        err = rel_error(nodes[k].grad, fd).max() if fd.size else 0.0
        worst = max(worst, float(err))
        assert err < tol, f"input {k}: max relative gradient error {err:.3e} >= {tol}"
    return worst


def weighted_sum(node, weights):
    """Scalar probe sum(node * weights) used to exercise full Jacobians."""
    return ad.sum_all(ad.mul(node, ad.lift(weights)))


def reference_pair_similarity_stats(a, b):
    """Mean positive and negative cosine similarity read off the full
    2n x 2n cosine matrix with boolean masks: the O(n^2) definition that
    ``losses.pair_similarity_stats`` sums in O(n d)."""
    n = a.shape[0]
    stacked = np.vstack([a, b])
    sim = cosine_similarity_matrix(stacked, stacked)
    pos_mask = np.zeros_like(sim, dtype=bool)
    pos_mask[np.arange(2 * n), (np.arange(2 * n) + n) % (2 * n)] = True
    neg_mask = ~pos_mask & ~np.eye(2 * n, dtype=bool)
    pos_mean = float(sim[pos_mask].mean())
    neg_mean = float(sim[neg_mask].mean()) if neg_mask.any() else float("nan")
    return pos_mean, neg_mean


def reference_adam_step(flat, m, v, gradients, step, lr, beta1, beta2, epsilon):
    """The allocating Adam expression that ``trainer.adam_step`` computes in
    place, step ``step`` >= 1; updates ``flat``, ``m`` and ``v`` in place."""
    grad = np.concatenate(gradients, axis=None)
    correction1 = 1.0 - beta1**step
    correction2 = 1.0 - beta2**step
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    flat -= lr * (m / correction1) / (np.sqrt(v / correction2) + epsilon)
