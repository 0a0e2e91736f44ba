"""Shared test utilities: central finite differences, gradient checks and
reference computations."""

import json
import struct

import numpy as np

from dualclust import autodiff as ad

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
    """Scalar probe sum(node * weights) used to exercise full Jacobians.

    A hand-built node with its own VJP, so that it relies on no engine
    primitive and adds no node of a kind under test."""
    weights = ad.as_matrix(weights)
    value = [[(node.value * weights).sum()]]
    return ad.Node(value, "weighted_sum", (node,), lambda g: (g * weights,))


def transposed(node):
    """The transpose of ``node``, a hand-built node like ``weighted_sum``."""
    return ad.Node(node.value.T, "transposed", (node,), lambda g: (np.ascontiguousarray(g.T),))


def stacked(a, b):
    """The rows of ``a`` over those of ``b``, a hand-built node like
    ``weighted_sum``: the two-view step's way to feed the stacked losses."""
    n = a.shape[0]
    return ad.Node(np.vstack([a.value, b.value]), "stacked", (a, b), lambda g: (g[:n], g[n:]))


def reference_pair_similarity_stats(a, b):
    """Mean positive and negative cosine similarity read off the full
    2n x 2n cosine matrix with boolean masks: the O(n^2) definition that
    ``losses.pair_similarity_stats`` sums in O(n d)."""
    n = a.shape[0]
    stacked = np.vstack([a, b])
    unit = stacked / np.linalg.norm(stacked, axis=1, keepdims=True)
    sim = np.clip(unit @ unit.T, -1.0, 1.0)
    pos_mask = np.zeros_like(sim, dtype=bool)
    pos_mask[np.arange(2 * n), (np.arange(2 * n) + n) % (2 * n)] = True
    neg_mask = ~pos_mask & ~np.eye(2 * n, dtype=bool)
    pos_mean = float(sim[pos_mask].mean())
    neg_mean = float(sim[neg_mask].mean()) if neg_mask.any() else float("nan")
    return pos_mean, neg_mean


def reference_ntxent(x, temperature, exclude_self, g=1.0):
    """NT-Xent in plain NumPy, the reference for ``autodiff.ntxent``:
    (value, gradient of ``g`` times the value) for the 2n stacked rows
    ``x``. Each row's logits are shifted by their own max before the exp,
    and the gradient forms dlogits and takes dlogits U + (U^T dlogits)^T
    as two products, so no step relies on a symmetric exp matrix. Same
    view swap, unit rows and unit-norm Jacobian as ``ntxent``."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0] // 2
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    u = x / norms
    swapped = x[n:].tobytes() < x[:n].tobytes()
    if swapped:
        u, norms = np.concatenate((u[n:], u[:n])), np.concatenate((norms[n:], norms[:n]))
    ut = np.ascontiguousarray(u.T)
    inv_temperature = float(1.0 / temperature)
    inv_rows = float(1.0 / (2 * n))
    e = u @ ut
    e *= inv_temperature
    rows = np.arange(2 * n)
    positives = (rows + n) % (2 * n)
    positive_logits = e[rows, positives].reshape(2 * n, 1)
    if exclude_self:
        np.fill_diagonal(e, -np.inf)
    mx = e.max(axis=1, keepdims=True)
    e -= mx
    np.exp(e, out=e)
    s = e.sum(axis=1, keepdims=True)
    value = (mx + np.log(s) - positive_logits).sum() * inv_rows
    g_row = g * inv_rows
    dlogits = e / s
    dlogits *= g_row
    dlogits[rows, positives] -= g_row
    dlogits *= inv_temperature
    du = dlogits @ ut.T
    du += (u.T @ dlogits).T
    du -= (du * u).sum(axis=1, keepdims=True) * u
    du /= norms
    return value, (np.concatenate((du[n:], du[:n])) if swapped else du)


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


def soft_labels_with_empty_columns(rng, n, m):
    """An n x m row-stochastic matrix, m >= 3, whose column masses include
    one exact zero and one below ``losses.ENTROPY_LOG_FLOOR``."""
    y = rng.dirichlet(np.full(m, rng.uniform(0.2, 2.0)), size=n)
    y[:, 0] = 0.0
    y[:, 1] *= 1e-14
    y /= y.sum(axis=1, keepdims=True)
    return np.ascontiguousarray(y[:, rng.permutation(m)])


def reference_entropy_chain(views, floor, g):
    """The unfused node chain that ``autodiff.mass_entropy`` replaces,
    in plain NumPy: -(sum over views of sum_j p_j log max(p_j, floor)),
    p = (1^T Y) / n, and its gradient for each view under the upstream
    1 x 1 gradient ``g``. Every float operation is the chain's own
    (matmul, scale, clip_min, log, mul, sum_all, add, scale by -1), in
    its order; returns (value, [gradient per view])."""
    masses = []
    for y in views:
        n = y.shape[0]
        p = (np.ones((1, n)) @ y) * float(1.0 / n)
        clipped = np.maximum(p, floor)
        masses.append((n, p, clipped, np.log(clipped)))
    total = None
    for _, p, _, logp in masses:
        s = np.array([[(p * logp).sum()]])
        total = s if total is None else total + s
    value = total * -1.0
    grads = []
    for n, p, clipped, logp in masses:
        gs = np.full_like(p, (g * -1.0)[0, 0])
        dp = gs * logp + ((gs * p) / clipped) * (p > floor)
        grads.append(np.ones((1, n)).T @ (dp * float(1.0 / n)))
    return value, grads


def edit_header(blob, edit):
    """Checkpoint bytes with the JSON header passed through ``edit``."""
    (length,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + length])
    edit(header)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + struct.pack("<Q", len(encoded)) + encoded + blob[16 + length :]


def rewrite_header(src, dst, edit, extra_payload=b""):
    """Copy a checkpoint, passing its JSON header through ``edit``."""
    dst.write_bytes(edit_header(src.read_bytes() + extra_payload, edit))
