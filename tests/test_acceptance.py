"""Release acceptance gate: one test per shipping criterion.

Each test prints a single ``criterion N: PASS/FAIL (...)`` line before
asserting, so ``pytest tests/test_acceptance.py -s`` gives the full gate
summary even when everything passes. Criteria 6, 7 and 9 share one set
of blob training runs (3 seeds x 3 ablation modes) built once per module.
Each run keeps its final-epoch ACC and NMI; an ``ich_only`` run scores
its last epoch from k-means over ``z``, as its artifacts do. Criterion 7
also reads, for the ``full`` and ``raw_both_views`` runs, the mean
positive-pair cosine of ``z`` over held-out augmented pairs (views of all
samples from an epoch index that training never draws). On 10-sigma
blobs both ``full`` and the no-augmentation ablation reach ACC 1.0, so
ACC alone cannot tell them apart; what augmentation trains is the
invariance of ``z`` to the views.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from dualclust import autodiff as ad
from dualclust.augment import AugmentationPipeline, epoch_draws, make_pair, pair_rng
from dualclust.cli import main
from dualclust.config import (
    ExperimentConfig,
    LossSection,
    ModelSection,
    build_dataset,
)
from dualclust.losses import assignment_entropy, cluster_loss, instance_loss, pair_similarity_stats
from dualclust.metrics import ari, clustering_accuracy, hungarian, nmi
from dualclust.model import forward, forward_graph, init_params
from dualclust.trainer import loss_terms, train

from test_losses_cluster import naive_cluster_loss, random_row_stochastic
from test_losses_instance import naive_instance_loss
from test_metrics import brute_force_accuracy, brute_force_assignment_cost

BLOB_DATASET = {
    "kind": "gaussian_blobs",
    "k": 4,
    "n_per": 128,
    "dim": 16,
    "separation": 10.0,
    "sigma": 1.0,
    "seed": 7,
}
BLOB_SEEDS = (0, 1, 2)


def gate(number, ok, details):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({details})")


# ---------------------------------------------------------------------------
# Shared end-to-end runs: 3 seeds x {full, raw_both_views, ich_only} on the
# 4-blob benchmark, default model/training settings throughout.


def heldout_alignment(params, dataset, pipeline, seed, epoch):
    """Mean positive-pair cosine of ``z`` over one ``pipeline`` pair per
    sample, made from the ``(seed, epoch)`` augmentation stream. Passing
    ``epoch`` = the run's epoch count gives views that training never drew."""
    draws = epoch_draws(pipeline, seed, epoch, dataset.n)
    pairs = [
        make_pair(pipeline, dataset.samples[i], pair_rng(draws, i), 2) for i in range(dataset.n)
    ]
    _, z, _ = forward(params, np.stack([a for a, _ in pairs] + [b for _, b in pairs]))
    return pair_similarity_stats(z)[0]


@pytest.fixture(scope="module")
def blob_runs():
    config = ExperimentConfig.from_dict({"dataset": BLOB_DATASET})
    dataset = build_dataset(config.dataset)
    transforms = config.resolve(dataset).augmentation.transforms
    pipeline = AugmentationPipeline(transforms, dataset.geometry)
    runs = {}
    full_seconds = 0.0
    for mode in ("full", "raw_both_views", "ich_only"):
        for seed in BLOB_SEEDS:
            run_config = ExperimentConfig.from_dict(
                {"dataset": BLOB_DATASET, "seed": seed, "ablation": mode}
            )
            start = time.perf_counter()
            params, report = train(run_config, dataset)
            elapsed = time.perf_counter() - start
            if mode == "full":
                full_seconds += elapsed
            record = {"params": params, "report": report}
            record["acc"] = report.records[-1].acc
            record["nmi"] = report.records[-1].nmi
            if mode in ("full", "raw_both_views"):
                record["heldout_pos_sim"] = heldout_alignment(
                    params, dataset, pipeline, seed, run_config.training.epochs
                )
            runs[mode, seed] = record
    runs["full_seconds"] = full_seconds
    return runs


# ---------------------------------------------------------------------------
# 1. Gradient fidelity of the total loss through the whole model.


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        config = ModelSection(
            encoder_widths=(8,), cluster_count=3, instance_dim=6, head_hidden_dim=8, init_seed=seed
        )
        params = init_params(config, 4)
        rng = np.random.default_rng(1000 + seed)
        # Both views, 5 samples each, stacked as 10 rows.
        batch = rng.normal(size=(10, 4))

        def loss_value():
            _, z, y = forward_graph(params.nodes(), ad.lift(batch))
            return loss_terms(z, y, LossSection(), True, True)[2]

        root_nodes = params.nodes()
        _, z, y = forward_graph(root_nodes, ad.lift(batch))
        root = loss_terms(z, y, LossSection(), True, True)[2]
        for node in root_nodes.values():
            node.grad = np.zeros_like(node.value)
        ad.backward(root)
        analytic = [node.grad.copy() for node in root_nodes.values()]

        step = 1e-5
        for which, (name, array) in enumerate(params.arrays.items()):
            fd = np.zeros_like(array)
            it = np.nditer(array, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = array[idx]
                array[idx] = saved + step
                up = loss_value().value[0, 0]
                array[idx] = saved - step
                down = loss_value().value[0, 0]
                array[idx] = saved
                fd[idx] = (up - down) / (2.0 * step)
            # Norm-wise comparison: elementwise ratios are meaningless for
            # entries whose true gradient sits below the central-difference
            # noise floor (~1e-11 at this step size).
            scale = max(float(np.linalg.norm(fd)), 1e-12)
            err = float(np.linalg.norm(analytic[which] - fd)) / scale
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    gate(1, ok, f"max relative gradient error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. Vectorized losses equal naive double-loop references.


def test_criterion_2_loss_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 7))
        tau_i = float(rng.uniform(0.2, 2.0))
        tau_c = float(rng.uniform(0.2, 2.0))
        weight = float(rng.uniform(0.0, 2.0))
        exclude = bool(rng.integers(0, 2))

        z_a = rng.normal(size=(n, dim))
        z_b = rng.normal(size=(n, dim))
        got = instance_loss(
            np.vstack([z_a, z_b]),
            LossSection(instance_temperature=tau_i, exclude_self_similarity=exclude),
        ).value[0, 0]
        want = naive_instance_loss(z_a, z_b, tau_i, exclude_self=exclude)
        worst = max(worst, abs(got - want))

        y_a = random_row_stochastic(rng, n, m)
        y_b = random_row_stochastic(rng, n, m)
        got = cluster_loss(
            np.vstack([y_a, y_b]),
            LossSection(
                cluster_temperature=tau_c, entropy_weight=weight, exclude_self_similarity=exclude
            ),
        ).value[0, 0]
        want = naive_cluster_loss(y_a, y_b, tau_c, weight, exclude_self=exclude)
        worst = max(worst, abs(got - want))
    ok = worst < 1e-10
    gate(2, ok, f"max |vectorized - naive| {worst:.2e} over 100 cases")
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 3. Symmetries: view swap (exact), row permutations, column permutations,
#    per-row positive rescaling.


def test_criterion_3_loss_invariances():
    rng = np.random.default_rng(7)
    worst_drift = 0.0
    for case in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 6))
        z_a = rng.normal(size=(n, 4))
        z_b = rng.normal(size=(n, 4))
        y_a = random_row_stochastic(rng, n, m)
        y_b = random_row_stochastic(rng, n, m)

        def ins(a, b):
            return instance_loss(np.vstack([a, b])).value[0, 0]

        def clu(a, b):
            return cluster_loss(np.vstack([a, b])).value[0, 0]

        base_i = ins(z_a, z_b)
        base_c = clu(y_a, y_b)

        # View swap is bit-exact by construction.
        assert ins(z_b, z_a) == base_i
        assert clu(y_b, y_a) == base_c

        perm = rng.permutation(n)
        worst_drift = max(worst_drift, abs(ins(z_a[perm], z_b[perm]) - base_i))
        worst_drift = max(worst_drift, abs(clu(y_a[perm], y_b[perm]) - base_c))

        cols = rng.permutation(m)
        worst_drift = max(worst_drift, abs(clu(y_a[:, cols], y_b[:, cols]) - base_c))

        scale_a = rng.uniform(0.1, 10.0, size=(n, 1))
        scale_b = rng.uniform(0.1, 10.0, size=(n, 1))
        worst_drift = max(worst_drift, abs(ins(z_a * scale_a, z_b * scale_b) - base_i))
    ok = worst_drift < 1e-10
    gate(3, ok, f"view swap exact, max drift {worst_drift:.2e} over 50 cases each")
    assert worst_drift < 1e-10


# ---------------------------------------------------------------------------
# 4. Entropy term: maximum value, strict decrease, flat at uniform.


def test_criterion_4_entropy_contract():
    worst_gap = 0.0
    for m in (2, 3, 4, 5, 8):
        uniform = np.full((10, m), 1.0 / m)
        value = assignment_entropy(np.vstack([uniform, uniform])).value[0, 0]
        worst_gap = max(worst_gap, abs(value - 2.0 * math.log(m)))
    assert worst_gap < 1e-12

    # Any redistribution moving mass 0.1 away from uniform must lower the
    # entropy strictly. Rows all equal to the perturbed distribution make
    # the column masses exactly that distribution.
    rng = np.random.default_rng(5)
    strict = True
    for m in (3, 4, 5):
        ceiling = 2.0 * math.log(m)
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                p = np.full(m, 1.0 / m)
                p[i] += 0.1
                p[j] -= 0.1
                y = np.tile(p, (16, 1))
                strict &= assignment_entropy(y).value[0, 0] < ceiling
        for case in range(20):
            direction = rng.normal(size=m)
            direction -= direction.mean()
            direction *= 0.1 / direction[direction > 0].sum()
            p = np.full(m, 1.0 / m) + direction
            assert p.min() > 0.0
            y = np.tile(p, (16, 1))
            strict &= assignment_entropy(y).value[0, 0] < ceiling
    assert strict

    # Projected gradient at uniform: finite differences along the simplex
    # tangent directions e_j - e_k within each row (these span the tangent
    # space and keep row sums exactly 1, which the input contract demands).
    n, m = 6, 4
    uniform = np.full((n, m), 1.0 / m)
    fixed = np.full((n, m), 1.0 / m)
    step = 1e-5
    worst_directional = 0.0
    for row in range(n):
        for j in range(m):
            for k in range(j + 1, m):
                up = uniform.copy()
                up[row, j] += step
                up[row, k] -= step
                down = uniform.copy()
                down[row, j] -= step
                down[row, k] += step
                delta = (
                    assignment_entropy(np.vstack([up, fixed])).value[0, 0]
                    - assignment_entropy(np.vstack([down, fixed])).value[0, 0]
                ) / (2.0 * step)
                worst_directional = max(worst_directional, abs(delta))
    ok = worst_gap < 1e-12 and strict and worst_directional < 1e-6
    gate(
        4,
        ok,
        f"uniform gap {worst_gap:.2e}, strict decrease holds, "
        f"projected gradient {worst_directional:.2e}",
    )
    assert worst_directional < 1e-6


# ---------------------------------------------------------------------------
# 5. Metric oracles: exhaustive matching, Hungarian optimality, contingency
#    hand computations, chance-level adjustment.


def contingency_nmi(counts):
    """Arithmetic-mean-normalized mutual information from a contingency
    table, written as direct loops."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.sum()
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    info = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j]:
                info += (counts[i, j] / n) * math.log(
                    n * counts[i, j] / (rows[i] * cols[j])
                )
    h_rows = -sum((r / n) * math.log(r / n) for r in rows if r)
    h_cols = -sum((c / n) * math.log(c / n) for c in cols if c)
    return info / ((h_rows + h_cols) / 2.0)


def contingency_ari(counts):
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.sum()
    index = sum(math.comb(int(v), 2) for v in counts.ravel())
    sum_rows = sum(math.comb(int(r), 2) for r in counts.sum(axis=1))
    sum_cols = sum(math.comb(int(c), 2) for c in counts.sum(axis=0))
    expected = sum_rows * sum_cols / math.comb(int(n), 2)
    top = (sum_rows + sum_cols) / 2.0
    return (index - expected) / (top - expected)


# Five fixtures: (pred, truth, contingency rows = pred clusters).
CONTINGENCY_FIXTURES = (
    # [[2,0],[1,1],[0,2]]
    ([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1]),
    # [[3,0],[0,3]]: perfect split
    ([0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]),
    # [[2,1],[1,2]]: symmetric confusion
    ([0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 1]),
    # [[1,1,1],[1,1,1]]: independent
    ([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2]),
    # [[4,0,1],[0,3,0],[1,0,3]]
    ([0] * 5 + [1] * 3 + [2] * 4, [0, 0, 0, 0, 2, 1, 1, 1, 0, 2, 2, 2]),
)


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(11)
    for case in range(200):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 40))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, int(rng.integers(2, 7)), size=n)
        assert clustering_accuracy(pred, truth) == brute_force_accuracy(pred, truth)

    for case in range(60):
        n = int(rng.integers(2, 8))
        cost = rng.uniform(0.0, 10.0, size=(n, n))
        assignment = hungarian(cost)
        total = float(cost[np.arange(n), assignment].sum())
        best = brute_force_assignment_cost(cost)
        assert abs(total - best) < 1e-9

    worst_fixture = 0.0
    for pred, truth in CONTINGENCY_FIXTURES:
        table = np.zeros((max(pred) + 1, max(truth) + 1), dtype=np.int64)
        for p, t in zip(pred, truth):
            table[p, t] += 1
        worst_fixture = max(worst_fixture, abs(nmi(pred, truth) - contingency_nmi(table)))
        worst_fixture = max(worst_fixture, abs(ari(pred, truth) - contingency_ari(table)))
    assert worst_fixture < 1e-12

    trials = []
    for trial in range(100):
        trial_rng = np.random.default_rng(5000 + trial)
        a = trial_rng.integers(0, 4, size=1000)
        b = trial_rng.integers(0, 4, size=1000)
        trials.append(ari(a, b))
    mean_ari = float(np.mean(trials))
    ok = abs(mean_ari) <= 0.02 and worst_fixture < 1e-12
    gate(
        5,
        ok,
        f"accuracy/Hungarian exact, fixtures {worst_fixture:.2e}, "
        f"independent-partition ARI mean {mean_ari:+.4f}",
    )
    assert -0.02 <= mean_ari <= 0.02


# ---------------------------------------------------------------------------
# 6. Desk-scale end-to-end clustering quality.


def test_criterion_6_desk_scale_clustering(blob_runs):
    hits = 0
    details = []
    for seed in BLOB_SEEDS:
        record = blob_runs["full", seed]
        details.append(f"seed {seed}: acc {record['acc']:.3f} nmi {record['nmi']:.3f}")
        if record["acc"] >= 0.9 and record["nmi"] >= 0.75:
            hits += 1
    seconds = blob_runs["full_seconds"]
    ok = hits >= 2 and seconds < 600.0
    gate(6, ok, f"{hits}/3 seeds pass, {seconds:.0f}s training; " + "; ".join(details))
    assert hits >= 2
    assert seconds < 600.0


# ---------------------------------------------------------------------------
# 7. Ablation directionality on the blob benchmark.
#
# Reads from the shared runs: final ACC of every mode, which for ich_only
# is the ACC of k-means over z, and the held-out positive-pair cosine of z
# for full and raw_both_views. raw_both_views trains on un-augmented inputs
# (both views are the input itself); the instance negatives, the column
# contrast and the entropy term still cluster 10-sigma blobs perfectly,
# so its ACC matches full and cannot show the ablation. What it loses is
# the invariance of z to augmented views: held-out pairs must align at
# least 0.3 better under full, and full must not cluster worse.


def test_criterion_7_ablation_directionality(blob_runs):
    def median(mode, key):
        return statistics.median(blob_runs[mode, s][key] for s in BLOB_SEEDS)

    full = median("full", "acc")
    raw_both = median("raw_both_views", "acc")
    ich_kmeans = median("ich_only", "acc")
    full_align = median("full", "heldout_pos_sim")
    raw_both_align = median("raw_both_views", "heldout_pos_sim")
    alignment_gap = full_align >= raw_both_align + 0.3
    acc_order = full >= raw_both
    ich_close = abs(ich_kmeans - full) <= 0.15
    gate(
        7,
        alignment_gap and acc_order and ich_close,
        f"median acc: full {full:.3f}, raw_both_views {raw_both:.3f}, "
        f"ich_only+kmeans {ich_kmeans:.3f}; "
        f"held-out pos cos z: full {full_align:.3f}, raw_both_views {raw_both_align:.3f}",
    )
    assert alignment_gap, (
        "no-augmentation ablation (raw_both_views) kept the augmentation "
        f"invariance of z: held-out positive-pair cosine {raw_both_align:.3f} "
        f"vs full {full_align:.3f}, gap below 0.3"
    )
    assert acc_order, (
        "no-augmentation ablation (raw_both_views) clustered better than full: "
        f"median acc {raw_both:.3f} vs full {full:.3f}"
    )
    assert ich_close


# ---------------------------------------------------------------------------
# 8. Bit-level determinism of the run artifacts.


def test_criterion_8_determinism(tmp_path):
    config = {
        "dataset": {
            "kind": "gaussian_blobs",
            "k": 3,
            "n_per": 16,
            "dim": 6,
            "separation": 8.0,
            "sigma": 1.0,
            "seed": 2,
        },
        "model": {"encoder_widths": [16], "instance_dim": 8},
        "training": {"batch_size": 16, "epochs": 3},
        "seed": 4,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    same_report = (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    same_checkpoint = (
        out_a / "checkpoint.bin"
    ).read_bytes() == (out_b / "checkpoint.bin").read_bytes()
    gate(
        8,
        same_report and same_checkpoint,
        f"report.csv identical: {same_report}, checkpoint identical: {same_checkpoint}",
    )
    assert same_report
    assert same_checkpoint


# ---------------------------------------------------------------------------
# 9. Positive-pair similarity grows during training.


def test_criterion_9_similarity_trend(blob_runs):
    first = statistics.median(
        blob_runs["full", s]["report"].records[0].pos_sim_inst for s in BLOB_SEEDS
    )
    final = statistics.median(
        blob_runs["full", s]["report"].records[-1].pos_sim_inst for s in BLOB_SEEDS
    )
    final_neg = statistics.median(
        blob_runs["full", s]["report"].records[-1].neg_sim_inst for s in BLOB_SEEDS
    )
    ok = final > first and final > final_neg
    gate(
        9,
        ok,
        f"pos_sim_inst epoch 1 {first:.4f} -> final {final:.4f}, "
        f"final neg_sim_inst {final_neg:.4f}",
    )
    assert final > first
    assert final > final_neg
