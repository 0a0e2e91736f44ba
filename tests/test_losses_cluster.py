"""Cluster-level contrastive loss, column semantics, and the entropy term."""

import math
from collections import Counter

import numpy as np
import pytest

from dualclust import autodiff as ad
from dualclust.config import LossSection
from dualclust.errors import ConfigError, ContractError, DegenerateInputError
from dualclust.losses import ENTROPY_LOG_FLOOR, assignment_entropy, cluster_loss

from helpers import (
    check_gradients,
    reference_entropy_chain,
    soft_labels_with_empty_columns,
    weighted_sum,
)
from test_losses_instance import naive_pairwise_loss


def random_row_stochastic(rng, n, m):
    logits = rng.normal(size=(n, m))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def naive_cluster_loss(y_a, y_b, tau, weight, exclude_self=True, literal_sign=False):
    cols = [list(c) for c in np.asarray(y_a).T] + [list(c) for c in np.asarray(y_b).T]
    contrastive = naive_pairwise_loss(cols, tau, exclude_self)
    n = len(y_a)
    m = len(y_a[0])
    entropy = 0.0
    for y in (y_a, y_b):
        for i in range(m):
            p = sum(row[i] for row in y) / n
            if p > 0.0:
                entropy -= p * math.log(p)
    sign = 1.0 if literal_sign else -1.0
    return contrastive + sign * weight * entropy


class TestAssignmentEntropy:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_uniform_masses_hit_maximum(self, m):
        y = np.full((12, m), 1.0 / m)
        h = assignment_entropy(np.vstack([y, y])).value[0, 0]
        np.testing.assert_allclose(h, 2.0 * math.log(m), rtol=0, atol=1e-12)

    def test_concentrated_masses_give_zero(self):
        y = np.zeros((6, 3))
        y[:, 1] = 1.0
        assert assignment_entropy(np.vstack([y, y])).value[0, 0] == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(17)
        y_a = random_row_stochastic(rng, 16, 4)
        y_b = random_row_stochastic(rng, 16, 4)
        want = 0.0
        for y in (y_a, y_b):
            p = y.sum(axis=0) / 16.0
            want -= float(np.sum(p * np.log(p)))
        got = assignment_entropy(np.vstack([y_a, y_b])).value[0, 0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_rows_not_summing_to_one(self):
        bad = np.full((3, 2), 0.6)
        good = np.full((3, 2), 0.5)
        with pytest.raises(ContractError, match=r"\(first view\): row 0"):
            assignment_entropy(np.vstack([bad, good]))
        with pytest.raises(ContractError, match=r"\(second view\): row 0"):
            assignment_entropy(np.vstack([good, bad]))

    @pytest.mark.parametrize("loss", [assignment_entropy, cluster_loss])
    def test_nan_row_named_in_either_view(self, loss):
        # NaN > tol is false, so the check must flag what is not within tol.
        good = np.full((4, 3), 1.0 / 3.0)
        bad = good.copy()
        bad[2, 1] = np.nan
        for view, views in (("first", (bad, good)), ("second", (good, bad))):
            with pytest.raises(ContractError, match=rf"\({view} view\): row 2 sums to nan"):
                loss(np.vstack(views))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_unfused_chain_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 600)), int(rng.integers(3, 21))
        y_a, y_b = (soft_labels_with_empty_columns(rng, n, m) for _ in range(2))
        g = rng.normal(size=(1, 1))
        y = ad.lift(np.vstack([y_a, y_b]))
        entropy = assignment_entropy(y)
        ad.backward(weighted_sum(entropy, g))
        value, grads = reference_entropy_chain([y_a, y_b], ENTROPY_LOG_FLOOR, g)
        np.testing.assert_array_equal(entropy.value, value)
        np.testing.assert_array_equal(y.grad, np.vstack(grads))

    def test_gradient_vanishes_on_simplex_at_uniform(self):
        # dH/dY is constant within each row at uniform masses, so its
        # projection onto directions that preserve row sums is zero.
        y = ad.lift(np.full((16, 4), 0.25))
        ad.backward(assignment_entropy(y))
        tangent = y.grad - y.grad.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(tangent, 0.0, rtol=0, atol=1e-12)

    def test_gradient_through_softmax_vanishes_at_uniform(self):
        node = ad.lift(np.zeros((12, 3)))
        ad.backward(assignment_entropy(ad.softmax_rows(node)))
        np.testing.assert_allclose(node.grad, 0.0, rtol=0, atol=1e-12)


class TestClusterLossValues:
    def test_orthogonal_one_hot_hand_value(self):
        # Two clusters, identical views, disjoint one-hot columns: each of
        # the four column anchors sees its positive at similarity 1 and two
        # negatives at 0. At temperature 1 the contrastive part is
        # -log(e / (e + 2)); balanced masses put the entropy at 2 log 2.
        y = np.eye(2)
        cfg = LossSection(cluster_temperature=1.0, entropy_weight=1.0)
        contrastive = -math.log(math.e / (math.e + 2.0))
        expected = contrastive - 2.0 * math.log(2.0)
        loss = cluster_loss(np.vstack([y, y]), cfg).value[0, 0]
        np.testing.assert_allclose(loss, expected, rtol=0, atol=1e-12)

    def test_literal_entropy_sign_adds_instead(self):
        y = np.eye(2)
        cfg = LossSection(literal_entropy_sign=True)
        contrastive = -math.log(math.e / (math.e + 2.0))
        expected = contrastive + 2.0 * math.log(2.0)
        loss = cluster_loss(np.vstack([y, y]), cfg).value[0, 0]
        np.testing.assert_allclose(loss, expected, rtol=0, atol=1e-12)

    def test_identical_orthogonal_views_have_unit_positive_similarity(self):
        y = np.eye(3)
        u = y.T / np.linalg.norm(y.T, axis=1, keepdims=True)
        sim = u @ u.T
        np.testing.assert_allclose(np.diag(sim), np.ones(3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_loop_oracle(self, seed, exclude_self):
        rng = np.random.default_rng(seed)
        y_a = random_row_stochastic(rng, 12, 3)
        y_b = random_row_stochastic(rng, 12, 3)
        cfg = LossSection(
            cluster_temperature=1.0, entropy_weight=1.0, exclude_self_similarity=exclude_self
        )
        got = cluster_loss(np.vstack([y_a, y_b]), cfg).value[0, 0]
        want = naive_cluster_loss(y_a, y_b, 1.0, 1.0, exclude_self)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_entropy_weight_scales_entropy_term(self):
        rng = np.random.default_rng(21)
        y_a = random_row_stochastic(rng, 10, 4)
        y_b = random_row_stochastic(rng, 10, 4)
        y = np.vstack([y_a, y_b])
        light = cluster_loss(y, LossSection(entropy_weight=0.0)).value[0, 0]
        heavy = cluster_loss(y, LossSection(entropy_weight=2.0)).value[0, 0]
        h = assignment_entropy(y).value[0, 0]
        np.testing.assert_allclose(heavy, light - 2.0 * h, rtol=1e-12, atol=1e-12)

    def test_zero_mass_cluster_rejected_with_index(self):
        y = np.zeros((4, 3))
        y[:, 0] = 1.0
        y_other = np.full((4, 3), 1.0 / 3.0)
        with pytest.raises(DegenerateInputError, match="cluster 1 has zero mass in view a"):
            cluster_loss(np.vstack([y, y_other]))
        with pytest.raises(DegenerateInputError, match="cluster 1 has zero mass in view b"):
            cluster_loss(np.vstack([y_other, y]))

    def test_single_cluster_rejected(self):
        with pytest.raises(DegenerateInputError):
            cluster_loss(np.ones((8, 1)))

    def test_row_sum_violation_rejected(self):
        y = np.full((4, 2), 0.3)
        with pytest.raises(ContractError):
            cluster_loss(np.vstack([y, np.full((4, 2), 0.5)]))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            LossSection(cluster_temperature=0.0)

    def test_tape_above_the_inputs(self):
        rng = np.random.default_rng(21)
        y = ad.lift(random_row_stochastic(rng, 16, 3))
        seen, stack, ops = {id(y)}, [cluster_loss(y)], Counter()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            ops[node.op] += 1
            stack.extend(node.parents)
        assert ops == {"transpose_halves": 1, "ntxent": 1, "mass_entropy": 1, "add": 1}


class TestClusterLossProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_view_swap_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        y_a = random_row_stochastic(rng, 9, 4)
        y_b = random_row_stochastic(rng, 9, 4)
        lhs = cluster_loss(np.vstack([y_a, y_b])).value[0, 0]
        assert lhs == cluster_loss(np.vstack([y_b, y_a])).value[0, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_joint_column_permutation_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        y_a = random_row_stochastic(rng, 8, 5)
        y_b = random_row_stochastic(rng, 8, 5)
        perm = rng.permutation(5)
        base = cluster_loss(np.vstack([y_a, y_b])).value[0, 0]
        permuted = cluster_loss(np.vstack([y_a, y_b])[:, perm]).value[0, 0]
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_joint_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(600 + seed)
        y_a = random_row_stochastic(rng, 10, 3)
        y_b = random_row_stochastic(rng, 10, 3)
        perm = rng.permutation(10)
        base = cluster_loss(np.vstack([y_a, y_b])).value[0, 0]
        permuted = cluster_loss(np.vstack([y_a[perm], y_b[perm]])).value[0, 0]
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences_through_softmax(self, seed):
        # Direct perturbation would break row-stochasticity, so the check
        # runs through the softmax parametrization the head actually uses.
        rng = np.random.default_rng(700 + seed)
        check_gradients(lambda raw: cluster_loss(ad.softmax_rows(raw)), [rng.normal(size=(12, 3))])
