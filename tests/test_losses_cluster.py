"""Cluster-level contrastive loss, column semantics, and the entropy term."""

import math

import numpy as np
import pytest

from dualclust import autodiff as ad
from dualclust.errors import ConfigError, ContractError, DegenerateInputError
from dualclust.losses import (
    ClusterLossConfig,
    assignment_entropy,
    cluster_loss,
)

from helpers import check_gradients
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
        h = assignment_entropy(y, y).value[0, 0]
        np.testing.assert_allclose(h, 2.0 * math.log(m), rtol=0, atol=1e-12)

    def test_concentrated_masses_give_zero(self):
        y = np.zeros((6, 3))
        y[:, 1] = 1.0
        assert assignment_entropy(y, y).value[0, 0] == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(17)
        y_a = random_row_stochastic(rng, 16, 4)
        y_b = random_row_stochastic(rng, 16, 4)
        want = 0.0
        for y in (y_a, y_b):
            p = y.sum(axis=0) / 16.0
            want -= float(np.sum(p * np.log(p)))
        got = assignment_entropy(y_a, y_b).value[0, 0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_rows_not_summing_to_one(self):
        bad = np.full((3, 2), 0.6)
        good = np.full((3, 2), 0.5)
        with pytest.raises(ContractError, match="row 0"):
            assignment_entropy(bad, good)
        with pytest.raises(ContractError, match="second view"):
            assignment_entropy(good, bad)

    def test_gradient_vanishes_on_simplex_at_uniform(self):
        # dH/dY is constant within each row at uniform masses, so its
        # projection onto directions that preserve row sums is zero.
        y_a = ad.lift(np.full((8, 4), 0.25))
        y_b = ad.lift(np.full((8, 4), 0.25))
        ad.backward(assignment_entropy(y_a, y_b))
        for node in (y_a, y_b):
            tangent = node.grad - node.grad.mean(axis=1, keepdims=True)
            np.testing.assert_allclose(tangent, 0.0, rtol=0, atol=1e-12)

    def test_gradient_through_softmax_vanishes_at_uniform(self):
        logits = np.zeros((6, 3))

        def build(raw):
            y = ad.softmax_rows(raw)
            return assignment_entropy(y, y)

        node = ad.lift(logits)
        ad.backward(build(node))
        np.testing.assert_allclose(node.grad, 0.0, rtol=0, atol=1e-12)


class TestClusterLossValues:
    def test_orthogonal_one_hot_hand_value(self):
        # Two clusters, identical views, disjoint one-hot columns: each of
        # the four column anchors sees its positive at similarity 1 and two
        # negatives at 0. At temperature 1 the contrastive part is
        # -log(e / (e + 2)); balanced masses put the entropy at 2 log 2.
        y = np.eye(2)
        cfg = ClusterLossConfig(temperature=1.0, entropy_weight=1.0)
        contrastive = -math.log(math.e / (math.e + 2.0))
        expected = contrastive - 2.0 * math.log(2.0)
        loss = cluster_loss(y, y, cfg).value[0, 0]
        np.testing.assert_allclose(loss, expected, rtol=0, atol=1e-12)

    def test_literal_entropy_sign_adds_instead(self):
        y = np.eye(2)
        cfg = ClusterLossConfig(literal_entropy_sign=True)
        contrastive = -math.log(math.e / (math.e + 2.0))
        expected = contrastive + 2.0 * math.log(2.0)
        loss = cluster_loss(y, y, cfg).value[0, 0]
        np.testing.assert_allclose(loss, expected, rtol=0, atol=1e-12)

    def test_identical_orthogonal_views_have_unit_positive_similarity(self):
        from dualclust.losses import cosine_similarity_matrix

        y = np.eye(3)
        sim = cosine_similarity_matrix(y.T, y.T)
        np.testing.assert_allclose(np.diag(sim), np.ones(3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_loop_oracle(self, seed, exclude_self):
        rng = np.random.default_rng(seed)
        y_a = random_row_stochastic(rng, 12, 3)
        y_b = random_row_stochastic(rng, 12, 3)
        cfg = ClusterLossConfig(
            temperature=1.0, entropy_weight=1.0, exclude_self_similarity=exclude_self
        )
        got = cluster_loss(y_a, y_b, cfg).value[0, 0]
        want = naive_cluster_loss(y_a, y_b, 1.0, 1.0, exclude_self)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_entropy_weight_scales_entropy_term(self):
        rng = np.random.default_rng(21)
        y_a = random_row_stochastic(rng, 10, 4)
        y_b = random_row_stochastic(rng, 10, 4)
        light = cluster_loss(y_a, y_b, ClusterLossConfig(entropy_weight=0.0)).value[0, 0]
        heavy = cluster_loss(y_a, y_b, ClusterLossConfig(entropy_weight=2.0)).value[0, 0]
        h = assignment_entropy(y_a, y_b).value[0, 0]
        np.testing.assert_allclose(heavy, light - 2.0 * h, rtol=1e-12, atol=1e-12)

    def test_zero_mass_cluster_rejected_with_index(self):
        y = np.zeros((4, 3))
        y[:, 0] = 1.0
        y_other = np.full((4, 3), 1.0 / 3.0)
        with pytest.raises(DegenerateInputError, match="cluster 1"):
            cluster_loss(y, y_other)

    def test_single_cluster_rejected(self):
        y = np.ones((4, 1))
        with pytest.raises(DegenerateInputError):
            cluster_loss(y, y)

    def test_row_sum_violation_rejected(self):
        y = np.full((4, 2), 0.3)
        with pytest.raises(ContractError):
            cluster_loss(y, np.full((4, 2), 0.5))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            ClusterLossConfig(temperature=0.0)


class TestClusterLossProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_view_swap_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        y_a = random_row_stochastic(rng, 9, 4)
        y_b = random_row_stochastic(rng, 9, 4)
        assert cluster_loss(y_a, y_b).value[0, 0] == cluster_loss(y_b, y_a).value[0, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_joint_column_permutation_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        y_a = random_row_stochastic(rng, 8, 5)
        y_b = random_row_stochastic(rng, 8, 5)
        perm = rng.permutation(5)
        base = cluster_loss(y_a, y_b).value[0, 0]
        permuted = cluster_loss(y_a[:, perm], y_b[:, perm]).value[0, 0]
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_joint_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(600 + seed)
        y_a = random_row_stochastic(rng, 10, 3)
        y_b = random_row_stochastic(rng, 10, 3)
        perm = rng.permutation(10)
        base = cluster_loss(y_a, y_b).value[0, 0]
        permuted = cluster_loss(y_a[perm], y_b[perm]).value[0, 0]
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences_through_softmax(self, seed):
        # Direct perturbation would break row-stochasticity, so the check
        # runs through the softmax parametrization the head actually uses.
        rng = np.random.default_rng(700 + seed)
        arrays = [rng.normal(size=(6, 3)), rng.normal(size=(6, 3))]

        def build(raw_a, raw_b):
            return cluster_loss(ad.softmax_rows(raw_a), ad.softmax_rows(raw_b))

        check_gradients(build, arrays)
