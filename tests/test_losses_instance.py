"""Instance-level contrastive loss against hand values and a naive oracle."""

import math

import numpy as np
import pytest

from dualclust import autodiff as ad
from dualclust.config import LossSection
from dualclust.errors import ConfigError, DegenerateInputError, ShapeError
from dualclust.losses import instance_loss, pair_similarity_stats

from helpers import check_gradients, reference_pair_similarity_stats


def naive_cosine(u, v):
    num = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    return num / (nu * nv)


def naive_pairwise_loss(rows, tau, exclude_self):
    """Direct per-anchor loops over the 2n stacked rows, no vectorization."""
    total = 0.0
    count = len(rows)
    half = count // 2
    for i in range(count):
        pos = (i + half) % count
        denom = 0.0
        for j in range(count):
            if exclude_self and j == i:
                continue
            denom += math.exp(naive_cosine(rows[i], rows[j]) / tau)
        numer = math.exp(naive_cosine(rows[i], rows[pos]) / tau)
        total += -math.log(numer / denom)
    return total / count


def naive_instance_loss(z_a, z_b, tau, exclude_self=True):
    rows = [list(r) for r in z_a] + [list(r) for r in z_b]
    return naive_pairwise_loss(rows, tau, exclude_self)


class TestPairSimilarityStats:
    """The O(n d) sums against the masked 2n x 2n matrix they replace."""

    @staticmethod
    def assert_matches_reference(a, b):
        got = pair_similarity_stats(np.vstack([a, b]))
        want = reference_pair_similarity_stats(a, b)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, equal_nan=True)
        return got

    @pytest.mark.parametrize("seed", range(12))
    def test_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        n, d = rng.integers(2, 40), rng.integers(1, 20)
        scale = rng.choice([1e-3, 1.0, 1e3])
        a = scale * rng.normal(size=(n, d))
        b = a + rng.uniform(0.0, 2.0) * scale * rng.normal(size=(n, d))
        self.assert_matches_reference(a, b)

    def test_single_pair_has_no_negatives(self):
        pos, neg = self.assert_matches_reference(np.array([[1.0, 2.0]]), np.array([[2.0, 1.0]]))
        assert pos == pytest.approx(0.8, abs=1e-15)
        assert math.isnan(neg)

    def test_identical_views_give_unit_positives(self):
        a = np.random.default_rng(3).normal(size=(9, 4))
        pos, _ = self.assert_matches_reference(a, a.copy())
        assert pos == pytest.approx(1.0, abs=1e-15)

    def test_collapsed_rows_give_unit_means(self):
        row = np.array([0.3, -1.7, 2.2])
        a = np.tile(row, (16, 1))
        pos, neg = self.assert_matches_reference(a, 5.0 * a)
        assert pos == pytest.approx(1.0, abs=1e-15) and pos <= 1.0
        assert neg == pytest.approx(1.0, abs=1e-15) and neg <= 1.0

    def test_zero_row_reports_index(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[3.0, 4.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="row 3 has zero norm"):
            pair_similarity_stats(np.vstack([a, b]))

    def test_view_shape_mismatch_rejected(self):
        # Views of unequal length stack to an odd row count.
        with pytest.raises(ShapeError, match="5 rows do not split into two equal views"):
            pair_similarity_stats(np.ones((5, 3)))


class TestInstanceLossValues:
    def test_two_orthogonal_instances_hand_value(self):
        # Both views identical, the two instances orthogonal. Every anchor
        # sees one positive at similarity 1 and two negatives at 0, so at
        # temperature 0.5 each term is -log(e^2 / (e^2 + 2)).
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = -math.log(math.exp(2.0) / (math.exp(2.0) + 2.0))
        loss = instance_loss(np.vstack([z, z]), LossSection(instance_temperature=0.5))
        np.testing.assert_allclose(loss.value[0, 0], expected, rtol=0, atol=1e-12)

    def test_single_pair_core_value_is_zero(self):
        # With self terms excluded a lone pair's denominator equals its
        # numerator, which is why instance_loss refuses n=1 batches.
        core = ad.ntxent([[3.0, 4.0], [-1.0, 2.0]], 0.5, exclude_self=True)
        assert core.value[0, 0] == 0.0

    def test_single_pair_rejected_under_self_exclusion(self):
        with pytest.raises(DegenerateInputError):
            instance_loss(np.ones((2, 4)), LossSection())

    def test_single_pair_allowed_with_literal_denominator(self):
        z_a = np.array([[1.0, 0.0]])
        z_b = np.array([[0.0, 1.0]])
        cfg = LossSection(instance_temperature=0.5, exclude_self_similarity=False)
        # Denominator keeps the exp(1/tau) self term plus the positive.
        expected = -math.log(1.0 / (math.exp(2.0) + 1.0))
        loss = instance_loss(np.vstack([z_a, z_b]), cfg)
        np.testing.assert_allclose(loss.value[0, 0], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_loop_oracle(self, seed, exclude_self):
        rng = np.random.default_rng(seed)
        z_a = rng.normal(size=(5, 8))
        z_b = rng.normal(size=(5, 8))
        cfg = LossSection(instance_temperature=0.5, exclude_self_similarity=exclude_self)
        got = instance_loss(np.vstack([z_a, z_b]), cfg).value[0, 0]
        want = naive_instance_loss(z_a, z_b, 0.5, exclude_self)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_nonnegative_under_self_exclusion(self, seed):
        rng = np.random.default_rng(100 + seed)
        loss = instance_loss(rng.normal(size=(12, 4)), LossSection())
        assert loss.value[0, 0] >= 0.0

    def test_temperature_affects_value(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(8, 5))
        cold = instance_loss(z, LossSection(instance_temperature=0.1)).value[0, 0]
        warm = instance_loss(z, LossSection(instance_temperature=5.0)).value[0, 0]
        assert cold != warm


class TestInstanceLossProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_view_swap_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        z_a = rng.normal(size=(5, 6))
        z_b = rng.normal(size=(5, 6))
        lhs = instance_loss(np.vstack([z_a, z_b]), LossSection()).value[0, 0]
        rhs = instance_loss(np.vstack([z_b, z_a]), LossSection()).value[0, 0]
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(10))
    def test_joint_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(200 + seed)
        z_a = rng.normal(size=(7, 4))
        z_b = rng.normal(size=(7, 4))
        perm = rng.permutation(7)
        base = instance_loss(np.vstack([z_a, z_b]), LossSection()).value[0, 0]
        permuted = instance_loss(np.vstack([z_a[perm], z_b[perm]]), LossSection()).value[0, 0]
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_per_row_positive_scaling_invariance(self, seed):
        rng = np.random.default_rng(300 + seed)
        z_a = rng.normal(size=(5, 6))
        z_b = rng.normal(size=(5, 6))
        base = instance_loss(np.vstack([z_a, z_b]), LossSection()).value[0, 0]
        scaled_a = z_a * rng.uniform(0.1, 10.0, size=(5, 1))
        scaled_b = z_b * rng.uniform(0.1, 10.0, size=(5, 1))
        rescaled = instance_loss(np.vstack([scaled_a, scaled_b]), LossSection()).value[0, 0]
        np.testing.assert_allclose(rescaled, base, rtol=1e-10, atol=1e-10)

    def test_aligned_views_score_below_random(self):
        rng = np.random.default_rng(5)
        z = 4.0 * np.eye(4, 8) + 0.05 * rng.normal(size=(4, 8))
        section = LossSection()
        aligned = instance_loss(np.vstack([z, z]), section).value[0, 0]
        shuffled = instance_loss(np.vstack([z, rng.normal(size=(4, 8))]), section).value[0, 0]
        assert aligned < shuffled

    def test_shape_mismatch_rejected(self):
        # Views of unequal length stack to an odd row count.
        with pytest.raises(ShapeError, match="instance_loss: 7 rows"):
            instance_loss(np.ones((7, 2)), LossSection())

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            LossSection(instance_temperature=0.0)
        with pytest.raises(ConfigError):
            LossSection(instance_temperature=-1.0)


class TestInstanceLossGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(400 + seed)
        check_gradients(lambda z: instance_loss(z, LossSection()), [rng.normal(size=(8, 5))])

    def test_gradient_flows_to_both_views(self):
        rng = np.random.default_rng(9)
        z = ad.lift(rng.normal(size=(6, 4)))
        ad.backward(instance_loss(z, LossSection()))
        assert np.any(z.grad[:3] != 0.0)
        assert np.any(z.grad[3:] != 0.0)
