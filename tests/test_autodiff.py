"""Gradient-engine tests: exact cases, contracts, and finite-difference
checks for every primitive on many seeds."""

import numpy as np
import pytest

from dualclust import autodiff as ad
from dualclust.errors import ContractError, DegenerateInputError, ShapeError

from helpers import check_gradients, weighted_sum

SEEDS = range(20)


class TestMatrixBasics:
    def test_as_matrix_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            ad.as_matrix([1.0, 2.0])
        with pytest.raises(ShapeError):
            ad.as_matrix(np.zeros((2, 2, 2)))

    def test_matmul_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, np.eye(2)).value
        np.testing.assert_array_equal(out, a)

    def test_matmul_identity_times_column(self):
        out = ad.matmul(np.eye(2), [[5.0], [7.0]]).value
        np.testing.assert_array_equal(out, [[5.0], [7.0]])

    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(ad.matmul(a, b).value, expected, atol=1e-12)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_elementwise_shape_errors(self):
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ShapeError):
                op(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(0)
        m = rng.normal(scale=100.0, size=(4, 5))
        for node in (
            ad.softmax_rows(m),
            ad.row_l2_normalize(m),
            ad.relu(m),
            ad.scale(m, 3.0),
            ad.masked_row_logsumexp(m, np.ones_like(m)),
        ):
            assert np.isfinite(node.value).all()


class TestRowNormalize:
    def test_three_four_five(self):
        out = ad.row_l2_normalize([[3.0, 4.0]]).value
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 4))
        once = ad.row_l2_normalize(m).value
        twice = ad.row_l2_normalize(once).value
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_unit_rows_unchanged(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(ad.row_l2_normalize(m).value, m, atol=1e-15)

    def test_output_norms_are_one(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 3))
        norms = np.linalg.norm(ad.row_l2_normalize(m).value, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_row_reports_index(self):
        m = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(DegenerateInputError, match="row 1"):
            ad.row_l2_normalize(m)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = ad.softmax_rows([[0.0, 0.0, 0.0]]).value
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        out = ad.softmax_rows([[1000.0, 0.0]]).value
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(scale=5.0, size=(4, 6))
            out = ad.softmax_rows(m).value
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert (out > 0.0).all()


class TestBackwardContracts:
    def test_non_scalar_root(self):
        with pytest.raises(ContractError):
            ad.backward(ad.lift(np.zeros((2, 2))))

    def test_sum_of_entries_gives_ones(self):
        leaf = ad.lift(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(leaf))
        np.testing.assert_array_equal(leaf.grad, np.ones((2, 3)))

    def test_squared_frobenius_gives_two_x(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 3))
        leaf = ad.lift(x)
        ad.backward(ad.sum_all(ad.mul(leaf, leaf)))
        np.testing.assert_allclose(leaf.grad, 2.0 * x, atol=1e-12)

    def test_node_used_twice_accumulates(self):
        # y = sum(x) + sum(x * x): gradient should be 1 + 2x.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4))
        leaf = ad.lift(x)
        root = ad.add(ad.sum_all(leaf), ad.sum_all(ad.mul(leaf, leaf)))
        ad.backward(root)
        np.testing.assert_allclose(leaf.grad, 1.0 + 2.0 * x, atol=1e-12)

    def test_node_used_twice_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.5, 3.0, size=(3, 2))

        def build(n):
            shared = ad.row_l2_normalize(n)
            return ad.add(ad.sum_all(ad.mul(shared, shared)), ad.sum_all(ad.log(n)))

        check_gradients(build, [x])

    def test_repeated_backward_resets_gradients(self):
        leaf = ad.lift(np.ones((2, 2)))
        root = ad.sum_all(leaf)
        ad.backward(root)
        ad.backward(root)
        np.testing.assert_array_equal(leaf.grad, np.ones((2, 2)))


@pytest.mark.parametrize("seed", SEEDS)
class TestPrimitiveGradients:
    """Finite-difference checks for every differentiable primitive."""

    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))
        check_gradients(lambda x, y: weighted_sum(ad.matmul(x, y), w), [a, b])

    def test_add_sub_mul(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))
        check_gradients(lambda x, y: weighted_sum(ad.add(x, y), w), [a, b])
        check_gradients(lambda x, y: weighted_sum(ad.sub(x, y), w), [a, b])
        check_gradients(lambda x, y: weighted_sum(ad.mul(x, y), w), [a, b])

    def test_add_row_vector(self, seed):
        rng = np.random.default_rng(seed)
        m, v = rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
        w = rng.normal(size=(4, 3))
        check_gradients(lambda x, y: weighted_sum(ad.add_row_vector(x, y), w), [m, v])

    def test_relu(self, seed):
        rng = np.random.default_rng(seed)
        # Keep entries away from the kink at zero.
        m = rng.normal(size=(4, 4))
        m = np.where(np.abs(m) < 0.1, 0.5, m)
        w = rng.normal(size=(4, 4))
        check_gradients(lambda x: weighted_sum(ad.relu(x), w), [m])

    def test_row_l2_normalize(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 3)) + rng.choice([-2.0, 2.0])
        w = rng.normal(size=(4, 3))
        check_gradients(lambda x: weighted_sum(ad.row_l2_normalize(x), w), [m])

    def test_softmax_rows(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(scale=2.0, size=(4, 5))
        w = rng.normal(size=(4, 5))
        check_gradients(lambda x: weighted_sum(ad.softmax_rows(x), w), [m])

    def test_log(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.5, 3.0, size=(3, 4))
        w = rng.normal(size=(3, 4))
        check_gradients(lambda x: weighted_sum(ad.log(x), w), [m])

    def test_clip_min(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.2, 2.0, size=(3, 4))  # away from the 0.1 floor
        w = rng.normal(size=(3, 4))
        check_gradients(lambda x: weighted_sum(ad.clip_min(x, 0.1), w), [m])

    def test_scalar_ops(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        check_gradients(lambda x: weighted_sum(ad.scale(x, -1.7), w), [m])

    def test_transpose_concat_sum(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 6))
        check_gradients(
            lambda x, y: weighted_sum(ad.transpose(ad.concat_rows(x, y)), w), [a, b]
        )
        check_gradients(lambda x: ad.sum_all(x), [a])

    def test_take_per_row(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(5, 4))
        cols = rng.integers(0, 4, size=5)
        w = rng.normal(size=(5, 1))
        check_gradients(lambda x: weighted_sum(ad.take_per_row(x, cols), w), [m])

    def test_masked_row_logsumexp(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(scale=2.0, size=(4, 6))
        mask = np.ones((4, 6))
        mask[np.arange(4), rng.integers(0, 6, size=4)] = 0.0
        w = rng.normal(size=(4, 1))
        check_gradients(
            lambda x: weighted_sum(ad.masked_row_logsumexp(x, mask), w), [m]
        )


class TestMaskedLogsumexp:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 5))
        mask = np.ones((3, 5))
        mask[0, 0] = mask[2, 4] = 0.0
        out = ad.masked_row_logsumexp(m, mask).value
        expected = np.log((mask * np.exp(m)).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_stable_for_large_entries(self):
        out = ad.masked_row_logsumexp([[1000.0, 999.0]], [[1.0, 1.0]]).value
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, 1000.0 + np.log(1 + np.exp(-1.0)), atol=1e-12)

    def test_all_masked_row_rejected(self):
        with pytest.raises(ContractError):
            ad.masked_row_logsumexp(np.ones((2, 2)), [[1.0, 1.0], [0.0, 0.0]])

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ContractError):
            ad.masked_row_logsumexp(np.ones((1, 2)), [[0.5, 1.0]])


class TestTakePerRow:
    def test_values(self):
        m = np.arange(12.0).reshape(3, 4)
        out = ad.take_per_row(m, [1, 0, 3]).value
        np.testing.assert_array_equal(out, [[1.0], [4.0], [11.0]])

    def test_bad_indices(self):
        with pytest.raises(ContractError):
            ad.take_per_row(np.ones((2, 2)), [0, 2])
        with pytest.raises(ContractError):
            ad.take_per_row(np.ones((2, 2)), [0])
