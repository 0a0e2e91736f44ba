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
        for op in (ad.add, ad.mul):
            with pytest.raises(ShapeError):
                op(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(0)
        m = rng.normal(scale=100.0, size=(4, 5))
        for node in (
            ad.softmax_rows(m),
            ad.relu(m),
            ad.scale(m, 3.0),
            ad.ntxent(m[:2], m[2:], 0.5, exclude_self=True),
        ):
            assert np.isfinite(node.value).all()


class TestNtxent:
    def test_zero_row_reports_index(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(DegenerateInputError, match="row 2"):
            ad.ntxent(a, b, 0.5, exclude_self=True)

    def test_view_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.ntxent(np.ones((2, 3)), np.ones((3, 3)), 0.5, exclude_self=True)

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_repeated_backward_is_bit_identical(self, exclude_self):
        # The forward and the VJP work in place on their own temporaries;
        # a VJP that wrote into the arrays it shares across calls would
        # change the second call's gradients.
        rng = np.random.default_rng(8)
        a, b = ad.lift(rng.normal(size=(6, 4))), ad.lift(rng.normal(size=(6, 4)))
        root = ad.scale(ad.ntxent(a, b, 0.3, exclude_self), 1.7)
        ad.backward(root)
        first = a.grad.copy(), b.grad.copy()
        ad.backward(root)
        np.testing.assert_array_equal(a.grad, first[0])
        np.testing.assert_array_equal(b.grad, first[1])


class TestLinear:
    def test_value_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(12)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        np.testing.assert_array_equal(ad.linear(x, w, b).value, x @ w + b)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="inner dimensions"):
            ad.linear(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((1, 3)))
        with pytest.raises(ShapeError, match="bias"):
            ad.linear(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((1, 3)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_constant_input_forms_parameter_gradients_only(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
        probe = rng.normal(size=(6, 3))
        lifted = [ad.lift(v) for v in (x, w, b)]
        ad.backward(weighted_sum(ad.relu(ad.linear(*lifted)), probe))
        w_node, b_node = ad.lift(w), ad.lift(b)
        out = ad.linear(x, w_node, b_node)
        assert out.parents == (w_node, b_node)
        ad.backward(weighted_sum(ad.relu(out), probe))
        np.testing.assert_array_equal(w_node.grad, lifted[1].grad)
        np.testing.assert_array_equal(b_node.grad, lifted[2].grad)


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
            shared = ad.softmax_rows(n)
            return ad.add(ad.sum_all(ad.mul(shared, shared)), ad.sum_all(ad.log(n)))

        check_gradients(build, [x])

    def test_node_added_to_itself(self):
        leaf = ad.lift(np.arange(4.0).reshape(2, 2))
        ad.backward(ad.sum_all(ad.add(leaf, leaf)))
        np.testing.assert_array_equal(leaf.grad, np.full((2, 2), 2.0))

    def test_shared_slot_is_not_written_through(self):
        # add's VJP hands one array to both parents, so their slots share
        # it; a's second use (through mul, swept after add) must sum into a
        # new array, leaving b's intact.
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        a, b = ad.lift(x), ad.lift(y)
        root = ad.add(ad.sum_all(ad.mul(a, a)), ad.sum_all(ad.add(a, b)))
        ad.backward(root)
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_allclose(a.grad, 1.0 + 2.0 * x, atol=1e-12)

    def test_second_backward_leaves_first_results_untouched(self):
        rng = np.random.default_rng(10)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(1, 2))
        nodes = [ad.lift(v) for v in (x, w, b)]
        h = ad.linear(*nodes)
        root = ad.add(ad.sum_all(ad.mul(h, h)), ad.sum_all(h))
        ad.backward(root)
        first = [node.grad for node in nodes]
        copies = [g.copy() for g in first]
        ad.backward(root)
        for node, g, copy in zip(nodes, first, copies):
            np.testing.assert_array_equal(g, copy)
            np.testing.assert_array_equal(node.grad, copy)

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
        check_gradients(lambda x, y: weighted_sum(ad.mul(x, y), w), [a, b])

    def test_linear(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
        probe = rng.normal(size=(4, 2))
        check_gradients(lambda *nodes: weighted_sum(ad.linear(*nodes), probe), [x, w, b])

    def test_relu(self, seed):
        rng = np.random.default_rng(seed)
        # Keep entries away from the kink at zero.
        m = rng.normal(size=(4, 4))
        m = np.where(np.abs(m) < 0.1, 0.5, m)
        w = rng.normal(size=(4, 4))
        check_gradients(lambda x: weighted_sum(ad.relu(x), w), [m])

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
        a = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 2))
        check_gradients(lambda x: weighted_sum(ad.transpose(x), w), [a])
        check_gradients(lambda x: ad.sum_all(x), [a])

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_ntxent(self, seed, exclude_self):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        temperature, weight = rng.uniform(0.3, 1.5), rng.normal()
        check_gradients(
            lambda x, y: ad.scale(ad.ntxent(x, y, temperature, exclude_self), weight), [a, b]
        )
