"""Gradient-engine tests: exact cases, contracts, and finite-difference
checks for every primitive on many seeds."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dualclust import autodiff as ad
from dualclust.errors import ContractError, DegenerateInputError, ShapeError
from dualclust.losses import ENTROPY_LOG_FLOOR

from helpers import (
    check_gradients,
    reference_entropy_chain,
    reference_ntxent,
    soft_labels_with_empty_columns,
    transposed,
    weighted_sum,
)

SEEDS = range(20)

# Every differentiable primitive the engine exports, with the
# TestPrimitiveGradients test that checks it against finite differences.
PRIMITIVE_FD_TESTS = {
    "add": "test_add_sub_mul",
    "linear": "test_linear",
    "relu": "test_relu",
    "softmax_rows": "test_softmax_rows",
    "transpose_halves": "test_transpose_concat_sum",
    "ntxent": "test_ntxent",
    "mass_entropy": "test_mass_entropy",
}
NON_PRIMITIVES = {"Matrix", "Node", "as_matrix", "view_rows", "unit_rows", "lift", "backward"}


def squared_frobenius(node):
    """sum(X * X) as the trace of X X^T, with ``node`` used twice by one
    ``linear``."""
    rows = node.shape[0]
    gram = ad.linear(node, transposed(node), np.zeros((1, rows)))
    return weighted_sum(gram, np.eye(rows))


class TestMatrixBasics:
    def test_as_matrix_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            ad.as_matrix([1.0, 2.0])
        with pytest.raises(ShapeError):
            ad.as_matrix(np.zeros((2, 2, 2)))

    def test_elementwise_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.add(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(0)
        m = rng.normal(scale=100.0, size=(4, 5))
        for node in (
            ad.softmax_rows(m),
            ad.relu(m),
            ad.ntxent(m, 0.5, exclude_self=True),
            ad.transpose_halves(m),
            ad.mass_entropy(np.abs(m), 1e-12),
        ):
            assert np.isfinite(node.value).all()


class TestNtxent:
    def test_zero_row_reports_index(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(DegenerateInputError, match="row 2 has zero norm"):
            ad.ntxent(np.vstack([a, b]), 0.5, exclude_self=True)
        # A finite row whose squared norm overflows, without a warning.
        with pytest.raises(DegenerateInputError, match="row 3 has non-finite norm"):
            ad.ntxent(np.vstack([a, [[3.0, 4.0], [1e200, 1e200]]]), 0.5, exclude_self=True)

    def test_view_shape_mismatch_rejected(self):
        # Views of unequal length stack to an odd row count.
        with pytest.raises(ShapeError, match="ntxent: 5 rows do not split"):
            ad.ntxent(np.ones((5, 3)), 0.5, exclude_self=True)
        with pytest.raises(ShapeError, match="transpose_halves: 3 rows do not split"):
            ad.transpose_halves(np.ones((3, 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_view_swap_rolls_value_and_gradient(self, seed):
        # The halves are evaluated in byte order, so a swap gives the same
        # value and the same gradient rows, swapped, bit for bit: on one
        # band, and on three bands with a ragged last one.
        rng = np.random.default_rng(seed)
        for n in (5, ad.BAND_ROWS + 3):
            a, b = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
            ab, ba = ad.lift(np.vstack([a, b])), ad.lift(np.vstack([b, a]))
            roots = [ad.ntxent(x, 0.4, exclude_self=bool(seed % 2)) for x in (ab, ba)]
            for root in roots:
                ad.backward(root)
            np.testing.assert_array_equal(roots[0].value, roots[1].value)
            np.testing.assert_array_equal(ab.grad, np.roll(ba.grad, n, axis=0))

    # One band, the band boundaries, and several bands with a ragged last one.
    @pytest.mark.parametrize(
        "shape",
        [(1024, 128), (12, 4)]
        + [(rows, 8) for rows in (ad.BAND_ROWS - 2, ad.BAND_ROWS, ad.BAND_ROWS + 2)]
        + [(3 * ad.BAND_ROWS + 2, 8)],
    )
    @pytest.mark.parametrize("temperature", [1e-300, 1 / 400, 1 / 300, 0.07, 0.5, 5.0])
    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_matches_row_max_reference(self, shape, temperature, exclude_self):
        # The 1/tau shift over the banded upper triangle below the limit,
        # and the row-max shift above it, give the row-max, two-product
        # value and gradient to rounding.
        assert 1 / 400 < 1 / ad.SYMMETRIC_SHIFT_LIMIT < 1 / 300
        rng = np.random.default_rng(shape[0])
        x = rng.normal(size=shape)
        weight = 1.7
        leaf = ad.lift(x)
        node = ad.ntxent(leaf, temperature, exclude_self)
        ad.backward(weighted_sum(node, [[weight]]))
        value, grad = reference_ntxent(x, temperature, exclude_self, weight)
        np.testing.assert_allclose(node.value[0, 0], value, rtol=1e-12)
        np.testing.assert_allclose(leaf.grad, grad, rtol=0, atol=1e-12 * np.abs(grad).max())

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_repeated_backward_is_bit_identical(self, exclude_self):
        # The forward and the VJP work in place on their own temporaries;
        # a VJP that wrote into the arrays it shares across calls, such as
        # the stored bands, would change the second call's gradients.
        rng = np.random.default_rng(8)
        # One band and three; one of the two orders of the halves is
        # evaluated swapped.
        for rows in (12, 2 * ad.BAND_ROWS + 6):
            x = rng.normal(size=(rows, 4))
            for x in (x, np.roll(x, rows // 2, axis=0)):
                leaf = ad.lift(x)
                root = weighted_sum(ad.ntxent(leaf, 0.3, exclude_self), [[1.7]])
                ad.backward(root)
                first = leaf.grad.copy()
                ad.backward(root)
                np.testing.assert_array_equal(leaf.grad, first)

    def test_memory_stays_within_one_matrix_at_1024_rows(self):
        # The forward keeps only the upper triangle of the exp matrix, in
        # bands, and the VJP forms one band-sized temporary at a time: at
        # 2n = 1024 the forward holds at most one 2n x 2n float64 matrix,
        # and the backward peaks at one and a half.
        rows = 1024
        leaf = ad.lift(np.random.default_rng(3).normal(size=(rows, 128)))
        matrix_bytes = rows * rows * 8
        tracemalloc.start()
        try:
            root = ad.ntxent(leaf, 0.5, exclude_self=True)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= matrix_bytes, held
        assert peak <= 1.5 * matrix_bytes, peak


class TestMassEntropy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_unfused_chain_bit_for_bit(self, seed):
        # Value and gradient repeat the matmul / scale / clip_min / log /
        # mul / sum_all / add chain's float operations over both views,
        # including at zero and below-floor columns where clip_min cuts
        # the log's gradient.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 600)), int(rng.integers(3, 21))
        views = [soft_labels_with_empty_columns(rng, n, m) for _ in range(2)]
        g = rng.normal(size=(1, 1))
        leaf = ad.lift(np.vstack(views))
        root = weighted_sum(ad.mass_entropy(leaf, ENTROPY_LOG_FLOOR), g)
        ad.backward(root)
        value, grads = reference_entropy_chain(views, ENTROPY_LOG_FLOOR, g)
        np.testing.assert_array_equal(root.parents[0].value, value)
        np.testing.assert_array_equal(leaf.grad, np.vstack(grads))

    @pytest.mark.parametrize("seed", range(10))
    def test_weight_matches_a_weighted_probe_bit_for_bit(self, seed):
        # The weight scales the value and the incoming gradient with the
        # same float operations as a weighting node above the unweighted
        # term.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 600)), int(rng.integers(3, 21))
        y = np.vstack([soft_labels_with_empty_columns(rng, n, m) for _ in range(2)])
        weight = float(rng.normal()) * 10.0 ** int(rng.integers(-3, 4))
        fused, probed = ad.lift(y), ad.lift(y)
        root = ad.mass_entropy(fused, ENTROPY_LOG_FLOOR, weight)
        probe = weighted_sum(ad.mass_entropy(probed, ENTROPY_LOG_FLOOR), [[weight]])
        ad.backward(root)
        ad.backward(probe)
        np.testing.assert_array_equal(root.value, probe.value)
        np.testing.assert_array_equal(fused.grad, probed.grad)

    def test_non_finite_mass_reports_column(self):
        y = np.full((6, 4), 0.25)
        for row, view in ((1, "first"), (4, "second")):
            bad = y.copy()
            bad[row, 2] = np.nan
            with pytest.raises(DegenerateInputError, match=f"{view} view, column 2: mass not finite"):
                ad.mass_entropy(bad, 1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(DegenerateInputError, match="at least one row"):
            ad.mass_entropy(np.zeros((0, 3)), 1e-12)


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
        ad.backward(weighted_sum(leaf, np.ones((2, 3))))
        np.testing.assert_array_equal(leaf.grad, np.ones((2, 3)))

    def test_squared_frobenius_gives_two_x(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 3))
        leaf = ad.lift(x)
        ad.backward(squared_frobenius(leaf))
        np.testing.assert_allclose(leaf.grad, 2.0 * x, atol=1e-12)

    def test_node_used_twice_accumulates(self):
        # y = sum(x) + sum(x * x): gradient should be 1 + 2x.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4))
        leaf = ad.lift(x)
        root = ad.add(weighted_sum(leaf, np.ones((2, 4))), squared_frobenius(leaf))
        ad.backward(root)
        np.testing.assert_allclose(leaf.grad, 1.0 + 2.0 * x, atol=1e-12)

    def test_node_used_twice_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.5, 3.0, size=(3, 2))
        w, v = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))

        def build(n):
            # n feeds softmax_rows and relu; shared feeds linear twice.
            shared = ad.softmax_rows(n)
            gram = ad.linear(shared, transposed(shared), np.zeros((1, 3)))
            return ad.add(weighted_sum(gram, w), weighted_sum(ad.relu(n), v))

        check_gradients(build, [x])

    def test_node_added_to_itself(self):
        leaf = ad.lift(np.arange(4.0).reshape(2, 2))
        ad.backward(weighted_sum(ad.add(leaf, leaf), np.ones((2, 2))))
        np.testing.assert_array_equal(leaf.grad, np.full((2, 2), 2.0))

    def test_shared_slot_is_not_written_through(self):
        # add's VJP hands one array to both parents, so their slots share
        # it; a's second use (through linear, swept after add) must sum
        # into a new array, leaving b's intact.
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        a, b = ad.lift(x), ad.lift(y)
        root = ad.add(squared_frobenius(a), weighted_sum(ad.add(a, b), np.ones((2, 3))))
        ad.backward(root)
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_allclose(a.grad, 1.0 + 2.0 * x, atol=1e-12)

    def test_second_backward_leaves_first_results_untouched(self):
        rng = np.random.default_rng(10)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(1, 2))
        nodes = [ad.lift(v) for v in (x, w, b)]
        h = ad.linear(*nodes)
        root = ad.add(squared_frobenius(h), weighted_sum(h, np.ones((3, 2))))
        ad.backward(root)
        first = [node.grad for node in nodes]
        copies = [g.copy() for g in first]
        ad.backward(root)
        for node, g, copy in zip(nodes, first, copies):
            np.testing.assert_array_equal(g, copy)
            np.testing.assert_array_equal(node.grad, copy)

    def test_repeated_backward_resets_gradients(self):
        leaf = ad.lift(np.ones((2, 2)))
        root = weighted_sum(leaf, np.ones((2, 2)))
        ad.backward(root)
        ad.backward(root)
        np.testing.assert_array_equal(leaf.grad, np.ones((2, 2)))


@pytest.mark.parametrize("seed", SEEDS)
class TestPrimitiveGradients:
    """Finite-difference checks for every differentiable primitive."""

    def test_add_sub_mul(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))
        check_gradients(lambda x, y: weighted_sum(ad.add(x, y), w), [a, b])

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

    def test_transpose_concat_sum(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 3))
        w = rng.normal(size=(6, 2))
        check_gradients(lambda x: weighted_sum(ad.transpose_halves(x), w), [a])

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_ntxent(self, seed, exclude_self):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 4))
        temperature, weight = rng.uniform(0.3, 1.5), rng.normal()
        probe = [[weight]]
        check_gradients(lambda x: weighted_sum(ad.ntxent(x, temperature, exclude_self), probe), [x])

    def test_mass_entropy(self, seed):
        # Column 0's mass lies in [0.02, 0.1], below the 0.15 floor, and
        # every other column's in [0.2, 1]: each side of the clip is
        # checked, and both stay far from it.
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.2, 1.0, size=(10, 4))
        y[:, 0] *= 0.1
        weight = rng.normal()
        check_gradients(lambda x: ad.mass_entropy(x, 0.15, weight), [y])


def test_every_exported_primitive_is_finite_difference_tested():
    assert set(ad.__all__) - NON_PRIMITIVES == set(PRIMITIVE_FD_TESTS)
    for name, test in PRIMITIVE_FD_TESTS.items():
        assert callable(getattr(TestPrimitiveGradients, test, None)), f"{name}: no {test}"


def test_every_exported_primitive_has_a_caller_in_the_package():
    # A primitive that only its own tests call is dead code: delete it.
    package = Path(ad.__file__).parent
    source = "".join(
        path.read_text() for path in sorted(package.glob("*.py")) if path.name != "autodiff.py"
    )
    for name in sorted(set(ad.__all__) - NON_PRIMITIVES):
        assert re.search(rf"\bad\.{name}\(", source), f"ad.{name} has no caller in {package}"
