import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmm.detkit import (
    NodeSet,
    beta_det,
    cauchy_binet_det,
    det_rows,
    exp_det_factorization,
    inverse_vandermonde,
    perturbation_validity,
    shifted_factorial_det,
    vandermonde_det,
    vandermonde_matrix,
)


class TestVandermonde:
    def test_simple_product(self):
        assert vandermonde_det((0.0, 1.0, 2.0)) == pytest.approx(2.0)

    def test_coincident_zero(self):
        assert vandermonde_det((1.0, 1.0, 3.0)) == 0.0

    def test_against_dense_lu(self):
        rng = np.random.default_rng(0)
        x = tuple(rng.uniform(-2, 2, 5))
        dense = float(np.linalg.det(vandermonde_matrix(NodeSet(x))))
        assert vandermonde_det(x) == pytest.approx(dense, rel=1e-10)


class TestInverseVandermonde:
    def test_two_by_two_hand_inverse(self):
        a, b = 0.3, 1.9
        got = inverse_vandermonde(NodeSet((a, b)))
        expect = np.linalg.inv(np.array([[1.0, 1.0], [a, b]]))
        assert np.allclose(got, expect, atol=1e-12)

    def test_left_and_right_identity(self):
        rng = np.random.default_rng(1)
        nodes = NodeSet(tuple(rng.uniform(-3, 3, 5)))
        v = vandermonde_matrix(nodes)
        vt = inverse_vandermonde(nodes)
        assert np.abs(vt @ v - np.eye(5)).max() < 1e-9
        assert np.abs(v @ vt - np.eye(5)).max() < 1e-9

    def test_single_node(self):
        assert np.allclose(inverse_vandermonde(NodeSet((2.5,))), [[1.0]])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            NodeSet((1.0, 1.0 + 1e-15, 3.0))


class TestExpDetFactorization:
    def test_printed_n3_values(self):
        x = NodeSet(tuple((k + 1) * 3**-1.75 for k in range(3)))
        exact, fact, in_window = exp_det_factorization(x, x, 1.0)
        assert exact == pytest.approx(2.53e-5, rel=5e-3)
        assert fact == pytest.approx(1.96e-5, rel=5e-3)
        assert exact / fact == pytest.approx(1.30, abs=0.02)
        assert in_window

    def test_ratio_decreases_toward_one(self):
        ratios = []
        for n in range(3, 8):
            x = NodeSet(tuple((k + 1) * n**-1.75 for k in range(n)))
            exact, fact, _ = exp_det_factorization(x, x, 1.0)
            ratios.append(exact / fact)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(r > 1.0 for r in ratios)

    def test_imaginary_kernel(self):
        x = NodeSet((0.05, 0.11, 0.17))
        exact, fact, _ = exp_det_factorization(x, x, 1j)
        assert abs(exact / fact - 1.0) < 0.2

    def test_shrinking_nodes_ratio_to_one(self):
        big = NodeSet((0.2, 0.4, 0.6))
        small = NodeSet((0.02, 0.04, 0.06))
        r_big = np.divide(*exp_det_factorization(big, big, 1.0)[:2])
        r_small = np.divide(*exp_det_factorization(small, small, 1.0)[:2])
        assert abs(r_small - 1.0) < abs(r_big - 1.0)


class TestCauchyBinet:
    def test_square_case(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
        b = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(4)]]
        assert cauchy_binet_det(a, b) == Fraction(-1) * Fraction(8)

    def test_rank_deficient(self):
        a = [[1, 0], [0, 1], [1, 1]]  # 3x2
        b = [[1, 0, 1], [0, 1, 1]]
        assert cauchy_binet_det(a, b) == 0

    def test_rational_2x3(self):
        a = [[Fraction(1), Fraction(2), Fraction(-1)], [Fraction(0), Fraction(3), Fraction(4)]]
        b = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)], [Fraction(-1), Fraction(2)]]
        ab = [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(2)]
            for i in range(2)
        ]
        direct = ab[0][0] * ab[1][1] - ab[0][1] * ab[1][0]
        assert cauchy_binet_det(a, b) == direct

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 5),
        st.data(),
    )
    def test_random_rational_instances(self, m, n, data):
        if m > n:
            n, m = m, n
        ints = st.integers(-6, 6)
        a = [[Fraction(data.draw(ints), 3) for _ in range(n)] for _ in range(m)]
        b = [[Fraction(data.draw(ints), 2) for _ in range(m)] for _ in range(n)]
        ab = [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(m)]
            for i in range(m)
        ]
        # direct rational determinant of the product
        from qmm.detkit import _det_exact

        assert cauchy_binet_det(a, b) == _det_exact(ab)


def _rows(a):
    """(..., n, n) array -> rows of leading-shape views, as det_rows takes them."""
    n = a.shape[-1]
    return [[a[..., k, l] for l in range(n)] for k in range(n)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDetRows:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_random_batch_against_lapack(self, n):
        a = np.random.default_rng(n).normal(size=(400, n, n))
        np.testing.assert_allclose(det_rows(_rows(a)), np.linalg.det(a), rtol=1e-10, atol=1e-13)

    def test_permutation_sign(self):
        perms = list(permutations(range(4)))
        a = np.zeros((len(perms), 4, 4))
        for i, p in enumerate(perms):
            a[i, range(4), p] = 1.0
        sign = [(-1) ** sum(p[i] > p[j] for i, j in combinations(range(4), 2)) for p in perms]
        np.testing.assert_array_equal(det_rows(_rows(a)), sign)

    def test_zero_column_gives_exact_zero(self):
        a = np.random.default_rng(7).normal(size=(100, 4, 4))
        a[:, :, 2] = 0.0
        assert np.all(det_rows(_rows(a)) == 0.0)

    def test_equal_columns_give_zero(self):
        a = np.random.default_rng(8).normal(size=(100, 4, 4))
        a[:, :, 3] = a[:, :, 1]
        d = det_rows(_rows(a))
        assert np.all(np.isfinite(d))
        assert np.abs(d).max() < 1e-13

    def test_batch_equals_per_point_and_input_is_only_read(self):
        a = np.random.default_rng(9).normal(size=(60, 3, 3))
        before = a.copy()
        batch = det_rows(_rows(a))
        np.testing.assert_array_equal(batch, [det_rows(_rows(m)) for m in a])
        np.testing.assert_array_equal(a, before)

    def test_subnormal_pivot_does_not_overflow(self):
        # a pivot-row division by 1e-320 would overflow; the multiplier is 0.5
        assert det_rows([[1e-320, 1.0], [5e-321, 1.0]]) == 5e-321

    def test_scalar_input(self):
        d = det_rows([[2.0, 1.0], [1.0, 3.0]])
        assert np.ndim(d) == 0 and d == 5.0
        assert det_rows([[np.array(0.0), np.array(1.0)], [np.array(1.0), np.array(3.0)]]) == -1.0


class TestClosedFormDets:
    def test_beta_small_values(self):
        assert beta_det(1) == 1
        assert beta_det(2) == Fraction(-1, 12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_beta_closed_equals_direct(self, n):
        assert beta_det(n, True) == beta_det(n, False)

    def test_shifted_factorial_values(self):
        assert shifted_factorial_det(1) == 1
        assert shifted_factorial_det(2) == 1
        assert shifted_factorial_det(3) == Fraction(1, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shifted_closed_equals_direct(self, n):
        assert shifted_factorial_det(n, True) == shifted_factorial_det(n, False)


def _rescaled_det(n, eps, y, extra):
    """eps^-binom(n,2) det exp(eps k (y_l + extra(y_l))), 40-digit arithmetic.

    The determinant cancels down to ~eps^binom(n,2), far below float64
    resolution at small eps.
    """
    import mpmath as mp

    with mp.workdps(40):
        e = mp.mpf(eps)
        mat = mp.matrix(n, n)
        for k in range(n):
            for l in range(n):
                yy = mp.mpf(y[l]) + mp.mpf(extra(y[l]))
                mat[k, l] = mp.e ** (e * (k + 1) * yy)
        return float(mp.det(mat) / e ** (n * (n - 1) // 2))


class TestPerturbationValidity:
    def test_zero_perturbation(self):
        ok, margin = perturbation_validity("diag-power", {"N": 5, "coefficients": {3: 0.0}})
        assert ok and margin == 0.0

    def test_diag_power_small_vs_large(self):
        ok_small, _ = perturbation_validity(
            "diag-power", {"N": 5, "coefficients": {3: 5.0**-4.5}}
        )
        ok_large, _ = perturbation_validity(
            "diag-power", {"N": 5, "coefficients": {3: 5.0**-1}}
        )
        assert ok_small and not ok_large

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            perturbation_validity("nope", {})

    def test_determinant_sweep_matches_predicate(self):
        # cubic argument perturbation: with an N^-3 coefficient the rescaled
        # determinants stay within the validity window (ratio of the two
        # eps->0 limits stays order one); with N^-1 they visibly diverge.
        # N = 5 sits right at the sufficient bound, so "together" is a
        # same-order statement, not equality.
        n = 5
        y = [1.0 + math.sqrt((k + 1) / n) for k in range(n)]
        rels = {}
        for beta in (n**-3.0, n**-1.0):
            base = []
            pert = []
            for eps in (4.0**-4, 4.0**-5, 4.0**-6):
                base.append(_rescaled_det(n, eps, y, lambda t: 0.0))
                pert.append(_rescaled_det(n, eps, y, lambda t: beta * t**3))
            # both sweeps converge (stable under eps refinement)
            assert base[-1] == pytest.approx(base[-2], rel=5e-2)
            assert pert[-1] == pytest.approx(pert[-2], rel=5e-2)
            rels[beta] = pert[-1] / base[-1]
        ok_small, _ = perturbation_validity(
            "argument-poly", {"N": n, "coefficients": {3: n**-3.0}, "y_max": max(y)}
        )
        ok_large, _ = perturbation_validity(
            "argument-poly", {"N": n, "coefficients": {3: n**-1.0}, "y_max": max(y)}
        )
        assert ok_small and not ok_large
        assert rels[n**-3.0] < 3.0  # same order as the clean limit
        assert rels[n**-1.0] > 100.0  # visibly divergent
        assert abs(rels[n**-3.0] - 1.0) < abs(rels[n**-1.0] - 1.0) / 50.0

    def test_zero_perturbation_ratio_exactly_one(self):
        n = 4
        y = [1.0 + 0.2 * k for k in range(n)]
        a = _rescaled_det(n, 1e-3, y, lambda t: 0.0)
        b = _rescaled_det(n, 1e-3, y, lambda t: 0.0)
        assert a == b


class TestExpDetDegenerate:
    def test_all_zero_nodes_rank_one(self):
        # y identically zero: the kernel matrix is all ones, rank 1
        exact, fact, _ = exp_det_factorization((0.1, 0.2, 0.3), (0.0, 0.0, 0.0), 1.0)
        assert exact == pytest.approx(0.0, abs=1e-30)
        assert fact == pytest.approx(0.0, abs=1e-30)


class TestComplexNodes:
    def test_inverse_vandermonde_complex(self):
        nodes = NodeSet((0.5 + 0.2j, -1.0, 1.3 - 0.4j, 2.0j))
        v = np.array([[z**i for z in nodes.x] for i in range(4)])
        vt = inverse_vandermonde(nodes)
        assert np.abs(vt @ v - np.eye(4)).max() < 1e-9
