import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmm.detkit import (
    beta_det,
    cauchy_binet_det,
    det_rows,
    exp_det_factorization,
    exp_kernel_ratio,
    inverse_vandermonde,
    shifted_factorial_det,
    vandermonde_det,
)


class TestVandermonde:
    def test_simple_product(self):
        assert vandermonde_det((0.0, 1.0, 2.0)) == pytest.approx(2.0)

    def test_coincident_zero(self):
        assert vandermonde_det((1.0, 1.0, 3.0)) == 0.0

    def test_against_dense_lu(self):
        rng = np.random.default_rng(0)
        x = tuple(rng.uniform(-2, 2, 5))
        dense = float(np.linalg.det(np.vander(x, increasing=True).T))
        assert vandermonde_det(x) == pytest.approx(dense, rel=1e-10)


class TestInverseVandermonde:
    def test_two_by_two_hand_inverse(self):
        a, b = 0.3, 1.9
        got = inverse_vandermonde((a, b))
        expect = np.linalg.inv(np.array([[1.0, 1.0], [a, b]]))
        assert np.allclose(got, expect, atol=1e-12)

    def test_left_and_right_identity(self):
        rng = np.random.default_rng(1)
        nodes = tuple(rng.uniform(-3, 3, 5))
        v = np.vander(nodes, increasing=True).T
        vt = inverse_vandermonde(nodes)
        assert np.abs(vt @ v - np.eye(5)).max() < 1e-9
        assert np.abs(v @ vt - np.eye(5)).max() < 1e-9

    def test_single_node(self):
        assert np.allclose(inverse_vandermonde((2.5,)), [[1.0]])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            inverse_vandermonde((1.0, 1.0 + 1e-15, 3.0))


class TestExpDetFactorization:
    def test_printed_n3_values(self):
        x = tuple((k + 1) * 3**-1.75 for k in range(3))
        exact, fact, in_window = exp_det_factorization(x, x, 1.0)
        assert exact == pytest.approx(2.53e-5, rel=5e-3)
        assert fact == pytest.approx(1.96e-5, rel=5e-3)
        assert exact / fact == pytest.approx(1.30, abs=0.02)
        assert in_window

    def test_ratio_decreases_toward_one(self):
        ratios = []
        for n in range(3, 8):
            x = tuple((k + 1) * n**-1.75 for k in range(n))
            exact, fact, _ = exp_det_factorization(x, x, 1.0)
            ratios.append(exact / fact)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(r > 1.0 for r in ratios)

    def test_imaginary_kernel(self):
        x = (0.05, 0.11, 0.17)
        exact, fact, _ = exp_det_factorization(x, x, 1j)
        assert abs(exact / fact - 1.0) < 0.2

    @pytest.mark.parametrize("call", [lambda: exp_det_factorization((), ()),
                                      lambda: exp_kernel_ratio((), (), 1.0)],
                             ids=["factorization", "ratio"])
    def test_empty_node_sets_rejected(self, call):
        with pytest.raises(ValueError, match="need at least one node"):
            call()

    def test_shrinking_nodes_ratio_to_one(self):
        big = (0.2, 0.4, 0.6)
        small = (0.02, 0.04, 0.06)
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

    def test_mpmath_entries_with_singular_minors(self):
        # equal first columns: minors over columns {0, 1, k} are exactly singular
        import mpmath as mp

        a = [[1, 1, 2, 3], [2, 2, 5, 1], [3, 3, 1, 4]]
        b = [[1, 0, 2], [0, 1, 1], [2, 1, 0], [1, 3, 1]]
        exact = cauchy_binet_det([[Fraction(v) for v in r] for r in a],
                                 [[Fraction(v) for v in r] for r in b])
        got = cauchy_binet_det([[mp.mpf(v) for v in r] for r in a],
                               [[mp.mpf(v) for v in r] for r in b])
        assert exact == -420 and got == pytest.approx(-420.0, rel=1e-12)

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
        from qmm.detkit import _square_det

        assert cauchy_binet_det(a, b) == _square_det(ab)


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

    def test_fraction_hilbert_is_exact(self):
        d = det_rows([[Fraction(1, k + l + 1) for l in range(5)] for k in range(5)])
        assert type(d) is Fraction and d == Fraction(1, 266716800000)

    def test_mpmath_hilbert_at_working_precision(self):
        import mpmath as mp

        with mp.workdps(50):
            d = det_rows([[mp.mpf(1) / (k + l + 1) for l in range(5)] for k in range(5)])
            assert abs(d * 266716800000 - 1) < mp.mpf(10) ** -45


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


class TestExpDetDegenerate:
    def test_all_zero_nodes_rank_one(self):
        # y identically zero: the kernel matrix is all ones, rank 1
        exact, fact, _ = exp_det_factorization((0.1, 0.2, 0.3), (0.0, 0.0, 0.0), 1.0)
        assert exact == pytest.approx(0.0, abs=1e-30)
        assert fact == pytest.approx(0.0, abs=1e-30)

    def test_one_coincident_pair_gives_zeros(self):
        # two equal columns: both sides vanish exactly
        assert exp_det_factorization((0.1, 0.2, 0.3), (0.4, 0.4, 0.7), 2.5)[:2] == (0.0, 0.0)


class TestComplexNodes:
    def test_inverse_vandermonde_complex(self):
        nodes = (0.5 + 0.2j, -1.0, 1.3 - 0.4j, 2.0j)
        v = np.array([[z**i for z in nodes] for i in range(4)])
        vt = inverse_vandermonde(nodes)
        assert np.abs(vt @ v - np.eye(4)).max() < 1e-9
