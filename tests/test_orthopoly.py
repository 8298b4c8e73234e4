import math
from fractions import Fraction

import mpmath as mp

import numpy as np
import pytest
from scipy.integrate import quad

from qmm.orthopoly import (
    MomentSeq,
    QuasiDefiniteError,
    gamma_quarter_det,
    ops_from_moments,
    polynomial_from_moments,
    quartic_moment,
    quartic_r_sequence,
    u_coefficients,
    u_coefficient_bound,
)

R_TABLE = {1: 0.3380, 2: 0.4017, 3: 0.5051, 4: 0.5781, 5: 0.6468, 10: 0.9132}

# u_coefficients(10), lower triangle by rows
U_PIN = [
    [1.0],
    [-0.33798912003364234, 1.0],
    [0.1707197350154949, -1.244773012141982, 1.0],
    [-0.11041595607977099, 1.4033698840292883, -2.469598544520938, 1.0],
    [0.08440451031252741, -1.6066927158336788, 4.581503133762374, -3.941884821478168, 1.0],
    [-0.07313400678977611, 1.912783918006747, -7.777228556361231, 10.593084831968493,
     -5.625376937679173, 1.0],
    [0.0700445400148689, -2.380581834727497, 12.838663456521077, -24.477724549224767,
     20.326894773481207, -7.4963829220033595, 1.0],
    [-0.07292261265248519, 3.097202332657123, -21.138307251222024, 52.65842905734255,
     -60.58330415059861, 34.671812757805355, -9.537760847491366, 1.0],
    [0.08154503812169799, -4.204867477404569, 35.13154336121334, -109.38162419966676,
     162.99394373413148, -128.38101775481448, 54.51672813209151, -11.736354337227807, 1.0],
    [-0.09707198817382488, 5.943350645777655, -59.299875827679635, 223.6586554546834,
     -413.4110639583878, 419.30898322219355, -243.92150264788813, 80.75053059787327,
     -14.081652102624044, 1.0],
    [0.12216032659102298, -8.725244654493554, 101.97933845724799, -455.23008602553364,
     1012.6370821149194, -1267.5064343374988, 945.5594368793803, -427.3403901846717,
     114.26210958507603, -16.565005191364016, 1.0],
]

# ops_from_moments on the float quartic moments, n = 6
QUARTIC_R_PIN = [0.3379891200336424, 0.4016796597635174, 0.5051042323448222,
                 0.5780581503317122, 0.6467673820472516, 0.7078631509051134]
QUARTIC_H_PIN = [1.8128049541109543, 0.6127083512325889, 0.24611248205737205,
                 0.12431245632006771, 0.0718598285635701, 0.04647659319442454,
                 0.03289906770194051]


def gaussian_moments(n, root_two_pi=math.sqrt(2 * math.pi), zero=0.0):
    # weight e^(-x^2/2): rho_2k = sqrt(2 pi) (2k-1)!!
    rho = []
    for k in range(2 * n + 1):
        if k % 2:
            rho.append(zero)
        else:
            rho.append(root_two_pi * math.prod(range(k - 1, 0, -2)))
    return MomentSeq(tuple(rho))


class TestMomentConstruction:
    def test_gaussian_recursion_data(self):
        table = ops_from_moments(gaussian_moments(6), 6)
        assert table.h[0] == pytest.approx(math.sqrt(2 * math.pi))
        for m in range(1, 7):
            assert table.alpha[m] == pytest.approx(0.0, abs=1e-12)
        for m in range(1, 6):
            assert table.r[m] == pytest.approx(float(m), rel=1e-10)

    def test_uniform_weight_norms(self):
        rho = MomentSeq(tuple(Fraction(1, k + 1) for k in range(9)))
        table = ops_from_moments(rho, 4)
        assert table.alpha[1] == pytest.approx(0.5)
        assert table.h[1] == pytest.approx(1.0 / 12.0)

    def test_degree_zero(self):
        table = ops_from_moments(MomentSeq((2.0,)), 0)
        assert table.h[0] == 2.0
        assert np.allclose(table.polynomial_coeffs(0), [1.0])

    def test_quasi_definite_error(self):
        # rho_0 = 0 kills h_0
        with pytest.raises(QuasiDefiniteError):
            ops_from_moments(MomentSeq((0, 1, 2)), 1)

    def test_hankel_determinants_positive_for_gaussian(self):
        mom = gaussian_moments(4)
        for k in range(4):
            assert mom.hankel_det(k) > 0

    def test_uniqueness_two_routes_quartic(self):
        # moment-determinant construction vs recursion, quartic weight
        rho = tuple(quartic_moment(k // 2) if k % 2 == 0 else 0.0 for k in range(13))
        mom = MomentSeq(rho)
        table = ops_from_moments(mom, 6)
        for n in range(1, 7):
            a = polynomial_from_moments(mom, n)
            b = table.polynomial_coeffs(n)
            assert np.allclose(a, b, atol=1e-9)

    def test_bordered_hankel_exact_on_rational_moments(self):
        # moments 1/(k+1) of [0, 1]: the monic shifted Legendre polynomials
        mom = MomentSeq(tuple(Fraction(1, k + 1) for k in range(7)))
        assert list(polynomial_from_moments(mom, 2)) == [Fraction(1, 6), -1, 1]
        assert list(polynomial_from_moments(mom, 3)) == [
            Fraction(-1, 20), Fraction(3, 5), Fraction(-3, 2), 1]
        assert all(type(c) is Fraction for c in polynomial_from_moments(mom, 3))

    def test_quartic_moment_table_pinned(self):
        rho = tuple(quartic_moment(k // 2) if k % 2 == 0 else 0.0 for k in range(13))
        table = ops_from_moments(MomentSeq(rho), 6)
        assert table.r[1:] == pytest.approx(QUARTIC_R_PIN, rel=1e-12)
        assert table.h == pytest.approx(QUARTIC_H_PIN, rel=1e-12)

    def test_float_gaussian_table_pinned(self):
        # R_m = m and h_m = sqrt(2 pi) m! for e^(-x^2/2)
        table = ops_from_moments(gaussian_moments(10), 10)
        assert table.r[1:] == pytest.approx(list(range(1, 11)), rel=1e-12)
        expect_h = [math.sqrt(2 * math.pi) * math.factorial(m) for m in range(11)]
        assert table.h == pytest.approx(expect_h, rel=1e-12)

    def test_rational_moments_exact_table(self):
        # moments 1/(k+1) of [0, 1]: shifted Legendre, every entry exact
        table = ops_from_moments(MomentSeq(tuple(Fraction(1, k + 1) for k in range(17))), 8)
        f = math.factorial
        assert table.alpha == (0.0,) + (0.5,) * 8
        assert table.r == (0.0,) + tuple(
            float(Fraction(m * m, 4 * (4 * m * m - 1))) for m in range(1, 9))
        assert table.h == tuple(
            float(Fraction(f(m) ** 4, f(2 * m) ** 2 * (2 * m + 1))) for m in range(9))

    def test_mpmath_moments_keep_working_precision(self):
        # 50-digit moments: the recursion runs in mpmath, not in float
        with mp.workdps(50):
            mom = gaussian_moments(20, mp.sqrt(2 * mp.pi), mp.mpf(0))
            table = ops_from_moments(mom, 20)
        assert table.r[1:] == pytest.approx(list(range(1, 21)), rel=1e-14)

    def test_even_weight_alphas_vanish(self):
        rho = tuple(quartic_moment(k // 2) if k % 2 == 0 else 0.0 for k in range(13))
        table = ops_from_moments(MomentSeq(rho), 6)
        assert np.allclose(table.alpha[1:], 0.0, atol=1e-12)


class TestQuarticRecursion:
    def test_table_values_four_decimals(self):
        table = quartic_r_sequence(10)
        for m, expect in R_TABLE.items():
            assert round(table.r[m], 4) == expect

    def test_seed_values(self):
        table = quartic_r_sequence(2)
        assert table.r[1] == pytest.approx(math.gamma(0.75) / math.gamma(0.25))
        assert table.h[0] == pytest.approx(math.gamma(0.25) / 2)

    def test_h_recursion_identity(self):
        table = quartic_r_sequence(12)
        for m in range(1, 13):
            assert table.h[m] == pytest.approx(table.r[m] * table.h[m - 1], rel=1e-12)

    def test_band_m3_to_64(self):
        table = quartic_r_sequence(64)
        for m in range(3, 65):
            lo = math.sqrt(m / 12)
            assert lo < table.r[m] < lo * math.exp(1 / (4 * m * m))

    def test_band_boundary_cases_logged_not_fatal(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="qmm.orthopoly"):
            table = quartic_r_sequence(4)
        # m=1 sits above the naive lower bound, m=2 just below it
        assert table.r[1] > math.sqrt(1 / 12)
        assert table.r[2] < math.sqrt(2 / 12)
        assert any("R_2" in rec.getMessage() for rec in caplog.records)

    def test_norms_against_direct_quadrature(self):
        table = quartic_r_sequence(6)
        for m in range(4):
            coeffs = table.polynomial_coeffs(m)
            poly = np.polynomial.Polynomial(coeffs)
            val = quad(lambda x: poly(x) ** 2 * math.exp(-(x**4)), -8, 8, limit=200)[0]
            assert val == pytest.approx(table.h[m], rel=1e-9)

    def test_orthogonality_by_quadrature(self):
        table = quartic_r_sequence(9)
        polys = [np.polynomial.Polynomial(table.polynomial_coeffs(m)) for m in range(9)]
        for j in range(9):
            for k in range(j, 9):
                val = quad(
                    lambda x: polys[j](x) * polys[k](x) * math.exp(-(x**4)),
                    -8,
                    8,
                    limit=200,
                )[0]
                expect = table.h[j] if j == k else 0.0
                assert abs(val - expect) < 1e-8 * max(1.0, table.h[j])

    def test_cap(self):
        with pytest.raises(ValueError):
            quartic_r_sequence(65)


class TestGammaQuarterDet:
    def test_n1(self):
        direct, via = gamma_quarter_det(1)
        assert direct == pytest.approx(math.gamma(0.25))
        assert via == pytest.approx(direct, rel=1e-12)

    def test_n2_identity(self):
        direct, via = gamma_quarter_det(2)
        expect = math.gamma(0.25) * math.gamma(1.25) - math.gamma(0.75) ** 2
        assert direct == pytest.approx(expect, rel=1e-10)
        assert via == pytest.approx(direct, rel=1e-10)

    def test_agreement_to_1e8(self):
        for n in range(1, 7):
            direct, via = gamma_quarter_det(n)
            assert abs(direct - via) / abs(direct) <= 1e-8


class TestUCoefficients:
    def test_spot_values(self):
        u = u_coefficients(10)
        assert abs(u[1, 0]) == pytest.approx(0.33798912, rel=1e-6)
        assert abs(u[4, 3]) == pytest.approx(3.94, rel=5e-3)
        assert u[5, 5] == 1.0

    def test_pinned_table(self):
        u = u_coefficients(10)
        for m, row in enumerate(U_PIN):
            assert u[m, : m + 1] == pytest.approx(row, rel=1e-13)
            assert not u[m, m + 1 :].any()

    def test_sign_pattern(self):
        u = u_coefficients(8)
        for m in range(9):
            for k in range(m + 1):
                if u[m, k] != 0.0:
                    assert math.copysign(1.0, u[m, k]) == (-1.0) ** (m + k)

    def test_bound(self):
        u = u_coefficients(10)
        for m in range(11):
            for k in range(m + 1):
                assert abs(u[m, k]) <= u_coefficient_bound(m, k) * (1 + 1e-12)

    def test_even_polynomials_match_u_rows(self):
        # P_{2m}(x) = sum_k U[m,k] x^(2k)
        table = quartic_r_sequence(8)
        u = u_coefficients(4)
        for m in range(4):
            full = table.polynomial_coeffs(2 * m)
            assert np.allclose(full[0::2], u[m, : m + 1], atol=1e-10)
            assert np.allclose(full[1::2], 0.0, atol=1e-12)


class TestEnvelopeBoundValues:
    @pytest.mark.parametrize(
        "m,k,printed",
        [(1, 0, 0.39), (2, 1, 2.04), (4, 3, 7.28), (10, 0, 0.14), (10, 9, 32.5)],
    )
    def test_bound_reference_values(self, m, k, printed):
        # printed at 2-3 significant figures
        got = u_coefficient_bound(m, k)
        assert got == pytest.approx(printed, rel=2e-2)
