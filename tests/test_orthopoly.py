import math
from fractions import Fraction

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


def gaussian_moments(n):
    # weight e^(-x^2/2): rho_2k = sqrt(2 pi) (2k-1)!!
    rho = []
    for k in range(2 * n + 1):
        if k % 2:
            rho.append(0.0)
        else:
            rho.append(math.sqrt(2 * math.pi) * math.prod(range(k - 1, 0, -2)))
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
