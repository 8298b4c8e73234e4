import cmath
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from qmm.quadrature import (
    SeriesLossError,
    k_quadrature,
    k_series,
    laplace_peak,
    pearcey_direct,
    pearcey_region,
    pearcey_saddle,
    pearcey_saddles,
    quartic_gauss_direct,
    quartic_gauss_saddle,
    saddle_shift_root,
    stokes_value,
)

# a point on the Stokes line y^2 = x^3 (5 + sqrt 27) / 13.5 at x = -b = 1.7
STOKES_Y = math.sqrt(1.7**3 * (5 + math.sqrt(27)) / 13.5)

# printed direct column of the (a,b) = (-24, 14) table, |values|
PEXM_DIRECT = [1.01e-5, 9.75e-6, 8.83e-6, 7.45e-6, 5.80e-6, 4.10e-6, 2.54e-6, 1.30e-6, 4.58e-7]


class TestLaplace:
    def test_gaussian_peak(self):
        got = laplace_peak(lambda x: -x * x, (-1.0, 1.0), 50.0)
        oracle = quad(lambda x: math.exp(-50 * x * x), -1, 1)[0]
        assert abs(got - oracle) / oracle < 0.01

    def test_stirling_route(self):
        # n! = n^(n+1) e^-n int e^(n(ln(1+s)-s)) ds
        n = 40
        peak = laplace_peak(lambda s: math.log1p(s) - s, (-0.9, 3.0), n)
        ln_got = (n + 1) * math.log(n) - n + math.log(peak)
        # Laplace drops the 1/(12n) correction of Stirling's series
        assert ln_got == pytest.approx(math.lgamma(n + 1) - 1 / (12 * n), abs=1e-4)

    def test_flat_function_rejected(self):
        with pytest.raises(ValueError):
            laplace_peak(lambda x: 0.0 * x, (-1.0, 1.0), 10.0)

    def test_boundary_maximum_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            laplace_peak(lambda x: x, (-1.0, 1.0), 10.0)


class TestQuarticGaussSaddle:
    def test_gaussian_reduction(self):
        a, b = 1.3, 0.8
        got = quartic_gauss_saddle(a, b, 0.0, 0.0, variant=1)
        expect = cmath.sqrt(math.pi / b) * cmath.exp(-a * a / (4 * b))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_variant1_against_quadrature(self):
        got = quartic_gauss_saddle(1.0, 1.0, 0.1, 0.05, variant=1)
        oracle = quartic_gauss_direct(1.0, 1.0, 0.1, 0.05)
        assert abs(got - oracle) / abs(oracle) < 0.02

    def test_variant3_root_residual(self):
        a, b, c, d = 2.0, 1.0, 0.2, 0.1
        s = saddle_shift_root(a, b, c, d)
        residual = 1j * a + 2 * b * s + 3j * c * s**2 + 4 * d * s**3
        assert abs(residual) < 1e-10

    def test_variant2_and_3_track_quadrature(self):
        n = 64
        a, b, c, d = math.sqrt(n), 1.0, 0.4 / math.sqrt(n), 0.3 / n
        oracle3 = quartic_gauss_direct(a, b, c, d)
        got3 = quartic_gauss_saddle(a, b, c, d, variant=3)
        assert abs(got3 - oracle3) / abs(oracle3) < 0.05
        oracle2 = quartic_gauss_direct(a, b, c, 0.0)
        got2 = quartic_gauss_saddle(a, b, c, 0.0, variant=2)
        assert abs(got2 - oracle2) / abs(oracle2) < 0.05

    @pytest.mark.parametrize("a,b,c,expect", [
        # values of the closed-form quadratic root, recorded before variant 2
        # took its root from saddle_shift_root
        (0.3, 1.0, 0.05, 1.7105803265790542),
        (1.2, 0.8, 0.1, 1.1597159774469854),
        (0.5, 2.0, -0.2, 1.2316573357963922),
    ])
    def test_variant2_pinned(self, a, b, c, expect):
        got = quartic_gauss_saddle(a, b, c, 0.0, variant=2)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_variant1_error_scales_like_n_minus_three_halves(self):
        errs = []
        for n in (16, 64, 256):
            a, b, c, d = 1.0, 1.0, 0.4 / math.sqrt(n), 0.3 / n
            got = quartic_gauss_saddle(a, b, c, d, variant=1)
            oracle = quartic_gauss_direct(a, b, c, d)
            errs.append(abs(got - oracle) / abs(oracle))
        # err(N) <= K N^(-3/2) with K pinned at the smallest N (x4 slack)
        k_const = errs[0] * 16**1.5
        for err, n in zip(errs, (16, 64, 256)):
            assert err <= 4.0 * k_const * n**-1.5
        assert errs[0] > errs[1] > errs[2]

    def test_direct_rejects_value_below_its_error(self):
        # a = sqrt(256): quad returns 2.3e-16, 40-digit mpmath gives 2.2557e-25
        with pytest.raises(ArithmeticError, match="error estimate"):
            quartic_gauss_direct(16.0, 1.0, 0.025, 0.3 / 256)

    def test_divergent_parameters_rejected(self):
        with pytest.raises(ValueError):
            quartic_gauss_saddle(1.0, -1.0, 0.0, 0.1, variant=1)


class TestKSeries:
    def test_matches_quadrature(self):
        for n, mu in [(0, 1.0), (1, 1.0), (2, 4.0), (3, 0.3)]:
            assert k_series(n, mu) == pytest.approx(k_quadrature(n, mu), rel=1e-8)

    def test_small_mu_leading_term(self):
        n, mu = 1, 1e-6
        lead = 0.5 * math.gamma((2 * n + 1) / 4) * mu ** ((2 * n + 1) / 4)
        assert k_series(n, mu) == pytest.approx(lead, rel=1e-2)

    def test_zero_mu(self):
        assert k_series(2, 0.0) == 0.0

    def test_quadrature_rejects_value_below_its_error(self):
        # quad returns 5.6e-25 with abserr 1.1e-24; the series gives 1.31e-25
        with pytest.raises(ArithmeticError, match="error estimate"):
            k_quadrature(8, 1e-6)

    def test_large_mu_raises(self):
        with pytest.raises(SeriesLossError, match="quadrature branch"):
            k_series(0, 100.0)


class TestPearceyRegion:
    def test_discriminant_boundary(self):
        res = pearcey_region(2 * math.sqrt(2), 3.0)
        assert res.region == "caustic-boundary"

    def test_one_contour(self):
        assert pearcey_region(0.0, 1.0).region == "one-contour"

    def test_two_contour(self):
        assert pearcey_region(1.0, 0.0).region == "two-contour"

    def test_stokes_boundary(self):
        # oscillatory-form coordinates x = -b, y = a on the x > 0 side
        x = 1.7
        y = math.sqrt(x**3 * (5 + math.sqrt(27)) / 13.5)
        res = pearcey_region(y, -x)
        assert res.region == "stokes-boundary"
        assert stokes_value(x, y) == pytest.approx(0.0, abs=1e-9)


class TestPearceySaddles:
    def test_reference_point_roots(self):
        saddles = pearcey_saddles(-24.0, 14.0)
        found = sorted(s.imag for s in saddles)
        assert np.allclose(found, [-3.0, 1.0, 2.0], atol=1e-10)
        assert max(abs(s.real) for s in saddles) < 1e-10

    def test_residuals_below_1e10(self):
        for lam in (1j, 2j, -3j):
            res = 4 * lam**3 + 2 * 14.0 * lam + 1j * (-24.0)
            assert abs(res) < 1e-10

    @pytest.mark.parametrize("a,b,roots", [
        # recorded from the Cardano construction with Newton polish
        (-24.0, 14.0, [2j, -3j, 1j]),
        (0.0, -1.0, [0j, -0.7071067811865476, 0.7071067811865476]),
        (0.0, 0.0, [0j, 0j, 0j]),
        (1.0, 0.0, [0.6299605249474366j, -0.5455618179858607 - 0.3149802624737183j,
                    0.5455618179858607 - 0.3149802624737183j]),
    ])
    def test_roots_match_reference(self, a, b, roots):
        got = pearcey_saddles(a, b)
        for want in roots:
            assert min(abs(z - want) for z in got) < 1e-12
        for z in got:
            assert min(abs(z - want) for want in roots) < 1e-12

    @pytest.mark.parametrize("a,b", [
        (-24.0, 14.0),
        (0.0, 1.0),
        (1.0, 0.0),
        (0.0, 0.0),
        (0.0, -1.0),
        (2.828427124743362, 3.0),  # 8 b^3 = 27 a^2 to rounding
        (STOKES_Y, -1.7),
    ])
    def test_one_region_decision(self, a, b):
        # the saddle value and the region agree everywhere
        no_middle = pearcey_region(a, b).region != "one-contour"
        assert (pearcey_saddle(a, b) is None) == no_middle


class TestPearceyEval:
    @pytest.mark.parametrize("k", range(9))
    def test_direct_matches_printed_column(self, k):
        d = pearcey_direct(-24.0, 14.0, k)
        assert abs(d) == pytest.approx(PEXM_DIRECT[k], rel=5e-3)

    def test_direct_parity(self):
        for k in (0, 2, 4):
            assert pearcey_direct(-24.0, 14.0, k).imag == 0.0
        for k in (1, 3, 5):
            assert pearcey_direct(-24.0, 14.0, k).real == 0.0

    def test_conjugation_symmetry(self):
        a, b = 3.7, 1.2
        p_plus = pearcey_direct(a, b, 0)
        p_minus = pearcey_direct(-a, b, 0)
        assert p_minus == pytest.approx(p_plus.conjugate(), rel=1e-10)

    def test_exact_zero_kept(self):
        # odd k at a = 0: the sine weight vanishes, quad returns 0 with error 0
        assert pearcey_direct(0.0, 1.0, 1) == 0

    def test_pure_quartic_value(self):
        assert pearcey_direct(0.0, 0.0, 0).real == pytest.approx(
            math.gamma(0.25) / 2, rel=1e-10
        )

    def test_saddle_k0_value(self):
        s = pearcey_saddle(-24.0, 14.0, 0)
        assert abs(s) == pytest.approx(1.04e-5, rel=7e-3)

    def test_saddle_over_direct_near_one(self):
        # exact derivatives of the closed form: approximation tightens with k
        ratios = []
        for k in range(9):
            d = pearcey_direct(-24.0, 14.0, k)
            ratios.append(abs(pearcey_saddle(-24.0, 14.0, k)) / abs(d))
        assert ratios[0] == pytest.approx(1.0328, abs=2e-3)
        assert all(1.0 < r < 1.04 for r in ratios)

    def test_two_contour_flagged(self):
        assert pearcey_direct(1.0, 0.0, 0).real > 0
        assert pearcey_saddle(1.0, 0.0, 0) is None

    def test_saddle_none_outside_region(self):
        assert pearcey_saddle(1.0, 0.0, 0) is None

    def test_saddle_none_on_coalescence_band(self):
        assert pearcey_saddle(2.828427124743362, 3.0, 0) is None

    @pytest.mark.parametrize("func", [pearcey_direct, pearcey_saddle])
    def test_negative_k_rejected(self, func):
        with pytest.raises(ValueError, match="k must be >= 0"):
            func(1.0, -1.0, -1)

    @pytest.mark.parametrize("func", [pearcey_direct, pearcey_saddle])
    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_rejected(self, func, a, b):
        with pytest.raises(ValueError, match="a and b must be finite"):
            func(a, b, 0)


class TestDegenerateCases:
    def test_triple_saddle_at_origin(self):
        assert all(s == 0j for s in pearcey_saddles(0.0, 0.0))

    def test_real_saddles_for_negative_b(self):
        reals = sorted(s.real for s in pearcey_saddles(0.0, -1.0))
        assert reals == pytest.approx([-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)])

    def test_direct_sign_pattern(self):
        # (a,b) = (-24,14): signs alternate (+, +i, -, -i, +, +i, -, -i, +)
        for k in range(9):
            val = pearcey_direct(-24.0, 14.0, k)
            comp = val.real if k % 2 == 0 else val.imag
            expect = (-1.0) ** (k // 2) if k % 2 == 0 else (-1.0) ** ((k - 1) // 2)
            assert math.copysign(1.0, comp) == expect

    def test_coalescence_boundary_flagged(self):
        # pure quartic point: saddles coalesce, only the direct value exists
        assert pearcey_saddle(0.0, 0.0, 0) is None
        assert pearcey_direct(0.0, 0.0, 0).real == pytest.approx(math.gamma(0.25) / 2, rel=1e-10)


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the functions that call it, not by `import qmm`
    import qmm

    src = str(Path(qmm.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import qmm; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_partition_oracle_leaves_scipy_unloaded():
    # the N = 2 quadrature oracle runs on numpy's Gauss-Hermite nodes
    import qmm

    src = str(Path(qmm.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import qmm; "
            "from qmm.partition import KineticSpectrum, z_quad_n2; "
            "z_quad_n2(KineticSpectrum(2, (1.0, 1.1), 0.1)); print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
