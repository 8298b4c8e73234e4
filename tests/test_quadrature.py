import cmath
import math
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from qmm.quadrature import (
    SeriesLossError,
    _middle_saddle_value,
    k_quadrature,
    k_series,
    laplace_peak,
    pearcey_direct,
    pearcey_region,
    pearcey_saddle,
    pearcey_saddles,
    quartic_gauss_saddle,
    quartic_phase,
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
        oracle = quartic_phase(0, 1.0, 1.0, 0.1, 0.05)
        assert abs(got - oracle) / abs(oracle) < 0.02

    def test_variant3_root_residual(self):
        a, b, c, d = 2.0, 1.0, 0.2, 0.1
        s = saddle_shift_root(a, b, c, d)
        residual = 1j * a + 2 * b * s + 3j * c * s**2 + 4 * d * s**3
        assert abs(residual) < 1e-10

    def test_variant2_and_3_track_quadrature(self):
        n = 64
        a, b, c, d = math.sqrt(n), 1.0, 0.4 / math.sqrt(n), 0.3 / n
        oracle3 = quartic_phase(0, a, b, c, d)
        got3 = quartic_gauss_saddle(a, b, c, d, variant=3)
        assert abs(got3 - oracle3) / abs(oracle3) < 0.05
        oracle2 = quartic_phase(0, a, b, c, 0.0)
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
            oracle = quartic_phase(0, a, b, c, d)
            errs.append(abs(got - oracle) / abs(oracle))
        # err(N) <= K N^(-3/2) with K pinned at the smallest N (x4 slack)
        k_const = errs[0] * 16**1.5
        for err, n in zip(errs, (16, 64, 256)):
            assert err <= 4.0 * k_const * n**-1.5
        assert errs[0] > errs[1] > errs[2]

    def test_direct_value_at_a_16(self):
        # a = sqrt(256), where quad had no digit (2.8e-17 with abserr 1.3e-8);
        # mpmath.quad of the integrand over [-40, 40] in 160 pieces gives
        # 2.2557167811504842013e-25 on the real line at 80 digits and on the
        # line Im x = 8 through the saddle at 50 digits
        got = quartic_phase(0, 16.0, 1.0, 0.025, 0.3 / 256)
        assert got.real == pytest.approx(2.2557167811504842e-25, rel=1e-13, abs=0.0)
        assert got.imag == 0.0

    def test_direct_raises_where_rounding_hides_the_value(self):
        # with d = 0 and c < 0 no saddle line keeps the integrand decaying, so
        # the rule sums on the real line, where |g| is 1 and the value is
        # 8.0033425236665e-15 (60-digit mpmath); the phase a x + c x^3 reaches
        # 2e3 there, so each sample carries about 4e-13 of rounding.  Without
        # that floor the step-halving gap stayed below the value, and the
        # oracle returned 8.0192e-15
        with pytest.raises(ArithmeticError, match="error estimate"):
            quartic_phase(0, 12.0, 1.0, -0.1, 0.0)

    def test_divergent_parameters_rejected(self):
        with pytest.raises(ValueError):
            quartic_gauss_saddle(1.0, -1.0, 0.0, 0.1, variant=1)


class TestKSeries:
    def test_matches_quadrature(self):
        # at mu = 1e-12 the peak near lam = 0 is about sqrt(mu) wide
        for n, mu in [(0, 1.0), (1, 1.0), (2, 4.0), (3, 0.3), (0, 1e-12)]:
            assert k_series(n, mu) == pytest.approx(k_quadrature(n, mu), rel=1e-8)

    def test_small_mu_leading_term(self):
        n, mu = 1, 1e-6
        lead = 0.5 * math.gamma((2 * n + 1) / 4) * mu ** ((2 * n + 1) / 4)
        assert k_series(n, mu) == pytest.approx(lead, rel=1e-2, abs=0)

    def test_zero_mu(self):
        assert k_series(2, 0.0) == 0.0
        assert k_quadrature(2, 0.0) == 0.0

    @pytest.mark.parametrize("func", [k_series, k_quadrature])
    @pytest.mark.parametrize("n,mu,message", [(-1, 1.0, "n must be >= 0"),
                                              (0, -1.0, "mu must be >= 0")])
    def test_domain_shared_with_series(self, func, n, mu, message):
        with pytest.raises(ValueError, match=message):
            func(n, mu)

    def test_quadrature_value_at_small_mu(self):
        # quad had no digit here (1.3e-25 with abserr 1.8e-25); 50-digit
        # mpmath.quad of lam^7.5 exp(-lam - 1e6 lam^2) over [0, 1e-3, 1e-2, 1, inf]
        # gives 1.3073672549580300452e-25
        assert k_quadrature(8, 1e-6) == pytest.approx(1.3073672549580300e-25, rel=1e-13, abs=0.0)

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

    @pytest.mark.parametrize("a,b,region", [
        # 8 b^3 or 27 a^2 overflows a float at each of these points
        (0.0, 1e200, "one-contour"),
        (1e300, 1e150, "two-contour"),
        (2.0 * math.sqrt(2.0) * 1e150, 3e100, "caustic-boundary"),  # 8 b^3 = 27 a^2
        (-1e300, -1e200, "two-contour"),
        (STOKES_Y * 1e150, -1.7e100, "stokes-boundary"),
    ])
    def test_beyond_float_range(self, a, b, region):
        assert pearcey_region(a, b).region == region

    def test_tiny_parameters_are_the_caustic(self):
        # below 1e-9 the terms are inside the absolute band, as before scaling
        assert pearcey_region(1e-200, 1e-120).region == "caustic-boundary"


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
        assert abs(d) == pytest.approx(PEXM_DIRECT[k], rel=5e-3, abs=0)

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
        # odd k at a = 0: the folded integrand 2 Im g vanishes at every node
        assert pearcey_direct(0.0, 1.0, 1) == 0

    @pytest.mark.parametrize("a,b,k,expect", [
        # quad's absolute tolerance made every value below about 1e-8 raise.
        # 50-digit mpmath.quad: 2 int_0^inf lam^2 exp(-(lam^4 + 1e6 lam^2)) over
        # [0, 1e-3, 1e-2, 1, inf], and the real-line integral over [-40, 40] in
        # 160 pieces at 80 digits
        (0.0, 1e6, 2, 8.8622692544943466e-10),
        (-22.5, 5.0, 0, 4.6791687679145711e-09),
    ])
    def test_direct_values_below_1e_8(self, a, b, k, expect):
        got = pearcey_direct(a, b, k)
        assert got.real == pytest.approx(expect, rel=1e-13, abs=0.0)
        assert got.imag == 0.0

    @pytest.mark.parametrize("a", [1e3, 1e4, 3e4])
    def test_underflow_with_saddles_past_the_envelope(self, a):
        # at b = 1 the saddles sit near Re x = 0.87 (a/4)^(1/3), about as far
        # out as L + |Im x|: a shifted line that stops there fails its tail
        # test, and the real line then cancels to an error estimate above the
        # value
        with pytest.raises(ArithmeticError, match="underflows"):
            pearcey_direct(a, 1.0, 0)

    @pytest.mark.parametrize("b", [1e4, 1e8, 1e30, 1e200])
    def test_narrow_gaussian_limit(self, b):
        # the envelope is about b^-1/2 wide: the range shrinks with it
        expect = math.sqrt(math.pi / b) * (1.0 - 3.0 / (4.0 * b * b))
        assert pearcey_direct(0.0, b, 0).real == pytest.approx(expect, rel=1e-6, abs=0.0)

    def test_pure_quartic_value(self):
        assert pearcey_direct(0.0, 0.0, 0).real == pytest.approx(
            math.gamma(0.25) / 2, rel=1e-10
        )

    def test_saddle_k0_value(self):
        s = pearcey_saddle(-24.0, 14.0, 0)
        assert abs(s) == pytest.approx(1.04e-5, rel=7e-3, abs=0)

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

    @pytest.mark.parametrize("a,b,k", [(0.0, 1e40, 0), (0.0, 1e20, 4), (1e10, 1e20, 8),
                                       (3.0, 1e200, 2)])
    def test_saddle_at_large_b(self, a, b, k):
        # a fixed 40 digits gave 1.80e-20 for 1.77e-20 at (0, 1e40, 0) and was
        # 1e8 times off at (0, 1e20, 8); the reference is the same closed form
        # at 400 digits with mpmath's default derivative step
        with mp.workdps(400):
            ref = mp.diff(lambda t: _middle_saddle_value(t, mp.mpf(b)), mp.mpf(a), k)
        assert pearcey_saddle(a, b, k) == pytest.approx((1j) ** k * complex(ref), rel=1e-13,
                                                         abs=0.0)

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
    # `import qmm` loads every library module and pulls in no scipy module
    import qmm

    src = str(Path(qmm.__file__).resolve().parents[1])
    library = ["asymcount", "counting", "detkit", "numkit", "orthopoly", "partition", "polytope",
               "quadrature"]
    code = (f"import sys; sys.path.insert(0, {src!r}); import qmm; print('scipy' in sys.modules); "
            f"print(all('qmm.' + name in sys.modules for name in {library!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_partition_oracle_leaves_scipy_unloaded():
    # the N = 2 quadrature oracle runs on the package's own trapezoid rule
    import qmm

    src = str(Path(qmm.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import qmm; "
            "from qmm.partition import KineticSpectrum, z_quad_n2; "
            "z_quad_n2(KineticSpectrum(2, (1.0, 1.1), 0.1)); print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_verify_runs_without_scipy():
    # scipy is a test dependency only: with it unimportable `qmm verify` gives
    # its usual verdicts, every clause PASS but the three documented FAILs
    import qmm

    src = str(Path(qmm.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['scipy'] = None; "
            f"sys.path.insert(0, {src!r}); from qmm.cli import main; sys.exit(main(['verify']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    assert out.stderr == ""
    verdicts = re.findall(r"^\[\s*(\d+)\] .+?\s+(PASS|FAIL \(documented\)|FAIL)\s+reference: ",
                          out.stdout, re.MULTILINE)
    failing = [(int(crit), status) for crit, status in verdicts if status != "PASS"]
    assert failing == [(7, "FAIL (documented)"), (9, "FAIL (documented)"),
                       (10, "FAIL (documented)")]
    assert {int(crit) for crit, _ in verdicts} == set(range(1, 14))
