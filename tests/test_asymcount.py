import math
import random

import pytest

from qmm.asymcount import (
    asymptotic_count,
    coverage_fraction,
    lambda_star,
    lower_bound,
)
from qmm.counting import RowSumSpec, count_row_sums

# rows of the N=7, entry-sum-56 reference table: (t, count, ratio)
T1_UNFLAGGED = [
    ((8, 8, 8, 8, 8, 8, 8), 0.928),
    ((7, 8, 8, 8, 8, 8, 9), 0.935),
    ((7, 7, 8, 8, 8, 9, 9), 0.941),
    ((5, 8, 8, 8, 9, 9, 9), 0.964),
]
T1_FLAGGED = [
    ((5, 7, 7, 7, 7, 9, 14), 1.143),
    ((4, 6, 7, 7, 8, 10, 14), 1.128),
]


class TestLambdaStar:
    def test_uniform_n7(self):
        assert lambda_star(RowSumSpec(7, (8,) * 7)) == pytest.approx(4.0 / 3.0)

    def test_n5_sum32(self):
        assert lambda_star(RowSumSpec(5, (6, 6, 6, 7, 7))) == pytest.approx(1.6)

    def test_single_entry(self):
        assert lambda_star(RowSumSpec(2, (3, 3))) == pytest.approx(3.0)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            lambda_star(RowSumSpec(3, (0, 0, 0)))


class TestAsymptoticCount:
    def test_ratio_n7_uniform(self):
        spec = RowSumSpec(7, (8,) * 7)
        ratio = asymptotic_count(spec).value.log_abs - math.log(count_row_sums(spec))
        assert math.exp(ratio) == pytest.approx(0.928, abs=0.01)

    def test_ratio_n6_uniform(self):
        spec = RowSumSpec(6, (6,) * 6)
        ratio = asymptotic_count(spec).value.log_abs - math.log(count_row_sums(spec))
        assert math.exp(ratio) == pytest.approx(0.906, abs=0.01)

    def test_uniform_moments_vanish(self):
        # every deviation moment is zero at uniform rows, so moving one unit
        # between two rows can only lower the estimate
        uniform = asymptotic_count(RowSumSpec(6, (6,) * 6)).value.log_abs
        moved = asymptotic_count(RowSumSpec(6, (5, 7, 6, 6, 6, 6))).value.log_abs
        assert moved < uniform

    def test_permutation_invariance(self):
        rng = random.Random(0)
        t = [5, 6, 6, 7, 8]
        base = asymptotic_count(RowSumSpec(5, tuple(t))).value.log_abs
        for _ in range(5):
            rng.shuffle(t)
            assert asymptotic_count(RowSumSpec(5, tuple(t))).value.log_abs == pytest.approx(base)

    def test_lambda_override(self):
        spec = RowSumSpec(5, (6, 6, 6, 7, 7))
        a = asymptotic_count(spec, lam=1.55)
        b = asymptotic_count(spec, lam=1.6)
        assert a.value.log_abs != b.value.log_abs

    def test_domain_error(self):
        with pytest.raises(ValueError):
            asymptotic_count(RowSumSpec(3, (1, 1, 2)), lam=-1.0)

    @pytest.mark.parametrize("lam,omega,message", [
        (math.nan, 0.1, "lambda must be positive and finite"),
        (math.inf, 0.1, "lambda must be positive and finite"),
        (None, math.nan, "omega must be finite"),
        (None, math.inf, "omega must be finite"),
    ])
    def test_non_finite_input_rejected(self, lam, omega, message):
        with pytest.raises(ValueError, match=message):
            asymptotic_count(RowSumSpec(5, (6, 6, 6, 7, 7)), lam=lam, omega=omega)

    def test_validity_flags_match_table(self):
        for t, ratio in T1_UNFLAGGED:
            res = asymptotic_count(RowSumSpec(7, t))
            assert not res.flagged
            exact = count_row_sums(RowSumSpec(7, t))
            got = math.exp(res.value.log_abs - math.log(exact))
            assert got == pytest.approx(ratio, abs=0.01)
            assert abs(got - 1.0) <= 0.10
        for t, ratio in T1_FLAGGED:
            res = asymptotic_count(RowSumSpec(7, t))
            assert res.flagged
            exact = count_row_sums(RowSumSpec(7, t))
            got = math.exp(res.value.log_abs - math.log(exact))
            assert got == pytest.approx(ratio, abs=0.01)
            assert abs(got - 1.0) > 0.10

    def test_uniform_ratio_monotone_in_n(self):
        ratios = []
        for n, t in [(6, 6), (7, 8), (8, 9)]:
            spec = RowSumSpec(n, (t,) * n)
            exact = count_row_sums(spec)
            ratios.append(math.exp(asymptotic_count(spec).value.log_abs - math.log(exact)))
        assert 0.90 <= ratios[0] < ratios[1] < ratios[2] <= 1.00


class TestLowerBound:
    def test_symmetric_reduction(self):
        spec = RowSumSpec(4, (3, 3, 3, 3))
        lam = 1.5
        got = lower_bound(spec, (lam,) * 4, alpha=0.25).log_abs
        n, x = 4, 12
        expect = (
            -(n / 2) * math.log(2 * math.pi * lam * (lam + 1) * n)
            + (x / 2) * math.log1p(1 / lam)
            + (n * (n - 1) // 2) * math.log1p(lam)
            + (14 * lam**2 + 14 * lam - 1) / (12 * lam * (lam + 1))
            - n ** (1 - 0.5)
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_strictly_below_asymptotic(self):
        spec = RowSumSpec(7, (8,) * 7)
        lam = lambda_star(spec)
        e_alpha = lower_bound(spec, (lam,) * 7, alpha=0.2)
        assert e_alpha.log_abs < asymptotic_count(spec).value.log_abs

    def test_alpha_limit_factor(self):
        spec = RowSumSpec(5, (4, 4, 4, 4, 4))
        lam = lambda_star(spec)
        near = lower_bound(spec, (lam,) * 5, alpha=0.4999999)
        mid = lower_bound(spec, (lam,) * 5, alpha=0.25)
        # exponent N^(1-2 alpha) -> 1 as alpha -> 1/2
        assert near.log_abs - mid.log_abs == pytest.approx(
            -1.0 + 5 ** (1 - 0.5), abs=1e-4
        )

    def test_alpha_domain(self):
        spec = RowSumSpec(4, (2, 2, 2, 2))
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                lower_bound(spec, (1.0,) * 4, alpha=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, bad):
        with pytest.raises(ValueError, match="lambda_j must be positive and finite"):
            lower_bound(RowSumSpec(4, (2, 2, 2, 2)), (1.0, bad, 1.0, 1.0), alpha=0.25)


class TestCoverage:
    def test_limit_one(self):
        assert coverage_fraction(1e9) == pytest.approx(1.0)

    def test_lambda_one(self):
        assert coverage_fraction(1.0) == pytest.approx(math.exp(-0.125))

    def test_lambda_half(self):
        assert coverage_fraction(0.5) == pytest.approx(math.exp(-1.0 / 3.0))

    def test_monotone(self):
        vals = [coverage_fraction(l) for l in (0.25, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_lambda_domain(self, bad):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            coverage_fraction(bad)


def test_lower_bound_mixed_radii_hand_value():
    # n=2, t=(2,4), lambda=(1,3), alpha=0.3, assembled independently
    spec = RowSumSpec(2, (2, 4))
    got = lower_bound(spec, (1.0, 3.0), alpha=0.3).log_abs
    lam = 2.0
    pair = math.sqrt(2.0 * 4.0) / (math.sqrt(8.0) - math.sqrt(3.0))
    expect = (
        -1.0 * math.log(2 * math.pi * lam * (lam + 1) * 2)
        + 1.0 * math.log(2.0)
        + 2.0 * math.log(4.0 / 3.0)
        + math.log(pair)
        + 83.0 / 72.0
        - 2 ** 0.4
    )
    assert got == pytest.approx(expect, rel=1e-12)
