import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmm import numkit
from qmm.polytope import (
    DiagonalSpec,
    _exact_volume_n4_rowsum,
    applicability_margin,
    asymptotic_volume,
    asymptotic_volume_rowsum,
    exact_volume,
    exact_volume_n4,
    mc_volume,
    mc_volume_peel,
    sampled_volume,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestExactN3:
    def test_symmetric_interior(self):
        assert exact_volume(DiagonalSpec(3, (0.5, 0.5, 0.5))) == 1.0

    def test_infeasible(self):
        assert exact_volume(DiagonalSpec(3, (0.0, 0.9, 0.9))) == 0.0

    def test_feasible_asymmetric(self):
        assert exact_volume(DiagonalSpec(3, (0.2, 0.4, 0.6))) == 1.0


class TestExactN4:
    def test_degenerate_identity_corner(self):
        # all-ones diagonal pins the identity matrix: a point has zero
        # 2-dimensional volume; the boundary branch evaluates to exactly that
        assert exact_volume_n4(DiagonalSpec(4, (1.0, 1.0, 1.0, 1.0))) == 0.0

    def test_symmetric_point(self):
        # all s_1j = 0: boundary branch u_1^2/2
        assert exact_volume_n4(DiagonalSpec(4, (0.5,) * 4)) == pytest.approx(0.125)

    def test_known_value(self):
        assert exact_volume_n4(DiagonalSpec(4, (0.8, 0.6, 0.4, 0.3))) == pytest.approx(0.02)

    @settings(max_examples=60)
    @given(st.tuples(unit, unit, unit, unit))
    def test_permutation_invariance(self, h):
        base = exact_volume_n4(DiagonalSpec(4, h))
        for perm in permutations(h):
            assert exact_volume_n4(DiagonalSpec(4, perm)) == pytest.approx(base, abs=1e-12)

    def test_continuity_across_branch_boundary(self):
        # sweep h_2 so that s_12 crosses zero; adjacent branches must agree
        def vol(h2):
            return exact_volume_n4(DiagonalSpec(4, (0.3, h2, 0.6, 0.7)))

        # s_12 = 0 at u_1+u_2 = u_3+u_4: 0.7+u_2 = 0.4+0.3 -> u_2 = 0; instead
        # scan a window and check small increments produce small changes
        vals = [vol(x) for x in np.linspace(0.1, 0.9, 801)]
        diffs = np.abs(np.diff(vals))
        assert diffs.max() < 5e-3

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(unit, unit, unit, unit))
    def test_nonnegative(self, h):
        assert exact_volume_n4(DiagonalSpec(4, h)) >= 0.0

    def test_rowsum_kernel_takes_one_row_per_component(self):
        # 200 random diagonals, the three named points above and an empty
        # polytope, as the columns of a (4, m) block
        h = np.random.default_rng(5).uniform(0.0, 1.0, (200, 4))
        h = np.vstack([h, [(1.0,) * 4, (0.5,) * 4, (0.8, 0.6, 0.4, 0.3), (0.0, 0.9, 0.9, 0.9)]])
        specs = [DiagonalSpec(4, tuple(row)) for row in h]
        got = _exact_volume_n4_rowsum(np.array([spec.u for spec in specs]).T)
        assert got.shape == (len(specs),)
        assert list(got) == [exact_volume_n4(spec) for spec in specs]


class TestMonteCarlo:
    def test_matches_exact_n4(self):
        spec = DiagonalSpec(4, (0.8, 0.6, 0.4, 0.3))
        est, se = mc_volume(spec, 200_000, seed=7)
        assert abs(est - 0.02) <= 3 * se

    def test_symmetric_n4(self):
        spec = DiagonalSpec(4, (0.5,) * 4)
        est, se = mc_volume(spec, 200_000, seed=11)
        assert abs(est - 0.125) <= 3 * se

    def test_infeasible_diagonal(self):
        est, se = mc_volume(DiagonalSpec(4, (1.0, 1.0, 1.0, 0.5)), 10_000, seed=3)
        assert est == 0.0 and se == 0.0
        # a unit entry empties the sampling box: every weight is 0
        assert mc_volume(DiagonalSpec(4, (0.5, 1.0, 0.5, 0.5)), 10_000, seed=3) == (0.0, 0.0)

    def test_deterministic_per_seed(self):
        spec = DiagonalSpec(4, (0.6, 0.5, 0.55, 0.45))
        a = mc_volume(spec, 50_000, seed=9)
        b = mc_volume(spec, 50_000, seed=9)
        assert a == b

    def test_n5_against_asymptotic(self):
        spec = DiagonalSpec(5, (0.5,) * 5)
        est, _ = mc_volume(spec, 300_000, seed=2)
        asym = asymptotic_volume(spec).value
        assert abs(asym / est - 1.0) < 0.35

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_volume(DiagonalSpec(4, (0.5,) * 4), 10, seed=0)


def _reference_hits(h, samples, seed):
    """Hit count of mc_volume's draws, the dependent entries solved per sample.

    Free entries u_kl (2 <= k < l, l != 3) as mc_volume draws them; each u_1k
    (k >= 4) from row k, then u_12, u_13 and u_23 from rows 1, 2 and 3.
    """
    n = len(h)
    u = [1.0 - x for x in h]
    free = [(k, l) for k in range(2, n + 1) for l in range(k + 1, n + 1) if l != 3]
    box = np.array([min(u[k - 1], u[l - 1]) for k, l in free])
    hits = 0
    for row in (np.random.default_rng(seed).random((samples, len(free))) * box).tolist():
        e = dict(zip(free, row))
        e.update({(l, k): x for (k, l), x in zip(free, row)})
        u1 = [u[k - 1] - sum(e[k, l] for l in range(2, n + 1) if l != k) for k in range(4, n + 1)]
        r1 = u[0] - sum(u1)  # u_12 + u_13
        r2 = u[1] - sum(e[2, l] for l in range(4, n + 1))  # u_12 + u_23
        r3 = u[2] - sum(e[3, l] for l in range(4, n + 1))  # u_13 + u_23
        dependent = u1 + [(r1 + r2 - r3) / 2.0, (r1 - r2 + r3) / 2.0, (r2 + r3 - r1) / 2.0]
        hits += min(dependent) >= 0.0
    return hits, float(np.prod(box))


@pytest.mark.parametrize("h", [(0.6, 0.5, 0.55, 0.45), (0.6, 0.3, 0.3, 0.6), (0.3, 0.5, 0.5, 0.6),
                               (0.3, 0.5, 0.5, 0.6, 0.7), (0.09, 0.0, 0.29, 0.89, 0.24, 0.75)],
                         ids=["n4", "n4-u14-binds", "n4-u23-binds", "n5", "n6"])
def test_hit_and_miss_counts_the_solved_entries(h):
    # one batch of draws; at N=6 the 9 free columns pass numpy's 8-wide
    # pairwise summation threshold.  At N=4, u_14 >= 0 and u_23 >= 0 both
    # bound u_24 + u_34 from above, one test against the smaller bound:
    # u_4 when u_1 + u_4 < u_2 + u_3, else s/2 - u_1
    samples, seed = 20_000, 12
    hits, box_vol = _reference_hits(h, samples, seed)
    est, _ = mc_volume(DiagonalSpec(len(h), h), samples, seed)
    assert hits > 10
    assert round(est / box_vol * samples) == hits


class TestPeelOracle:
    def test_agrees_with_hit_and_miss_n5(self):
        spec = DiagonalSpec(5, (0.55, 0.5, 0.5, 0.45, 0.5))
        p, pse = mc_volume_peel(spec, 120_000, seed=4)
        h, hse = mc_volume(spec, 600_000, seed=4)
        assert abs(p - h) <= 3.5 * math.hypot(pse, hse)

    def test_deterministic(self):
        spec = DiagonalSpec(6, (0.5,) * 6)
        assert mc_volume_peel(spec, 20_000, seed=5) == mc_volume_peel(spec, 20_000, seed=5)

    @pytest.mark.parametrize("h", [(1.0, 0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 1.0, 0.5, 0.5),
                                   (0.5, 0.5, 0.5, 0.5, 1.0), (1.0,) * 5],
                             ids=["first", "middle", "last", "all"])
    def test_unit_diagonal_entry_gives_zero(self, h):
        # a unit entry pins its row: measure zero in full dimension
        assert mc_volume_peel(DiagonalSpec(5, h), 10_000, seed=3) == (0.0, 0.0)

    def test_n9_reasonable(self):
        spec = DiagonalSpec(9, (0.5,) * 9)
        est, se = mc_volume_peel(spec, 30_000, seed=6)
        assert est > 0
        assert abs(asymptotic_volume(spec).value / est - 1.0) < 0.25


class TestMethodRule:
    def test_exact_volume_only_at_n3_and_n4(self):
        spec4 = DiagonalSpec(4, (0.8, 0.6, 0.4, 0.3))
        assert exact_volume(spec4) == exact_volume_n4(spec4)
        assert exact_volume(DiagonalSpec(5, (0.5,) * 5)) is None

    def test_sampler_by_n(self):
        assert sampled_volume(DiagonalSpec(3, (0.5,) * 3), 10_000, 1) is None
        spec4 = DiagonalSpec(4, (0.8, 0.6, 0.4, 0.3))
        assert sampled_volume(spec4, 10_000, 1) == mc_volume(spec4, 10_000, 1)
        for n in (5, 7):
            spec = DiagonalSpec(n, (0.5,) * n)
            assert sampled_volume(spec, 10_000, 1) == mc_volume_peel(spec, 10_000, 1)


class TestAsymptoticVolume:
    def test_scaling_law(self):
        u = (0.52, 0.48, 0.5, 0.51, 0.49, 0.5)
        n = len(u)
        for m in (0.5, 2.0, 3.7):
            lhs = asymptotic_volume_rowsum(u).log_abs
            rhs = asymptotic_volume_rowsum(tuple(m * x for x in u)).log_abs - (
                n * (n - 3) / 2
            ) * math.log(m)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_symmetric_correction_free(self):
        # equal diagonal: all centered moments vanish, prefactor only
        n = 8
        spec = DiagonalSpec(n, (0.5,) * n)
        chi = spec.chi
        expect = (
            0.5 * math.log(2) + 7 / 6
            + (n * (n - 1) // 2) * math.log(math.e * (n - chi) / (n * (n - 1)))
            + (n / 2) * math.log(n * (n - 1) ** 2 / (2 * math.pi * (n - chi) ** 2))
        )
        assert asymptotic_volume(spec).log_abs == pytest.approx(expect, rel=1e-12, abs=0)

    def test_degenerate_corner_is_none(self):
        assert asymptotic_volume(DiagonalSpec(5, (1.0,) * 5)) is None

    def test_applicability_margin(self):
        near = applicability_margin(DiagonalSpec(9, (0.5,) * 8 + (0.52,)))
        far = applicability_margin(DiagonalSpec(9, (0.1,) * 8 + (0.9,)))
        assert near < 0.1 < far


class TestRiemannStability:
    def test_grid_sum_stable_under_refinement(self):
        # integral of the N=4 volume over the diagonal cube, two refinements
        def grid_avg(m):
            pts = [(i + 0.5) / m for i in range(m)]
            total = 0.0
            for h1 in pts:
                for h2 in pts:
                    for h3 in pts:
                        for h4 in pts:
                            total += exact_volume_n4(DiagonalSpec(4, (h1, h2, h3, h4)))
            return total / m**4

        a, b = grid_avg(8), grid_avg(12)
        assert abs(a - b) < 0.005


class TestBranchBoundaryExact:
    def test_branches_agree_exactly_on_s12_boundary(self):
        # pick u with s_12 = 0: u = (0.5, 0.3, 0.4, 0.4) -> sum 1.6,
        # s_12 = 0.8 - 0.8 = 0; approaching from both sides must agree
        h = tuple(1.0 - x for x in (0.5, 0.3, 0.4, 0.4))
        at = exact_volume_n4(DiagonalSpec(4, h))
        for eps in (1e-7, 1e-9):
            below = exact_volume_n4(DiagonalSpec(4, (h[0] + eps,) + h[1:]))
            above = exact_volume_n4(DiagonalSpec(4, (h[0] - eps,) + h[1:]))
            assert below == pytest.approx(at, abs=1e-6)
            assert above == pytest.approx(at, abs=1e-6)


# sampler, diagonal, samples, seed -> (mean, stderr); more than one batch of
# 65,536 samples each, so the pins cover the chunked accumulation
VOLUME_MC_PINS = {
    ("mc_volume", (0.6, 0.5, 0.55, 0.45), 100_000, 41):
        (0.08052975, 0.00034108874380339054),
    ("mc_volume", (0.55, 0.5, 0.5, 0.45, 0.5), 100_000, 51):
        (0.000558125, 1.3088125432763472e-05),
    ("mc_volume_peel", (0.55, 0.5, 0.5, 0.45, 0.5), 70_000, 52):
        (0.0005796354136345633, 1.0523487825564742e-06),
    ("mc_volume_peel", (0.52, 0.47, 0.5, 0.53, 0.49, 0.51, 0.48, 0.5, 0.46), 70_000, 92):
        (9.834277566790948e-25, 8.70244298454188e-27),
}


@pytest.mark.parametrize("key", sorted(VOLUME_MC_PINS))
def test_volume_mc_seeded_outputs_pinned(key):
    name, h, samples, seed = key
    sampler = {"mc_volume": mc_volume, "mc_volume_peel": mc_volume_peel}[name]
    mean, se = sampler(DiagonalSpec(len(h), h), samples, seed)
    want_mean, want_se = VOLUME_MC_PINS[key]
    assert mean == pytest.approx(want_mean, rel=1e-12, abs=0)
    assert se == pytest.approx(want_se, rel=1e-12, abs=0)


@pytest.mark.parametrize("key", sorted(VOLUME_MC_PINS))
def test_volume_mc_same_bits_in_one_block(monkeypatch, key):
    # numkit.mc_mean weighs KERNEL_BLOCK columns at a time; the kernels work
    # column by column, so one block per batch gives the same bits
    name, h, samples, seed = key
    sampler = {"mc_volume": mc_volume, "mc_volume_peel": mc_volume_peel}[name]
    blocked = sampler(DiagonalSpec(len(h), h), samples, seed)
    monkeypatch.setattr(numkit, "KERNEL_BLOCK", numkit.MC_BATCH)
    assert sampler(DiagonalSpec(len(h), h), samples, seed) == blocked


def _peel_reference(h, samples, seed):
    """(mean, stderr) of mc_volume_peel from a loop over the samples of one draw.

    Each sample's exponentials are taken in turn: row N's N - 1 first and
    row 5's 4 last.  A peeled row's entries become a uniform point of the
    simplex whose sum is the row's residual, weighted by that simplex's
    volume, and a sample that leaves a residual negative weighs 0; the four
    residuals that are left weigh the exact N = 4 volume.
    """
    n = len(h)
    draws = np.random.default_rng(seed).standard_exponential((samples, sum(range(4, n))))
    weights = np.zeros(samples)
    rest = np.zeros((4, samples))
    for i, row in enumerate(draws.tolist()):
        res = [1.0 - hj for hj in h]
        w = 1.0
        for r in range(n, 4, -1):
            m = r - 1
            g, row = row[:m], row[m:]
            s = res[m]
            scale = s / sum(g)
            res[:m] = [left - gj * scale for left, gj in zip(res[:m], g)]
            if min(res[:m]) < 0.0:
                break
            w *= s ** (m - 1) / math.factorial(m - 1)
        else:
            weights[i] = w
            rest[:, i] = res[:4]
    weights *= _exact_volume_n4_rowsum(rest)
    return weights.mean(), weights.std() / math.sqrt(samples)


@pytest.mark.parametrize("key", [key for key in sorted(VOLUME_MC_PINS) if key[0] == "mc_volume_peel"])
def test_volume_peel_pins_match_a_per_sample_loop(key):
    _, h, samples, seed = key
    mean, se = _peel_reference(h, samples, seed)
    want_mean, want_se = VOLUME_MC_PINS[key]
    assert mean == pytest.approx(want_mean, rel=1e-12, abs=0)
    assert se == pytest.approx(want_se, rel=1e-12, abs=0)


def test_peel_holds_one_kernel_block_of_draws():
    # 30 exponentials per sample at N = 9: a draw buffer for the whole
    # 40,000-sample batch would take 9.2 MiB by itself
    spec = DiagonalSpec(9, (0.52, 0.47, 0.5, 0.53, 0.49, 0.51, 0.48, 0.5, 0.46))
    tracemalloc.start()
    try:
        mc_volume_peel(spec, 40_000, 92)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
