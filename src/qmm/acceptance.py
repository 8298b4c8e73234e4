"""Acceptance suite: every released number is recomputed and gated here.

Each criterion is broken into clauses; a clause carries a human-readable
reference label describing what it validates.  Clauses that are known to
be unattainable because the published table value itself is defective are
still run and reported as failures, flagged known_issue (the analysis
lives in the project notes); they are never silently skipped or loosened.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

import numpy as np

from . import asymcount, counting, detkit, numkit, orthopoly, partition, polytope, quadrature
from .config import RunConfig


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    clause: str
    reference: str
    passed: bool
    detail: str
    known_issue: bool = False

    def __post_init__(self):
        # numpy comparisons yield numpy.bool_, which json cannot serialise
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "known_issue", bool(self.known_issue))

    @property
    def status(self) -> str:
        """The verdict as printed: PASS, FAIL (documented) or FAIL."""
        if self.passed:
            return "PASS"
        return "FAIL (documented)" if self.known_issue else "FAIL"


def _round_sig(x: float, sig: int) -> float:
    if x == 0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    return round(x, -exp + sig - 1)


def _sigmas(est: float, ref: float, se: float) -> float:
    """|est - ref| in standard errors; at se = 0 only est == ref agrees (0, else inf)."""
    if se == 0:
        return 0.0 if est == ref else math.inf
    return abs(est - ref) / se


# ---------------------------------------------------------------------------
# frozen reference tables

N5_SUM32 = [
    ((6, 6, 6, 7, 7), 795),
    ((5, 6, 6, 7, 8), 679),
    ((5, 5, 6, 8, 8), 580),
    ((5, 5, 5, 7, 10), 381),
    ((5, 5, 5, 6, 11), 252),
    ((4, 5, 5, 5, 13), 56),
]
N5_SUM16 = [
    ((3, 3, 3, 3, 4), 72),
    ((2, 3, 3, 4, 4), 58),
    ((2, 3, 3, 3, 5), 46),
    ((2, 2, 4, 4, 4), 46),
    ((2, 2, 3, 4, 5), 37),
    ((2, 2, 3, 3, 6), 21),
    ((2, 2, 2, 5, 5), 29),
]
N5_SUM64_ROW1 = ((12, 13, 13, 13, 13), 13818)

UNIFORM_COUNTS_3SF = [(6, 6, 3.69e4), (7, 8, 5.42e7), (8, 9, 1.10e11)]

R_TABLE_4DP = {
    1: 0.3380, 2: 0.4017, 3: 0.5051, 4: 0.5781, 5: 0.6468,
    6: 0.7079, 7: 0.7644, 8: 0.8170, 9: 0.8665, 10: 0.9132,
}

# |U_mk| as printed (m rows 0..10); entries carry their printed precision
U_TABLE = [
    [1.0],
    [0.34, 1.0],
    [0.17, 1.24, 1.0],
    [0.11, 1.40, 2.47, 1.0],
    [0.08, 1.60, 4.58, 3.94, 1.0],
    [0.07, 1.91, 7.77, 10.6, 5.63, 1.0],
    [0.07, 2.38, 12.8, 24.5, 20.3, 7.50, 1.0],
    [0.07, 3.10, 21.1, 52.7, 60.6, 34.7, 9.54, 1.0],
    [0.08, 4.20, 35.1, 109.0, 163.0, 128.0, 54.5, 11.7, 1.0],
    [0.10, 5.94, 59.3, 224.0, 413.0, 419.0, 243.0, 80.7, 14.1, 1.0],
    [0.12, 8.72, 102.0, 455.0, 1012.0, 1268.0, 946.0, 427.0, 114.0, 16.6, 1.0],
]

EXPDET_RATIOS = {3: 1.30, 4: 1.22, 5: 1.18, 6: 1.15, 7: 1.03}

PEARCEY_RATIOS = [1.03, 1.05, 1.06, 1.07, 1.08, 1.08, 1.08, 1.08, 1.06]

# distinct-part partition counts p_m(n), rows n = 1..10, columns m = 1..4
PARTITION_TABLE = [
    (1, 1, 0, 0), (1, 1, 0, 0), (1, 2, 1, 0), (1, 2, 1, 0), (1, 3, 2, 0),
    (1, 3, 3, 1), (1, 4, 4, 1), (1, 4, 5, 2), (1, 5, 7, 3), (1, 5, 8, 5),
]


# ---------------------------------------------------------------------------
# criteria


def check_1(cfg: RunConfig) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows_ok = []
    for t, expect in N5_SUM32:
        got = counting.count_row_sums(counting.RowSumSpec(5, t), state_cap=cfg.state_cap)
        rows_ok.append(got == expect)
    fast = time.perf_counter() - t0 < 10.0
    out = [
        CheckResult(
            1, "exact counts, N=5 entry-sum 32", "N=5 row-sum count table (sum 32)",
            all(rows_ok), f"{sum(rows_ok)}/6 rows exact",
        ),
        CheckResult(
            1, "runtime of the six counts", "N=5 row-sum count table (sum 32)",
            # the bound, not the reading, so that a seed always prints the same text
            fast, "under 10 s" if fast else "10 s or more",
        ),
    ]
    return out


def check_2(cfg: RunConfig) -> list[CheckResult]:
    ok16 = all(
        counting.count_row_sums(counting.RowSumSpec(5, t), state_cap=cfg.state_cap) == expect
        for t, expect in N5_SUM16
    )
    t, expect = N5_SUM64_ROW1
    ok64 = counting.count_row_sums(counting.RowSumSpec(5, t), state_cap=cfg.state_cap) == expect
    return [
        CheckResult(2, "exact counts, N=5 entry-sum 16", "N=5 row-sum count table (sum 16)",
                    ok16, "7/7 rows exact" if ok16 else "mismatch"),
        CheckResult(2, "exact count, N=5 entry-sum 64 row 1", "N=5 row-sum count table (sum 64)",
                    ok64, f"count({t}) == {expect}" if ok64 else "mismatch"),
    ]


def check_3(cfg: RunConfig) -> list[CheckResult]:
    out = []
    for n, t, expect in UNIFORM_COUNTS_3SF:
        got = counting.count_row_sums(counting.RowSumSpec(n, (t,) * n), state_cap=cfg.state_cap)
        ok = _round_sig(float(got), 3) == expect
        out.append(
            CheckResult(
                3, f"uniform count N={n}, t={t} to 3 significant figures",
                "uniform row-sum count column", ok, f"{got} ~ {expect:.3g}",
            )
        )
    return out


def check_4(cfg: RunConfig) -> list[CheckResult]:
    out = []
    floors = []
    for n, t, target in [(7, 8, 0.928), (6, 6, 0.906)]:
        spec = counting.RowSumSpec(n, (t,) * n)
        exact = counting.count_row_sums(spec, state_cap=cfg.state_cap)
        asym = asymcount.asymptotic_count(spec)
        floor = asymcount.lower_bound(spec, (asymcount.lambda_star(spec),) * n, 0.25)
        floors.append(math.exp(floor.log_abs - math.log(exact)))
        ratio = math.exp(asym.value.log_abs - math.log(exact))
        ok = abs(ratio - target) <= 0.010
        out.append(
            CheckResult(
                4, f"asymptotic/exact ratio, N={n} uniform t={t}",
                "uniform-count ratio column",
                ok, f"ratio = {ratio:.4f}, target {target} +- 0.010",
            )
        )
    out.append(CheckResult(4, "threshold E_1/4 lies below the exact count, both uniform instances",
                           "explicit lower-bound threshold", max(floors) < 1.0,
                           "E/exact = " + ", ".join(f"{r:.3f}" for r in floors) + " at N = 7, 6"))
    return out


def check_5(cfg: RunConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    checked = 0
    ok_all = True
    details = []
    while checked < 5:
        h = tuple(np.round(rng.uniform(0.15, 0.85, 4), 3))
        spec = polytope.DiagonalSpec(4, h)
        exact = polytope.exact_volume_n4(spec)
        if exact < 0.01:
            continue
        est, se = polytope.mc_volume(spec, 10**6, seed=cfg.seed + checked)
        dev = _sigmas(est, exact, se)
        ok_all &= dev <= 3.0
        details.append(f"{dev:.2f}")
        checked += 1
    grid = (np.arange(20) + 0.5) / 20.0
    u = 1.0 - np.stack(np.meshgrid(grid, grid, grid, indexing="ij")).reshape(3, -1)
    b12 = (u[0] + u[1] - u[2]) / 2.0
    b13 = (u[0] - u[1] + u[2]) / 2.0
    b23 = (-u[0] + u[1] + u[2]) / 2.0
    feasible = np.where(np.minimum(np.minimum(b12, b13), b23) >= 0.0, 1.0, 0.0)
    ok_grid = np.array_equal(polytope._exact_volume_n3_rowsum(u), feasible)
    return [
        CheckResult(5, "N=4 exact volume vs hit-and-miss MC (5 diagonals, 3 sigma)",
                    "exact N=4 subpolytope volume formula", ok_all,
                    "deviations/sigma: " + ", ".join(details)),
        CheckResult(5, "N=3 indicator vs direct feasibility on 20^3 grid",
                    "exact N=3 subpolytope indicator", ok_grid,
                    "8000/8000 grid points" if ok_grid else "grid mismatch"),
    ]


def check_6(cfg: RunConfig) -> list[CheckResult]:
    spec5 = polytope.DiagonalSpec(5, (0.5,) * 5)
    est5, _ = polytope.mc_volume(spec5, 4 * 10**5, seed=cfg.seed)
    ratio5 = polytope.asymptotic_volume(spec5).value / est5
    spec9 = polytope.DiagonalSpec(9, (0.5,) * 7 + (0.55, 0.45))
    est9, _ = polytope.mc_volume_peel(spec9, 40_000, seed=cfg.seed)
    ratio9 = polytope.asymptotic_volume(spec9).value / est9
    ok5 = abs(ratio5 - 1.0) <= 0.35
    ok9 = abs(ratio9 - 1.0) <= 0.25
    improves = abs(ratio9 - 1.0) < abs(ratio5 - 1.0)
    return [
        CheckResult(6, "asymptotic volume vs MC, N=5 symmetric", "asymptotic subpolytope volume",
                    ok5, f"ratio = {ratio5:.3f} (window 35%)"),
        CheckResult(6, "asymptotic volume vs MC, N=9 near-symmetric", "asymptotic subpolytope volume",
                    ok9, f"ratio = {ratio9:.3f} (window 25%)"),
        CheckResult(6, "agreement improves with N", "asymptotic subpolytope volume",
                    improves, f"|1-ratio|: {abs(ratio5-1):.3f} -> {abs(ratio9-1):.3f}"),
    ]


def check_7(cfg: RunConfig) -> list[CheckResult]:
    table = orthopoly.quartic_r_sequence(64)
    ok_r = all(round(table.r[m], 4) == R_TABLE_4DP[m] for m in range(1, 11))
    band_viol = [
        m
        for m in range(2, 65)
        if not (
            math.sqrt(m / 12.0)
            < table.r[m]
            < math.sqrt(m / 12.0) * math.exp(1.0 / (4 * m * m))
        )
    ]
    band_ok = not band_viol
    umat = orthopoly.u_coefficients(10)
    ok_u = True
    for m in range(11):
        for k in range(m + 1):
            printed = U_TABLE[m][k]
            sig = min(3, len(f"{printed:g}".replace(".", "").replace("-", "").lstrip("0")) or 1)
            # one unit in the last printed digit (the table truncates)
            tol = 10.0 ** (math.floor(math.log10(abs(printed))) - sig + 1) if printed else 1e-12
            if abs(abs(umat[m, k]) - printed) >= tol:
                ok_u = False
    ok_bound = all(
        abs(umat[m, k]) <= orthopoly.u_coefficient_bound(m, k) * (1 + 1e-12)
        for m in range(11)
        for k in range(m + 1)
    )
    return [
        CheckResult(7, "R_1..R_10 to 4 decimals", "quartic recursion coefficient table",
                    ok_r, "10/10" if ok_r else "mismatch"),
        CheckResult(
            7, "band sqrt(m/12) < R_m < sqrt(m/12) e^(1/4m^2) for 2 <= m <= 64",
            "quartic recursion band",
            band_ok,
            (
                "holds"
                if band_ok
                else f"violated at m={band_viol}: R_2 = {table.r[2]:.5f} < sqrt(2/12) = "
                f"{math.sqrt(2/12):.5f}; the published table prints the same violation"
            ),
            known_issue=not band_ok and band_viol == [2],
        ),
        CheckResult(7, "|U_mk| vs printed table, m,k <= 10", "even-polynomial coefficient table",
                    ok_u, "all entries at printed precision" if ok_u else "mismatch"),
        CheckResult(7, "|U_mk| respects the binomial/double-factorial envelope",
                    "coefficient envelope bound", ok_bound, "all entries under bound"),
    ]


def check_8(cfg: RunConfig) -> list[CheckResult]:
    worst = 0.0
    for n in range(1, 7):
        direct, via = orthopoly.gamma_quarter_det(n)
        worst = max(worst, abs(direct - via) / abs(direct))
    ok = worst <= 1e-8
    # float moments of exp(-x^4) through both moment routes, against the 60-digit recursion
    rho = [0.0 if j % 2 else orthopoly.quartic_moment(j // 2) for j in range(21)]
    cheb, table = orthopoly.ops_from_moments(rho, 10), orthopoly.quartic_r_sequence(10)
    rel_rh = max(abs(c / t - 1.0) for c, t in zip(cheb.r[1:] + cheb.h, table.r[1:] + table.h))
    p10 = table.polynomial_coeffs(10)
    rel_p = np.abs(orthopoly.polynomial_from_moments(rho, 10) - p10).max() / np.abs(p10).max()
    return [
        CheckResult(8, "Gamma((2k+2l+1)/4) determinant, direct vs 2^n prod h_2m (n <= 6)",
                    "quarter-Gamma determinant identity", ok, f"worst rel = {worst:.2e}"),
        CheckResult(8, "Chebyshev's algorithm on the quartic moments gives R_m, h_m (m <= 10)",
                    "quartic recursion coefficient table", rel_rh <= 1e-9,
                    f"worst rel = {rel_rh:.1e}"),
        CheckResult(8, "bordered-Hankel P_10 from the quartic moments equals the recursion's P_10",
                    "moment-determinant polynomial", rel_p <= 1e-9,
                    f"max coefficient gap / max |coefficient| = {rel_p:.1e}"),
    ]


def check_9(cfg: RunConfig) -> list[CheckResult]:
    ok_beta = all(
        detkit.beta_det(n, closed_form=True) == detkit.beta_det(n, closed_form=False)
        for n in range(1, 9)
    )
    ok_shift = all(
        detkit.shifted_factorial_det(n, True) == detkit.shifted_factorial_det(n, False)
        for n in range(1, 9)
    )
    # Cauchy matrices: every minor is positive, so det(AB) > 0
    a = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(3)]
    b = [[Fraction(1, j + 2 * k + 1) for k in range(3)] for j in range(5)]
    binet = detkit.cauchy_binet_det(a, b)
    dense = detkit.det_rows([[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a])
    nodes = {n: detkit.exp_kernel_nodes(n) for n in EXPDET_RATIOS}
    v7 = np.vander(nodes[7], increasing=True).T
    off = np.abs(detkit.inverse_vandermonde(nodes[7]) @ v7 - np.eye(7)).max()
    out = [
        CheckResult(9, "Beta determinant closed form == rational determinant (n <= 8)",
                    "integer-Beta determinant", ok_beta, "exact equality" if ok_beta else "mismatch"),
        CheckResult(9, "shifted-factorial determinant closed form == rational determinant (n <= 8)",
                    "shifted-factorial determinant", ok_shift,
                    "exact equality" if ok_shift else "mismatch"),
        CheckResult(9, "Cauchy-Binet sum of minors == det(AB), 3x5 by 5x3 rationals",
                    "Cauchy-Binet formula", binet == dense > 0, f"{binet} vs {dense}"),
        CheckResult(9, "inverse Vandermonde times V is the identity on the n=7 nodes",
                    "inverse Vandermonde matrix", off <= 1e-9, f"max |V^-1 V - I| = {off:.1e}"),
    ]
    for n, target in EXPDET_RATIOS.items():
        exact, fact, _ = detkit.exp_det_factorization(nodes[n], nodes[n], 1.0)
        ratio = float(exact / fact)
        ok = abs(ratio - target) <= 0.02
        known = (not ok) and n == 7
        detail = f"ratio = {ratio:.3f}, printed {target}"
        if known:
            detail += (
                "; printed n=7 value irreproducible: the truncated-series determinant "
                "equals Delta^2/prod m! identically (= 1.911e-55 at 60 digits) while the "
                "printed cell implies 2.11e-55"
            )
        out.append(
            CheckResult(9, f"exp-kernel factorization ratio, n={n}",
                        "exp-kernel determinant ratio table", ok, detail, known_issue=known)
        )
    return out


def check_10(cfg: RunConfig) -> list[CheckResult]:
    a, b = -24.0, 14.0
    directs = [quadrature.pearcey_direct(a, b, k) for k in range(9)]
    direct0 = directs[0].real
    ok_direct = abs(direct0 - 1.01e-5) / 1.01e-5 <= 0.02
    out = [
        CheckResult(10, "direct quadrature k=0 within 2% of printed value",
                    "quartic-phase integral table, direct column", ok_direct,
                    f"direct = {direct0:.4e} vs 1.01e-5"),
    ]
    ratios = [abs(quadrature.pearcey_saddle(a, b, k)) / abs(d) for k, d in enumerate(directs)]
    bad = [k for k in range(9) if abs(ratios[k] - PEARCEY_RATIOS[k]) > 0.02]
    ok_ratio = not bad
    detail = "ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    if not ok_ratio:
        detail += (
            f"; deviates from the printed column at k={bad}: exact (i d/da)^k derivatives "
            "of the closed form converge to 1.00 while the printed column grows to 1.08 "
            "(printed saddle values for k >= 1 not reproducible by any tested "
            "interpretation; direct column reproduces at all k)"
        )
    out.append(
        CheckResult(10, "saddle/direct ratios k=0..8 within +-0.02 of printed column",
                    "quartic-phase integral table, ratio column", ok_ratio, detail,
                    known_issue=not ok_ratio and 0 not in bad)
    )
    # residual of the phase derivative 4 lam^3 + 2 b lam + i a at the printed saddles
    res = max(abs(4.0 * lam**3 + 2.0 * b * lam + 1j * a) for lam in (1j, 2j, -3j))
    found = sorted(s.imag for s in quadrature.pearcey_saddles(a, b))
    ok_saddle = res < 1e-10 and np.allclose(found, [-3.0, 1.0, 2.0], atol=1e-9)
    out.append(
        CheckResult(10, "saddles at i, 2i, -3i with residual < 1e-10",
                    "quartic-phase saddle roots", ok_saddle,
                    f"max |f'| = {res:.1e}, saddles {[round(x, 9) for x in found]}")
    )
    # n! = n^(n+1) e^-n int e^(n(ln(1+s) - s)) ds; Laplace misses Stirling's 1/(12n)
    gaps = []
    for n in (10, 40, 160):
        peak = quadrature.laplace_peak(lambda s: math.log1p(s) - s, (-0.9, 3.0), n)
        gaps.append(12 * n * (math.lgamma(n + 1) - (n + 1) * math.log(n) + n - math.log(peak)))
    k_rel = max(abs(quadrature.k_series(n, mu) / quadrature.k_quadrature(n, mu) - 1.0)
                for n, mu in ((0, 1.0), (1, 1.0), (2, 4.0), (3, 0.3), (4, 10.0)))
    try:
        quadrature.k_series(0, 100.0)
        guard = "silent"
    except quadrature.SeriesLossError:
        guard = "raised"

    def saddle_err(a, n, d, variant):
        # exp(i a x - b x^2 + i c x^3 - d x^4) at b = 1, c = 0.4 N^-1/2
        coef = (a, 1.0, 0.4 / math.sqrt(n), d)
        return abs(quadrature.quartic_gauss_saddle(*coef, variant)
                   / quadrature.quartic_phase(0, *coef) - 1.0)

    sizes = (16, 64, 256)
    errs1 = [saddle_err(1.0, n, 0.3 / n, 1) for n in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(errs1), 1)[0])
    errs23 = [saddle_err(math.sqrt(n), n, d, variant)
              for n in sizes for d, variant in ((0.0, 2), (0.3 / n, 3))]
    # a dropped correction term leaves about a 4x fall; the full expansions fall ~15x
    falls = [errs23[i] / errs23[i + 2] for i in range(len(errs23) - 2)]
    out += [
        CheckResult(10, "Laplace peak misses ln n! by 1/(12n) to 1% (n = 10, 40, 160)",
                    "Laplace method", max(abs(g - 1.0) for g in gaps) <= 0.01,
                    "12n gap = " + ", ".join(f"{g:.4f}" for g in gaps)),
        CheckResult(10, "k_n(mu) series vs quadrature to 1e-8 (5 points), loss guard at mu=100",
                    "half-line quartic integrals k_n", k_rel <= 1e-8 and guard == "raised",
                    f"worst rel = {k_rel:.1e}; guard {guard} at mu=100"),
        CheckResult(10, "quartic-Gaussian saddle variant 1 error falls like N^-3/2 (N = 16..256)",
                    "quartic-Gaussian saddle expansion", abs(slope + 1.5) <= 0.25,
                    f"rel errors {', '.join(f'{e:.1e}' for e in errs1)}; slope {slope:.2f}"),
        CheckResult(10, "saddle variants 2, 3 within 5% of quadrature, error falls >= 8x per "
                    "4x step in N = 16..256, a = sqrt(N)", "quartic-Gaussian saddle expansion",
                    max(errs23) <= 0.05 and min(falls) >= 8.0,
                    "rel errors " + ", ".join(f"{e:.1e}" for e in errs23)
                    + "; falls " + ", ".join(f"{f:.1f}x" for f in falls)),
    ]
    return out


def check_11(cfg: RunConfig) -> list[CheckResult]:
    spec = partition.KineticSpectrum(3, (1.0, 1.1, 1.2), 0.0)
    zf = partition.z_free(spec).value
    ok_zf = abs(zf - 14.142) <= 0.001
    coupled = partition.KineticSpectrum(2, (1.0, 1.1), 0.1)
    quad, quad_err = partition.z_quad_n2(coupled)
    # 4 and 3 normals: both samplers weigh each block of one 4-D lattice pass
    (est_m, se_m), (est_e, se_e) = numkit.rqmc_mean(
        [partition.matrix_sampler(coupled), partition.eigen_sampler(spec)], cfg.seed)
    sigmas = _sigmas(est_m, quad, se_m)
    ok_m = abs(est_m - quad) / quad <= 0.02 and sigmas <= 4.0
    sigmas_e = _sigmas(est_e, zf, se_e)
    ok_e = abs(est_e - zf) / zf <= 0.03 and sigmas_e <= 4.0
    f = partition.hciz_value((0.0, 1.0), (0.0, 1.0), 1.0)
    m, se_h = partition.hciz_haar_mc2((0.0, 1.0), (0.0, 1.0), 1.0, 10**6, seed=cfg.seed)
    sigmas_h = _sigmas(m, f, se_h)
    ok_h = abs(m - f) / f <= 0.01 and sigmas_h <= 4.0
    lattice = f"{numkit.LATTICE_POINTS} points x {numkit.RQMC_REPLICATES} shifts"
    return [
        CheckResult(11, "free partition function N=3 equals 14.142 +- 0.001",
                    "free-theory closed form", ok_zf, f"z_free = {zf:.4f}"),
        CheckResult(11, "matrix RQMC at g=0.1, N=2 within 2% and 4 sigma of 2-D quadrature",
                    "Hermitian-matrix MC oracle", ok_m,
                    f"N={coupled.n}, g={coupled.g}: RQMC {est_m:.9f} +- {se_m:.1e} (stderr, "
                    f"{lattice}), quadrature {quad:.9f} (abserr {quad_err:.1e}), "
                    f"{sigmas:.2f} sigma"),
        CheckResult(11, "eigenvalue-form RQMC at g=0, N=3 within 3% and 4 sigma of z_free",
                    "eigenvalue-reduced MC oracle", ok_e,
                    f"N={spec.n}, g={spec.g}: RQMC {est_e:.4f} +- {se_e:.4f} (stderr, "
                    f"{lattice}), z_free {zf:.4f}, {sigmas_e:.2f} sigma"),
        CheckResult(11, "unitary-integral closed form vs Haar MC within 1% (N=2)",
                    "unitary group integral", ok_h,
                    f"formula {f:.6f}, MC {m:.6f} +- {se_h:.6f}, {sigmas_h:.1f} sigma"),
    ]


def check_12(cfg: RunConfig) -> list[CheckResult]:
    out = []
    g = 1e-8
    for n in (3, 6):
        spec = partition.KineticSpectrum(n, (1.3,) * n, g)
        lhs = partition.z_weak_expanded(spec).log_abs
        lhs -= partition.z_free(partition.KineticSpectrum(n, (1.3,) * n, 0.0)).log_abs
        rhs = -sum(3.0 * g / (4.0 * em * em) for em in spec.e)
        rel = abs(math.exp(lhs - rhs) - 1.0)
        const = math.exp(partition.z_weak(spec).log_abs - partition.z_weak_expanded(spec).log_abs)
        ok = rel <= 1e-6 and abs(const - math.sqrt((n - 1) / n)) < 1e-12
        out.append(
            CheckResult(
                12, f"weak/free ratio equals the coupling exponential, N={n}",
                "weak-coupling closed form",
                ok,
                f"rel = {rel:.1e}; closed form carries the residual constant "
                f"sqrt((N-1)/N) = {const:.6f} against the free theory (reported, "
                "not absorbed)",
            )
        )
    n = 30
    # skewed pattern: substantial third power sum, mean removed
    pat = np.array([math.sin(2.3 * j + 0.4) + 0.5 * math.sin(2.3 * j + 0.4) ** 2 for j in range(n)])
    pat -= pat.mean()

    def gap(eps):
        return abs(partition.polytope_route_correction(eps) - partition.direct_route_correction(eps))

    d_small = gap(pat * n ** (-2.0 / 3.0))
    d_large = gap(pat * 0.8 * n ** (-1.0 / 3.0))
    tiny = pat * 1e-5
    coeff = gap(tiny) / abs(float(np.sum(tiny**3)))
    ok = d_small < 1e-3 and d_large > 1e-2 and abs(coeff - 1.0 / 12.0) < 1e-3
    out.append(
        CheckResult(
            12, "two free-theory routes agree through the second moment and "
            "split by s3/12 beyond (mismatch asserted)",
            "free theory via polytope vs direct expansion",
            ok,
            f"|diff| {d_small:.1e} at eps~N^-2/3 vs {d_large:.2e} at eps~N^-1/3; "
            f"cubic-coefficient gap = {coeff:.5f} (exact 1/12)",
        )
    )
    return out


def check_13(cfg: RunConfig) -> list[CheckResult]:
    gstar = numkit.TRUNCATION_GAMMA_STAR
    ok_star = abs(gstar - 0.2785) < 5e-4
    below = [numkit.taylor_truncation_bound(gstar - 0.01, n) for n in (200, 400, 800)]
    above = [numkit.taylor_truncation_bound(gstar + 0.01, n) for n in (200, 400, 800)]
    ok_flip = below[0] > below[1] > below[2] and above[0] < above[1] < above[2]
    ok_fcl = all(
        numkit.factorial_composition_identity(n) * math.factorial(n) == 1
        for n in range(1, 11)
    )
    ok_pm = all(
        numkit.distinct_partition_count(m, n) == PARTITION_TABLE[n - 1][m - 1]
        for n in range(1, 11)
        for m in range(1, 5)
    )
    under = [numkit.distinct_partition_count(m, n) <= numkit.distinct_partition_bound(m, n)
             for m in range(1, 7) for n in range(41)]
    # F_{n,p} = 0 for p <= n-2 and (-1)^(n-1) h_{p-n+1} beyond; G_{n,0} = 1
    pole_ok = []
    for n in range(2, 6):
        x = [Fraction(k * k + 1, k + 2) for k in range(n)]
        for p in range(n + 3):
            h = numkit.complete_homogeneous(p - n + 1, x) if p > n - 2 else 0
            pole_ok.append(numkit.symmetric_pole_sum(p, x) == (-1) ** (n - 1) * h)
        pole_ok.append(numkit.symmetric_pole_sum(0, x, z=Fraction(-2, 7)) == 1)
    return [
        CheckResult(13, "truncation-bound monotonicity flips at the Lambert-W threshold",
                    "Lambert-W truncation threshold", ok_star and ok_flip,
                    f"threshold = {gstar:.6f}"),
        CheckResult(13, "nested alternating composition sum equals 1/n! exactly (n <= 10)",
                    "factorial composition identity", ok_fcl, "exact in rationals"),
        CheckResult(13, "distinct-part partition counts match all 40 printed entries",
                    "distinct-partition count table", ok_pm, "40/40"),
        CheckResult(13, "p_m(n) <= alpha_m 2^(n - binom(m,2)) for m <= 6, n <= 40",
                    "distinct-partition count bound", all(under),
                    f"{sum(under)}/{len(under)} (m, n) pairs under the bound"),
        CheckResult(13, "pole sums F_{n,p}, G_{n,0} equal 0, (-1)^(n-1) h_(p-n+1), 1 (n <= 5)",
                    "symmetric pole-sum identities", all(pole_ok),
                    f"{sum(pole_ok)}/{len(pole_ok)} exact in rationals"),
    ]


CRITERIA = {
    1: check_1, 2: check_2, 3: check_3, 4: check_4, 5: check_5, 6: check_6,
    7: check_7, 8: check_8, 9: check_9, 10: check_10, 11: check_11,
    12: check_12, 13: check_13,
}

SUITES = {
    "count": (1, 2, 3),
    "asym": (4,),
    "volume": (5, 6),
    "orthopoly": (7, 8),
    "det": (9,),
    "pearcey": (10,),
    "partition": (11, 12),
    "utilities": (13,),
}


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork or CPU affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _work(claims: int, cfg: RunConfig) -> dict[int, list[CheckResult] | Exception]:
    """Run the criteria claimed one byte at a time from the pipe `claims`, up to EOF.

    A criterion that raises keeps its exception as its result and empties
    the pipe, for every worker: each number still in it is higher, so a
    serial run would not have reached it.
    """
    done: dict[int, list[CheckResult] | Exception] = {}
    while claim := os.read(claims, 1):
        try:
            done[claim[0]] = CRITERIA[claim[0]](cfg)
        except Exception as exc:  # re-raised by the caller, in criterion order
            done[claim[0]] = exc
            while os.read(claims, 256):
                pass
    return done


def _worker(claims: int, out: int, cfg: RunConfig) -> NoReturn:
    """A forked worker: pickle its criteria's results to the pipe `out` and exit.

    It leaves through os._exit on every path, so it never unwinds into the
    caller's stack and never flushes buffers it shares with the caller.  An
    exception loses its traceback in the pickle; run under `taskset -c 0`,
    the gate forks nothing and keeps it.
    """
    code = 1
    try:
        with open(out, "wb") as pipe:
            pipe.write(pickle.dumps(_work(claims, cfg)))
        code = 0
    finally:
        os._exit(code)


def run_acceptance(cfg: RunConfig, suite: str | None = None) -> list[CheckResult]:
    """The clauses of the suite's criteria (all by default), in criterion order.

    The criterion numbers go into one pipe as bytes.  The caller and one
    forked worker per further usable CPU each claim the next criterion by
    reading one byte.  The criteria share no state and each seeds itself
    from `cfg` alone, so the results, and the exception of the
    lowest-numbered criterion that raised, are those of a serial run; one
    worker forks nothing.  Every forked worker is reaped before this
    returns or raises.
    """
    if suite is None:
        numbers = sorted(CRITERIA)
    else:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
        numbers = list(SUITES[suite])
    claims, feed = os.pipe()
    os.write(feed, bytes(numbers))
    os.close(feed)
    readers: dict[int, int] = {}  # forked worker's pid -> read end of its result pipe
    payloads: dict[int, bytes] = {}
    lost: list[str] = []
    try:
        for _ in range(min(len(numbers), _usable_cpus()) - 1):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: the workers started suffice
                os.close(reader)
                os.close(writer)
                break
            if pid == 0:
                _worker(claims, writer, cfg)
            os.close(writer)
            readers[pid] = reader
        done = _work(claims, cfg)
        for pid, reader in readers.items():
            with open(reader, "rb", closefd=False) as pipe:
                payloads[pid] = pipe.read()
    finally:
        os.close(claims)
        for pid, reader in readers.items():
            os.close(reader)
            if pid not in payloads:  # the caller was interrupted: stop the worker
                os.kill(pid, signal.SIGKILL)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:  # its payload, if any, may be cut short
                payloads.pop(pid, None)
                lost.append(f"a worker was killed by {signal.Signals(-code).name}" if code < 0
                            else f"a worker exited with code {code}")
    for payload in payloads.values():
        done.update(pickle.loads(payload))
    results: list[CheckResult] = []
    for num in numbers:
        if num not in done:
            raise ChildProcessError(f"criterion {num} has no result: {'; '.join(lost)}")
        if isinstance(done[num], Exception):
            raise done[num]
        results.extend(done[num])
    return results
