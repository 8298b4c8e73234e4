"""Volumes of diagonal subpolytopes of symmetric stochastic matrices.

Exact formulas for N=3 (point polytope) and N=4 (one closed form, half
the square of the smallest row sum or slack),
two Monte-Carlo oracles (hit-and-miss over the free off-diagonal block,
and a row-peeling simplex sampler that stays usable at N ~ 9), each a
block kernel over one group of draws that numkit.mc_mean runs, the
rule that picks the closed form and the sampler at each N, and the
asymptotic product formula with its applicability diagnostic.

Conventions: h_j are the diagonal entries, u_j = 1 - h_j the off-diagonal
row sums, s_{i..} = (sum u)/2 - u_i - ...  Volumes are Lebesgue measure in
the free coordinates {u_kl : 2 <= k < l, l != 3}, the normalisation under
which the lattice counts converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .numkit import LogValue, Sampler, mc_mean, power_sums


@dataclass(frozen=True)
class DiagonalSpec:
    """Diagonal h of a symmetric stochastic matrix; defines the subpolytope."""

    n: int
    h: tuple[float, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if len(self.h) != self.n:
            raise ValueError("need one diagonal entry per row")
        if any(not 0.0 <= hj <= 1.0 for hj in self.h):
            raise ValueError("diagonal entries must lie in [0, 1]")
        object.__setattr__(self, "h", tuple(float(hj) for hj in self.h))

    @property
    def chi(self) -> float:
        return sum(self.h)

    @property
    def u(self) -> tuple[float, ...]:
        return tuple(1.0 - hj for hj in self.h)


def _exact_volume_n3_rowsum(u) -> np.ndarray:
    """N=3 indicator (1 iff all s_j >= 0) of the row sums u, one row per component."""
    u1, u2, u3 = np.asarray(u, dtype=float)
    half = (u1 + u2 + u3) / 2.0
    return np.where((half - u1 >= 0.0) & (half - u2 >= 0.0) & (half - u3 >= 0.0), 1.0, 0.0)


def exact_volume_n4(spec: DiagonalSpec) -> float:
    """Exact volume at N=4: m^2 / 2 with m = max(0, min(u_1..u_4, s_1..s_4)).

    The free entries (u_24, u_34) fill a right isosceles triangle with legs
    of length m.  An empty polytope has some s_j < 0, so m clamps to 0; the
    volume is continuous in the diagonal.
    """
    if spec.n != 4:
        raise ValueError("exact_volume_n4 requires n = 4")
    return float(_exact_volume_n4_rowsum(spec.u))


def _exact_volume_n4_rowsum(u) -> np.ndarray:
    """Exact N=4 volume of the row sums u, one row per component."""
    u = np.asarray(u, dtype=float)
    half = (u[0] + u[1] + u[2] + u[3]) / 2.0
    m = np.maximum(reduce(np.minimum, [*u, *(half - uj for uj in u)]), 0.0)
    return 0.5 * m * m


# ---------------------------------------------------------------------------
# Monte-Carlo oracles


def _free_pairs(n: int) -> list[tuple[int, int]]:
    # 1-based pairs; the dependent entries are u_1k (k>=4), u_12, u_13, u_23
    return [(k, l) for k in range(2, n + 1) for l in range(k + 1, n + 1) if l != 3]


def mc_volume(
    spec: DiagonalSpec, samples: int, seed: int
) -> tuple[float, float]:
    """Hit-and-miss estimate over the free off-diagonal block.

    Free u_kl sampled uniformly in [0, min(u_k, u_l)]; the dependent
    entries are solved from the row sums and a sample counts when all of
    them are non-negative.  Returns (box volume * hit fraction, binomial
    standard error).  Deterministic per seed and independent of chunking.
    """
    if spec.n < 4:
        raise ValueError("mc_volume requires n >= 4")
    if samples < 1000:
        raise ValueError("need at least 1e3 samples")
    n = spec.n
    u = np.asarray(spec.u)
    pairs = _free_pairs(n)
    box = np.array([min(u[k - 1], u[l - 1]) for k, l in pairs])
    box_vol = float(np.prod(box))

    # each dependent entry, solved from the row sums, must be >= 0; as
    # (free columns, bound, test of their sum): u_1k = u_k - (row k's free
    # entries), u_12 = (entries in rows >= 3) - s_12, u_13 = (entries off
    # row 3) - s_13 and u_23 = s_1 - (all free entries)
    half = sum(u) / 2.0
    tests = [([i for i, pair in enumerate(pairs) if k in pair], u[k - 1], np.less_equal)
             for k in range(4, n + 1)]
    tests.append(([i for i, (k, l) in enumerate(pairs) if k >= 3], half - u[0] - u[1],
                  np.greater_equal))
    tests.append(([i for i, pair in enumerate(pairs) if 3 not in pair], half - u[0] - u[2],
                  np.greater_equal))
    tests.append((range(len(pairs)), half - u[0], np.less_equal))
    # one test per column set and comparison, against the tighter bound (at
    # N = 4, u_14 and u_23 both bound the sum of both free entries from above)
    bounds = {}
    for cols, bound, test in tests:
        key = (tuple(cols), test)
        tighter = min if test is np.less_equal else max
        bounds[key] = tighter(bounds.get(key, bound), bound)

    def kernel(x):  # one row per free entry
        x *= box[:, None]
        m = x.shape[1]
        ok = np.ones(m, dtype=bool)
        acc = np.empty(m)
        hit = np.empty(m, dtype=bool)
        for (cols, test), bound in bounds.items():
            # the sum of the entries' rows, left to right
            total = x[cols[0]]
            for j in cols[1:]:
                total = np.add(total, x[j], out=acc)
            ok &= test(total, bound, out=hit)
        return ok

    return mc_mean(Sampler("random", len(pairs), kernel, box_vol), samples, seed)


def mc_volume_peel(
    spec: DiagonalSpec, samples: int, seed: int
) -> tuple[float, float]:
    """Row-peeling simplex Monte Carlo, the oracle that scales to N ~ 9.

    Peels one row at a time: the peeled row's entries are drawn uniformly
    from the simplex {gamma >= 0, sum gamma = u_row} (Lebesgue weight
    u_row^(m-1)/(m-1)! on the free coordinates), residuals shrink, and the
    recursion bottoms out at the exact N=4 volume.  Unbiased; hit-and-miss
    at N=4,5 reproduces it within statistical error.
    """
    if spec.n < 5:
        raise ValueError("mc_volume_peel requires n >= 5 (use exact formulas below)")
    if samples < 1000:
        raise ValueError("need at least 1e3 samples")
    n = spec.n
    u0 = np.asarray(spec.u)

    # rows n, ..., 5 are peeled in turn, row r taking the next r - 1 exponentials
    peeled = [slice(sum(range(r, n)), sum(range(r - 1, n))) for r in range(n, 4, -1)]

    def kernel(x):
        res = np.empty((n, x.shape[1]))  # residual row sums, one row per matrix row
        res[:] = u0[:, None]
        w = np.ones(res.shape[1])
        for rows in peeled:
            g = x[rows]  # the m entries of row m + 1, one row per entry
            m = len(g)
            s = res[m]
            # g becomes a uniform point of the simplex {g >= 0, sum g = s}
            scale = g.sum(axis=0)
            np.divide(s, scale, out=scale)
            g *= scale
            res[:m] -= g
            w *= s ** (m - 1) / math.factorial(m - 1)
        # a sample is feasible iff no row's entry g_j exceeded residual_j,
        # i.e. no residual went negative at any row.  One test at the end
        # sees every such residual: each s stays in res[m], which later rows
        # never touch, and while every s >= 0 the residuals only fall
        return np.where((res >= 0.0).all(axis=0), w * _exact_volume_n4_rowsum(res[:4]), 0.0)

    return mc_mean(Sampler("standard_exponential", sum(range(4, n)), kernel), samples, seed)


def exact_volume(spec: DiagonalSpec) -> float | None:
    """The closed-form volume: the N=3 indicator, the N=4 formula, None above."""
    if spec.n == 3:
        return float(_exact_volume_n3_rowsum(spec.u))
    if spec.n == 4:
        return exact_volume_n4(spec)
    return None


def sampled_volume(spec: DiagonalSpec, samples: int, seed: int) -> tuple[float, float] | None:
    """(mean, stderr) of the Monte Carlo oracle for N; None at N=3 (a point).

    Hit-and-miss at N=4, the independent check of the N=4 formula; row
    peeling at N >= 5, where hit-and-miss hits too rarely (not once in 1e5
    samples at N=7, h=0.5).
    """
    if spec.n == 3:
        return None
    sampler = mc_volume if spec.n == 4 else mc_volume_peel
    return sampler(spec, samples, seed)


# ---------------------------------------------------------------------------
# asymptotic volume


def asymptotic_volume_rowsum(u) -> LogValue:
    """Asymptotic volume in row-sum variables u_j = 1 - h_j (log space).

    Homogeneous of degree N(N-3)/2: V(M u) = M^(N(N-3)/2) V(u).
    """
    u = [float(x) for x in u]
    n = len(u)
    big_s = sum(u)
    if big_s <= 0:
        raise ValueError("degenerate all-identity corner: sum u must be positive")
    c = [uj - big_s / n for uj in u]
    _, _, m2, m3, m4 = power_sums(c, 4)
    nm1 = n - 1.0
    ln = 0.5 * math.log(2.0) + 7.0 / 6.0
    ln += (n * (n - 1) // 2) * math.log(math.e * big_s / (n * nm1))
    ln += (n / 2.0) * math.log(n * nm1**2 / (2.0 * math.pi * big_s**2))
    ln += -(nm1**2 * (n + 2.0)) / (2.0 * big_s**2) * m2
    ln += (n * nm1**3) / (3.0 * big_s**3) * m3
    ln += -(n * nm1**4) / (4.0 * big_s**4) * m4
    ln += nm1**4 / (4.0 * big_s**4) * m2**2
    return LogValue(ln)


def asymptotic_volume(spec: DiagonalSpec) -> LogValue | None:
    """Asymptotic volume of the diagonal subpolytope, log space; None at chi = n."""
    if spec.chi >= spec.n:
        return None
    return asymptotic_volume_rowsum(spec.u)


def applicability_margin(spec: DiagonalSpec) -> float:
    """max_j N^(1/4) (N-1)/(N-chi) |h_j - chi/N|; small means trustworthy."""
    n = spec.n
    chi = spec.chi
    mean = chi / n
    return max(
        n**0.25 * (n - 1.0) / (n - chi) * abs(hj - mean) for hj in spec.h
    )
