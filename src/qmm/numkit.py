"""Shared asymptotic, combinatorial and Monte Carlo utilities.

Log-space numbers, Stirling approximations, the Lambert-W truncation
bound, distinct-part partition counts, power sums, the symmetric
pole-sum functions F and G (checked by the tests against written-out
sums; no other module calls them), and the seeded Monte Carlo mean that
every sampler runs through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np


# ---------------------------------------------------------------------------
# log-space values


@dataclass(frozen=True)
class LogValue:
    """A positive real number stored as its logarithm.

    Large products like (1+lambda)^binom(N,2) overflow floats well before
    the final ratios of interest do; all formula evaluators therefore
    return LogValue.
    """

    log_abs: float

    @property
    def value(self) -> float:
        """Float value; inf on overflow."""
        try:
            return math.exp(self.log_abs)
        except OverflowError:
            return float("inf")


# ---------------------------------------------------------------------------
# seeded Monte Carlo

#: samples drawn per batch; the seeded outputs depend on it
MC_BATCH = 1 << 16


def mc_mean(batch, samples: int, seed: int) -> tuple[float, float]:
    """Seeded Monte Carlo mean of per-sample weights, as (mean, stderr).

    batch(rng, m) returns the m weights of the next batch, drawn from the
    one generator default_rng(seed); batches hold MC_BATCH samples except
    the last.  stderr is sqrt((E[w^2] - E[w]^2) / samples).
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(MC_BATCH, samples - done)
        done += m
        w = batch(rng, m)
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


# ---------------------------------------------------------------------------
# Stirling and the truncation bound


def stirling_ln_factorial(n: int, order: int = 1) -> float:
    """ln of the Stirling approximation of n!.

    order=0 is the bare sqrt(2 pi n) n^n e^-n form, order=1 multiplies by
    (1 + 1/(12n)).  n = 0 returns ln(0!) = 0.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    ln = 0.5 * math.log(2 * math.pi * n) + n * math.log(n) - n
    if order == 1:
        ln += math.log1p(1.0 / (12 * n))
    return ln


def lambert_w(x: float) -> float:
    """Principal branch of w e^w = x for x >= 0."""
    if x < 0:
        raise ValueError("lambert_w implemented for x >= 0 only")
    return float(mp.lambertw(x))


#: gamma threshold below which the n-term Taylor truncation of exp(-gamma n)
#: improves with n; W_L(1/e) ~ 0.2785.
TRUNCATION_GAMMA_STAR = lambert_w(math.exp(-1.0))


def taylor_truncation_bound(gamma: float, n: int) -> float:
    """Relative-error bound (gamma n / 2pi)^(1/2) (gamma e^(1+gamma))^n.

    Tends to 0 with n iff gamma < TRUNCATION_GAMMA_STAR.  Evaluated in log
    space; returns inf on overflow.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if gamma == 0:
        return 0.0
    ln = 0.5 * math.log(gamma * n / (2 * math.pi)) + n * (math.log(gamma) + 1.0 + gamma)
    try:
        return math.exp(ln)
    except OverflowError:
        return float("inf")


# ---------------------------------------------------------------------------
# distinct-part partition counts


def distinct_partition_count(m: int, n: int) -> int:
    """Number of ways to write n as a sum of m distinct non-negative integers.

    Satisfies p_m(n) = p_{m-1}(n-m+1) + p_m(n-m); zero below the minimal
    sum binom(m,2).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        return 0
    table: dict[tuple[int, int], int] = {}

    def rec(mm: int, nn: int) -> int:
        if nn < mm * (mm - 1) // 2:
            return 0
        if mm == 1:
            return 1
        key = (mm, nn)
        v = table.get(key)
        if v is None:
            v = rec(mm - 1, nn - mm + 1) + rec(mm, nn - mm)
            table[key] = v
        return v

    return rec(m, n)


def distinct_partition_bound(m: int, n: int) -> float:
    """The bound alpha_m 2^(n - binom(m,2)) with alpha_m = prod 1/(1-2^-t)."""
    alpha = 1.0
    for t in range(1, m + 1):
        alpha /= 1.0 - 2.0 ** (-t)
    return alpha * 2.0 ** (n - m * (m - 1) // 2)


@dataclass(frozen=True)
class PartitionTable:
    """Precomputed p_m(n) for 1 <= m <= max_m, 0 <= n <= max_n."""

    max_m: int
    max_n: int
    values: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, max_m: int, max_n: int) -> "PartitionTable":
        rows = tuple(
            tuple(distinct_partition_count(m, n) for n in range(max_n + 1))
            for m in range(1, max_m + 1)
        )
        return cls(max_m, max_n, rows)

    def __call__(self, m: int, n: int) -> int:
        return self.values[m - 1][n]


# ---------------------------------------------------------------------------
# power sums and symmetric pole sums


def power_sums(vals, upto: int) -> list[float]:
    """[sum v^k for v in vals] for k = 0..upto, each summed in input order."""
    return [sum(v**k for v in vals) for k in range(upto + 1)]


def symmetric_pole_sum(kind: str, p: int, x, z=None):
    """F_{n,p} and G_{n,p} pole sums over distinct nodes.

    F: sum_k x_k^p prod_{t!=k} 1/(x_t - x_k); vanishes for p <= n-2 and
    equals (-1)^(n-1) at p = n-1.  G: same with extra (x_t - z) factors in
    the numerator; G_{n,0} = 1.  Exact when given Fraction nodes.
    """
    x = list(x)
    n = len(x)
    if p < 0:
        raise ValueError("p must be >= 0")
    for i, j in combinations(range(n), 2):
        if x[i] == x[j]:
            raise ValueError("degenerate nodes")
    if kind not in ("F", "G"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "G" and z is None:
        raise ValueError("G requires the shift z")
    total = 0
    for k in range(n):
        term = x[k] ** p
        for t in range(n):
            if t != k:
                term = (term if kind == "F" else term * (x[t] - z)) / (x[t] - x[k])
        total = total + term
    return total


def complete_homogeneous(m: int, x) -> Fraction:
    """Complete homogeneous symmetric polynomial h_m(x), exact."""
    x = list(x)
    n = len(x)
    # h_m via Newton-free DP over variables
    table = [Fraction(0)] * (m + 1)
    table[0] = Fraction(1)
    for xi in x:
        for d in range(1, m + 1):
            table[d] = table[d] + xi * table[d - 1]
    return table[m]


def factorial_composition_identity(n: int) -> Fraction:
    """Nested alternating sum over compositions of n; equals 1/n! exactly.

    C_n = sum_m (-1)^(m+n) sum_{mu_1+..+mu_m = n, mu_i >= 1} prod 1/mu_i!.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction(0)

    def rec(remaining: int, m: int, prod: Fraction):
        nonlocal total
        if remaining == 0:
            total += Fraction(-1) ** (m + n) * prod
            return
        for mu in range(1, remaining + 1):
            rec(remaining - mu, m + 1, prod / math.factorial(mu))

    rec(n, 0, Fraction(1))
    return total
