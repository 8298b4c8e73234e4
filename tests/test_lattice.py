"""Provenance of numkit.KOROBOV_A: re-derive the lattice generator from its
integrand-free figure of merit.

For the rank-1 lattice with generator z = (1, a, a^2, ...) mod n, the
Korobov-space worst-case error of smoothness 2 with product weights
gamma_j (Sloan & Joe 1994, the criterion P_2) is

    P_2(a) = -1 + (1/n) sum_{k<n} prod_{j<d} (1 + gamma_j w(k z_j / n mod 1)),
    w(x) = 2 pi^2 (x^2 - x + 1/6),

here with gamma_j = 0.9^j (j = 1..d), n = LATTICE_POINTS and
d = LATTICE_MAX_DIM.  P_2 is even in a (w is even and (-a)^j = +-a^j), so
KOROBOV_A must be the minimiser over odd a, taken below n/2.

The direct sum costs n d operations per candidate, about 10 s for the
4096 odd a below n/2 in numpy on a 2-core host, so the search uses the
structure of n = 2^m.  Write k = 2^v u with u odd: then
k z_j / n mod 1 = (u a^j mod 2^(m-v)) / 2^(m-v), so each level v sums over
the odd residues u modulo n_v = 2^(m-v).  For n_v >= 8 every odd residue
is +-5^e (e < n_v/4) and w is even, so with a = +-5^c the level's sum is
2 sum_e prod_j g_j[(e + c j) mod n_v/4], g_j[e] = 1 + gamma_j w((5^e mod n_v) / n_v):
a product of rotated tables, one row per c.  Levels n_v = 4, 2 and k = 0
do not depend on a, and c = 0 .. n/4 - 1 covers every candidate once.
"""

import math

import numpy as np
import pytest

from qmm import numkit

WEIGHT_BASE = 0.9


def _w(x):
    return 2.0 * math.pi**2 * (x * x - x + 1.0 / 6.0)


def _gamma(d):
    return WEIGHT_BASE ** np.arange(1, d + 1)


def p2_direct(a: int, n: int, d: int) -> float:
    """P_2 of the generator a, summed over every lattice point."""
    k = np.arange(n)
    prod = np.ones(n)
    z = 1
    for gamma in _gamma(d):
        prod *= 1.0 + gamma * _w(k * z % n / n)
        z = z * a % n
    return float(prod.mean() - 1.0)


def p2_by_power_of_five(m: int, d: int) -> np.ndarray:
    """P_2 of the generator 5^c mod 2^m for c = 0 .. 2^(m-2) - 1 (m >= 3)."""
    n, count = 1 << m, 1 << (m - 2)
    gamma = _gamma(d)
    total = np.full(count, np.prod(1.0 + gamma * _w(0.0)))  # k = 0
    total += np.prod(1.0 + gamma * _w(0.5))  # n_v = 2
    total += 2.0 * np.prod(1.0 + gamma * _w(0.25))  # n_v = 4
    for mv in range(3, m + 1):
        nv, size = 1 << mv, 1 << (mv - 2)
        power = np.ones(size, dtype=np.int64)  # 5^e mod n_v
        for e in range(1, size):
            power[e] = power[e - 1] * 5 % nv
        # g_j twice over, so that every rotation is a contiguous slice
        tables = [np.tile(1.0 + g * _w(power / nv), 2) for g in gamma]
        level = np.empty(size)
        prod = np.empty(size)
        for c in range(size):
            np.copyto(prod, tables[0][:size])
            for j in range(1, d):
                start = c * j % size
                prod *= tables[j][start : start + size]
            level[c] = 2.0 * prod.sum()
        total += level[np.arange(count) % size]
    return total / n - 1.0


def test_generator_minimises_p2():
    n, d = numkit.LATTICE_POINTS, numkit.LATTICE_MAX_DIM
    m = n.bit_length() - 1
    assert n == 1 << m
    p2 = p2_by_power_of_five(m, d)
    best = int(np.argmin(p2))
    a = pow(5, best, n)
    assert min(a, n - a) == numkit.KOROBOV_A
    # a clear winner, not a tie broken by rounding
    assert np.partition(p2, 1)[1] > p2[best] * (1.0 + 1e-3)
    # the fast evaluation agrees with the direct sum, at the winner and elsewhere
    for c in (best, 0, 1, 1000, (n >> 2) - 1):
        a = pow(5, c, n)
        assert p2[c] == pytest.approx(p2_direct(a, n, d), rel=1e-10)
        assert p2[c] == pytest.approx(p2_direct(n - a, n, d), rel=1e-10)

