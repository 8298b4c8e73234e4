"""Monic orthogonal polynomials: moment construction, quartic-weight tables.

Three-term recursion from raw moments, the forward string-equation
recursion for the quartic weight exp(-lambda^4) (run at 60 digits; the
float64 forward iteration leaves the bracketing band near m ~ 25), the
Gamma((2k+2l+1)/4) determinant cross-check, and the triangular
coefficient table of the even polynomials.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .detkit import _square_det

log = logging.getLogger(__name__)

QUARTIC_DPS = 60
QUARTIC_N_CAP = 64


@dataclass(frozen=True)
class OrthoTable:
    """Recursion data of a monic orthogonal family.

    alpha[m] multiplies P_{m-1} in P_m = (x - alpha_m) P_{m-1} - R_{m-1} P_{m-2}
    (1-based, alpha[0] unused); r[m] is R_m (r[0] unused); h[m] the squared
    norms with h[0] = rho_0.
    """

    degree: int
    alpha: tuple[float, ...]
    r: tuple[float, ...]
    h: tuple[float, ...]

    def polynomial_coeffs(self, m: int) -> np.ndarray:
        """Monomial coefficients of P_m, ascending order."""
        if m > self.degree:
            raise ValueError("table too short")
        p_prev = np.array([1.0])
        if m == 0:
            return p_prev
        p = np.array([-self.alpha[1], 1.0])
        for k in range(2, m + 1):
            shifted = np.concatenate(([0.0], p))
            padded = np.concatenate((p, [0.0]))
            nxt = shifted - self.alpha[k] * padded
            nxt[: len(p_prev)] -= self.r[k - 1] * p_prev
            p_prev, p = p, nxt
        return p


@dataclass(frozen=True)
class MomentSeq:
    """Raw moments rho_0 .. rho_{2n} of a weight / moment functional."""

    rho: tuple

    def hankel_det(self, k: int):
        """det(rho_{i+j})_{i,j=0..k}; exact for integer/Fraction moments."""
        if 2 * k >= len(self.rho):
            raise ValueError("not enough moments")
        return _square_det([[self.rho[i + j] for j in range(k + 1)] for i in range(k + 1)])


class QuasiDefiniteError(Exception):
    """Raised when a Hankel determinant vanishes."""


def ops_from_moments(moments: MomentSeq, n: int) -> OrthoTable:
    """Monic orthogonal family from moments by the three-term recursion.

    Inner products are evaluated from the moment functional on the
    polynomial coefficients; exact if the moments are Fractions.
    """
    rho = list(moments.rho)
    if len(rho) < 2 * n + 1:
        raise ValueError("need moments rho_0 .. rho_{2n}")
    exact = all(isinstance(r, (int, Fraction)) for r in rho)
    zero = Fraction(0) if exact else 0.0
    rho = [Fraction(r) if exact else float(r) for r in rho]

    def apply(coeffs_a, coeffs_b, shift=0):
        # l[x^shift * A(x) * B(x)]
        total = zero
        for i, a in enumerate(coeffs_a):
            if a == 0:
                continue
            for j, b in enumerate(coeffs_b):
                if b == 0:
                    continue
                total += a * b * rho[i + j + shift]
        return total

    p_prev = [zero + 1]
    h = [apply(p_prev, p_prev)]
    if h[0] == 0:
        raise QuasiDefiniteError("moment functional not quasi-definite")
    alpha: list = [zero]
    r: list = [zero]
    p = p_prev
    p_before: list = []
    for m in range(1, n + 1):
        a_m = apply(p, p, shift=1) / h[m - 1]
        alpha.append(a_m)
        # P_m = (x - a_m) P_{m-1} - R_{m-1} P_{m-2}
        nxt = [zero] * (m + 1)
        for i, c in enumerate(p):
            nxt[i + 1] += c
            nxt[i] -= a_m * c
        if m >= 2:
            r_m1 = h[m - 1] / h[m - 2]
            r.append(r_m1)
            for i, c in enumerate(p_before):
                nxt[i] -= r_m1 * c
        p_before, p = p, nxt
        hm = apply(p, p)
        if hm == 0:
            raise QuasiDefiniteError("moment functional not quasi-definite")
        h.append(hm)
    if n >= 1:
        r.append(h[n] / h[n - 1])
    return OrthoTable(
        degree=n,
        alpha=tuple(float(a) for a in alpha),
        r=tuple(float(x) for x in r),
        h=tuple(float(x) for x in h),
    )


def polynomial_from_moments(moments: MomentSeq, n: int):
    """Coefficients of P_n from the bordered Hankel determinant (ascending).

    The moment-determinant route, independent of the recursion; used as
    the uniqueness cross-check.  Exact if the moments are integers or
    Fractions.
    """
    rho = moments.rho
    if len(rho) < 2 * n:
        raise ValueError("need moments rho_0 .. rho_{2n-1}")
    d_prev = _square_det([[rho[i + j] for j in range(n)] for i in range(n)])
    minors = [
        [[rho[i + k] for k in range(n + 1) if k != j] for i in range(n)] for j in range(n + 1)
    ]
    return np.array([(-1) ** (n + j) * _square_det(m) / d_prev for j, m in enumerate(minors)])


# ---------------------------------------------------------------------------
# quartic weight exp(-lambda^4)


def quartic_moment(k: int) -> float:
    """Even moment rho_{2k} = Gamma((2k+1)/4)/2 of exp(-lambda^4)."""
    return 0.5 * math.gamma((2 * k + 1) / 4.0)


def quartic_r_sequence(n_max: int) -> OrthoTable:
    """R_m and h_m for the quartic weight by the forward string equation.

    m = 4 (R_{m+1} R_m + R_m^2 + R_m R_{m-1}) solved forward from
    R_1 = Gamma(3/4)/Gamma(1/4), h_0 = Gamma(1/4)/2.  Run in 60-digit
    arithmetic (the float64 forward recursion drifts out of the
    sqrt(m/12) band by m ~ 25).  The band is asserted for m >= 3 and only
    logged for m in {1, 2}: R_1 sits above the lower bound but R_2 =
    0.40168 lies below sqrt(2/12) = 0.40825, as the reference table itself
    shows.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > QUARTIC_N_CAP:
        raise ValueError(f"n_max capped at {QUARTIC_N_CAP}")
    with mp.workdps(QUARTIC_DPS):
        r = [mp.mpf(0), mp.gamma(mp.mpf(3) / 4) / mp.gamma(mp.mpf(1) / 4)]
        for m in range(1, n_max):
            nxt = m / (4 * r[m]) - r[m] - r[m - 1]
            if nxt <= 0:
                raise ArithmeticError(
                    f"forward recursion produced R_{m+1} <= 0 (accumulated error)"
                )
            r.append(nxt)
        h = [mp.gamma(mp.mpf(1) / 4) / 2]
        for m in range(1, n_max + 1):
            h.append(r[m] * h[m - 1])
        for m in range(1, n_max + 1):
            lo = mp.sqrt(mp.mpf(m) / 12)
            hi = lo * mp.exp(mp.mpf(1) / (4 * m * m))
            inside = lo < r[m] < hi
            if not inside:
                if m <= 2:
                    log.info(
                        "quartic R_%d = %s outside band (%s, %s); known boundary case",
                        m, mp.nstr(r[m], 8), mp.nstr(lo, 8), mp.nstr(hi, 8),
                    )
                else:
                    raise ArithmeticError(f"R_{m} left the bracketing band")
        return OrthoTable(
            degree=n_max,
            alpha=tuple(0.0 for _ in range(n_max + 1)),
            r=tuple(float(x) for x in r),
            h=tuple(float(x) for x in h),
        )


def gamma_quarter_det(n: int) -> tuple[float, float]:
    """det Gamma((2k+2l+1)/4), k,l = 0..n-1, computed two ways.

    Returns (direct dense determinant, 2^n prod h_{2m} via the quartic
    norms); the two must agree to 1e-8 relative.  High-precision
    determinant: the matrix is ill-conditioned already for moderate n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    table = quartic_r_sequence(max(2 * n, 2))
    with mp.workdps(max(30, 10 * n)):
        rows = [[mp.gamma(mp.mpf(2 * k + 2 * l + 1) / 4) for l in range(n)] for k in range(n)]
        direct = float(_square_det(rows))
    via_norms = float(2**n * np.prod([table.h[2 * t] for t in range(n)]))
    return direct, via_norms


def u_coefficients(n_max: int) -> np.ndarray:
    """Lower-triangular U with P_{2m}(x) = sum_k U[m,k] x^(2k).

    U[m,m] = 1 and U[m,k] = U[m-1,k-1] - (R_{2m-1}+R_{2m-2}) U[m-1,k]
    - R_{2m-2} R_{2m-3} U[m-2,k]; signs alternate as (-1)^(m+k).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    table = quartic_r_sequence(max(2 * n_max, 2))

    def rr(i: int) -> float:
        return table.r[i] if i >= 1 else 0.0

    u = np.zeros((n_max + 1, n_max + 1))
    u[0, 0] = 1.0
    for m in range(1, n_max + 1):
        u[m, m] = 1.0
        for k in range(m):
            prev_shift = u[m - 1, k - 1] if k >= 1 else 0.0
            two_back = u[m - 2, k] if m >= 2 else 0.0
            u[m, k] = (
                prev_shift
                - (rr(2 * m - 1) + rr(2 * m - 2)) * u[m - 1, k]
                - rr(2 * m - 2) * rr(2 * m - 3) * two_back
            )
    return u


def u_coefficient_bound(m: int, k: int) -> float:
    """Envelope binom(m+k, m-k) e^(pi^2/32) 12^((k-m)/2) sqrt((2m-1)!!/(2k-1)!!)."""
    dfac = lambda j: math.prod(range(j, 0, -2)) if j > 0 else 1
    return (
        math.comb(m + k, m - k)
        * math.exp(math.pi**2 / 32.0)
        * 12.0 ** ((k - m) / 2.0)
        * math.sqrt(dfac(2 * m - 1) / dfac(2 * k - 1))
    )
