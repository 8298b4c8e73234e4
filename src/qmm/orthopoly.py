"""Monic orthogonal polynomials: moment construction, quartic-weight tables.

Chebyshev's algorithm from raw moments, the forward string-equation
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
    """Monic orthogonal family from moments by Chebyshev's algorithm.

    With L the moment functional, sigma_{m,l} = L(x^l P_m) starts from the
    moment row sigma_{0,l} = rho_l and follows sigma_{m,l} = sigma_{m-1,l+1}
    - alpha_m sigma_{m-1,l} - R_{m-1} sigma_{m-2,l} (Gautschi 2004, sec.
    2.1.7): h_m = sigma_{m,m}, R_m = h_m / h_{m-1} and alpha_{m+1} =
    sigma_{m,m+1}/h_m - sigma_{m-1,m}/h_{m-1}.  Entries keep their field
    (ints become Fractions; Fractions, floats and mpmath numbers pass
    through), so the table is exact for rational moments and carries the
    working precision for mpmath ones; it is rounded to float on return.
    """
    if len(moments.rho) < 2 * n + 1:
        raise ValueError("need moments rho_0 .. rho_{2n}")
    row = [Fraction(x) if isinstance(x, int) else x for x in moments.rho[: 2 * n + 1]]
    # at step m: row = sigma_{m,.}, older = sigma_{m-1,.}, shift = sigma_{m-1,m} / h_{m-1}
    older = [0] * len(row)
    alpha, r, h = [0], [0], [row[0]]
    shift = 0
    for m in range(n + 1):
        if h[m] == 0:
            raise QuasiDefiniteError("moment functional not quasi-definite")
        if m == n:
            break
        ratio = row[m + 1] / h[m]
        alpha.append(ratio - shift)
        shift = ratio
        older, row = row, [row[l + 1] - alpha[m + 1] * row[l] - r[m] * older[l]
                           for l in range(len(row) - 1)]
        h.append(row[m + 1])
        r.append(h[m + 1] / h[m])
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
    d_prev = moments.hankel_det(n - 1)
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
        gammas = MomentSeq(tuple(mp.gamma(mp.mpf(2 * j + 1) / 4) for j in range(2 * n - 1)))
        direct = float(gammas.hankel_det(n - 1))
    via_norms = float(2**n * np.prod([table.h[2 * t] for t in range(n)]))
    return direct, via_norms


def u_coefficients(n_max: int) -> np.ndarray:
    """Lower-triangular U with P_{2m}(x) = sum_k U[m,k] x^(2k).

    Row m is the even half of the recursion's P_{2m}; U[m,m] = 1 and the
    signs alternate as (-1)^(m+k).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    table = quartic_r_sequence(max(2 * n_max, 2))
    u = np.zeros((n_max + 1, n_max + 1))
    for m in range(n_max + 1):
        u[m, : m + 1] = table.polynomial_coeffs(2 * m)[0::2]
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
