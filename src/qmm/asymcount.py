"""Asymptotic enumeration of zero-diagonal symmetric integer matrices.

Log-space evaluation of the full asymptotic product formula (prefactor,
exponential correction, four centered-moment exponentials), the explicit
lower-bound threshold E_alpha, and the coverage fraction of the validity
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .counting import RowSumSpec
from .numkit import LogValue, power_sums

DEFAULT_OMEGA = 0.1


@dataclass(frozen=True)
class AsymptoticCount:
    value: LogValue
    lam: float
    flagged: bool  # max_j |t_j - lam (N-1)| > lam N^(1/2 + omega)


def lambda_star(spec: RowSumSpec) -> float:
    """Average matrix entry x / (N(N-1)), the stationary contour radius."""
    if spec.x == 0:
        raise ValueError("degenerate spectrum: all row sums zero")
    return spec.x / (spec.n * (spec.n - 1))


def coverage_fraction(lam: float) -> float:
    """Asymptotic fraction exp(-1/(4 lam (lam+1))) of matrices covered."""
    if not 0.0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    return math.exp(-1.0 / (4.0 * lam * (lam + 1.0)))


def asymptotic_count(
    spec: RowSumSpec, lam: float | None = None, omega: float = DEFAULT_OMEGA
) -> AsymptoticCount:
    """Asymptotic number of matrices with the given row sums, in log space.

    lam defaults to the average matrix entry.  Inputs outside the validity
    window |t_j - lam(N-1)| <= lam N^(1/2+omega) are flagged, not rejected.
    """
    if lam is None:
        lam = lambda_star(spec)
    if not 0.0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    n = spec.n
    x = spec.x
    dev = [tj - lam * (n - 1) for tj in spec.t]
    _, _, y2, y3, y4 = power_sums(dev, 4)

    ll = lam * (lam + 1.0)
    ln = 0.5 * math.log(2.0)
    ln += (n * (n - 1) // 2) * math.log1p(lam)
    ln -= (n / 2.0) * math.log(2.0 * math.pi * ll * n)
    ln += (x / 2.0) * math.log1p(1.0 / lam)
    ln += (14.0 * lam**2 + 14.0 * lam - 1.0) / (12.0 * ll)
    ln += -y2 / (2.0 * ll * n)
    ln += -y2 / (ll * n**2)
    ln += (2.0 * lam + 1.0) * y3 / (6.0 * lam**2 * (lam + 1.0) ** 2 * n**2)
    ln += -(3.0 * lam**2 + 3.0 * lam + 1.0) * y4 / (12.0 * lam**3 * (lam + 1.0) ** 3 * n**3)
    ln += y2**2 / (4.0 * lam**2 * (lam + 1.0) ** 2 * n**4)

    return AsymptoticCount(
        value=LogValue(ln),
        lam=lam,
        flagged=max(abs(d) for d in dev) > lam * n ** (0.5 + omega),
    )


def lower_bound(spec: RowSumSpec, lambda_seq, alpha: float) -> LogValue:
    """The explicit accuracy threshold E_alpha, in log space.

    Below this value the asymptotic formula makes no claim.  lam is the
    mean of the per-row radii lambda_j.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    lams = [float(l) for l in lambda_seq]
    if len(lams) != spec.n:
        raise ValueError("need one lambda per row")
    if not all(0.0 < l < math.inf for l in lams):
        raise ValueError("lambda_j must be positive and finite")
    n = spec.n
    lam = sum(lams) / n

    ln = -(n / 2.0) * math.log(2.0 * math.pi * lam * (lam + 1.0) * n)
    for tj, lj in zip(spec.t, lams):
        ln += (tj / 2.0) * math.log1p(1.0 / lj)
    for k, l in combinations(range(n), 2):
        root = math.sqrt((1.0 + lams[k]) * (1.0 + lams[l]))
        ln += math.log(root / (root - math.sqrt(lams[k] * lams[l])))
    ln += (14.0 * lam**2 + 14.0 * lam - 1.0) / (12.0 * lam * (lam + 1.0))
    ln += -(n ** (1.0 - 2.0 * alpha))
    return LogValue(ln)
