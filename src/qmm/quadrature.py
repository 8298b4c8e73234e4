"""Saddle-point and oscillatory quadrature.

Laplace peak evaluation, the closed-form quartic-Gaussian saddle
expansions, the alternating series for the half-line quartic integrals
k_n(mu), and the real-parameter quartic-phase (Pearcey-type) integral
with saddle/contour classification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import numkit

BOUNDARY_TOL = 1e-9
K_SERIES_TERMS = 400  # at most; the k_n series stops once a term is 1e-30 of the sum
ENVELOPE_EXPONENT = 700.0  # e^-700 < 1e-304: the envelope's tail past L is below any value


def quartic_phase(k: int, a: float, b: float, c: float, d: float) -> complex:
    """I_k = int x^k exp(i a x - b x^2 + i c x^3 - d x^4) dx over the real line.

    The integrand g is entire, so the line may move to Im x = y: y is 0 or
    the imaginary part of a root of the phase derivative, on whichever line
    the maximum of |g| is smallest (the line through the dominant saddle
    cancels least).  For real parameters g(-t + iy) = (-1)^k conj g(t + iy),
    so the trapezoid rule sums 2 Re g (2 Im g for odd k) over t in
    [0, L + |r|], b L^2 + d L^4 = 700 and r the farthest root on the line
    (r = 0 on the real line), and I_k is real (imaginary for odd k).  The
    samples are scaled by the maximum of |g| on the line, so the rule
    neither overflows nor underflows before the value does.  The
    error estimate is the rule's, floored at the rounding of each sample's
    exponent.  ArithmeticError when the phase is not finite at L, or the
    value is not finite or underflows, or the error estimate reaches
    |value|; a sum that vanishes at every node is an exact 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not (d >= 0 and (b > 0 or d > 0)):
        raise ValueError("need d >= 0 and b > 0 or d > 0 for convergence")
    # L^2 is the positive root of d y^2 + b y = 700, in the form that does not cancel
    rt = math.hypot(b, 2.0 * math.sqrt(d * ENVELOPE_EXPONENT))
    lim = math.sqrt(2.0 * ENVELOPE_EXPONENT / (b + rt) if b > 0 else (rt - b) / (2.0 * d))
    what = f"quartic-phase quadrature I_{k} at (a, b, c, d) = ({a}, {b}, {c}, {d})"
    if not math.isfinite(abs(a) * lim + abs(c) * lim**3):
        raise ArithmeticError(f"{what}: phase is not finite at x = {lim:.3g}")

    def log_g(t, y):
        x = t + 1j * y
        with np.errstate(divide="ignore"):  # log 0 at x = 0 gives g = 0
            power = k * np.log(np.abs(x)) + 1j * k * np.angle(x) if k else 0.0
        return power + x * (1j * a + x * (-b + x * (1j * c - d * x)))

    # each line's range runs |root| past L, so that it covers its saddles;
    # with d = 0 the integrand keeps decaying on a line only while b + 3 c y > 0
    reach = {0.0: 0.0}
    for r in np.roots([-4.0 * d, 3j * c, -2.0 * b, 1j * a]):
        y = float(r.imag)
        if y and (d > 0 or b + 3.0 * c * y > 0):
            reach[y] = max(reach.get(y, 0.0), abs(r))
    lines = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for y, past in reach.items():
            t = np.linspace(0.0, lim + past, 257)
            envelope = log_g(t, y).real
            peak = float(np.max(envelope))
            # a shifted line counts only if |g| has fallen e^-40 below its peak by the end
            if y == 0.0 or peak < math.inf and envelope[-1] < min(peak - 40.0, envelope[-2]):
                lines[y] = (peak, t, envelope)
    y = min(lines, key=lambda y: lines[y][0])
    shift, t, envelope = lines[y]
    take = np.real if k % 2 == 0 else np.imag
    step = min(0.25 / math.sqrt(abs(b) + 6.0 * math.sqrt(d) + 6.0 * abs(c) ** (2.0 / 3.0)),
               2.0 / (abs(a) + 1.0))
    try:
        val, err = numkit.trapezoid(lambda t: 2.0 * take(np.exp(log_g(t, y) - shift)),
                                    step, lim + reach[y])
    except ArithmeticError as exc:
        raise ArithmeticError(f"{what}: {exc}") from None
    if not err:  # every sample is 0
        return 0j
    # a sample's exponent carries about eps times its largest term as an absolute
    # error: that much relative error, integrated over the envelope
    x = np.abs(t + 1j * y)
    terms = 1.0 + abs(shift) + x * (abs(a) + x * (abs(b) + x * (abs(c) + d * x)))
    rounding = 16.0 * np.finfo(float).eps * t[1] * np.sum(np.exp(envelope - shift) * terms)
    err = max(err, float(rounding))
    with np.errstate(over="ignore", under="ignore"):
        val, err = float(val * np.exp(shift)), float(err * np.exp(shift))
    if not math.isfinite(val):
        raise ArithmeticError(f"{what} is not finite")
    if val == 0.0:
        raise ArithmeticError(f"{what} underflows to 0")
    if err >= abs(val):
        raise ArithmeticError(f"{what}: error estimate {err:.1e} >= |value| {abs(val):.1e}")
    return complex(val, 0.0) if k % 2 == 0 else complex(0.0, val)


# ---------------------------------------------------------------------------
# Laplace method


def laplace_peak(f, interval: tuple[float, float], n: float) -> float:
    """e^(n f(x0)) sqrt(2 pi / (-n f''(x0))) at the interior maximum x0.

    The caller brackets the maximum, which a golden-section search finds;
    raises if the search lands on the boundary or the curvature is not
    negative.
    """
    a, b = interval
    span = b - a
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, b
    x1, x2 = hi - shrink * span, lo + shrink * span
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-13 * span:
        if f1 < f2:  # the maximum is right of x1
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = f(x1)
    x0 = 0.5 * (lo + hi)
    if min(x0 - a, b - x0) < 1e-4 * span:
        raise ValueError("no interior maximum found in the bracket")
    step = 1e-5 * max(1.0, abs(x0))
    f2 = (f(x0 + step) - 2.0 * f(x0) + f(x0 - step)) / step**2
    if not f2 < 0:
        raise ValueError("second derivative at the maximum must be negative")
    return math.exp(n * f(x0)) * math.sqrt(2.0 * math.pi / (-n * f2))


# ---------------------------------------------------------------------------
# quartic-Gaussian saddle expansions


def quartic_gauss_saddle(a, b, c, d, variant: int) -> complex:
    """Closed-form saddle expansion of int exp(i a x - b x^2 + i c x^3 - d x^4).

    variant 1: direct expansion around the Gaussian point (a of order 1);
    variant 2: cubic phase only (d ignored), completed square at the root r;
    variant 3: full quartic with the shifted cubic root s.  Parameter-scale
    assumptions are the caller's business (advisory).
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    d = complex(d)
    if b.real <= 0:
        raise ValueError("need Re(b) > 0 for convergence")
    if d.real < 0:
        raise ValueError("need Re(d) >= 0 for convergence")
    if variant == 1:
        pref = cmath.sqrt(cmath.pi / b) * cmath.exp(-(a**2) / (4 * b))
        e1 = cmath.exp(
            c * a**3 / (8 * b**3) - d * a**4 / (16 * b**4) - 9 * c**2 * a**4 / (64 * b**5)
        )
        e2 = cmath.exp(
            -3 * a * c / (4 * b**2) + 9 * a**2 * c**2 / (8 * b**4) + 3 * a**2 * d / (4 * b**3)
        )
        e3 = cmath.exp(-3 * d / (4 * b**2) - 15 * c**2 / (16 * b**3))
        return pref * e1 * e2 * e3
    if variant == 2:
        if c == 0:
            raise ValueError("variant 2 needs c != 0")
        # the quadratic's branch nearest the Gaussian point, finite as c -> 0
        r = saddle_shift_root(a, b, c, 0)
        bp = -b - 1j * a / r
        return (
            cmath.exp(bp * r**2 - 1j * c * r**3)
            * cmath.sqrt(cmath.pi / bp)
            * cmath.exp(-15 * c**2 / (16 * bp**3))
        )
    if variant == 3:
        if d == 0:
            raise ValueError("variant 3 needs d != 0")
        s = saddle_shift_root(a, b, c, d)
        bp = (4 * d * s**3 + 1.5j * c * s**2 - 0.5j * a) / s
        cp = c - 4j * d * s
        return (
            cmath.exp(bp * s**2 - 1j * cp * s**3 + d * s**4)
            * cmath.sqrt(cmath.pi / bp)
            * cmath.exp(-15 * cp**2 / (16 * bp**3) - 3 * d / (4 * bp**2))
        )
    raise ValueError("variant must be 1, 2 or 3")


def saddle_shift_root(a, b, c, d) -> complex:
    """Root of 0 = i a + 2 b s + 3 i c s^2 + 4 d s^3 nearest -i a / (2b)."""
    roots = np.roots([4 * complex(d), 3j * complex(c), 2 * complex(b), 1j * complex(a)])
    target = -1j * complex(a) / (2 * complex(b))
    return complex(min(roots, key=lambda z: abs(z - target)))


# ---------------------------------------------------------------------------
# k_n(mu) series


class SeriesLossError(ArithmeticError):
    """Raised when the alternating series cancels away too many digits."""


def k_series(n: int, mu: float) -> float:
    """k_n(mu) = (1/2) mu^((2n+1)/4) sum_k (-sqrt(mu))^k/k! Gamma((2(n+k)+1)/4).

    Equals int_0^inf lam^(n-1/2) exp(-lam - lam^2/mu) dlam.  Raises once
    the alternating cancellation eats more than 8 digits (large mu):
    switch to quadrature there.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if mu == 0.0:
        return 0.0
    sq = math.sqrt(mu)
    total = 0.0
    largest = 0.0
    for k in range(K_SERIES_TERMS):
        term = (-sq) ** k * math.exp(math.lgamma((2 * (n + k) + 1) / 4.0) - math.lgamma(k + 1))
        total += term
        largest = max(largest, abs(term))
        if k > 10 and abs(term) < 1e-30 * max(abs(total), 1e-300):
            break
    if total == 0.0 or largest / abs(total) > 1e8:
        raise SeriesLossError("use quadrature branch: series cancellation exceeds 8 digits")
    return 0.5 * mu ** ((2 * n + 1) / 4.0) * total


def k_quadrature(n: int, mu: float) -> float:
    """Quadrature of int_0^inf lam^(n-1/2) e^(-lam - lam^2/mu): lam = s^2 makes
    it the even-moment integral over the real line."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    return quartic_phase(2 * n, 0.0, 1.0, 0.0, 1.0 / mu).real if mu else 0.0


# ---------------------------------------------------------------------------
# real-parameter quartic phase (Pearcey-type)


@dataclass(frozen=True)
class PearceyPoint:
    region: str  # one-contour | two-contour | caustic-boundary | stokes-boundary
    discriminant: float  # 8 b^3 - 27 a^2


def stokes_value(x: float, y: float) -> float:
    """(27/2) y^2 - x^3 (5 + sqrt 27); 0 on the Stokes line (x > 0 side)."""
    return 13.5 * y * y - x**3 * (5.0 + math.sqrt(27.0))


def pearcey_region(a: float, b: float) -> PearceyPoint:
    """Classify (a, b) of exp(-(lam^4 + b lam^2 + i a lam)).

    8 b^3 > 27 a^2: three saddles on the imaginary axis, one descent
    contour.  8 b^3 < 27 a^2: one axis saddle, two contours.  Equality is
    the saddle-coalescence (caustic-type) boundary; the Stokes locus shows
    up on the b < 0 side in the oscillatory-form coordinates (x, y) =
    (-b, a).  Both tests are homogeneous of degree 3 in
    s = max(|a|^(2/3), |b|), so they run on (a, b) scaled to s = 1, where
    nothing overflows; the reported discriminant is +-inf past float range.
    """
    s = max(abs(a) ** (2.0 / 3.0), abs(b)) or 1.0
    x, y = b / s, a / s / math.sqrt(s)
    cube = s * s * s

    def within(value, size):
        # |value| s^3 <= BOUNDARY_TOL max(1, size s^3); s^3 may be inf, and no term overflows
        return abs(value) <= BOUNDARY_TOL * size or abs(value) * cube <= BOUNDARY_TOL

    disc = 8.0 * x**3 - 27.0 * y * y
    if within(disc, 8.0 * abs(x) ** 3 + 27.0 * y * y):
        region = "caustic-boundary"
    elif b < 0 and within(stokes_value(-x, y), 13.5 * y * y + abs(x) ** 3 * (5 + math.sqrt(27.0))):
        region = "stokes-boundary"
    elif disc > 0:
        region = "one-contour"
    else:
        region = "two-contour"
    return PearceyPoint(region=region, discriminant=disc * cube if disc else 0.0)


def pearcey_saddles(a: float, b: float) -> tuple[complex, ...]:
    """All three saddles of lam^4 + b lam^2 + i a lam: roots of 4 lam^3 + 2 b lam + i a.

    In the one-contour region all three lie on the imaginary axis.
    """
    return tuple(complex(z) for z in np.roots([4.0, 0.0, 2.0 * b, 1j * a]))


def pearcey_direct(a: float, b: float, k: int = 0) -> complex:
    """Quadrature of int lam^k exp(-(lam^4 + b lam^2 + i a lam)): real for
    even k, purely imaginary for odd k."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("a and b must be finite")
    return quartic_phase(k, -a, b, 0.0, 1.0)


def _middle_saddle_value(a, b):
    """exp-form middle-saddle approximation, mpmath scalars for a, b."""
    phi = mp.acos(27 * a / (6 * b) ** mp.mpf(1.5)) / 3
    x2 = 2 * mp.sqrt(b / 6) * mp.cos(4 * mp.pi / 3 + phi)
    return mp.sqrt(mp.pi / (b - 6 * x2**2)) * mp.exp(b / 2 * x2**2 + 3 * a / 4 * x2)


def pearcey_saddle(a: float, b: float, k: int = 0) -> complex | None:
    """Middle-saddle approximation, extended to k >= 1 by (i d/da)^k.

    Defined strictly inside the one-contour region (three distinct axis
    saddles) and None everywhere else: the middle saddle is absent in the
    two-contour region, and on the coalescence boundary the Gaussian
    curvature b - 6 x2^2 vanishes.  The derivatives are taken of the full
    closed form at high precision.  The value varies with a on the scale
    sqrt(b), and the terms of its exponent reach b^2 before they cancel, so
    the working precision grows by 2 digits per decade of b and the
    derivatives' step is sqrt(b) times the default.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("a and b must be finite")
    if k < 0:
        raise ValueError("k must be >= 0")
    if pearcey_region(a, b).region != "one-contour":
        return None
    with mp.workdps(40 + 2 * max(0, math.ceil(math.log10(b)))):
        # mp.diff at k = 0 is the function value itself
        step = mp.ldexp(max(1, mp.sqrt(b)), -mp.mp.prec - 10)
        val = mp.diff(lambda t: _middle_saddle_value(t, mp.mpf(b)), mp.mpf(a), k, h=step)
        return (1j) ** k * complex(val)
