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

PEARCEY_CUTOFF = 12.0  # exp(-12^4) tail, far below any tolerance
BOUNDARY_TOL = 1e-9
K_SERIES_TERMS = 400  # at most; the k_n series stops once a term is 1e-30 of the sum


def _quad(f, lo, hi, what: str, **kw):
    """scipy's quad of f over [lo, hi]: its value, unless that value is not
    finite or a nonzero error estimate reaches |value| (ArithmeticError)."""
    from scipy.integrate import quad

    val, err = quad(f, lo, hi, **kw)
    if not cmath.isfinite(val):
        raise ArithmeticError(f"{what} is not finite")
    if err and abs(err) >= abs(val):
        raise ArithmeticError(f"{what}: error estimate {abs(err):.1e} >= |value| {abs(val):.1e}")
    return val


# ---------------------------------------------------------------------------
# Laplace method


def laplace_peak(f, interval: tuple[float, float], n: float) -> float:
    """e^(n f(x0)) sqrt(2 pi / (-n f''(x0))) at the interior maximum x0.

    The caller brackets the maximum; raises if the optimiser lands on the
    boundary or the curvature is not negative.
    """
    from scipy.optimize import minimize_scalar

    a, b = interval
    res = minimize_scalar(lambda t: -f(t), bounds=(a, b), method="bounded")
    x0 = float(res.x)
    span = b - a
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


def quartic_gauss_direct(a, b, c, d) -> complex:
    """Adaptive-quadrature oracle for the variant integrals (ArithmeticError
    when quad's value is not finite or not above its error estimate)."""
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    decay = max(b.real, 0.0) + max(d.real, 0.0)
    cutoff = 50.0 if decay < 0.1 else min(60.0, 12.0 / decay**0.25 + 20.0)

    def integrand(x):
        return cmath.exp(1j * a * x - b * x * x + 1j * c * x**3 - d * x**4)

    what = f"quartic-Gaussian quadrature at {(a, b, c, d)}"
    return complex(_quad(integrand, -cutoff, cutoff, what, limit=600, complex_func=True))


# ---------------------------------------------------------------------------
# k_n(mu) series


class SeriesLossError(Exception):
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
    """Direct quadrature of int_0^inf lam^(n-1/2) e^(-lam - lam^2/mu)
    (ArithmeticError when quad's error estimate reaches the value)."""
    if mu <= 0:
        return 0.0
    return _quad(lambda lam: lam ** (n - 0.5) * math.exp(-lam - lam * lam / mu), 0.0, np.inf,
                 f"k_n quadrature at n={n}, mu={mu}", limit=400)


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
    (-b, a).
    """
    disc = 8.0 * b**3 - 27.0 * a**2
    scale = max(1.0, abs(8.0 * b**3) + abs(27.0 * a**2))
    if abs(disc) <= BOUNDARY_TOL * scale:
        region = "caustic-boundary"
    elif b < 0 and abs(stokes_value(-b, a)) <= BOUNDARY_TOL * max(
        1.0, abs(13.5 * a * a) + abs(b**3 * (5 + math.sqrt(27.0)))
    ):
        region = "stokes-boundary"
    elif disc > 0:
        region = "one-contour"
    else:
        region = "two-contour"
    return PearceyPoint(region=region, discriminant=disc)


def _phase_derivative(a: float, b: float, lam: complex) -> complex:
    return 4.0 * lam**3 + 2.0 * b * lam + 1j * a


def pearcey_saddles(a: float, b: float) -> tuple[complex, ...]:
    """All three saddles of lam^4 + b lam^2 + i a lam: roots of 4 lam^3 + 2 b lam + i a.

    In the one-contour region all three lie on the imaginary axis.
    """
    return tuple(complex(z) for z in np.roots([4.0, 0.0, 2.0 * b, 1j * a]))


def pearcey_direct(a: float, b: float, k: int = 0) -> complex:
    """Adaptive quadrature of int lam^k exp(-(lam^4 + b lam^2 + i a lam)).

    The decaying-envelope form is absolutely convergent; the oscillation
    exp(-i a lam) is handled with weighted quadrature.  Real for even k,
    purely imaginary for odd k.  ArithmeticError when quad's value is not
    finite or not above its error estimate (large |a|).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("a and b must be finite")
    if k < 0:
        raise ValueError("k must be >= 0")
    env = lambda t: t**k * math.exp(-(t**4) - b * t * t)
    # QAWO's Chebyshev moments absorb the frequency: no limit that grows with |a|
    weight, sign = ("cos", 2.0) if k % 2 == 0 else ("sin", -2.0)
    val = sign * _quad(env, 0.0, PEARCEY_CUTOFF, f"Pearcey quadrature at a={a}, b={b}, k={k}",
                       weight=weight, wvar=a, limit=200)
    return complex(val, 0.0) if k % 2 == 0 else complex(0.0, val)


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
    closed form at high precision.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("a and b must be finite")
    if k < 0:
        raise ValueError("k must be >= 0")
    if pearcey_region(a, b).region != "one-contour":
        return None
    with mp.workdps(40):
        if k == 0:
            val = _middle_saddle_value(mp.mpf(a), mp.mpf(b))
        else:
            val = mp.diff(lambda t: _middle_saddle_value(t, mp.mpf(b)), mp.mpf(a), k)
        return (1j) ** k * complex(val)
