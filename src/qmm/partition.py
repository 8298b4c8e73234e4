"""Partition-function evaluators for the quartic Hermitian matrix model.

Closed forms (free, weak-coupling, zero-kinetics), the eigenvalue-reduced
integrand whose integral over R^N is Z (the collision-safe det form, or
the exact Delta^2 form at a coincident spectrum) with its N = 2
trapezoid oracle, Monte-Carlo cross-checks over matrices and over
eigenvalues (each a numkit.Sampler that numkit.mc_mean and
numkit.rqmc_mean run) and over U(2), the unitary-group integral for
coupled quadratic traces, and the two free-theory expansion routes whose
controlled disagreement is itself a deliverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .detkit import det_rows, exp_kernel_ratio, vandermonde_det
from .numkit import LogValue, Sampler, mc_mean, power_sums, trapezoid
from .orthopoly import quartic_r_sequence

_COLLISION_RTOL = 1e-8
MATRIX_MC_MAX_N = 4  # z_mc_matrix samples N^2 real components


@dataclass(frozen=True)
class KineticSpectrum:
    """Positive eigenvalues of the kinetic matrix plus the quartic coupling."""

    n: int
    e: tuple[float, ...]
    g: float = 0.0

    def __post_init__(self):
        if self.n < 1 or len(self.e) != self.n:
            raise ValueError("need one positive eigenvalue per index")
        # written so that nan fails too
        if not all(0 < ej < math.inf for ej in self.e):
            raise ValueError("kinetic eigenvalues must be positive")
        if not 0 <= self.g < math.inf:
            raise ValueError("coupling must be >= 0")
        object.__setattr__(self, "e", tuple(float(x) for x in self.e))

    @property
    def xi(self) -> float:
        """Mean eigenvalue."""
        return sum(self.e) / self.n

    @property
    def eps_tilde(self) -> tuple[float, ...]:
        """Relative deviations e_j/xi - 1; they sum to zero up to rounding."""
        xi = self.xi
        return tuple(ej / xi - 1.0 for ej in self.e)


def _log_u(n: int) -> float:
    """ln U with U = pi^binom(N,2) / prod_{m<=N} m!, the constant of the Delta^2 form."""
    return (n * (n - 1) // 2) * math.log(math.pi) - sum(math.lgamma(m + 1) for m in range(n + 1))


def _coupling_exponent(spec: KineticSpectrum) -> float:
    """sum 3g/(4 e_m^2) of the weak-coupling forms; e_m^2 itself may underflow."""
    return sum(0.75 * spec.g / em / em for em in spec.e)


def z_free(spec: KineticSpectrum) -> LogValue:
    """Free partition function prod sqrt(pi/e_k) prod_{k<l} pi/(e_k+e_l)."""
    e = spec.e
    ln = sum(0.5 * math.log(math.pi / ek) for ek in e)
    for k, l in combinations(range(spec.n), 2):
        ln += math.log(math.pi / (e[k] + e[l]))
    return LogValue(ln)


def z_weak(spec: KineticSpectrum) -> LogValue | None:
    """Weak-coupling closed form, exactly as printed.

    sqrt((N-1)/N) prod(sqrt(pi/e_m) e_m^(1-N)) (pi N / (2 sum 1/e))^binom(N,2)
    exp(-sum 3g/(4 e_m^2)).  Carries a residual sqrt((N-1)/N) against
    z_free at the symmetric spectrum; see z_weak_expanded and the verify
    report, which surface that constant rather than absorb it.  None at N = 1.
    """
    n = spec.n
    if n < 2:
        return None
    e = spec.e
    inv_sum = sum(1.0 / em for em in e)
    ln = 0.5 * math.log((n - 1) / n)
    for em in e:
        ln += 0.5 * math.log(math.pi / em) + (1 - n) * math.log(em)
    ln += (n * (n - 1) // 2) * math.log(math.pi * n / (2.0 * inv_sum))
    ln -= _coupling_exponent(spec)
    return LogValue(ln)


def z_weak_expanded(spec: KineticSpectrum) -> LogValue | None:
    """Relative-deviation expansion of the weak-coupling form, as printed.

    It drops z_weak's sqrt((N-1)/N) constant, so it normalises to z_free at
    the symmetric spectrum; adding 0.5 log((N-1)/N) gives a true expansion
    of z_weak (log-agreement ~1e-11 at |eps| <= 0.01).  None at N = 1.
    """
    n = spec.n
    if n < 2:
        return None
    xi = spec.xi
    eps = spec.eps_tilde
    _, _, s2, s3, s4, s5, s6 = power_sums(eps, 6)
    ln = sum(0.5 * math.log(math.pi / em) for em in spec.e)
    ln += (n * (n - 1) // 2) * math.log(math.pi / (2.0 * xi))
    ln -= _coupling_exponent(spec)
    ln += (n - 1) / 6.0 * s3 - (n - 1) / 4.0 * s4
    ln += 3.0 * (n - 1) / 10.0 * s5 - (n - 1) / 3.0 * s6
    ln += (n - 1) / (4.0 * n) * s2 * s2 - 0.5 * s2 * s3 + 0.5 * s2 * s4
    ln += 0.25 * s3 * s3 - s2**3 / (6.0 * n)
    return LogValue(ln)


def z_zero_kinetic(n: int, g: float) -> LogValue | None:
    """Zero-kinetics partition: U g^(-N^2/4) N! prod_{t<N} h_t.

    h_t are the quartic-weight norms; U = pi^binom(N,2)/prod_{m<=N} m!; None at g = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if g < 0:
        raise ValueError("coupling must be >= 0")
    if g == 0:
        return None
    table = quartic_r_sequence(n)
    ln = _log_u(n)
    ln += -(n * n / 4.0) * math.log(g)
    ln += math.lgamma(n + 1)
    ln += sum(math.log(table.h[t]) for t in range(n))
    return LogValue(ln)


# ---------------------------------------------------------------------------
# eigenvalue integrand and Monte Carlo


def eigen_integrand(spec: KineticSpectrum, cols):
    """The eigenvalue-reduced integrand, whose integral over R^N is Z.

    Distinct e: (-1)^b pi^b / N! Delta(lam) det(exp(-e_k lam_l^2)) e^<quartic>
    / (prod(lam_m+lam_n) Delta(e)), b = binom(N,2), finite everywhere: at
    lam_m + lam_n = 0 the determinant's compensating zero is taken
    analytically (derivative column).  All e equal: the exact form
    U Delta(lam)^2 exp(-e sum lam^2) e^<quartic>; partly equal: ValueError.
    cols holds one entry per eigenvalue lam_l, floats or arrays of one
    shape; the result has that shape (a float for one point).
    """
    n = spec.n
    if len(cols) != n:
        raise ValueError("need one eigenvalue per index")
    sq = [c * c for c in cols]
    if len(set(spec.e)) == 1:
        vdm = vandermonde_det(cols)
        return vdm * vdm * np.exp(_log_u(n) - spec.e[0] * sum(sq) - spec.g * sum(s * s for s in sq))
    de = vandermonde_det(spec.e)
    if de == 0.0:
        raise ValueError("kinetic eigenvalues must be distinct for the det form")
    # the constant (-1)^b pi^b / N! joins the scalar divisor
    de *= math.factorial(n) / (-math.pi) ** (n * (n - 1) // 2)
    tol = _COLLISION_RTOL * reduce(np.maximum, map(np.abs, cols), 1.0)
    # the kernel transposed, one row per eigenvalue: row l is exp(-e_k lam_l^2)
    mat = [[np.exp(-ek * s) for ek in spec.e] for s in sq]
    denom = 1.0
    for nn in range(1, n):
        hit = None
        for m in range(nn):
            s = cols[m] + cols[nn]
            pole = np.abs(s) < tol
            if pole.any():  # the where terms only where a pole fires
                s = np.where(pole, 1.0, s)
                hit = pole if hit is None else hit | pole
            denom = denom * s
        if hit is not None:
            # limit of row nn paired with a 1/(lam_m + lam_nn) pole
            mat[nn] = [np.where(hit, -2.0 * ek * cols[nn] * x, x)
                       for ek, x in zip(spec.e, mat[nn])]
    det = det_rows(mat)  # before the other factors: its work space sets the peak
    gauss = np.exp(-spec.g * sum(s * s for s in sq))
    return vandermonde_det(cols) * det * gauss / (denom * de)


def z_quad_n2(spec: KineticSpectrum) -> tuple[float, float]:
    """N = 2 partition function by the trapezoid rule, as (value, abserr).

    A deterministic oracle for the samplers: the integral of
    eigen_integrand over R^2, at distinct and at coincident spectra.  The
    integrand is even under lam -> -lam, so numkit.trapezoid sums
    2 (f(s, t) + f(s, -t)) over the quarter plane s, t >= 0, halving the
    step from 0.4, out to sqrt(37 / c) per axis with c = min(e) + sqrt(g),
    which tracks the integrand's decay from weak to strong coupling;
    abserr is the rule's step-halving estimate.
    """
    if spec.n != 2:
        raise ValueError("quadrature oracle implemented for N = 2")
    c = min(spec.e) + math.sqrt(spec.g)

    def folded(s, t):
        return 2.0 * (eigen_integrand(spec, [s, t]) + eigen_integrand(spec, [s, -t]))

    value, err = trapezoid(folded, 0.4, math.sqrt(37.0 / c), dim=2)
    return float(value), float(err)


def eigen_sampler(spec: KineticSpectrum) -> Sampler:
    """eigen_integrand importance-sampled from a Gaussian proposal, as a Sampler.

    The proposal exp(-e_min sum lam^2), matched to the softest eigenvalue
    (keeps every determinant term bounded under the weight), is N standard
    normals per sample times 1/sqrt(2 e_min).  A weight is the integrand
    over it; the scale is its integral (pi/e_min)^(N/2).
    """
    emin = min(spec.e)
    sigma = 1.0 / math.sqrt(2.0 * emin)

    def kernel(lam):
        lam *= sigma
        cols = list(lam)
        return eigen_integrand(spec, cols) * np.exp(emin * sum(c * c for c in cols))

    return Sampler("standard_normal", spec.n, kernel, (math.pi / emin) ** (spec.n / 2.0))


def z_mc_eigen(spec: KineticSpectrum, samples: int, seed: int) -> tuple[float, float]:
    """Importance-sampled MC of the eigenvalue-reduced partition function."""
    return mc_mean(eigen_sampler(spec), samples, seed)


def _trace_x4(n: int, diag: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Tr X^4 per sample for the Hermitian X with these real components.

    X = A + iB with A real symmetric (the rows diag (n, m) on the diagonal,
    re off it) and B real antisymmetric (the rows im above the diagonal,
    in the order of combinations(range(n), 2)).  X^2 = P + iQ with
    P = A^2 - B^2 symmetric and Q = AB + BA antisymmetric, so
    Tr X^4 = ||P||_F^2 + ||Q||_F^2, summed here over the upper triangle.
    B's lower triangle is held as negated rows, B[l, k] = -B[k, l], so each
    sum of products runs left to right over k, multiplying and adding, in
    a few length-m buffers.
    """
    m = diag.shape[1]
    a = {(i, i): diag[i] for i in range(n)}
    b = {}
    for idx, (k, l) in enumerate(combinations(range(n), 2)):
        a[k, l] = a[l, k] = re[idx]
        b[k, l] = im[idx]
        b[l, k] = -im[idx]
    tr = np.zeros(m)
    p, q, part, prod = (np.empty(m) for _ in range(4))

    def products(out, pairs):
        # out = x_0 y_0 + x_1 y_1 + ...; False if there are no pairs
        for t, (x, y) in enumerate(pairs):
            if t == 0:
                np.multiply(x, y, out=out)
            else:
                np.multiply(x, y, out=prod)
                out += prod
        return bool(pairs)

    for i in range(n):
        for j in range(i, n):
            products(p, [(a[i, k], a[k, j]) for k in range(n)])
            if products(part, [(b[i, k], b[k, j]) for k in range(n) if k != i and k != j]):
                p -= part
            p *= p
            # Q_ii is exactly 0: term k of its second sum, b_ik a_ki, is the
            # negated term k of its first, a_ik b_ki, so the sums cancel bit
            # for bit and adding Q_ii^2 = +0 would leave p unchanged
            if i != j:
                products(q, [(a[i, k], b[k, j]) for k in range(n) if k != j])
                products(part, [(b[i, k], a[k, j]) for k in range(n) if k != i])
                q += part
                q *= q
                p += q
                p *= 2.0
            tr += p
    return tr


def matrix_sampler(spec: KineticSpectrum) -> Sampler:
    """The integral over Hermitian matrices as a Sampler.

    The proposal is the exact g=0 Gaussian: the quadratic form is diagonal
    in the matrix components, so each is a scaled standard normal, drawn
    as one group of N + 2 N(N-1)/2 rows in the order diag (N rows), re and
    im (N(N-1)/2 rows each), the order the seeded outputs depend on, and
    Z = z_free * E[exp(-g Tr X^4)].  At g = 0 every weight is 1.
    """
    n = spec.n
    if n > MATRIX_MC_MAX_N:
        raise ValueError(f"matrix MC limited to n <= {MATRIX_MC_MAX_N} (N^2-dimensional integral)")
    e = np.asarray(spec.e)
    pairs = list(combinations(range(n), 2))
    p = len(pairs)
    sd_off = [1.0 / math.sqrt(2.0 * (e[k] + e[l])) for k, l in pairs]
    sd = np.concatenate([1.0 / np.sqrt(2.0 * e), sd_off, sd_off])[:, None]

    def kernel(x):
        x *= sd
        return np.exp(-spec.g * _trace_x4(n, x[:n], x[n : n + p], x[n + p :]))

    return Sampler("standard_normal", n + 2 * p, kernel, z_free(spec).value)


def z_mc_matrix(spec: KineticSpectrum, samples: int, seed: int) -> tuple[float, float]:
    """MC over Hermitian matrices with the exact g=0 Gaussian as proposal.

    At g = 0 this is z_free exactly, with stderr 0.  Deterministic per seed.
    """
    return mc_mean(matrix_sampler(spec), samples, seed)


# ---------------------------------------------------------------------------
# unitary-group integral


def hciz_value(x, y, t: float) -> float:
    """(prod m!) t^(-binom(N,2)) det(e^(t x_k y_l)) / (Delta(x) Delta(y)).

    The exp-kernel ratio detkit.exp_kernel_ratio: a single coincident pair
    in y is resolved exactly by its divided difference, anything more
    degenerate (or coincident x) raises ValueError.
    """
    return exp_kernel_ratio(x, y, t)


def hciz_haar_mc2(x, y, t: float, samples: int, seed: int) -> tuple[float, float]:
    """Haar MC over U(2) of exp(t Tr(X U* Y U)) in Euler-angle form.

    For diagonal X, Y only p = |U_11|^2 = cos^2 theta enters (the phases
    drop out).  Under Haar on U(2) theta has the sin(2 theta) density, so
    sin^2 theta is uniform on [0,1] and p = 1 - u for a uniform draw u.
    The exponent t (x_0 y_0 p + x_0 y_1 (1 - p) + x_1 y_0 (1 - p) + x_1 y_1 p)
    is then a + b u with a = t (x_0 y_0 + x_1 y_1) and
    b = t (x_0 y_1 + x_1 y_0) - a.
    """
    if len(x) != 2 or len(y) != 2:
        raise ValueError("Haar cross-check implemented for N = 2")
    a = t * (x[0] * y[0] + x[1] * y[1])
    b = t * (x[0] * y[1] + x[1] * y[0]) - a

    def kernel(u):
        u = u[0]
        u *= b
        u += a
        return np.exp(u, out=u)

    return mc_mean(Sampler("random", 1, kernel), samples, seed)


# ---------------------------------------------------------------------------
# free theory via the polytope volume vs direct expansion


def polytope_route_correction(eps) -> float:
    """log-correction of the polytope-factorised free theory.

    Relative to prod sqrt(pi/e_k) (pi/(2 xi))^binom(N,2); argument is the
    centered relative deviation vector.
    """
    eps = list(eps)
    n = len(eps)
    _, _, s2, s3, s4 = power_sums(eps, 4)
    ln = (n - 2) / 8.0 * s2 - (n - 6) / 24.0 * s3 + n / 64.0 * s4
    ln += 3.0 / 64.0 * s2 * s2 - 1.0 / 16.0 * s2 * s3 + 7.0 / 128.0 * s2 * s4
    ln += 3.0 / 128.0 * s3 * s3 - 5.0 / 128.0 * s3 * s4
    ln += s2**3 / (16.0 * n) - 11.0 / (128.0 * n) * s2 * s2 * s3
    return ln


def direct_route_correction(eps) -> float:
    """log-correction of the pairwise-expanded free theory (same reference)."""
    eps = list(eps)
    n = len(eps)
    _, _, s2, s3, s4, s5, s6 = power_sums(eps, 6)
    ln = (n - 2) / 8.0 * s2 - (n - 4) / 24.0 * s3 + (n - 8) / 64.0 * s4
    ln += 3.0 / 64.0 * s2 * s2 - (n - 16) / 160.0 * s5 - 1.0 / 16.0 * s2 * s3
    ln += (n - 32) / 384.0 * s6 + 5.0 / 128.0 * s2 * s4 + 5.0 / 96.0 * s3 * s3
    return ln
