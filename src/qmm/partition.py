"""Partition-function evaluators for the quartic Hermitian matrix model.

Closed forms (free, weak-coupling, zero-kinetics), the symmetrised
eigenvalue integrand with collision-safe evaluation, Monte-Carlo
cross-checks over matrices and over eigenvalues, the unitary-group
integral for coupled quadratic traces, and the two free-theory expansion
routes whose controlled disagreement is itself a deliverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .detkit import det_rows, exp_kernel_ratio, vandermonde_det
from .numkit import LogValue, mc_mean, power_sums
from .orthopoly import quartic_r_sequence

_COLLISION_RTOL = 1e-8


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


def _sum_lgamma(n_upto: int) -> float:
    # sum_{m=0}^{n_upto} ln m!
    return sum(math.lgamma(m + 1) for m in range(n_upto + 1))


def z_free(spec: KineticSpectrum) -> LogValue:
    """Free partition function prod sqrt(pi/e_k) prod_{k<l} pi/(e_k+e_l)."""
    e = spec.e
    ln = sum(0.5 * math.log(math.pi / ek) for ek in e)
    for k, l in combinations(range(spec.n), 2):
        ln += math.log(math.pi / (e[k] + e[l]))
    return LogValue(ln)


def z_weak(spec: KineticSpectrum) -> LogValue:
    """Weak-coupling closed form, exactly as printed.

    sqrt((N-1)/N) prod(sqrt(pi/e_m) e_m^(1-N)) (pi N / (2 sum 1/e))^binom(N,2)
    exp(-sum 3g/(4 e_m^2)).  Carries a residual sqrt((N-1)/N) against
    z_free at the symmetric spectrum; see z_weak_expanded and the verify
    report, which surface that constant rather than absorb it.
    """
    n = spec.n
    if n < 2:
        raise ValueError("weak-coupling form needs n >= 2")
    e = spec.e
    inv_sum = sum(1.0 / em for em in e)
    ln = 0.5 * math.log((n - 1) / n)
    for em in e:
        ln += 0.5 * math.log(math.pi / em) + (1 - n) * math.log(em)
    ln += (n * (n - 1) // 2) * math.log(math.pi * n / (2.0 * inv_sum))
    ln += -sum(3.0 * spec.g / (4.0 * em * em) for em in e)
    return LogValue(ln)


def z_weak_expanded(spec: KineticSpectrum) -> LogValue:
    """Relative-deviation expansion of the weak-coupling form, as printed.

    It drops z_weak's sqrt((N-1)/N) constant, so it normalises to z_free at
    the symmetric spectrum; adding 0.5 log((N-1)/N) gives a true expansion
    of z_weak (log-agreement ~1e-11 at |eps| <= 0.01).
    """
    n = spec.n
    if n < 2:
        raise ValueError("weak-coupling form needs n >= 2")
    xi = spec.xi
    eps = spec.eps_tilde
    _, _, s2, s3, s4, s5, s6 = power_sums(eps, 6)
    ln = sum(0.5 * math.log(math.pi / em) for em in spec.e)
    ln += (n * (n - 1) // 2) * math.log(math.pi / (2.0 * xi))
    ln += -sum(3.0 * spec.g / (4.0 * em * em) for em in spec.e)
    ln += (n - 1) / 6.0 * s3 - (n - 1) / 4.0 * s4
    ln += 3.0 * (n - 1) / 10.0 * s5 - (n - 1) / 3.0 * s6
    ln += (n - 1) / (4.0 * n) * s2 * s2 - 0.5 * s2 * s3 + 0.5 * s2 * s4
    ln += 0.25 * s3 * s3 - s2**3 / (6.0 * n)
    return LogValue(ln)


def z_zero_kinetic(n: int, g: float) -> LogValue:
    """Zero-kinetics partition: U g^(-N^2/4) N! prod_{t<N} h_t.

    h_t are the quartic-weight norms; U = pi^binom(N,2)/prod_{m<=N} m!.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if g <= 0:
        raise ValueError("coupling must be positive")
    table = quartic_r_sequence(max(n, 2))
    ln = (n * (n - 1) // 2) * math.log(math.pi) - _sum_lgamma(n)
    ln += -(n * n / 4.0) * math.log(g)
    ln += math.lgamma(n + 1)
    ln += sum(math.log(table.h[t]) for t in range(n))
    return LogValue(ln)


# ---------------------------------------------------------------------------
# eigenvalue integrand and Monte Carlo


def eigen_integrand(spec: KineticSpectrum, lam):
    """Delta(lam) det(exp(-e_k lam_l^2)) e^<quartic> / (prod(lam_m+lam_n) Delta(e)).

    lam holds the eigenvalues on its last axis; the result has the leading
    shape (a float for one point).  Finite everywhere: at lam_m + lam_n = 0
    the determinant's compensating zero is taken analytically (derivative
    column), mirroring the paired exponential cancellation of the
    two-eigenvalue case.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1:] != (spec.n,):
        raise ValueError("need one eigenvalue per index")
    cols = list(np.moveaxis(lam, -1, 0))  # one leading-shape array per eigenvalue
    return _eigen_integrand_cols(spec, cols, [c * c for c in cols])


def _eigen_integrand_cols(spec: KineticSpectrum, cols, sq):
    """eigen_integrand from the eigenvalue columns and their squares sq."""
    de = vandermonde_det(spec.e)
    if de == 0.0:
        raise ValueError("kinetic eigenvalues must be distinct for the det form")
    scale = reduce(np.maximum, map(np.abs, cols), 1.0)
    # the kernel transposed, one row per eigenvalue: row l is exp(-e_k lam_l^2)
    mat = [[np.exp(-ek * s) for ek in spec.e] for s in sq]
    denom = 1.0
    for nn in range(1, spec.n):
        hit = False
        for m in range(nn):
            s = cols[m] + cols[nn]
            pole = np.abs(s) < _COLLISION_RTOL * scale
            denom = denom * np.where(pole, 1.0, s)
            hit = hit | pole
        # limit of row nn paired with a 1/(lam_m + lam_nn) pole
        mat[nn] = [np.where(hit, -2.0 * ek * cols[nn] * x, x) for ek, x in zip(spec.e, mat[nn])]
    det = det_rows(mat)  # before the other factors: its work space sets the peak
    gauss = np.exp(-spec.g * sum(s * s for s in sq))
    return vandermonde_det(cols) * det * gauss / (denom * de)


def z_quad_n2(spec: KineticSpectrum) -> tuple[float, float]:
    """N = 2 partition function by a tensor Gauss-Hermite rule, as (value, abserr).

    A deterministic oracle for the samplers: Z = -(pi/2) times the integral
    of eigen_integrand over R^2, the eigenvalue-reduction prefactor and
    sign at N = 2.  The rule is for the weight exp(-c |lam|^2) with
    c = min(e) + sqrt(g), which tracks the integrand's decay from weak to
    strong coupling.  The value is the 100-node rule per axis; abserr is
    its gap to the 60-node rule, floored at the sum's rounding level and
    scaled alike.
    """
    if spec.n != 2:
        raise ValueError("quadrature oracle implemented for N = 2")
    c = min(spec.e) + math.sqrt(spec.g)
    sums = []
    for k in (60, 100):
        x, w = np.polynomial.hermite.hermgauss(k)
        w = w * np.exp(x * x) / math.sqrt(c)  # the weight moved into the integrand
        lam = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1) / math.sqrt(c)
        terms = np.outer(w, w) * eigen_integrand(spec, lam)
        sums.append((terms.sum(), np.abs(terms).sum()))
    (coarse, _), (fine, size) = sums
    err = max(abs(fine - coarse), np.finfo(float).eps * size)
    return -0.5 * math.pi * float(fine), 0.5 * math.pi * float(err)


def z_mc_eigen(spec: KineticSpectrum, samples: int, seed: int) -> tuple[float, float]:
    """Importance-sampled MC of the eigenvalue-reduced partition function.

    Proposal: independent normals matched to the softest eigenvalue
    (keeps every determinant term bounded under the weight).  Coincident
    spectra use the exact Delta^2 reduction instead of the det form;
    a partly coincident spectrum is rejected by eigen_integrand.
    """
    n = spec.n
    e = np.asarray(spec.e)
    all_equal = np.all(e == e[0])
    emin = float(e.min())
    sigma = 1.0 / math.sqrt(2.0 * emin)
    ln_pref = (n * (n - 1) // 2) * math.log(math.pi) - _sum_lgamma(n)
    sign = 1.0
    if not all_equal:
        ln_pref += _sum_lgamma(n - 1)
        sign = (-1.0) ** (n * (n - 1) // 2)

    def weights(rng, m):
        cols = list(rng.normal(0.0, sigma, (m, n)).T)
        sq = [c * c for c in cols]
        log_q = (n / 2.0) * math.log(emin / math.pi) - emin * sum(sq)
        if not all_equal:
            return _eigen_integrand_cols(spec, cols, sq) * np.exp(-log_q)
        vdm = vandermonde_det(cols)
        ln_f = -(e[0] * sum(sq) + spec.g * sum(s * s for s in sq))
        return vdm * vdm * np.exp(ln_f - log_q)

    mean, se = mc_mean(weights, samples, seed)
    return sign * math.exp(ln_pref) * mean, abs(math.exp(ln_pref)) * se


def _trace_x4(n: int, diag: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Tr X^4 per sample for the Hermitian X with these real components.

    X = A + iB with A real symmetric (diag on the diagonal, re off it) and
    B real antisymmetric (im above the diagonal).  X^2 = P + iQ with
    P = A^2 - B^2 symmetric and Q = AB + BA antisymmetric, so
    Tr X^4 = ||P||_F^2 + ||Q||_F^2, summed here over the upper triangle.
    """
    a = {(i, i): diag[:, i] for i in range(n)}
    b = {}
    for idx, (k, l) in enumerate(combinations(range(n), 2)):
        a[k, l] = a[l, k] = re[:, idx]
        b[k, l] = im[:, idx]
        b[l, k] = -im[:, idx]
    tr = np.zeros(diag.shape[0])
    for i in range(n):
        for j in range(i, n):
            p = sum(a[i, k] * a[k, j] for k in range(n))
            p = p - sum(b[i, k] * b[k, j] for k in range(n) if k != i and k != j)
            q = sum(a[i, k] * b[k, j] for k in range(n) if k != j)
            q = q + sum(b[i, k] * a[k, j] for k in range(n) if k != i)
            tr += (1.0 if i == j else 2.0) * (p * p + q * q)
    return tr


def z_mc_matrix(spec: KineticSpectrum, samples: int, seed: int) -> tuple[float, float]:
    """MC over Hermitian matrices with the exact g=0 Gaussian as proposal.

    The quadratic form is diagonal in the matrix components, so the
    proposal is exact at g = 0 and the estimator is z_free * mean
    exp(-g Tr X^4); at g = 0 that is z_free exactly, returned without
    sampling.  Deterministic per seed.
    """
    n = spec.n
    if n > 4:
        raise ValueError("matrix MC limited to n <= 4 (N^2-dimensional integral)")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    zf = z_free(spec).value
    if spec.g == 0.0:
        return zf, 0.0
    e = np.asarray(spec.e)
    pairs = list(combinations(range(n), 2))
    sd_diag = 1.0 / np.sqrt(2.0 * e)
    sd_off = np.array([1.0 / math.sqrt(2.0 * (e[k] + e[l])) for k, l in pairs])

    def weights(rng, m):
        # one draw sliced in the order diag, re, im: the same stream as three
        # normal(0, 1) draws, so every seeded estimate is unchanged
        z = rng.standard_normal(m * (n + 2 * len(pairs)))
        diag = z[: m * n].reshape(m, n)
        re, im = z[m * n :].reshape(2, m, len(pairs))
        diag *= sd_diag
        re *= sd_off
        im *= sd_off
        return np.exp(-spec.g * _trace_x4(n, diag, re, im))

    mean, se = mc_mean(weights, samples, seed)
    return zf * mean, zf * se


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
    """
    if len(x) != 2 or len(y) != 2:
        raise ValueError("Haar cross-check implemented for N = 2")

    def weights(rng, m):
        p = 1.0 - rng.random(m)
        return np.exp(
            t
            * (
                x[0] * y[0] * p
                + x[0] * y[1] * (1.0 - p)
                + x[1] * y[0] * (1.0 - p)
                + x[1] * y[1] * p
            )
        )

    return mc_mean(weights, samples, seed)


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
