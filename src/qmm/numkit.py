"""Shared asymptotic, combinatorial and Monte Carlo utilities.

Log-space numbers, the Lambert-W truncation bound, distinct-part
partition counts and their bound, power sums, the symmetric pole-sum
functions F and G with the complete homogeneous polynomials that
criterion 13 checks them against, the Sampler record (draw method,
components, block kernel, scale) that every Monte Carlo oracle is, the
two estimators that do its drawing, blocking and scaling (the seeded
Monte Carlo mean and the randomised quasi-Monte Carlo mean on a shifted
lattice), and the step-halving trapezoid rule under every deterministic
integral.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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

#: samples per batch of the mean and variance update; the seeded outputs
#: depend on it
MC_BATCH = 1 << 16
#: samples per draw into _draw's scratch block before it is transposed
_ROW_CHUNK = 1 << 12
#: samples per block that a sampler's kernel weighs: 64 KiB rows keep
#: every temporary under glibc's 128 KiB mmap threshold and a kernel's
#: working set inside the per-core L2; the seeded outputs do not depend on it
KERNEL_BLOCK = 1 << 13


@dataclass(frozen=True)
class Sampler:
    """A Monte Carlo oracle whose estimate is scale * E[weight].

    Each sample is k components drawn by the generator's method
    ("standard_normal", "random", "standard_exponential").  kernel(x)
    takes one (k, b) block, one row per component and one column per
    sample, and returns the b weights (float or bool) of its columns.
    Each weight comes from its own column only, so the weights do not
    depend on the blocking; the kernel may overwrite its block.
    """

    method: str
    k: int
    kernel: Callable
    scale: float = 1.0


def _draw(rng, method: str, rows: np.ndarray) -> None:
    """Fill the (k, b) rows with rng.<method>((b, k)).T, leaving rng as that draw would.

    A single row is drawn in place.  Several are drawn _ROW_CHUNK samples
    at a time into a small scratch block, each piece then transposed into
    the rows, so no sample-major block is ever alive.
    """
    draw = getattr(rng, method)
    k, m = rows.shape
    if k == 1:
        draw(out=rows[0])
        return
    scratch = np.empty((min(_ROW_CHUNK, m), k))
    for start in range(0, m, _ROW_CHUNK):
        block = scratch[: m - start]
        draw(out=block)
        rows[:, start : start + len(block)] = block.T


def mc_mean(sampler: Sampler, samples: int, seed: int) -> tuple[float, float]:
    """Seeded Monte Carlo estimate of scale * E[weight], as (value, stderr).

    The one generator default_rng(seed) fills one reused (k, KERNEL_BLOCK)
    buffer by _draw just before the kernel weighs it, so the samples are
    those of rng.<method>((samples, k)) whatever the block size.  Batches
    of MC_BATCH samples, the last one shorter, share one weights buffer.
    stderr is |scale| sqrt(var / samples) with the population variance var
    of all the weights, from each batch's squared deviations about its own
    mean, combined by Chan et al.'s parallel update, so near-constant
    weights keep their digits.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    block = np.empty((sampler.k, min(KERNEL_BLOCK, samples)))
    weights = np.empty(min(MC_BATCH, samples))
    total = 0.0
    sq_dev = 0.0  # sum of squared deviations from the mean of the batches so far
    done = 0
    while done < samples:
        m = min(MC_BATCH, samples - done)
        for start in range(0, m, KERNEL_BLOCK):
            x = block[:, : min(KERNEL_BLOCK, m - start)]
            _draw(rng, sampler.method, x)
            weights[start : start + x.shape[1]] = sampler.kernel(x)
        w = weights[:m]
        part = float(w.sum())
        w -= part / m
        w *= w
        sq_dev += float(w.sum())
        if done:
            sq_dev += (part / m - total / done) ** 2 * done * m / (done + m)
        total += part
        done += m
    mean = total / samples
    return sampler.scale * mean, abs(sampler.scale) * math.sqrt(sq_dev / samples / samples)


# ---------------------------------------------------------------------------
# randomised quasi-Monte Carlo on a shifted lattice

#: points of the rank-1 Korobov lattice j (1, a, a^2, ...) / n mod 1
LATTICE_POINTS = 1 << 14
#: the generator a for LATTICE_POINTS: of all odd a it minimises the
#: Korobov-space figure of merit P_2 (even in a, so taken below n/2) with
#: product weights 0.9^j in LATTICE_MAX_DIM dimensions;
#: tests/test_lattice.py re-derives it
KOROBOV_A = 7465
LATTICE_MAX_DIM = 10
#: independent random shifts; their spread gives the stderr
RQMC_REPLICATES = 16


class _LatticeNormals:
    """Standard normals at the Korobov lattice points under a shift, one block of columns at a time.

    The points are p = k / n, k = j (1, a, a^2, ...) mod n, one row per
    coordinate.  The tent transform 1 - |2v - 1| folds each shifted
    coordinate v = frac(p + s); p <= 1 - 1/n and the shifts s come from
    rng.random, so p + s < 2 and frac(p + s) subtracts 1 where p + s >= 1.
    Box-Muller turns coordinates 2i and 2i+1 into rows 2i and 2i+1, so the
    lattice has an even number of coordinates.  A radial coordinate at
    exactly 0 is read as 2^-53, the smallest positive value rng.random
    returns, so every normal is finite (|z| <= 8.6).  The angle 2 pi tent(v)
    is never formed: its cosine is cos(4 pi v), and its sine is sin(4 pi v)
    for v < 1/2 and -sin(4 pi v) otherwise, which is the imaginary part of
    exp(-4 pi i v) times the sign of 2v - 1.
    exp(-4 pi i v) = exp(-4 pi i k / n) exp(-4 pi i s):
    one table of n values gathered by k when the lattice is built, turned
    by two scalar trig calls per angle coordinate and shift, where plain
    Box-Muller takes two trig calls per point.  Each block of at most
    KERNEL_BLOCK columns is built into one reused buffer; work is a second
    buffer of its shape, for a caller's copy of a block.
    """

    def __init__(self, dim: int):
        n = LATTICE_POINTS
        gen = np.array([pow(KOROBOV_A, j, n) for j in range(dim)])
        index = gen[:, None] * np.arange(n) & (n - 1)  # mod n: n is a power of two
        self.points = index / n
        angle = 4.0 * math.pi / n * np.arange(n)
        self.turns = (np.cos(angle) - 1j * np.sin(angle))[index[1::2]]
        width = min(KERNEL_BLOCK, n)
        self.z = np.empty((dim, width))
        self.turned = np.empty((dim // 2, width), dtype=complex)
        # allocated here, not once the lattice's temporaries are freed: there
        # it left glibc trimming and re-faulting heap on every block (9,344
        # against 833 minor faults per warm eigen-sampler call)
        self.work = np.empty((dim, width))

    def blocks(self, shift: np.ndarray):
        """Yield (cols, z), the normals of the lattice columns cols under this shift.

        z is a view of the reused buffer, overwritten by the next block.
        """
        n, width = LATTICE_POINTS, self.z.shape[1]
        turn = np.exp(-4j * math.pi * shift[1::2])[:, None]
        shift = shift[:, None]
        for start in range(0, n, width):
            cols = slice(start, min(start + width, n))
            m = cols.stop - start
            z, turned = self.z[:, :m], self.turned[:, :m]
            np.add(self.points[:, cols], shift, out=z)
            z -= z >= 1.0  # frac(p + s), as p + s < 2
            z *= 2.0
            z -= 1.0  # 2v - 1, negative for v < 1/2
            radius = z[0::2]
            np.abs(radius, out=radius)
            np.subtract(1.0, radius, out=radius)
            np.maximum(radius, 2.0**-53, out=radius)
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            np.multiply(self.turns[:, cols], turn, out=turned)  # exp(-4 pi i v)
            np.copysign(radius, z[1::2], out=z[1::2])
            radius *= turned.real
            z[1::2] *= turned.imag
            yield cols, z


def rqmc_mean(samplers: list[Sampler], seed: int) -> list[tuple[float, float]]:
    """Randomised quasi-Monte Carlo estimates of each scale * E[weight], as (value, stderr).

    Each sampler draws 1 to LATTICE_MAX_DIM standard normals per point, and
    all of them one lattice dimension k + k % 2.  The lattice is built once:
    under each of RQMC_REPLICATES uniform shifts from default_rng(seed), one
    replicate at a time, each block of KERNEL_BLOCK columns is handed to
    every kernel as soon as it is built, each kernel weighing its first k
    rows.  A kernel may overwrite its block, so every sampler but the last
    weighs a copy in one reused work buffer; each value is that of a call
    with its sampler alone.  An estimate is scale times the mean of the
    replicate means, its stderr |scale| times their standard deviation
    over sqrt(RQMC_REPLICATES).
    """
    dims = set()
    for sampler in samplers:
        k = sampler.k
        if not 1 <= k <= LATTICE_MAX_DIM:
            raise ValueError(f"the lattice serves 1 to {LATTICE_MAX_DIM} normals, got {k}")
        if sampler.method != "standard_normal":
            raise ValueError(f"the lattice serves standard normals, not {sampler.method}")
        dims.add(k + k % 2)  # Box-Muller takes coordinates in pairs
    if len(dims) != 1:
        raise ValueError(f"the samplers must share one lattice dimension, got {sorted(dims)}")
    dim = dims.pop()
    lattice = _LatticeNormals(dim)
    shifts = np.random.default_rng(seed).random((RQMC_REPLICATES, dim))
    weights = np.empty((len(samplers), LATTICE_POINTS))
    means = np.empty((len(samplers), RQMC_REPLICATES))
    last = len(samplers) - 1
    for r, shift in enumerate(shifts):
        for cols, z in lattice.blocks(shift):
            for i, sampler in enumerate(samplers):
                x = z[: sampler.k]
                if i < last:  # the kernel may overwrite x; z stays for the next one
                    x = lattice.work[: sampler.k, : x.shape[1]]
                    x[...] = z[: sampler.k]
                weights[i, cols] = sampler.kernel(x)
        means[:, r] = [w.mean() for w in weights]  # each row alone, as with one sampler
    root = math.sqrt(RQMC_REPLICATES)
    return [(s.scale * float(row.mean()), abs(s.scale) * (float(row.std(ddof=1)) / root))
            for s, row in zip(samplers, means)]


# ---------------------------------------------------------------------------
# the trapezoid rule

#: nodes the trapezoid rule may evaluate before it gives up
_TRAPEZOID_MAX_NODES = 1 << 20


def trapezoid(f, h: float, lim: float, dim: int = 1) -> tuple[float, float]:
    """Trapezoid rule on the cube [0, lim]^dim with step halving, as (value, err).

    f(*t) is the integrand at the nodes t = j h, one coordinate array per
    axis.  A node weighs h^dim, halved for each coordinate at 0, so a caller
    folds an integral over (-lim, lim)^dim onto the cube by summing its
    integrand over the sign flips of the coordinates.  For an entire
    integrand that decays like a Gaussian or faster the rule converges
    geometrically in 1/h (Trefethen and Weideman, SIAM Review 56, 2014).
    The step halves from h, each pass evaluating only the new nodes, until
    two successive sums agree to 1e-13 of the summed |integrand|; err is
    their gap, floored at 8 ulps of that sum.  ArithmeticError once the
    grid would pass _TRAPEZOID_MAX_NODES nodes.
    """
    total = size = 0.0
    value = None
    while True:
        if (lim / h + 1.0) ** dim > _TRAPEZOID_MAX_NODES:
            raise ArithmeticError(f"the trapezoid rule needs more than {_TRAPEZOID_MAX_NODES} "
                                  f"nodes at step {h:.3g} on [0, {lim:.3g}]^{dim}")
        idx = np.indices((int(lim / h) + 1,) * dim).reshape(dim, -1)
        if value is not None:  # the nodes of step 2h are summed already
            idx = idx[:, (idx % 2 == 1).any(axis=0)]
        samples = 0.5 ** (idx == 0).sum(axis=0) * f(*(idx * h))
        total += samples.sum()
        size += np.abs(samples).sum()
        cell = h**dim
        prev, value = value, total * cell
        if prev is not None and abs(value - prev) <= 1e-13 * size * cell:
            return value, max(abs(value - prev), 8.0 * np.finfo(float).eps * size * cell)
        h /= 2.0


# ---------------------------------------------------------------------------
# the truncation bound


#: gamma threshold below which the n-term Taylor truncation of exp(-gamma n)
#: improves with n; W_L(1/e) ~ 0.2785.
TRUNCATION_GAMMA_STAR = float(mp.lambertw(math.exp(-1.0)))


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
    return LogValue(ln).value


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
    row = [1] * (n + 1)  # p_1(nn) for nn = 0..n
    for mm in range(2, m + 1):
        prev, row = row, [0] * (n + 1)
        for nn in range(mm * (mm - 1) // 2, n + 1):
            row[nn] = prev[nn - mm + 1] + (row[nn - mm] if nn >= mm else 0)
    return row[n]


def distinct_partition_bound(m: int, n: int) -> float:
    """The bound alpha_m 2^(n - binom(m,2)) with alpha_m = prod 1/(1-2^-t)."""
    alpha = 1.0
    for t in range(1, m + 1):
        alpha /= 1.0 - 2.0 ** (-t)
    return alpha * 2.0 ** (n - m * (m - 1) // 2)


# ---------------------------------------------------------------------------
# power sums and symmetric pole sums


def power_sums(vals, upto: int) -> list[float]:
    """[sum v^k for v in vals] for k = 0..upto, each summed in input order."""
    return [sum(v**k for v in vals) for k in range(upto + 1)]


def symmetric_pole_sum(p: int, x, z=None):
    """F_{n,p} pole sum over distinct nodes, or G_{n,p} given the shift z.

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
    total = 0
    for k in range(n):
        term = x[k] ** p
        for t in range(n):
            if t != k:
                term = (term if z is None else term * (x[t] - z)) / (x[t] - x[k])
        total = total + term
    return total


def complete_homogeneous(m: int, x) -> Fraction:
    """Complete homogeneous symmetric polynomial h_m(x), exact."""
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
    # signed[r]: the sum over compositions of r of (-1)^m prod 1/mu_i!,
    # grouped by the last part mu
    signed = [Fraction(1)]
    for r in range(1, n + 1):
        signed.append(-sum(signed[r - mu] / math.factorial(mu) for mu in range(1, r + 1)))
    return (-1) ** n * signed[n]
