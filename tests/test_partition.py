import math
import tracemalloc
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest

from qmm import numkit, partition
from qmm.detkit import exp_det_factorization, vandermonde_det
from qmm.numkit import rqmc_mean
from qmm.partition import (
    KineticSpectrum,
    direct_route_correction,
    eigen_integrand,
    hciz_haar_mc2,
    hciz_value,
    polytope_route_correction,
    z_free,
    z_mc_eigen,
    z_mc_matrix,
    z_quad_n2,
    z_weak,
    z_weak_expanded,
    z_zero_kinetic,
)


class TestZFree:
    def test_reference_spectrum(self):
        z = z_free(KineticSpectrum(3, (1.0, 1.1, 1.2))).value
        assert z == pytest.approx(14.142, abs=0.001)

    def test_single_eigenvalue(self):
        assert z_free(KineticSpectrum(1, (2.0,))).value == pytest.approx(
            math.sqrt(math.pi / 2)
        )

    def test_two_equal_eigenvalues(self):
        # 4-dim Gaussian matrix integral: pi^2/2
        assert z_free(KineticSpectrum(2, (1.0, 1.0))).value == pytest.approx(
            math.pi**2 / 2
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            KineticSpectrum(2, (1.0, -1.0))


class TestZWeak:
    def test_coupling_doubling_log_difference(self):
        e = (0.9, 1.3, 1.7, 2.0)
        g = 0.05
        a = z_weak(KineticSpectrum(4, e, g)).log_abs
        b = z_weak(KineticSpectrum(4, e, 2 * g)).log_abs
        assert b - a == pytest.approx(-sum(3 * g / (4 * em**2) for em in e), rel=1e-12, abs=0)

    def test_expansion_tracks_closed_form(self):
        # |eps| <= 0.01, N = 6: the expansion (constant carried) agrees to 1e-4
        n = 6
        eps = [0.01 * math.sin(2.2 * j + 0.3) for j in range(n)]
        m = sum(eps) / n
        e = tuple(1.0 + x - m for x in eps)
        spec = KineticSpectrum(n, e, 0.0)
        closed = z_weak(spec).log_abs
        expanded = z_weak_expanded(spec).log_abs + 0.5 * math.log((n - 1) / n)
        assert abs(closed - expanded) < 1e-4

    def test_printed_expansion_normalises_to_free_theory(self):
        # the printed diagnostics form drops the sqrt((N-1)/N) constant and
        # reduces to z_free exp(-3g sum e^-2/4) at the symmetric spectrum
        for n in (3, 6):
            g = 1e-12
            spec = KineticSpectrum(n, (1.0,) * n, g)
            lhs = z_weak_expanded(spec).log_abs
            rhs = z_free(KineticSpectrum(n, (1.0,) * n)).log_abs - 3 * g * n / 4
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_closed_form_residual_constant_documented(self):
        # z_weak carries sqrt((N-1)/N) against z_free at the symmetric point
        for n in (2, 3, 6):
            spec = KineticSpectrum(n, (1.4,) * n, 0.0)
            diff = z_weak(spec).log_abs - z_free(spec).log_abs
            assert diff == pytest.approx(0.5 * math.log((n - 1) / n), abs=1e-12)

    def test_single_eigenvalue_is_none(self):
        spec = KineticSpectrum(1, (1.0,), 0.1)
        assert z_weak(spec) is None and z_weak_expanded(spec) is None

    def test_weak_coupling_vs_mc_symmetric_spectrum(self):
        # the closed form is honest only while the quartic term is truly
        # perturbative: within 5% of the MC oracle at g = 0.002
        spec = KineticSpectrum(3, (1.0, 1.0, 1.0), 0.002)
        predicted = math.exp(z_weak_expanded(spec).log_abs)
        est, _ = z_mc_eigen(spec, 400_000, seed=3)
        assert abs(predicted - est) / est < 0.05

    def test_weak_coupling_overshoot_documented_at_moderate_g(self):
        # at g = 0.1 the exponential correction captures only part of the
        # quartic suppression (coefficient -sum 3/(4e^2) = -2.25 vs the
        # matrix model's first-order -E[Tr X^4] = -14.25 at N = 3): the
        # closed form overshoots the oracle by about 2x, surfaced here
        spec = KineticSpectrum(3, (1.0, 1.0, 1.0), 0.1)
        predicted = math.exp(z_weak_expanded(spec).log_abs)
        est, _ = z_mc_eigen(spec, 400_000, seed=3)
        assert predicted / est == pytest.approx(2.0, abs=0.15)


class TestZZeroKinetic:
    def test_n1_value(self):
        assert z_zero_kinetic(1, 1.0).value == pytest.approx(math.gamma(0.25) / 2)

    def test_g_scaling(self):
        n = 3
        a = z_zero_kinetic(n, 1.0).log_abs
        b = z_zero_kinetic(n, 2.5).log_abs
        assert a - b == pytest.approx((n * n / 4) * math.log(2.5), rel=1e-12, abs=0)

    def test_n2_against_matrix_mc(self):
        # direct 4-dimensional Hermitian MC oracle for exp(-Tr X^4)
        expect = z_zero_kinetic(2, 1.0).value
        assert expect == pytest.approx(math.pi**2 * math.sqrt(2) / 4, rel=1e-10, abs=0)
        rng = np.random.default_rng(9)
        n_samp = 400_000
        s = 0.8
        a, d, re, im = rng.normal(0, s, (4, n_samp))
        tr = a + d
        det = a * d - (re * re + im * im)
        disc = np.sqrt(np.maximum(tr * tr / 4 - det, 0))
        l1, l2 = tr / 2 + disc, tr / 2 - disc
        w = np.exp(-(l1**4 + l2**4)) / (
            (2 * math.pi * s * s) ** -2 * np.exp(-(a * a + d * d + re * re + im * im) / (2 * s * s))
        )
        est = w.mean()
        se = w.std() / math.sqrt(n_samp)
        assert abs(est - expect) <= max(3 * se, 0.05 * expect)

    def test_domain(self):
        assert z_zero_kinetic(2, 0.0) is None
        with pytest.raises(ValueError, match="coupling must be >= 0"):
            z_zero_kinetic(2, -1.0)


class TestEigenIntegrand:
    def test_collision_limit_continuous(self):
        spec = KineticSpectrum(3, (1.0, 1.1, 1.2), 0.1)
        lam1 = 0.7
        at_limit = eigen_integrand(spec, (lam1, -lam1, 0.3))
        probe = eigen_integrand(spec, (lam1, -lam1 + 1e-6, 0.3))
        assert at_limit == pytest.approx(probe, rel=1e-4, abs=0)
        assert math.isfinite(at_limit)

    def test_equal_eigenvalues_vanish(self):
        spec = KineticSpectrum(3, (1.0, 1.1, 1.2), 0.0)
        assert eigen_integrand(spec, (0.4, 0.4, 0.4)) == pytest.approx(0.0, abs=1e-15)

    def test_global_sign_flip_even(self):
        spec = KineticSpectrum(3, (1.0, 1.3, 1.9), 0.2)
        lam = (0.3, -0.8, 1.1)
        a = eigen_integrand(spec, lam)
        b = eigen_integrand(spec, tuple(-x for x in lam))
        assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_one_entry_per_eigenvalue(self):
        spec = KineticSpectrum(3, (1.0, 1.3, 1.9), 0.2)
        # a (5, 3) block is five points on the last axis, not three rows
        with pytest.raises(ValueError, match="one eigenvalue per index"):
            eigen_integrand(spec, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="one eigenvalue per index"):
            eigen_integrand(spec, (0.3, -0.8))


class TestMonteCarlo:
    def test_eigen_mc_free_theory(self):
        spec = KineticSpectrum(3, (1.0, 1.1, 1.2), 0.0)
        est, se = z_mc_eigen(spec, 10**6, seed=5)
        exact = z_free(spec).value
        assert abs(est - exact) / exact < 0.03

    def test_matrix_mc_free_is_exact(self):
        for n in range(1, 5):
            spec = KineticSpectrum(n, (1.0, 1.1, 1.2, 1.3)[:n], 0.0)
            assert z_mc_matrix(spec, 10_000, seed=1) == (z_free(spec).value, 0.0)
            if n == 3:  # the largest N the lattice serves
                assert rqmc_mean([partition.matrix_sampler(spec)], 1) == [(z_free(spec).value, 0.0)]

    def test_matrix_mc_n1(self):
        est, se = z_mc_matrix(KineticSpectrum(1, (1.0,), 0.0), 10_000, seed=2)
        assert abs(est - math.sqrt(math.pi)) <= max(3 * se, 1e-12)

    def test_cross_method_with_coupling(self):
        spec = KineticSpectrum(2, (1.0, 2.0), 0.5)
        em, sm = z_mc_matrix(spec, 400_000, seed=11)
        ee, se = z_mc_eigen(spec, 400_000, seed=12)
        assert abs(em - ee) <= 3 * math.hypot(sm, se)

    def test_matrix_mc_size_guard(self):
        # at g = 0, so the guard must come before the exact free return
        with pytest.raises(ValueError):
            z_mc_matrix(KineticSpectrum(5, (1.0,) * 5, 0.0), 10_000, seed=0)
        # 16 normals: more than the lattice serves
        with pytest.raises(ValueError, match="lattice serves"):
            rqmc_mean([partition.matrix_sampler(KineticSpectrum(4, (1.0, 1.1, 1.2, 1.3), 0.1))], 0)

    @pytest.mark.parametrize("g", [0.0, 0.1])
    @pytest.mark.parametrize("samples", [0, -1])
    def test_matrix_mc_rejects_nonpositive_samples(self, g, samples):
        spec = KineticSpectrum(2, (1.0, 1.1), g)
        with pytest.raises(ValueError):
            z_mc_matrix(spec, samples, seed=0)
        with pytest.raises(ValueError):
            z_mc_eigen(spec, samples, seed=0)
        with pytest.raises(ValueError):
            hciz_haar_mc2((0.3, 1.4), (0.2, 0.9), 1.0, samples, seed=0)

    def test_eigen_mc_rejects_partly_coincident_spectrum(self):
        # two equal kinetic eigenvalues, not all: the det form has no limit
        # here and the all-equal Delta^2 form does not apply
        with pytest.raises(ValueError, match="distinct"):
            z_mc_eigen(KineticSpectrum(3, (1.0, 1.0, 1.2), 0.1), 1000, seed=1)

    def test_deterministic(self):
        spec = KineticSpectrum(2, (1.0, 2.0), 0.3)
        assert z_mc_eigen(spec, 50_000, seed=7) == z_mc_eigen(spec, 50_000, seed=7)


# (N, g, seed) -> (mean, stderr) of z_mc_matrix at 70k samples (one full
# batch and part of a second); _matrix_reference reproduces each from
# the dense complex matrices of the same draw
MATRIX_MC_PINS = {
    (1, 0.1, 111): (1.6756957778171293, 0.0008313134103201346),
    (2, 0.1, 121): (3.3434255208411834, 0.004168570562293463),
    (3, 0.1, 131): (6.3170333422367735, 0.014391251755623035),
    (4, 0.1, 141): (9.615052133387461, 0.03568671659096941),
    (1, 0.5, 115): (1.4865066360967807, 0.0017524819198250097),
    (2, 0.5, 125): (1.9028113299268468, 0.005700694564226091),
    (3, 0.5, 135): (1.525436624424891, 0.009567714233558735),
    (4, 0.5, 145): (0.6210825736523435, 0.008755655639478175),
}


@pytest.mark.parametrize("key", sorted(MATRIX_MC_PINS))
def test_matrix_mc_seeded_outputs_pinned(key):
    n, g, seed = key
    spec = KineticSpectrum(n, (1.0, 1.1, 1.2, 1.3)[:n], g)
    mean, se = z_mc_matrix(spec, 70_000, seed)
    want_mean, want_se = MATRIX_MC_PINS[key]
    assert mean == pytest.approx(want_mean, rel=1e-12, abs=0)
    assert se == pytest.approx(want_se, rel=1e-12, abs=0)


def _matrix_reference(spec, samples, seed):
    """(mean, stderr) of z_mc_matrix from the dense complex X of each sample.

    A sample's N^2 normals are, in order, the diagonal, then the real and
    then the imaginary parts above the diagonal in the order of
    combinations(range(N), 2), each scaled by the g = 0 Gaussian's
    standard deviation; Tr X^4 = Tr (X^2)^2 by einsum.
    """
    n, e = spec.n, np.asarray(spec.e)
    pairs = list(combinations(range(n), 2))
    z = np.random.default_rng(seed).standard_normal((samples, n * n))
    x = np.zeros((samples, n, n), dtype=complex)
    x[:, range(n), range(n)] = z[:, :n] / np.sqrt(2.0 * e)
    for idx, (k, l) in enumerate(pairs):
        entry = (z[:, n + idx] + 1j * z[:, n + len(pairs) + idx]) / math.sqrt(2.0 * (e[k] + e[l]))
        x[:, k, l] = entry
        x[:, l, k] = entry.conj()
    x2 = np.einsum("sij,sjk->sik", x, x)
    w = np.exp(-spec.g * np.einsum("sij,sji->s", x2, x2).real)
    return z_free(spec).value * w.mean(), z_free(spec).value * w.std() / math.sqrt(samples)


@pytest.mark.parametrize("key", sorted(MATRIX_MC_PINS))
def test_matrix_mc_pins_match_a_complex_einsum(key):
    n, g, seed = key
    mean, se = _matrix_reference(KineticSpectrum(n, (1.0, 1.1, 1.2, 1.3)[:n], g), 70_000, seed)
    want_mean, want_se = MATRIX_MC_PINS[key]
    assert mean == pytest.approx(want_mean, rel=1e-12, abs=0)
    assert se == pytest.approx(want_se, rel=1e-12, abs=0)


def test_matrix_mc_holds_one_kernel_block_of_draws():
    # 16 normals per sample at N = 4: a draw buffer for a whole
    # 65,536-sample batch would take 8 MiB by itself
    spec = KineticSpectrum(4, (1.0, 1.1, 1.2, 1.3), 0.1)
    tracemalloc.start()
    try:
        z_mc_matrix(spec, 131_072, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _trace_x4_with_diagonal_q(n, diag, re, im):
    """Tr X^4 as _trace_x4 sums it, but with Q_ii summed too (a reference)."""
    a = {(i, i): (1, diag[i]) for i in range(n)}
    b = {}
    for idx, (k, l) in enumerate(combinations(range(n), 2)):
        a[k, l] = a[l, k] = (1, re[idx])
        b[k, l] = (1, im[idx])
        b[l, k] = (-1, im[idx])

    def products(pairs):
        out = None
        for (sx, x), (sy, y) in pairs:
            term = x * y
            if out is None:
                out = term if sx * sy > 0 else -term
            else:
                out = out + term if sx * sy > 0 else out - term
        return out

    tr = np.zeros(diag.shape[1])
    for i in range(n):
        for j in range(i, n):
            p = products([(a[i, k], a[k, j]) for k in range(n)])
            part = products([(b[i, k], b[k, j]) for k in range(n) if k != i and k != j])
            if part is not None:
                p = p - part
            p = p * p
            q = products([(a[i, k], b[k, j]) for k in range(n) if k != j])
            if q is not None:
                q = q + products([(b[i, k], a[k, j]) for k in range(n) if k != i])
                p = p + q * q
            tr += p if i == j else 2.0 * p
    return tr


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_x4_bits_equal_the_sum_with_diagonal_q(n):
    # rows as long as the second batch of a 70k-sample run
    m = 70_000 - numkit.MC_BATCH
    rng = np.random.default_rng(60 + n)
    p = n * (n - 1) // 2
    diag, re, im = (rng.standard_normal((k, m)) for k in (n, p, p))
    for x in (diag, re, im):  # negating a row turns +0 into -0
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
    got = partition._trace_x4(n, diag, re, im)
    want = _trace_x4_with_diagonal_q(n, diag, re, im)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_x4_is_the_squared_frobenius_norm_of_x_squared(n):
    # oracle: ||X^2||_F^2 = Tr X^4 from the dense complex Hermitian X
    pairs = list(combinations(range(n), 2))
    rng = np.random.default_rng(50 + n)
    diag = rng.standard_normal((n, 300))
    re, im = rng.standard_normal((2, len(pairs), 300))
    x = np.zeros((300, n, n), dtype=complex)
    x[:, range(n), range(n)] = diag.T
    for idx, (k, l) in enumerate(pairs):
        x[:, k, l] = re[idx] + 1j * im[idx]
        x[:, l, k] = re[idx] - 1j * im[idx]
    x2 = x @ x
    want = (np.abs(x2) ** 2).sum(axis=(1, 2))
    got = partition._trace_x4(n, diag, re, im)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# spectrum, samples, seed -> (mean, stderr) of z_mc_eigen at g = 0.1, N the
# spectrum's length: the det form at N = 2, 3 and 4 (one to three
# elimination steps) and the Delta^2 form for all-equal, two batches each
EIGEN_MC_PINS = {
    ((1.0, 1.1), 70_000, 21): (3.3237351762857728, 0.013951321403448201),
    ((1.0, 1.1, 1.2), 70_000, 31): (6.299947086537633, 0.05984180210834716),
    ((1.0, 1.1, 1.2, 1.3), 70_000, 41): (9.717598292766564, 0.2081296911836936),
    ((1.0, 1.0, 1.0), 70_000, 32): (8.61013819004862, 0.08847615017655631),
}


@pytest.mark.parametrize("key", sorted(EIGEN_MC_PINS))
def test_eigen_mc_seeded_outputs_pinned(key):
    e, samples, seed = key
    mean, se = z_mc_eigen(KineticSpectrum(len(e), e, 0.1), samples, seed)
    want_mean, want_se = EIGEN_MC_PINS[key]
    assert mean == pytest.approx(want_mean, rel=1e-12, abs=0)
    assert se == pytest.approx(want_se, rel=1e-12, abs=0)


# The same runs as in MATRIX_MC_PINS and EIGEN_MC_PINS at N = 3 and 4 (two
# batches each), pinned to the bit: the kernels' swaps and skipped sums
# move no value, so any change here is a change of arithmetic
EXACT_MC_PINS = {
    ("matrix", 3, 131): (6.3170333422367735, 0.014391251755623035),
    ("matrix", 4, 141): (9.615052133387461, 0.03568671659096941),
    ("eigen", 3, 31): (6.299947086537429, 0.059841802108346914),
    ("eigen", 4, 41): (9.717598292770539, 0.20812969118371547),
}


@pytest.mark.parametrize("key", sorted(EXACT_MC_PINS))
def test_partition_mc_outputs_pinned_exactly(key):
    kind, n, seed = key
    spec = KineticSpectrum(n, (1.0, 1.1, 1.2, 1.3)[:n], 0.1)
    sampler = z_mc_matrix if kind == "matrix" else z_mc_eigen
    assert sampler(spec, 70_000, seed) == EXACT_MC_PINS[key]


# Kernel blocks: numkit.mc_mean and rqmc_mean weigh each batch
# KERNEL_BLOCK columns at a time, and every sampler returns the same bits
# as with one block per batch.  The sample counts fall below, just short
# of and just past one block, and past one batch.
BLOCK_SAMPLES = [1000, numkit.KERNEL_BLOCK - 1, numkit.KERNEL_BLOCK + 1, 70_000]


def _blocked_and_whole(monkeypatch, run):
    blocked = run()
    monkeypatch.setattr(numkit, "KERNEL_BLOCK", numkit.MC_BATCH)
    return blocked, run()


@pytest.mark.parametrize("samples", BLOCK_SAMPLES)
@pytest.mark.parametrize("e", [(1.0, 1.1), (1.0, 1.1, 1.2), (1.0, 1.1, 1.2, 1.3), (1.0, 1.0, 1.0)])
def test_eigen_mc_same_bits_in_one_block(monkeypatch, e, samples):
    spec = KineticSpectrum(len(e), e, 0.1)
    blocked, whole = _blocked_and_whole(monkeypatch, lambda: z_mc_eigen(spec, samples, 51))
    assert blocked == whole


@pytest.mark.parametrize("samples", BLOCK_SAMPLES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_mc_same_bits_in_one_block(monkeypatch, n, samples):
    spec = KineticSpectrum(n, (1.0, 1.1, 1.2, 1.3)[:n], 0.1)
    blocked, whole = _blocked_and_whole(monkeypatch, lambda: z_mc_matrix(spec, samples, 52))
    assert blocked == whole


RQMC_RUNS = [
    lambda: rqmc_mean([partition.eigen_sampler(KineticSpectrum(3, (1.0, 1.1, 1.2), 0.1))], 53),
    lambda: rqmc_mean([partition.eigen_sampler(KineticSpectrum(3, (1.0, 1.0, 1.0), 0.1))], 54),
    lambda: rqmc_mean([partition.matrix_sampler(KineticSpectrum(3, (1.0, 1.1, 1.2), 0.1))], 55),
]
RQMC_IDS = ["eigen-det", "eigen-equal", "matrix"]


@pytest.mark.parametrize("run", RQMC_RUNS, ids=RQMC_IDS)
def test_rqmc_same_bits_in_one_block(monkeypatch, run):
    # KERNEL_BLOCK = MC_BATCH is wider than the lattice: one block per replicate
    assert numkit.LATTICE_POINTS > numkit.KERNEL_BLOCK
    blocked, whole = _blocked_and_whole(monkeypatch, run)
    assert blocked == whole


@pytest.mark.parametrize("run", RQMC_RUNS, ids=RQMC_IDS)
def test_rqmc_same_bits_with_a_short_last_block(monkeypatch, run):
    # 5,000 does not divide the lattice: each replicate ends in a short
    # block, built in the first columns of the reused buffer
    assert numkit.LATTICE_POINTS % 5000
    blocked = run()
    monkeypatch.setattr(numkit, "KERNEL_BLOCK", 5000)
    assert run() == blocked


def test_eigen_weights_with_a_pole_past_the_first_block(monkeypatch):
    # one exact collision lam_2 = -lam_0 at column 9000 of a batch, no pole
    # in any other column: the first block skips the pole terms and the
    # second takes them, and the weights are finite and those of one block
    spec = KineticSpectrum(3, (1.0, 1.1, 1.2), 0.1)
    m = numkit.MC_BATCH
    lam = np.random.default_rng(56).standard_normal((3, m))
    lam[2, 9000] = -lam[0, 9000]
    near = np.array([np.abs(lam[a] + lam[b]) < 1e-6 for a, b in combinations(range(3), 2)])
    assert near.any(axis=0).nonzero()[0].tolist() == [9000]
    assert numkit.KERNEL_BLOCK <= 9000 < 2 * numkit.KERNEL_BLOCK

    kernel = partition.eigen_sampler(spec).kernel

    def run():
        # a copy each time: the kernel scales its rows in place
        return np.concatenate([kernel(lam[:, start : start + numkit.KERNEL_BLOCK].copy())
                               for start in range(0, m, numkit.KERNEL_BLOCK)])

    blocked, whole = _blocked_and_whole(monkeypatch, run)
    assert np.isfinite(blocked).all() and blocked[9000] != 0.0
    np.testing.assert_array_equal(blocked, whole)


def test_haar_mc_same_bits_in_one_block(monkeypatch):
    blocked, whole = _blocked_and_whole(
        monkeypatch, lambda: hciz_haar_mc2((0.3, 1.4), (0.2, 0.9), 1.0, 70_000, 57))
    assert blocked == whole


def test_haar_mc_seeded_output_pinned():
    mean, se = hciz_haar_mc2((0.3, 1.4), (0.2, 0.9), 1.0, 100_000, 21)
    assert mean == pytest.approx(2.6072959993579237, rel=1e-12, abs=0)
    assert se == pytest.approx(0.0018243363621251278, rel=1e-12, abs=0)


def test_gate_rqmc_values_pinned():
    # criterion 11's two RQMC clauses at the default seed, one lattice pass
    matrix = partition.matrix_sampler(KineticSpectrum(2, (1.0, 1.1), 0.1))
    eigen = partition.eigen_sampler(KineticSpectrum(3, (1.0, 1.1, 1.2), 0.0))
    (est_m, se_m), (est_e, se_e) = rqmc_mean([matrix, eigen], 42)
    assert est_m == pytest.approx(3.340849541684182, rel=1e-12, abs=0)
    assert se_m == pytest.approx(6.048152532541291e-06, rel=1e-12, abs=0)
    assert est_e == pytest.approx(14.115010796265228, rel=1e-12, abs=0)
    assert se_e == pytest.approx(0.0340291951286329, rel=1e-12, abs=0)


class TestQuadratureOracle:
    def test_free_theory(self):
        spec = KineticSpectrum(2, (1.0, 1.1), 0.0)
        value, err = z_quad_n2(spec)
        assert value == pytest.approx(z_free(spec).value, rel=1e-9, abs=0)
        assert 0.0 <= err < 1e-5

    def test_agrees_with_eigen_mc(self):
        spec = KineticSpectrum(2, (1.0, 2.0), 0.5)
        value, err = z_quad_n2(spec)
        est, se = z_mc_eigen(spec, 400_000, seed=12)
        assert abs(value - est) <= 4 * math.hypot(se, err)

    def test_needs_n2(self):
        with pytest.raises(ValueError):
            z_quad_n2(KineticSpectrum(3, (1.0, 1.1, 1.2), 0.1))

    # references: scipy.integrate.cubature over R^2 with rtol=1e-12, atol=0,
    # computed once with the adaptive-cubature oracle this rule replaced
    @pytest.mark.parametrize("e,g,ref", [
        ((0.5, 3.0), 1.0, 0.852373901286),
        ((1.0, 1.5), 2.0, 0.757916199587),
        ((0.1, 0.2), 1.0, 2.98027323439),
        ((1.0, 1.2), 10.0, 0.244597516615),
    ])
    def test_strong_coupling_reference(self, e, g, ref):
        value, err = z_quad_n2(KineticSpectrum(2, e, g))
        assert abs(value - ref) <= err + 1e-11 * ref
        assert 0.0 < err < 1e-5 * ref


class TestHciz:
    def test_two_by_two_value(self):
        assert hciz_value((0.0, 1.0), (0.0, 1.0), 1.0) == pytest.approx(math.e - 1.0)

    def test_t_to_zero_limit(self):
        assert hciz_value((0.3, 1.4), (0.2, 0.9), 1e-7) == pytest.approx(1.0, rel=1e-6, abs=0)

    def test_haar_mc_agreement(self):
        f = hciz_value((0.0, 1.0), (0.0, 1.0), 1.0)
        m, se = hciz_haar_mc2((0.0, 1.0), (0.0, 1.0), 1.0, 400_000, seed=4)
        assert abs(m - f) / f < 0.01

    def test_three_by_three_haar_free(self):
        # N = 3 determinant formula cross-checked against the free theory:
        # Z = U (-1)^C prod k! int ... reproduces z_free via the identity
        val = hciz_value((1.0, 2.0, 3.5), (0.5, 0.7, 0.9), 2.0)
        assert math.isfinite(val) and val > 0

    def test_degenerate_pair_limit(self):
        x = (0.0, 1.0, 2.0)
        base = hciz_value(x, (0.2, 0.6, 0.6), 1.3)
        probe = hciz_value(x, (0.2, 0.6, 0.6 + 1e-5), 1.3)
        assert base == pytest.approx(probe, rel=1e-3, abs=0)

    def test_too_degenerate_rejected(self):
        with pytest.raises(ValueError):
            hciz_value((0.0, 1.0, 2.0), (0.5, 0.5, 0.5), 1.0)

    def test_coincident_x_rejected(self):
        with pytest.raises(ValueError, match="coincident x"):
            hciz_value((0.0, 1.0, 1.0), (0.2, 0.5, 0.9), 1.0)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_exp_kernel_ratio(self, n):
        # the exp-kernel table's nodes (k+1) n^-1.75: the ratio is 1.13137 at n = 7
        x = tuple((k + 1) * n**-1.75 for k in range(n))
        exact, fact, _ = exp_det_factorization(x, x, 1.0)
        assert hciz_value(x, x, 1.0) == pytest.approx(exact / fact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("gap", [1e-7, 0.0])
    def test_close_y_pair_matches_mpmath(self, gap):
        x, y, t = (0.0, 1.0, 2.0), (0.2, 0.6, 0.6 + gap), 1.3
        # oracle: the defining ratio at 50 digits, prod m! = 2 at N = 3;
        # an exact pair is opened to 1e-30
        with mp.workdps(50):
            xs, ys, tt = [mp.mpf(v) for v in x], [mp.mpf(v) for v in y], mp.mpf(t)
            ys[2] += 0 if gap else mp.mpf("1e-30")
            mat = mp.matrix([[mp.exp(tt * a * b) for b in ys] for a in xs])
            ref = 2 * mp.det(mat) / (tt**3 * vandermonde_det(xs) * vandermonde_det(ys))
        assert hciz_value(x, y, t) == pytest.approx(float(ref), rel=1e-12, abs=0)


class TestFreeTheoryRoutes:
    def test_second_moment_coefficients_agree(self):
        # scale tiny, only s2 survives: the two routes coincide at order eps^2
        n = 12
        pat = np.array([math.cos(1.3 * j) for j in range(n)])
        pat -= pat.mean()
        for tau in (1e-5, 1e-6):
            eps = tau * pat
            diff = polytope_route_correction(eps) - direct_route_correction(eps)
            assert abs(diff) < 5.0 * tau**3 * n

    def test_cubic_coefficient_gap_is_one_twelfth(self):
        n = 9
        pat = np.array([math.sin(2.1 * j + 0.2) for j in range(n)])
        pat -= pat.mean()
        eps = 1e-4 * pat
        s3 = float(np.sum(eps**3))
        diff = polytope_route_correction(eps) - direct_route_correction(eps)
        assert diff / s3 == pytest.approx(1.0 / 12.0, rel=1e-2, abs=0)

    def test_divergence_at_cube_root_scale(self):
        # the documented mismatch: at eps ~ N^(-1/3) the routes stay apart
        for n in (24, 48):
            pat = np.array([math.sin(2.3 * j + 0.4) for j in range(n)])
            pat -= pat.mean()
            eps = 0.8 * n ** (-1.0 / 3.0) * pat
            diff = abs(polytope_route_correction(eps) - direct_route_correction(eps))
            assert diff > 5e-3
        # while well below that scale the routes agree
        n = 48
        pat = np.array([math.sin(2.3 * j + 0.4) for j in range(n)])
        pat -= pat.mean()
        eps = n ** (-2.0 / 3.0) * pat
        assert abs(polytope_route_correction(eps) - direct_route_correction(eps)) < 1e-3


from hypothesis import given, settings
from hypothesis import strategies as st

_lam = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEigenIntegrandProperties:
    def test_subnormal_collision_is_finite(self):
        # 0 + 5e-324 is a collision, so the second eigenvalue's kernel entries
        # become subnormal derivative ones: a near-singular kernel whose
        # determinant must come out finite and without a warning
        spec = KineticSpectrum(3, (0.9, 1.2, 1.6), 0.05)
        assert math.isfinite(eigen_integrand(spec, (0.0, 5e-324, 0.37)))

    @settings(max_examples=60, deadline=None)
    @given(_lam, _lam, st.integers(0, 2))
    def test_finite_at_forced_collisions(self, l1, l3, which):
        # place one exact collision lam_j = -lam_i among three eigenvalues
        spec = KineticSpectrum(3, (0.9, 1.2, 1.6), 0.05)
        lam = [l1, -l1, l3]
        if which == 1:
            lam = [l1, l3, -l1]
        elif which == 2:
            lam = [l3, l1, -l1]
        # the same row in one batch with a near-collision row and a generic
        # row: the batch result is the per-row result
        batch = np.array([lam, [l1, -l1 + 1e-6, l3], [l1, l3, 0.37]])
        vals = eigen_integrand(spec, batch.T)
        assert vals.shape == (3,)
        rows = [eigen_integrand(spec, tuple(row)) for row in batch]
        assert list(vals) == pytest.approx(rows, rel=1e-13, abs=0)
        assert np.all(np.isfinite(vals))

    @settings(max_examples=40, deadline=None)
    @given(_lam, _lam, _lam)
    def test_finite_generic(self, l1, l2, l3):
        spec = KineticSpectrum(3, (0.9, 1.2, 1.6), 0.05)
        assert math.isfinite(eigen_integrand(spec, (l1, l2, l3)))


class TestZeroKineticN3:
    def test_n3_against_direct_matrix_mc(self):
        # 9-dimensional Hermitian MC oracle for exp(-Tr X^4), N = 3
        expect = z_zero_kinetic(3, 1.0).value
        rng = np.random.default_rng(21)
        n_samp = 150_000
        s = 0.75
        diag = rng.normal(0, s, (n_samp, 3))
        re = rng.normal(0, s, (n_samp, 3))
        im = rng.normal(0, s, (n_samp, 3))
        x = np.zeros((n_samp, 3, 3), dtype=complex)
        for i in range(3):
            x[:, i, i] = diag[:, i]
        for idx, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            x[:, i, j] = re[:, idx] + 1j * im[:, idx]
            x[:, j, i] = re[:, idx] - 1j * im[:, idx]
        x2 = np.einsum("mij,mjk->mik", x, x)
        tr_x4 = np.einsum("mij,mij->m", x2, x2.conj()).real
        comps = np.concatenate([diag, re, im], axis=1)
        log_q = -(comps**2).sum(axis=1) / (2 * s * s) - 9 * math.log(
            math.sqrt(2 * math.pi) * s
        )
        w = np.exp(-tr_x4 - log_q)
        est = w.mean()
        se = w.std() / math.sqrt(n_samp)
        assert abs(est - expect) <= max(4 * se, 0.03 * expect)
