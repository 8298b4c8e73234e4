import math

import numpy as np
import pytest

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
        assert b - a == pytest.approx(-sum(3 * g / (4 * em**2) for em in e), rel=1e-12)

    def test_expansion_tracks_closed_form(self):
        # |eps| <= 0.01, N = 6: the expansion (constant carried) agrees to 1e-4
        n = 6
        eps = [0.01 * math.sin(2.2 * j + 0.3) for j in range(n)]
        m = sum(eps) / n
        e = tuple(1.0 + x - m for x in eps)
        spec = KineticSpectrum(n, e, 0.0)
        closed = z_weak(spec).log_abs
        expanded = z_weak_expanded(spec, include_norm_const=True).log_abs
        assert abs(closed - expanded) < 1e-4

    def test_printed_expansion_normalises_to_free_theory(self):
        # the printed diagnostics form drops the sqrt((N-1)/N) constant and
        # reduces to z_free exp(-3g sum e^-2/4) at the symmetric spectrum
        for n in (3, 6):
            g = 1e-12
            spec = KineticSpectrum(n, (1.0,) * n, g)
            lhs = z_weak_expanded(spec, include_norm_const=False).log_abs
            rhs = z_free(KineticSpectrum(n, (1.0,) * n)).log_abs - 3 * g * n / 4
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_closed_form_residual_constant_documented(self):
        # z_weak carries sqrt((N-1)/N) against z_free at the symmetric point
        for n in (2, 3, 6):
            spec = KineticSpectrum(n, (1.4,) * n, 0.0)
            diff = z_weak(spec).log_abs - z_free(spec).log_abs
            assert diff == pytest.approx(0.5 * math.log((n - 1) / n), abs=1e-12)

    def test_weak_coupling_vs_mc_symmetric_spectrum(self):
        # the closed form is honest only while the quartic term is truly
        # perturbative: within 5% of the MC oracle at g = 0.002
        spec = KineticSpectrum(3, (1.0, 1.0, 1.0), 0.002)
        predicted = math.exp(z_weak_expanded(spec, include_norm_const=False).log_abs)
        est, _ = z_mc_eigen(spec, 400_000, seed=3)
        assert abs(predicted - est) / est < 0.05

    def test_weak_coupling_overshoot_documented_at_moderate_g(self):
        # at g = 0.1 the exponential correction captures only part of the
        # quartic suppression (coefficient -sum 3/(4e^2) = -2.25 vs the
        # matrix model's first-order -E[Tr X^4] = -14.25 at N = 3): the
        # closed form overshoots the oracle by about 2x, surfaced here
        spec = KineticSpectrum(3, (1.0, 1.0, 1.0), 0.1)
        predicted = math.exp(z_weak_expanded(spec, include_norm_const=False).log_abs)
        est, _ = z_mc_eigen(spec, 400_000, seed=3)
        assert predicted / est == pytest.approx(2.0, abs=0.15)


class TestZZeroKinetic:
    def test_n1_value(self):
        assert z_zero_kinetic(1, 1.0).value == pytest.approx(math.gamma(0.25) / 2)

    def test_g_scaling(self):
        n = 3
        a = z_zero_kinetic(n, 1.0).log_abs
        b = z_zero_kinetic(n, 2.5).log_abs
        assert a - b == pytest.approx((n * n / 4) * math.log(2.5), rel=1e-12)

    def test_n2_against_matrix_mc(self):
        # direct 4-dimensional Hermitian MC oracle for exp(-Tr X^4)
        expect = z_zero_kinetic(2, 1.0).value
        assert expect == pytest.approx(math.pi**2 * math.sqrt(2) / 4, rel=1e-10)
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
        with pytest.raises(ValueError):
            z_zero_kinetic(2, 0.0)


class TestEigenIntegrand:
    def test_collision_limit_continuous(self):
        spec = KineticSpectrum(3, (1.0, 1.1, 1.2), 0.1)
        lam1 = 0.7
        at_limit = eigen_integrand(spec, (lam1, -lam1, 0.3))
        probe = eigen_integrand(spec, (lam1, -lam1 + 1e-6, 0.3))
        assert at_limit == pytest.approx(probe, rel=1e-4)
        assert math.isfinite(at_limit)

    def test_equal_eigenvalues_vanish(self):
        spec = KineticSpectrum(3, (1.0, 1.1, 1.2), 0.0)
        assert eigen_integrand(spec, (0.4, 0.4, 0.4)) == pytest.approx(0.0, abs=1e-15)

    def test_global_sign_flip_even(self):
        spec = KineticSpectrum(3, (1.0, 1.3, 1.9), 0.2)
        lam = (0.3, -0.8, 1.1)
        a = eigen_integrand(spec, lam)
        b = eigen_integrand(spec, tuple(-x for x in lam))
        assert a == pytest.approx(b, rel=1e-12)


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
# batch and part of a second), recorded with the complex-matrix einsum
# kernel: the real-component kernel must reproduce its seeded outputs
MATRIX_MC_PINS = {
    (1, 0.1, 111): (1.6756957778171293, 0.0008313134103201346),
    (2, 0.1, 121): (3.344026730832043, 0.004165322367810583),
    (3, 0.1, 131): (6.318085455164278, 0.014405381483261362),
    (4, 0.1, 141): (9.605922183542358, 0.0355490161756775),
    (1, 0.5, 115): (1.4865066360967807, 0.0017524819198250097),
    (2, 0.5, 125): (1.901596184227194, 0.0056862731647042385),
    (3, 0.5, 135): (1.5283493578018637, 0.009589088689692698),
    (4, 0.5, 145): (0.6283226162105844, 0.008733125097807612),
}


@pytest.mark.parametrize("key", sorted(MATRIX_MC_PINS))
def test_matrix_mc_seeded_outputs_pinned(key):
    n, g, seed = key
    spec = KineticSpectrum(n, (1.0, 1.1, 1.2, 1.3)[:n], g)
    mean, se = z_mc_matrix(spec, 70_000, seed)
    want_mean, want_se = MATRIX_MC_PINS[key]
    assert mean == pytest.approx(want_mean, rel=1e-12)
    assert se == pytest.approx(want_se, rel=1e-12)


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
    assert mean == pytest.approx(want_mean, rel=1e-12)
    assert se == pytest.approx(want_se, rel=1e-12)


def test_haar_mc_seeded_output_pinned():
    mean, se = hciz_haar_mc2((0.3, 1.4), (0.2, 0.9), 1.0, 100_000, 21)
    assert mean == pytest.approx(2.6072959993579237, rel=1e-12)
    assert se == pytest.approx(0.0018243363621251278, rel=1e-12)


class TestQuadratureOracle:
    def test_free_theory(self):
        spec = KineticSpectrum(2, (1.0, 1.1), 0.0)
        value, err = z_quad_n2(spec)
        assert value == pytest.approx(z_free(spec).value, rel=1e-9)
        assert 0.0 <= err < 1e-5

    def test_agrees_with_eigen_mc(self):
        spec = KineticSpectrum(2, (1.0, 2.0), 0.5)
        value, err = z_quad_n2(spec)
        est, se = z_mc_eigen(spec, 400_000, seed=12)
        assert abs(value - est) <= 4 * math.hypot(se, err)

    def test_needs_n2(self):
        with pytest.raises(ValueError):
            z_quad_n2(KineticSpectrum(3, (1.0, 1.1, 1.2), 0.1))


class TestHciz:
    def test_two_by_two_value(self):
        assert hciz_value((0.0, 1.0), (0.0, 1.0), 1.0) == pytest.approx(math.e - 1.0)

    def test_t_to_zero_limit(self):
        assert hciz_value((0.3, 1.4), (0.2, 0.9), 1e-7) == pytest.approx(1.0, rel=1e-6)

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
        assert base == pytest.approx(probe, rel=1e-3)

    def test_too_degenerate_rejected(self):
        with pytest.raises(ValueError):
            hciz_value((0.0, 1.0, 2.0), (0.5, 0.5, 0.5), 1.0)


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
        assert diff / s3 == pytest.approx(1.0 / 12.0, rel=1e-2)

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
        vals = eigen_integrand(spec, batch)
        assert vals.shape == (3,)
        rows = [eigen_integrand(spec, tuple(row)) for row in batch]
        assert list(vals) == pytest.approx(rows, rel=1e-13)
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
