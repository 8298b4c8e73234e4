import dataclasses
import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmm import numkit, partition


class TestLambertTruncation:
    def test_threshold_value(self):
        assert numkit.TRUNCATION_GAMMA_STAR == pytest.approx(0.278464542761074, abs=1e-12)

    def test_lambert_defining_equation(self):
        w = numkit.TRUNCATION_GAMMA_STAR
        assert w * math.exp(w) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_bound_zero_gamma(self):
        assert numkit.taylor_truncation_bound(0.0, 100) == 0.0

    def test_bound_vanishes_below_threshold(self):
        # gamma e^(1+gamma) = 0.872 < 1 at gamma = 0.25
        assert 0.25 * math.exp(1.25) < 1.0
        b = [numkit.taylor_truncation_bound(0.25, n) for n in (50, 100, 400)]
        assert b[0] > b[1] > b[2]
        assert b[2] < 1e-10

    def test_bound_diverges_above_threshold(self):
        assert 0.30 * math.exp(1.30) > 1.0
        b = [numkit.taylor_truncation_bound(0.30, n) for n in (50, 100, 400)]
        assert b[0] < b[1] < b[2]


def _enumerate_distinct(m, n):
    # brute force: m distinct non-negative integers summing to n
    count = 0
    parts = range(n + 1)

    def rec(start, left, sum_left):
        nonlocal count
        if left == 0:
            if sum_left == 0:
                count += 1
            return
        for v in range(start, sum_left + 1):
            rec(v + 1, left - 1, sum_left - v)

    rec(0, m, n)
    return count


class TestDistinctPartitions:
    @pytest.mark.parametrize("m,n,expect", [(2, 5, 3), (4, 10, 5), (1, 7, 1)])
    def test_table_values(self, m, n, expect):
        assert numkit.distinct_partition_count(m, n) == expect

    def test_matches_enumeration(self):
        for m in range(1, 5):
            for n in range(0, 13):
                assert numkit.distinct_partition_count(m, n) == _enumerate_distinct(m, n)

    def test_zero_below_minimal_sum(self):
        for m in range(2, 6):
            assert numkit.distinct_partition_count(m, m * (m - 1) // 2 - 1) == 0

    @given(st.integers(1, 6), st.integers(0, 40))
    def test_recursion_and_bound(self, m, n):
        pm = numkit.distinct_partition_count
        if m >= 2 and n >= 1:
            assert pm(m, n) == pm(m - 1, n - m + 1) + pm(m, n - m)
        assert pm(m, n) <= numkit.distinct_partition_bound(m, n)


class TestPoleSums:
    def test_f_vanishes_low_power(self):
        assert numkit.symmetric_pole_sum(1, (1.0, 2.0, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_f_top_power_sign(self):
        assert numkit.symmetric_pole_sum(2, (1.0, 2.0, 3.0)) == pytest.approx(1.0)

    def test_g_normalisation(self):
        got = numkit.symmetric_pole_sum(0, (0.3, 1.7, 2.2, -4.0), z=0.7)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            numkit.symmetric_pole_sum(1, (1.0, 1.0, 3.0))

    def test_g_matches_written_out_sum(self):
        # two nodes: x_0^p (x_1 - z)/(x_1 - x_0) + x_1^p (x_0 - z)/(x_0 - x_1);
        # z = 0 is a shift too, not F
        x0, x1, p = Fraction(1, 3), Fraction(5, 2), 3
        for z in (Fraction(-2, 7), 0):
            expect = x0**p * (x1 - z) / (x1 - x0) + x1**p * (x0 - z) / (x0 - x1)
            assert numkit.symmetric_pole_sum(p, (x0, x1), z=z) == expect
        assert numkit.symmetric_pole_sum(p, (x0, x1), z=0) != numkit.symmetric_pole_sum(p, (x0, x1))

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=5, unique=True),
        st.integers(0, 3),
    )
    def test_f_equals_complete_homogeneous(self, nodes, extra):
        # for p = n-1+m: F = (-1)^(n-1) h_m, exact in rationals
        x = [Fraction(v, 7) for v in nodes]
        n = len(x)
        m = extra
        got = numkit.symmetric_pole_sum(n - 1 + m, x)
        expect = Fraction(-1) ** (n - 1) * numkit.complete_homogeneous(m, x)
        assert got == expect


def test_power_sums():
    assert numkit.power_sums([1, 2, 3], 3) == [3, 6, 14, 36]
    assert numkit.power_sums([], 2) == [0, 0, 0]


class TestCompositionIdentity:
    def test_exact_for_small_n(self):
        for n in range(1, 11):
            assert numkit.factorial_composition_identity(n) == Fraction(
                1, math.factorial(n)
            )


@pytest.mark.parametrize("call", [lambda: numkit.distinct_partition_count(4, 30),
                                  lambda: numkit.factorial_composition_identity(8)],
                         ids=["distinct_partition_count", "factorial_composition_identity"])
def test_leaves_no_cyclic_garbage(call):
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestPoleSumsComplex:
    def test_f_complex_nodes(self):
        x = (1 + 1j, 2 - 0.5j, -0.3 + 2j)
        got = numkit.symmetric_pole_sum(1, x)
        assert abs(got) < 1e-12  # p <= n-2 still vanishes off the real axis
        got = numkit.symmetric_pole_sum(2, x)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_g_complex_shift(self):
        x = (0.4 + 0.1j, 1.5, -1.0 - 0.7j, 2.2j)
        got = numkit.symmetric_pole_sum(0, x, z=0.7 - 0.2j)
        assert got == pytest.approx(1.0, abs=1e-10)


def _gauss_sampler(a, d):
    # E[exp(-a |z|^2)] over d standard normals is (1 + 2a)^(-d/2)
    def kernel(z):
        return np.exp(-a * (z * z).sum(axis=0))

    return numkit.Sampler("standard_normal", d, kernel)


def _lattice_normals(lattice, shift):
    # every block of the lattice's normals under this shift, side by side
    return np.concatenate([z.copy() for _, z in lattice.blocks(shift)], axis=1)


def _box_muller_reference(dim, shift):
    # the tent-folded shifted lattice through Box-Muller, one cos and sin per point
    n = numkit.LATTICE_POINTS
    gen = np.array([pow(numkit.KOROBOV_A, j, n) for j in range(dim)])
    u = gen[:, None] * np.arange(n) % n / n + shift[:, None]
    u -= np.floor(u)
    tent = 1.0 - np.abs(2.0 * u - 1.0)
    radius = np.sqrt(-2.0 * np.log(np.maximum(tent[0::2], 2.0**-53)))
    z = np.empty((dim, n))
    z[0::2] = radius * np.cos(2.0 * np.pi * tent[1::2])
    z[1::2] = radius * np.sin(2.0 * np.pi * tent[1::2])
    return z


class TestRqmcMean:
    def test_gaussian_integral(self):
        d, a = 4, 0.3
        [(mean, se)] = numkit.rqmc_mean([_gauss_sampler(a, d)], seed=3)
        assert 0.0 < se
        assert abs(mean - (1.0 + 2.0 * a) ** (-d / 2)) <= 4.0 * se

    def test_stderr_far_below_plain_mc(self):
        d, a = 4, 0.3
        evaluations = numkit.LATTICE_POINTS * numkit.RQMC_REPLICATES
        [(_, se_qmc)] = numkit.rqmc_mean([_gauss_sampler(a, d)], seed=4)
        _, se_mc = numkit.mc_mean(_gauss_sampler(a, d), evaluations, seed=4)
        assert se_qmc * 50.0 <= se_mc

    def test_same_seed_same_output(self):
        sampler = _gauss_sampler(0.7, 3)
        assert numkit.rqmc_mean([sampler], seed=9) == numkit.rqmc_mean([sampler], seed=9)

    @pytest.mark.parametrize("dim", [0, -1, numkit.LATTICE_MAX_DIM + 1])
    def test_dimension_out_of_range(self, dim):
        with pytest.raises(ValueError, match="lattice serves"):
            numkit.rqmc_mean([_gauss_sampler(0.3, dim)], seed=0)

    def test_non_normal_draws_rejected(self):
        sampler = numkit.Sampler("random", 1, lambda u: u[0])
        with pytest.raises(ValueError, match="standard normals, not random"):
            numkit.rqmc_mean([sampler], seed=0)

    def test_scale(self):
        sampler = _gauss_sampler(0.3, 2)
        [plain] = numkit.rqmc_mean([sampler], seed=5)
        [scaled] = numkit.rqmc_mean([dataclasses.replace(sampler, scale=-3.0)], seed=5)
        assert scaled == (-3.0 * plain[0], 3.0 * plain[1])

    def test_samplers_share_one_pass_with_the_bits_of_one_each(self):
        # the first kernel scribbles on its block, which must not reach the
        # second; each (value, stderr) is that of its sampler alone
        def scribble(z):
            w = np.exp(-0.3 * (z * z).sum(axis=0))
            z[:] = np.nan
            return w

        first = numkit.Sampler("standard_normal", 3, scribble, 2.0)
        second = _gauss_sampler(0.7, 4)
        both = numkit.rqmc_mean([first, second], seed=6)
        assert both == numkit.rqmc_mean([first], seed=6) + numkit.rqmc_mean([second], seed=6)
        assert all(math.isfinite(v) for pair in both for v in pair)

    @pytest.mark.parametrize("ks", [(2, 3), (4, 1), ()])
    def test_samplers_of_two_lattice_dimensions_rejected(self, ks):
        with pytest.raises(ValueError, match="one lattice dimension"):
            numkit.rqmc_mean([_gauss_sampler(0.3, k) for k in ks], seed=0)

    def test_lattice_index_mask_is_the_remainder(self):
        n = numkit.LATTICE_POINTS
        assert n & (n - 1) == 0 < n
        gen = np.array([pow(numkit.KOROBOV_A, j, n) for j in range(numkit.LATTICE_MAX_DIM)])
        index = gen[:, None] * np.arange(n) % n
        lattice = numkit._LatticeNormals(numkit.LATTICE_MAX_DIM)
        np.testing.assert_array_equal(lattice.points, index / n)

    def test_point_at_zero_gives_finite_normals(self):
        # the unshifted lattice holds the origin, where Box-Muller takes log 0
        z = _lattice_normals(numkit._LatticeNormals(4), np.zeros(4))
        assert z.shape == (4, numkit.LATTICE_POINTS)
        assert np.isfinite(z).all()
        assert np.abs(z).max() <= 8.6

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
    def test_rotated_normals_are_box_muller_on_the_tent(self, dim):
        # v = 0 and v = 1/2 fall on columns 0 and n/2 (where every p is 0
        # or 1/2) under shifts 0 and 1/2; the shift just below 1/2 puts
        # column 0 just short of the sign change of the angle's sine; shift
        # 1/n puts p + s at exactly 1 where p = 1 - 1/n, and rng.random's
        # largest value puts it just below 2 there; with 20 seeded shifts
        # per dimension, 125 in all
        n = numkit.LATTICE_POINTS
        edges = [np.zeros(dim), np.full(dim, 0.5), np.full(dim, np.nextafter(0.5, 0.0)),
                 np.full(dim, 1.0 / n), np.full(dim, 1.0 - 2.0**-53)]
        lattice = numkit._LatticeNormals(dim)
        for shift in edges + list(np.random.default_rng(dim).random((20, dim))):
            np.testing.assert_allclose(_lattice_normals(lattice, shift),
                                       _box_muller_reference(dim, shift), rtol=0, atol=1e-13)


class TestRows:
    # mc_mean's last batch at 70,000 samples, not a whole number of chunks
    TAIL = 70_000 - numkit.MC_BATCH

    @pytest.mark.parametrize("method", ["standard_normal", "random", "standard_exponential"])
    @pytest.mark.parametrize("k, m", [(3, numkit.MC_BATCH), (8, TAIL), (1, 5)])
    def test_generator_rows_are_the_transposed_draw(self, method, k, m):
        # the rows are the first m columns of a wider buffer, as mc_mean's
        # block is at a batch's tail; m reaches MC_BATCH when
        # KERNEL_BLOCK = MC_BATCH
        assert self.TAIL % numkit._ROW_CHUNK
        rows = np.zeros((k, numkit.MC_BATCH))[:, :m]
        rng = np.random.default_rng(11)
        ref = np.random.default_rng(11)
        numkit._draw(rng, method, rows)
        np.testing.assert_array_equal(rows, getattr(ref, method)((m, k)).T)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_generator_rows_continue_the_stream_into_out(self):
        # a whole block and then a batch's tail, drawn in turn into one buffer
        rows = np.empty((8, numkit.KERNEL_BLOCK))
        rng = np.random.default_rng(12)
        ref = np.random.default_rng(12)
        numkit._draw(rng, "standard_normal", rows)
        first = rows.copy()
        numkit._draw(rng, "standard_normal", rows[:, : self.TAIL])
        want = ref.standard_normal((numkit.KERNEL_BLOCK + self.TAIL, 8)).T
        np.testing.assert_array_equal(first, want[:, : numkit.KERNEL_BLOCK])
        np.testing.assert_array_equal(rows[:, : self.TAIL], want[:, numkit.KERNEL_BLOCK :])
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_lattice_serves_its_normals_rows_unchanged(self):
        # the kernel sees each replicate's first k normals rows, block by block
        seen = []

        def kernel(z):
            seen.append(z.copy())
            return np.zeros(z.shape[1])

        numkit.rqmc_mean([numkit.Sampler("standard_normal", 3, kernel)], 7)
        shift = np.random.default_rng(7).random((numkit.RQMC_REPLICATES, 4))[0]
        first = seen[: numkit.LATTICE_POINTS // numkit.KERNEL_BLOCK]  # the first replicate
        want = _lattice_normals(numkit._LatticeNormals(4), shift)[:3]
        np.testing.assert_array_equal(np.concatenate(first, axis=1), want)


class TestByBlocks:
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_blocks_cover_each_column_once(self, past):
        m = numkit.KERNEL_BLOCK + past
        seen = []

        def kernel(x):
            seen.append(x.copy())
            return np.exp(x[0]) * x[1] - x[2]

        mean, _ = numkit.mc_mean(numkit.Sampler("random", 3, kernel), m, 14)
        x = np.random.default_rng(14).random((m, 3)).T
        np.testing.assert_array_equal(np.concatenate(seen, axis=1), x)
        assert [b.shape[1] for b in seen] == ([m] if past <= 0 else [numkit.KERNEL_BLOCK, 1])
        assert mean == pytest.approx((np.exp(x[0]) * x[1] - x[2]).mean(), rel=1e-13, abs=0)

    @pytest.mark.parametrize("block", [numkit.MC_BATCH, 5000])
    @pytest.mark.parametrize("method, k", [("standard_normal", 7), ("random", 1),
                                           ("standard_exponential", 30)])
    def test_one_group_is_the_whole_draw_at_any_block(self, monkeypatch, method, k, block):
        # mc_mean weighs rng.<method>((samples, k)) in stream order, the
        # same bits whether a batch is one block or ends in a shorter one
        assert numkit.MC_BATCH % 5000
        seen = []

        def kernel(x):
            seen.append(x.copy())
            return x.sum(axis=0)

        sampler = numkit.Sampler(method, k, kernel)
        blocked = numkit.mc_mean(sampler, 70_000, 13)
        drawn = np.concatenate(seen, axis=1)
        np.testing.assert_array_equal(
            drawn, getattr(np.random.default_rng(13), method)((70_000, k)).T)
        seen.clear()
        monkeypatch.setattr(numkit, "KERNEL_BLOCK", block)
        assert numkit.mc_mean(sampler, 70_000, 13) == blocked
        np.testing.assert_array_equal(np.concatenate(seen, axis=1), drawn)


def _weights(sampler, samples, seed):
    # the weights mc_mean sees: the kernel over the sampler's whole draw
    rng = np.random.default_rng(seed)
    return sampler.kernel(getattr(rng, sampler.method)((samples, sampler.k)).T.copy())


class TestMcMean:
    def test_stderr_keeps_digits_on_near_constant_weights(self):
        # at g = 1e-10 the weights agree to about 11 digits; E[w^2] - E[w]^2
        # cancelled to a stderr 16x too large
        spec = partition.KineticSpectrum(2, (1.0, 1.1), 1e-10)
        sampler = partition.matrix_sampler(spec)
        _, se = partition.z_mc_matrix(spec, 200_000, 3)
        w = _weights(sampler, 200_000, 3)
        assert se == pytest.approx(sampler.scale * w.std() / math.sqrt(w.size), rel=0.01, abs=0)

    def test_batches_with_different_means(self):
        # lognormal weights exp(4 z): a few samples far in the tail set each
        # batch's mean, so the between-batch term counts
        sampler = numkit.Sampler("standard_normal", 1, lambda z: np.exp(4.0 * z[0]))
        mean, se = numkit.mc_mean(sampler, 200_000, 5)
        w = _weights(sampler, 200_000, 5)
        batch_means = [b.mean() for b in np.split(w, [numkit.MC_BATCH * j for j in (1, 2, 3)])]
        assert max(batch_means) > 2.0 * min(batch_means)
        assert mean == pytest.approx(w.mean(), rel=1e-14)
        assert se == pytest.approx(w.std() / math.sqrt(w.size), rel=1e-12)

    def test_bool_weights_count_exactly(self):
        sampler = numkit.Sampler("random", 1, lambda u: u[0] < 0.3)
        mean, se = numkit.mc_mean(sampler, 100_000, 2)
        hits = int(_weights(sampler, 100_000, 2).sum())
        assert mean == hits / 100_000
        assert se == pytest.approx(math.sqrt(mean * (1.0 - mean) / 100_000), rel=1e-12)

    def test_scale(self):
        sampler = numkit.Sampler("random", 2, lambda u: u[0] * u[1])
        plain = numkit.mc_mean(sampler, 70_000, 6)
        scaled = numkit.mc_mean(dataclasses.replace(sampler, scale=-3.0), 70_000, 6)
        assert scaled == (-3.0 * plain[0], 3.0 * plain[1])


class TestTrapezoid:
    def test_folded_gaussian(self):
        # int exp(-x^2) over the real line, folded onto [0, 6] as 2 exp(-t^2)
        value, err = numkit.trapezoid(lambda t: 2.0 * np.exp(-t * t), 0.5, 6.0)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert 0.0 < err < 1e-13

    def test_half_weight_on_each_zero_coordinate(self):
        # the quarter plane holds a quarter of the 2-D Gaussian integral pi / 2:
        # with weight 1 on the axes the sums would be off by about h sqrt(pi)
        value, err = numkit.trapezoid(lambda s, t: np.exp(-s * s - 2.0 * t * t), 0.4, 7.0, dim=2)
        assert value == pytest.approx(math.pi / (4.0 * math.sqrt(2.0)), rel=1e-14)
        assert err < 1e-13

    def test_step_halving_visits_each_node_once(self):
        # the passes together evaluate the final grid, each node once
        calls = []

        def f(t):
            calls.append(t)
            return 2.0 * np.exp(-t * t)

        numkit.trapezoid(f, 0.5, 6.0)
        nodes = np.sort(np.concatenate(calls))
        step = 0.5 / 2 ** (len(calls) - 1)
        assert len(calls) >= 2
        assert np.array_equal(nodes, step * np.arange(round(6.0 / step) + 1))

    def test_node_cap(self):
        # exp(i 1e8 t) would need about 1e9 nodes to resolve on [0, 6]
        with pytest.raises(ArithmeticError, match="nodes"):
            numkit.trapezoid(lambda t: np.cos(1e8 * t) * np.exp(-t * t), 1e-8, 6.0)
