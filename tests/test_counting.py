import gc
import math
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmm.counting import InstanceTooLarge, RowSumSpec, _takes, count_row_sums, count_total

N5_SUM32 = [
    ((6, 6, 6, 7, 7), 795),
    ((5, 6, 6, 7, 8), 679),
    ((5, 5, 6, 8, 8), 580),
    ((5, 5, 5, 7, 10), 381),
    ((5, 5, 5, 6, 11), 252),
    ((4, 5, 5, 5, 13), 56),
]


@pytest.mark.parametrize("t,expect", N5_SUM32)
def test_n5_sum32_rows(t, expect):
    assert count_row_sums(RowSumSpec(5, t)) == expect


def test_n3_forced_matrix():
    assert count_row_sums(RowSumSpec(3, (1, 1, 2))) == 1


def test_n5_sum64_row():
    assert count_row_sums(RowSumSpec(5, (12, 13, 13, 13, 13))) == 13818


def test_parity_zero():
    assert count_row_sums(RowSumSpec(4, (1, 2, 2, 2))) == 0


def test_unreachable_row_zero():
    # one row sum exceeding the sum of all others cannot be realised
    assert count_row_sums(RowSumSpec(4, (2, 2, 2, 9))) == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=3, max_size=6))
def test_permutation_invariance(t):
    spec = RowSumSpec(len(t), tuple(t))
    base = count_row_sums(spec)
    for perm in list(permutations(t))[:6]:
        assert count_row_sums(RowSumSpec(len(t), perm)) == base


def test_sum_rule_n4():
    # sum over all compositions of x of the per-row counts = total count
    n = 4
    for x in range(0, 11, 2):
        total = 0
        for a in range(x + 1):
            for b in range(x - a + 1):
                for c in range(x - a - b + 1):
                    d = x - a - b - c
                    total += count_row_sums(RowSumSpec(n, (a, b, c, d)))
        assert total == count_total(n, x)


@pytest.mark.parametrize(
    "n,x,expect",
    [(3, 2, 3), (2, 4, 1), (5, 32, math.comb(25, 9))],
)
def test_count_total_values(n, x, expect):
    assert count_total(n, x) == expect


def test_count_total_odd_is_zero():
    assert count_total(5, 7) == 0


def test_count_total_rejects_a_fractional_total():
    assert count_total(3.0, 4.0) == count_total(np.int64(3), np.int64(4)) == 6
    for x in (4.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="x must be an integer"):
            count_total(3, x)
    with pytest.raises(ValueError, match="matrix size must be an integer"):
        count_total(3.5, 4)


def test_resource_guard():
    with pytest.raises(InstanceTooLarge, match="too large"):
        count_row_sums(RowSumSpec(10, (20,) * 10), state_cap=10**4)


@pytest.mark.parametrize("t", [tuple(range(17, 24)) + (26,), (36,) * 18])
def test_resource_guard_bounds_memory(t):
    # distinct rows, or one large group, leave the smallest row far more ways
    # to spread than the cap allows; the cap must trip as they are reached,
    # not after all of them are listed (24-33 MB here)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge, match="too large"):
            count_row_sums(RowSumSpec(len(t), t), state_cap=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_spec_validation():
    with pytest.raises(ValueError):
        RowSumSpec(1, (3,))
    with pytest.raises(ValueError):
        RowSumSpec(3, (1, -1, 2))


def test_spec_rejects_fractional_row_sums():
    # truncated, (2.5, 1.7, 1.0) would be counted as (2, 1, 1)
    with pytest.raises(ValueError, match="row sum must be an integer, got 2.5"):
        RowSumSpec(3, (2.5, 1.7, 1.0))
    spec = RowSumSpec(3, (2.0, np.int64(1), np.float64(1.0)))
    assert spec.t == (2, 1, 1) and all(type(tj) is int for tj in spec.t)
    assert count_row_sums(spec) == 1


def test_uniform_counts_three_sig_figs():
    assert count_row_sums(RowSumSpec(6, (6,) * 6)) == 36935
    assert count_row_sums(RowSumSpec(7, (8,) * 7)) == 54202359


def test_uniform_n9_under_default_cap():
    assert count_row_sums(RowSumSpec(9, (10,) * 9)) == 846089582985032


def test_uniform_n10_under_default_cap():
    # the row-by-row counter (no grouping of equal rows) gave this in 2.2 s
    assert count_row_sums(RowSumSpec(10, (11,) * 10)) == 24545331954624862431


def test_count_leaves_no_cyclic_garbage():
    # the memo must go with the call, not wait for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        assert count_row_sums(RowSumSpec(7, (5, 5, 6, 8, 10, 11, 11))) == 13153053
        assert gc.collect() == 0
    finally:
        gc.enable()


def _brute_force_count(n, t):
    # independent oracle: enumerate the upper-triangle entries directly
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def rec(idx, residual):
        if idx == len(pairs):
            return 1 if all(r == 0 for r in residual) else 0
        i, j = pairs[idx]
        total = 0
        for v in range(min(residual[i], residual[j]) + 1):
            residual[i] -= v
            residual[j] -= v
            total += rec(idx + 1, residual)
            residual[i] += v
            residual[j] += v
        return total

    return rec(0, list(t))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=3, max_size=5))
def test_against_brute_force_enumeration(t):
    assert count_row_sums(RowSumSpec(len(t), tuple(t))) == _brute_force_count(len(t), t)


@pytest.mark.parametrize(
    "t,expect",
    [
        ((9, 9, 9, 9, 9, 9), 556580),
        ((8, 8, 8, 9, 10, 11), 450512),
        ((5, 5, 7, 7, 9, 21), 4838),
    ],
)
def test_n6_sum54_rows(t, expect):
    assert count_row_sums(RowSumSpec(6, t)) == expect


def test_sum_rule_n5():
    n, x = 5, 8
    total = 0
    for a in range(x + 1):
        for b in range(x - a + 1):
            for c in range(x - a - b + 1):
                for d in range(x - a - b - c + 1):
                    e = x - a - b - c - d
                    total += count_row_sums(RowSumSpec(n, (a, b, c, d, e)))
    assert total == count_total(n, x)


def _grouped_row_sums(rng):
    # 4-6 rows in groups of 2-4 equal rows, one singleton at most, even total
    while True:
        t = []
        while len(t) < 4:
            t += [rng.randint(1, 6)] * rng.randint(2, 4)
        if len(t) < 6 and rng.random() < 0.5:
            t.append(rng.randint(0, 6))
        if len(t) <= 6 and sum(t) % 2 == 0:
            rng.shuffle(t)
            return t


@pytest.mark.parametrize("seed", range(12))
def test_grouped_rows_against_brute_force(seed):
    t = _grouped_row_sums(random.Random(seed))
    assert count_row_sums(RowSumSpec(len(t), tuple(t))) == _brute_force_count(len(t), t)


@pytest.mark.parametrize("seed", range(6))
def test_distinct_rows_against_brute_force(seed):
    rng = random.Random(100 + seed)
    t = rng.sample(range(8), rng.randint(4, 6))
    t[0] += sum(t) % 2  # an even total, so the count is not zero by parity alone
    assert count_row_sums(RowSumSpec(len(t), tuple(t))) == _brute_force_count(len(t), t)


@pytest.mark.parametrize("k", range(1, 6))
def test_takes_weights_count_every_order(k):
    # summed over the multisets of takes, k!/prod(mult!) counts each way to
    # take s from k distinguishable rows once: binom(s + k - 1, k - 1)
    for s in range(9):
        options = list(_takes(9, k, s, {}))
        assert all(left == tuple(sorted(left)) and sum(9 - x for x in left) == s
                   for left, _ in options)
        assert sum(ways for _, ways in options) == math.comb(s + k - 1, k - 1)
