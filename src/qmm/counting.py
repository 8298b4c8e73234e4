"""Exact counting of zero-diagonal symmetric integer matrices by row sums.

Depth-first distribution of the smallest residual row over the groups of
equal other rows, with memoisation on the sorted residual multiset, exact
integers throughout and at most `state_cap` residual states visited.  This
is the brute-force oracle the asymptotic formulas are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# Residual states: uniform rows N=10, t=11 visit 2.3e5 in 0.4-0.8 s, N=11,
# t=12 visit 1.0e6 in 1.9-2.3 s, and N=10, t=40 trips this cap after 3.2-3.9 s
# (Python 3.11, shared 2-core host).
DEFAULT_STATE_CAP = 2_000_000


class InstanceTooLarge(ArithmeticError):
    """Raised when the count visits more residual states than its cap."""


def _integer(value, what: str) -> int:
    """value as an int; integral floats and numpy integers pass, others raise ValueError."""
    try:
        if int(value) == value:
            return int(value)
    except (OverflowError, ValueError):  # inf, nan
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RowSumSpec:
    """Matrix size and prescribed row sums for the counting problem."""

    n: int
    t: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("matrix size must be >= 2")
        if len(self.t) != self.n:
            raise ValueError("need one row sum per row")
        t = tuple(_integer(tj, "a row sum") for tj in self.t)
        if any(tj < 0 for tj in t):
            raise ValueError("row sums must be non-negative")
        object.__setattr__(self, "t", t)

    @property
    def x(self) -> int:
        """Total entry sum (twice the upper-triangle sum)."""
        return sum(self.t)


def count_row_sums(spec: RowSumSpec, state_cap: int = DEFAULT_STATE_CAP) -> int:
    """Exact number of symmetric matrices with zero diagonal, non-negative
    integer entries and row sums spec.t.

    Zero whenever the total is odd.  Memoised on the sorted residual tuple.
    Each peel of the smallest row r0 removes 2 r0, so the total stays even
    and 2 max <= total decides realisability (Hakimi 1962); three or fewer
    rows that pass it fix the matrix.  r0 is spread over the other rows as
    (value v, multiplicity k) groups: a group takes a multiset of amounts
    b_1 >= ... >= b_k, weighted by the k! / prod(mult!) orders of its
    rows, and at least what the groups after it cannot absorb.  The
    groups are walked depth first, each residual counted as it is
    reached.  Raises InstanceTooLarge after state_cap recursion calls
    (memo hits included).
    """
    if spec.x % 2 == 1:
        return 0
    try:
        return _count(tuple(sorted(spec.t)), {}, {}, [state_cap])
    except InstanceTooLarge:
        raise InstanceTooLarge(
            f"instance too large for exact oracle (> {state_cap:g} states)") from None


# Module-level functions with the memo, the table of takes and the state
# budget passed in, not closures over them: closures that call themselves
# are reference cycles, which would leave each count's memo for the cyclic
# collector.
def _count(res: tuple[int, ...], memo: dict, takes: dict, budget: list[int]) -> int:
    """Matrices left for the ascending residual row sums res; budget[0]
    is the number of states still allowed."""
    budget[0] -= 1
    if budget[0] < 0:
        raise InstanceTooLarge
    # strip settled rows
    while res and res[0] == 0:
        res = res[1:]
    if not res:
        return 1
    if 2 * res[-1] > sum(res):
        return 0
    if len(res) <= 3:
        return 1  # three row sums fix the matrix: x_ij = (t_i + t_j - t_k) / 2
    cached = memo.get(res)
    if cached is not None:
        return cached
    sizes = {}  # multiplicity of each value among the other rows
    for v in res[1:]:
        sizes[v] = sizes.get(v, 0) + 1
    groups = tuple(sizes.items())
    total = _distribute(0, res[0], sum(res) - res[0], (), groups, memo, takes, budget)
    memo[res] = total
    return total


def _distribute(i, remaining, room, acc, groups, memo, takes, budget) -> int:
    """Sum of _count over every way to take `remaining` from the (value v,
    multiplicity k) groups[i:], which hold `room` in all, with the
    leftovers of groups[:i] already in acc.  Every take is at most
    res[0] <= v, so only what the later groups can absorb bounds it."""
    v, k = groups[i]
    room -= v * k
    last = i + 1 == len(groups)
    total = 0
    for s in range(max(0, remaining - room), remaining + 1):
        options = takes.get((v, k, s))
        if options is None:
            options = _takes(v, k, s, takes)
        for left, ways in options:
            if last:
                total += ways * _count(tuple(sorted(acc + left)), memo, takes, budget)
            else:
                total += ways * _distribute(
                    i + 1, remaining - s, room, acc + left, groups, memo, takes, budget)
    return total


def _takes(v: int, k: int, s: int, table: dict):
    """Each way to take s from k rows of value v, up to the order of the
    rows: the rows' leftovers, ascending, and the number of orders,
    k! / prod(mult!) over the multiplicities of the takes.  Made as the
    caller reaches them and put in table once made in full, so a table
    never holds more entries than the states they led to."""
    made = []
    for parts in _partitions(s, k, s):
        amounts = parts + (0,) * (k - len(parts))
        ways = run = 1  # orders of amounts[:j + 1], run the length of its last run
        for j in range(1, k):
            run = run + 1 if amounts[j] == amounts[j - 1] else 1
            ways = ways * (j + 1) // run
        made.append((tuple(v - b for b in amounts), ways))
        yield made[-1]
    table[v, k, s] = made


def _partitions(s: int, k: int, cap: int):
    """Non-increasing tuples of at most k positive parts, each at most
    cap, that sum to s."""
    if s == 0:
        yield ()
        return
    for first in range(min(s, cap), 0, -1):
        if first * k < s:
            break
        for tail in _partitions(s - first, k - 1, first):
            yield (first,) + tail


def count_total(n: int, x: int) -> int:
    """Total count over all row-sum vectors with entry sum x.

    binom(binom(n,2) - 1 + x/2, binom(n,2) - 1); zero for odd x.
    """
    n, x = _integer(n, "the matrix size"), _integer(x, "x")
    if n < 2:
        raise ValueError("matrix size must be >= 2")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x % 2 == 1:
        return 0
    c = n * (n - 1) // 2
    return math.comb(c - 1 + x // 2, c - 1)
