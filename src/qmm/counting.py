"""Exact counting of zero-diagonal symmetric integer matrices by row sums.

Depth-first distribution of the smallest residual row with memoisation on
the sorted residual multiset, exact integers throughout and at most
`state_cap` residual states visited.  This is the brute-force oracle the
asymptotic formulas are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# Residual states: uniform rows N=10, t=11 visit 1.4e6 in about 4 s and
# N=10, t=40 trips this cap after 3.7-4.0 s (Python 3.11, shared 2-core host).
DEFAULT_STATE_CAP = 2_000_000


class InstanceTooLarge(Exception):
    """Raised when the count visits more residual states than its cap."""


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
        if any(tj < 0 for tj in self.t):
            raise ValueError("row sums must be non-negative")
        object.__setattr__(self, "t", tuple(int(tj) for tj in self.t))

    @property
    def x(self) -> int:
        """Total entry sum (twice the upper-triangle sum)."""
        return sum(self.t)


def count_row_sums(spec: RowSumSpec, state_cap: int = DEFAULT_STATE_CAP) -> int:
    """Exact number of symmetric matrices with zero diagonal, non-negative
    integer entries and row sums spec.t.

    Zero whenever the total is odd.  Memoised on the sorted residual tuple.
    Each peel of the smallest row r0 removes 2 r0, so the total stays even
    and 2 max <= total decides realisability (Hakimi 1962).  Raises
    InstanceTooLarge after state_cap recursion calls (memo hits included).
    """
    if spec.x % 2 == 1:
        return 0

    memo: dict[tuple[int, ...], int] = {}
    states = 0

    def rec(res: tuple[int, ...]) -> int:
        nonlocal states
        states += 1
        if states > state_cap:
            raise InstanceTooLarge(f"instance too large for exact oracle (> {state_cap:g} states)")
        # res is sorted ascending; strip settled rows
        while res and res[0] == 0:
            res = res[1:]
        if not res:
            return 1
        if 2 * res[-1] > sum(res):
            return 0
        cached = memo.get(res)
        if cached is not None:
            return cached
        r0 = res[0]
        rest = res[1:]
        m = len(rest)
        tails = [0] * (m + 1)
        for i in range(m - 1, -1, -1):
            tails[i] = tails[i + 1] + rest[i]
        total = 0

        def distribute(i: int, remaining: int, acc: tuple[int, ...]):
            nonlocal total
            if i == m - 1:
                if remaining <= rest[i]:
                    total += rec(tuple(sorted(acc + (rest[i] - remaining,))))
                return
            if remaining > tails[i]:
                return
            for b in range(min(remaining, rest[i]) + 1):
                distribute(i + 1, remaining - b, acc + (rest[i] - b,))

        distribute(0, r0, ())
        memo[res] = total
        return total

    return rec(tuple(sorted(spec.t)))


def count_total(n: int, x: int) -> int:
    """Total count over all row-sum vectors with entry sum x.

    binom(binom(n,2) - 1 + x/2, binom(n,2) - 1); zero for odd x.
    """
    if n < 2:
        raise ValueError("matrix size must be >= 2")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x % 2 == 1:
        return 0
    c = n * (n - 1) // 2
    return math.comb(c - 1 + x // 2, c - 1)
