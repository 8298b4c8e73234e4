#!/usr/bin/env python3
"""Exact counts for the count-skewed instances, from a second counter.

The counter here shares no code with qmm.counting: it never sorts the
residual rows, so it does not rely on the permutation symmetry that qmm's
memo exploits.  It takes about 1-2 s per instance, so its results are
stored in workloads.SKEW_COUNTS.  Run from the repository root to
regenerate that table:

    python3 perfbench/reference_counts.py
"""

from __future__ import annotations

import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import SKEW_DEVIATIONS, SKEW_MEAN  # noqa: E402


def multigraphs(t: tuple[int, ...]) -> int:
    """Loopless multigraphs with degree sequence t, i.e. symmetric
    zero-diagonal non-negative integer matrices with row sums t."""

    @lru_cache(maxsize=None)
    def rest(res: tuple[int, ...]) -> int:
        if not res:
            return 1
        return spread(res[:-1], 0, res[-1])

    @lru_cache(maxsize=None)
    def spread(head: tuple[int, ...], i: int, left: int) -> int:
        # share `left` edges of the removed vertex among head[i:]
        if i == len(head):
            return rest(head) if left == 0 else 0
        return sum(
            spread(head[:i] + (head[i] - k,) + head[i + 1:], i + 1, left - k)
            for k in range(min(left, head[i]) + 1)
        )

    return rest(tuple(t))


if __name__ == "__main__":
    for dev in SKEW_DEVIATIONS:
        t = tuple(SKEW_MEAN + d for d in dev)
        print(f"    {dev}: {multigraphs(t)},", flush=True)
