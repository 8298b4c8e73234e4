#!/usr/bin/env python3
"""Regenerate the uniform-row-sum ratio table: exact count, asymptotic
estimate, and their ratio for N = 6..11 (the exact oracle's range under
the default state cap) plus the asymptotic value alone further out, where
the exact and ratio columns print "-".

Usage: python scripts/ratio_table.py [--max-n 12]
"""

import argparse
import math

from qmm.asymcount import asymptotic_count, lambda_star
from qmm.counting import RowSumSpec, count_row_sums

ROWS = [(6, 6), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 13)]
#: the largest N whose row the exact counter settles under the default state cap
EXACT_MAX_N = 11


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=12)
    args = parser.parse_args()

    print(f"{'N':>3} {'t':>3} {'lambda':>7} {'exact':>12} {'asymptotic':>12} {'ratio':>7}")
    for n, t in ROWS:
        if n > args.max_n:
            break
        spec = RowSumSpec(n, (t,) * n)
        res = asymptotic_count(spec)
        asym = math.exp(res.value.log_abs)
        if n > EXACT_MAX_N:
            print(f"{n:>3} {t:>3} {lambda_star(spec):>7.2f} {'-':>12} {asym:>12.3e} {'-':>7}")
            continue
        exact = count_row_sums(spec)
        print(f"{n:>3} {t:>3} {lambda_star(spec):>7.2f} {exact:>12.3e} "
              f"{asym:>12.3e} {asym / exact:>7.3f}")


if __name__ == "__main__":
    main()
