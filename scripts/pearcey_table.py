#!/usr/bin/env python3
"""Regenerate the quartic-phase integral table at (a, b) = (-24, 14):
direct adaptive quadrature vs the middle-saddle approximation extended by
(i d/da)^k, for k = 0..8.

Usage: python scripts/pearcey_table.py [--a -24] [--b 14]
"""

import argparse

from qmm.quadrature import pearcey_direct, pearcey_region, pearcey_saddle, pearcey_saddles


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--a", type=float, default=-24.0)
    parser.add_argument("--b", type=float, default=14.0)
    parser.add_argument("--kmax", type=int, default=8)
    args = parser.parse_args()

    region = pearcey_region(args.a, args.b)
    saddles = pearcey_saddles(args.a, args.b)
    print(f"region: {region.region}  (8b^3 - 27a^2 = {region.discriminant:.6g})")
    # rounded to 12 digits (+ 0.0 turns -0.0 into 0.0) and sorted by imaginary,
    # then real part, so that root-finder order and ~1e-16 noise do not show
    shown = sorted(((round(s.imag, 12) + 0.0, round(s.real, 12) + 0.0)
                    for s in saddles))
    print("saddles:", ", ".join(f"{complex(re, im):.6g}" for im, re in shown))
    print(f"{'k':>2} {'direct':>14} {'saddle':>14} {'ratio':>7}")
    for k in range(args.kmax + 1):
        direct = pearcey_direct(args.a, args.b, k)
        saddle = pearcey_saddle(args.a, args.b, k)
        if saddle is None:
            print(f"{k:>2} {abs(direct):>14.4e} {'absent':>14} {'-':>7}")
        else:
            print(f"{k:>2} {abs(direct):>14.4e} {abs(saddle):>14.4e} "
                  f"{abs(saddle)/abs(direct):>7.3f}")


if __name__ == "__main__":
    main()
