#!/usr/bin/env python3
"""Sweep data for diagonal subpolytope volumes: diagonal (c,...,c,x,1-x).

Emits CSV columns (x, exact, asymptotic, mc, mc_se) per N; polytope picks
the closed form and the sampler for N, and a column is nan where none
applies (no closed form above N = 4, no sampler at N = 3).

Usage: python scripts/volume_sweep.py --n 5 --points 17 --samples 200000
"""

import argparse
import math

from qmm.polytope import DiagonalSpec, asymptotic_volume, exact_volume, sampled_volume


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--c", type=float, default=0.5, help="fixed diagonal value")
    parser.add_argument("--points", type=int, default=17)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print("x,exact,asymptotic,mc,mc_se")
    for i in range(args.points):
        x = 0.25 + 0.5 * i / (args.points - 1) if args.points > 1 else 0.5
        h = (args.c,) * (args.n - 2) + (x, 1.0 - x)
        spec = DiagonalSpec(args.n, h)
        exact = exact_volume(spec)
        exact = math.nan if exact is None else exact
        asym = math.exp(asymptotic_volume(spec).log_abs)
        est, se = sampled_volume(spec, args.samples, args.seed) or (math.nan, math.nan)
        print(f"{x:.6f},{exact:.6e},{asym:.6e},{est:.6e},{se:.2e}")


if __name__ == "__main__":
    main()
