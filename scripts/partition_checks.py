#!/usr/bin/env python3
"""Cross-check table for the partition-function evaluators.

For a given kinetic spectrum, sweep the coupling and print the free
theory, the weak-coupling closed form (printed-expansion normalisation),
and the two Monte-Carlo oracles side by side.

Usage: python scripts/partition_checks.py --e 1.0,1.1,1.2 --samples 400000
"""

import argparse
import math

from qmm.partition import (
    MATRIX_MC_MAX_N,
    KineticSpectrum,
    z_free,
    z_mc_eigen,
    z_mc_matrix,
    z_weak_expanded,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--e", default="1.0,1.1,1.2")
    parser.add_argument("--samples", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    e = tuple(float(v) for v in args.e.split(","))

    print(f"{'g':>8} {'free':>10} {'weak':>10} {'eigen MC':>18} {'matrix MC':>18}")
    for g in (0.0, 0.001, 0.01, 0.1, 0.5):
        spec = KineticSpectrum(len(e), e, g)
        free = z_free(spec).value
        weak = z_weak_expanded(spec)
        weak = math.nan if weak is None else weak.value
        emc, ese = z_mc_eigen(spec, args.samples, args.seed)
        row = f"{g:>8.3f} {free:>10.4f} {weak:>10.4f} {emc:>12.4f} +- {ese:<6.4f}"
        if len(e) <= MATRIX_MC_MAX_N:
            mmc, mse = z_mc_matrix(spec, args.samples, args.seed)
            row += f" {mmc:>12.4f} +- {mse:<6.4f}"
        print(row)


if __name__ == "__main__":
    main()
