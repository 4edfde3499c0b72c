#!/usr/bin/env python3
"""Failure rate of the full-rank projector versus sketch size.

The block-identity witness has numerical rank n, so sketches below the
n log n scale miss whole blocks and the approximation error pins at 1.
The sweep shows the sharp transition: compare each d against the exact
per-trial miss probability 1 - (1 - (1 - 1/n)^d)^n.
"""

import argparse
import math

from matsketch import optimality_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--m", type=int, default=256)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    n = args.n
    print(f"block-identity witness n={n}, m={args.m}, trials={args.trials}")
    print(f"{'d':>7} {'missed frac':>12} {'failure frac':>13} {'exact P(miss)':>14}")
    for factor in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        d = max(1, int(factor * n * math.log(n)))
        result = optimality_experiment(n, args.m, d, args.trials, seed=args.seed)
        exact = 1.0 - (1.0 - (1.0 - 1.0 / n) ** d) ** n
        print(
            f"{d:>7} {result.missed_block_fraction:>12.3f} "
            f"{result.failure_fraction:>13.3f} {exact:>14.3g}"
        )


if __name__ == "__main__":
    main()
