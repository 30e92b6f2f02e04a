#!/usr/bin/env python3
"""Certified iteration counts: contraction-form bound vs comparison bound.

For each (epsilon, dimension) cell this computes the smallest K such
that some step size on a shared grid certifies W2 error below epsilon,
once under the contraction-form bound and once under the squared-form
comparison bound.  The ratio column shows how many fewer iterations the
contraction-form analysis certifies for the same target accuracy.

Example:

    python scripts/iteration_ratio_table.py
    python scripts/iteration_ratio_table.py --dims 10,100,1000 --grid-size 4000
"""

import argparse
import csv
import sys
import time

from langevin_lab import figure1_curves


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=float, default=4.0, help="strong convexity constant")
    ap.add_argument("--M", type=float, default=5.0, help="smoothness constant")
    ap.add_argument("--eps", default="0.1,0.3", help="comma-separated accuracies")
    ap.add_argument("--dims", default="10,100,1000,10000", help="comma-separated dimensions")
    ap.add_argument("--grid-size", type=int, default=10_000, help="step-size grid resolution")
    ap.add_argument("--out", default=None, help="optional CSV output path")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    eps = [float(s) for s in args.eps.split(",")]
    dims = [int(s) for s in args.dims.split(",")]

    t0 = time.perf_counter()
    points = figure1_curves(args.m, args.M, eps, dims, grid_size=args.grid_size)
    elapsed = time.perf_counter() - t0

    print(f"m={args.m}, M={args.M}, grid_size={args.grid_size}  ({elapsed:.2f}s)")
    print(f"{'eps':>6} {'p':>7} {'K_lmc':>10} {'K_baseline':>12} {'ratio':>7}")
    ratios = [pt.ratio for pt in points]
    for pt, ratio in zip(points, ratios):
        print(f"{pt.epsilon:>6.2f} {pt.p:>7d} {pt.k_lmc:>10d} {pt.k_baseline:>12d} {ratio:>7.3f}")
    print(f"ratio range: {min(ratios):.3f} .. {max(ratios):.3f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epsilon", "p", "k_lmc", "k_baseline", "ratio"])
            for pt, ratio in zip(points, ratios):
                writer.writerow([pt.epsilon, pt.p, pt.k_lmc, pt.k_baseline, f"{ratio:.6f}"])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
