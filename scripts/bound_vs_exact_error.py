#!/usr/bin/env python3
"""Track a chain's true W2 error against the closed-form bound.

For a random quadratic target the k-step law of the chain is Gaussian
with closed-form moments, so the Wasserstein-2 distance
to the target can be computed without sampling.  This script sweeps
iteration checkpoints and prints the exact error next to the
closed-form bound; in one dimension it also measures the error
empirically from replicated chains as a sanity check on the sampler.

Example:

    python scripts/bound_vs_exact_error.py --p 1 --replicas 20000
    python scripts/bound_vs_exact_error.py --p 5 --h 0.1 --out sweep.csv
"""

import argparse

import numpy as np
from scipy import stats

from langevin_lab import (
    BoundInputs,
    LmcConfig,
    empirical_w2_1d,
    final_states,
    gaussian_w2,
    lmc_bound,
    moments_after_k,
    quadratic_target,
    stationary_moments,
    w2_init_exact,
)
from langevin_lab.validation import random_spd


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=2, help="target dimension")
    ap.add_argument("--h", type=float, default=None, help="step size (default 1/M)")
    ap.add_argument("--seed", type=int, default=0, help="seed for target and chains")
    ap.add_argument(
        "--checkpoints",
        default="1,2,5,10,20,50,100,200,500",
        help="comma-separated iteration counts",
    )
    ap.add_argument(
        "--replicas",
        type=int,
        default=20_000,
        help="chains for the empirical column (used only when p=1)",
    )
    ap.add_argument("--out", default=None, help="optional CSV output path")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64)))
    mean = rng.standard_normal(args.p)
    target = quadratic_target(mean, random_spd(rng, args.p, 1.0, 10.0))
    spec = target.oracle_meta
    h = args.h if args.h is not None else 1.0 / target.M
    if not 0.0 < h < 2.0 / target.M:
        raise SystemExit(f"h must lie in (0, 2/M) = (0, {2.0 / target.M:.4g})")

    theta0 = mean + 2.0 * rng.standard_normal(args.p)
    w2_0 = w2_init_exact(spec, theta0)
    pi = stationary_moments(spec)
    checkpoints = sorted({int(k) for k in args.checkpoints.split(",")})

    print(f"target: p={args.p}, m={target.m:.4f}, M={target.M:.4f}, h={h:.5f}, w2_init={w2_0:.4f}")
    do_empirical = args.p == 1
    header = f"{'k':>6} {'exact W2':>12} {'bound':>12} {'headroom':>10}"
    if do_empirical:
        header += f" {'empirical':>12}"
    print(header)

    rows = []
    for k in checkpoints:
        exact = gaussian_w2(moments_after_k(spec, theta0, h, k), pi)
        bound = lmc_bound(
            BoundInputs(m=target.m, M=target.M, h=h, K=k, p=args.p, w2_init=w2_0)
        ).value
        row = {"k": k, "exact_w2": exact, "bound": bound, "headroom": bound - exact}
        line = f"{k:>6} {exact:>12.6f} {bound:>12.6f} {bound - exact:>10.4f}"
        if do_empirical:
            finals = final_states(
                target, LmcConfig(h=h, K=k, seed=args.seed), theta0, args.replicas
            )[:, 0]
            grid = (np.arange(args.replicas) + 0.5) / args.replicas
            quantiles = stats.norm.ppf(
                grid, loc=float(spec.mean[0]), scale=float(spec.precision[0, 0]) ** -0.5
            )
            row["empirical_w2"] = empirical_w2_1d(finals, quantiles)
            line += f" {row['empirical_w2']:>12.6f}"
        rows.append(row)
        print(line)

    violations = sum(1 for r in rows if r["exact_w2"] > r["bound"] + 1e-10)
    print(f"checkpoints with exact error above the bound: {violations}/{len(rows)}")

    if args.out:
        import csv

        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
