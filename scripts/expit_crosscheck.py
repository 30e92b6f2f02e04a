#!/usr/bin/env python3
"""Cross-check the logistic targets' numpy expit against scipy.special.expit at scale.

Draws N values in blocks of about 10,000 and compares
langevin_lab.targets._expit with scipy.special.expit on the same array.
Both compute 1 / (1 + exp(-z)); they differ only where numpy's SIMD exp
and the C library's exp round differently.  Blocks rotate through five
kinds: normal values of scale 1 to 100; uniform values in +-800; heavy
tails (Cauchy); the band [-745.2, -709.79] where exp(-z) overflows, with
the edge of that band; and special values (+-0, +-inf, NaN, subnormals,
the smallest normal) mixed with arbitrary bit patterns.
Prints the share of values that differ and the largest distance in units
in the last place.  Exits 1 if any value is more than 4 ulps off, or if
the two place 0.0, 1.0 or NaN differently.

Example:

    python scripts/expit_crosscheck.py --n 10000000 --seed 1
"""

import argparse
import sys
import time

import numpy as np
from scipy.special import expit

from langevin_lab.targets import _expit

BLOCK = 10_000
MAX_ULPS = 4
EDGE = 709.782712893384  # exp(x) is finite up to here
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                     2.2250738585072014e-308, -EDGE, np.nextafter(-EDGE, 0.0), np.nextafter(-EDGE, -np.inf)])


def block_of(rng: np.random.Generator, kind: int) -> np.ndarray:
    """BLOCK values of the given kind (0-4, in the order of the module docstring)."""
    if kind == 0:
        return rng.standard_normal(BLOCK) * 10.0 ** rng.uniform(0.0, 2.0)
    if kind == 1:
        return rng.uniform(-800.0, 800.0, BLOCK)
    if kind == 2:
        return rng.standard_cauchy(BLOCK)
    if kind == 3:
        z = rng.uniform(-745.2, -709.79, BLOCK)
        z[: BLOCK // 10] = -EDGE + rng.uniform(-1e-9, 1e-9, BLOCK // 10)
        return z
    bits = rng.integers(0, 2**64, BLOCK, dtype=np.uint64, endpoint=False).view(np.float64)
    return np.where(rng.random(BLOCK) < 0.5, rng.choice(SPECIALS, BLOCK), bits)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1_000_000, help="values to compare (rounded up to whole blocks)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the value draws")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    started, values, differ, worst, worst_z = time.perf_counter(), 0, 0, 0, None
    for b in range(-(-args.n // BLOCK)):
        z = block_of(rng, b % 5)
        got, want = _expit(z), expit(z)
        for name, placed in (("0.0", lambda x: x == 0.0), ("1.0", lambda x: x == 1.0), ("NaN", np.isnan)):
            moved = placed(got) != placed(want)
            if moved.any():
                i = int(np.argmax(moved))
                print(f"block {b}: expit({float(z[i])!r}) = {float(got[i])!r}, scipy {float(want[i])!r}: "
                      f"{name} placed differently")
                return 1
        # both lie in [0, 1] or are NaN, and in [0, 1] the bit patterns order like the doubles
        ulps = np.where(np.isnan(want), 0, np.abs(got.view(np.int64) - want.view(np.int64)))
        values, differ = values + z.size, differ + int(np.count_nonzero(ulps))
        if ulps.max() > worst:
            worst, worst_z = int(ulps.max()), float(z[int(np.argmax(ulps))])
        if worst > MAX_ULPS:
            print(f"block {b}: expit({worst_z!r}) is {worst} ulps from scipy")
            return 1
    print(f"{values} values, seed {args.seed}: {differ} ({differ / values:.2%}) differ, "
          f"the largest by {worst} ulps (z = {worst_z!r}); within {MAX_ULPS} ulps of scipy, "
          f"0.0, 1.0 and NaN placed alike ({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
