#!/usr/bin/env python3
"""Cross-check the bound cores' rate**K against numpy's power at scale.

Draws N (rate, K) pairs in blocks of about 10,000 and compares
langevin_lab.bounds._power bit for bit with np.power(rate, K) under the
K == 2 -> rate * rate rule, evaluated on the same shapes.  Blocks rotate
through four kinds: special rates (0, -0.0, 1, subnormals, the smallest
normal, 1 - ulp) and uniform rates below 1e-300, against K in
{0, 1, 2, 3} or up to 1e12 elementwise; planner rows, uniform and
1 - geomspace(1e-17, 1) rates of shape (n,) against K - 1, K, K + 1 of
shape (c, 1); rates whose K * log2(rate) lies in [-1110, -1090], around
the underflow cut, and the largest rate cut at each K, for K up to 1e20;
and negative bases, non-integer K and 0-d calls.
Exits 1 at the first block that differs.

Example:

    python scripts/power_crosscheck.py --n 10000000 --seed 1
"""

import argparse
import sys
import time

import numpy as np

from langevin_lab.bounds import _power

BLOCK = 10_000
SPECIALS = np.array([0.0, -0.0, 1.0, 5e-324, 1e-320, 2.2250738585072014e-308, np.nextafter(1.0, 0.0), 0.5])


def reference(rate, K):
    with np.errstate(under="ignore", invalid="ignore"):
        out = np.power(rate, K)
        two = np.equal(K, 2)
        return np.where(two, rate * rate, out) if two.any() else out


def counts(rng: np.random.Generator, n: int) -> np.ndarray:
    """K in {0, 1, 2, 3} or log-uniform up to 1e12, as float or int64 per block."""
    k = np.where(rng.random(n) < 0.2, rng.integers(0, 4, n), np.floor(10.0 ** rng.uniform(0.0, 12.0, n)))
    return k if rng.random() < 0.5 else k.astype(np.int64)


def block_of(rng: np.random.Generator, kind: int) -> list[tuple]:
    """(rate, K) argument pairs holding about BLOCK values together."""
    if kind == 0:
        rate = np.where(rng.random(BLOCK) < 0.5, rng.choice(SPECIALS, BLOCK), rng.random(BLOCK) * 1e-300)
        return [(rate, counts(rng, BLOCK))]
    if kind == 1:
        n = BLOCK // 6
        k = float(np.floor(10.0 ** rng.uniform(0.0, 12.0)))
        rates = rng.random(n) if rng.random() < 0.5 else 1.0 - np.geomspace(1e-17, 1.0, n)
        return [(rates, np.array([k - 1.0, k, k + 1.0])[:, None]), (rates, np.array([[0.0], [1.0], [2.0]]))]
    if kind == 2:
        k = np.maximum(counts(rng, BLOCK), 1)
        k = np.where(rng.random(BLOCK) < 0.2, np.floor(10.0 ** rng.uniform(12.0, 20.0, BLOCK)), k)
        rate = np.exp2(rng.uniform(-1110.0, -1090.0, BLOCK) / k)
        edge = rng.random(BLOCK) < 0.25  # the largest rate the cut takes at that K
        rate[edge] = np.nextafter(np.exp2(-1100.0 / k[edge]), 0.0)
        return [(rate, k)]
    rate = rng.uniform(-1.0, 1.0, BLOCK)
    k = counts(rng, BLOCK) + np.where(rng.random(BLOCK) < 0.3, 0.5, 0.0)
    pairs = [(rate[:-100], k[:-100])]
    pairs += [(float(r), int(c) if float(c).is_integer() else float(c)) for r, c in zip(rate[-100:], k[-100:])]
    return pairs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1_000_000, help="values to compare (rounded up to whole blocks)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the value draws")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    blocks = -(-args.n // BLOCK)
    started, values, zeros = time.perf_counter(), 0, 0
    for b in range(blocks):
        for rate, K in block_of(rng, b % 4):
            with np.errstate(invalid="ignore"):
                got, want = np.asarray(_power(rate, K), dtype=float), np.asarray(reference(rate, K), dtype=float)
            if got.shape != want.shape:
                print(f"block {b}: shape {got.shape}, numpy {want.shape}")
                return 1
            bad = got.view(np.uint64) != want.view(np.uint64)
            if bad.any():
                i = tuple(np.argwhere(bad)[0]) if bad.ndim else ()
                r, k = (np.broadcast_to(x, bad.shape)[i] for x in (rate, K))
                print(f"block {b}: _power({r!r}, {k!r}) = {got[i]!r}, numpy {want[i]!r}")
                return 1
            values += got.size
            zeros += int(np.count_nonzero(got == 0.0))
    print(f"{values} values ({zeros} zero), seed {args.seed}: identical to np.power "
          f"({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
