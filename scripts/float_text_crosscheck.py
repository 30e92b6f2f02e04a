#!/usr/bin/env python3
"""Cross-check the sample CSV float encoder against Python's repr at scale.

Draws N float64 values in blocks of 100 x 100, encodes each block with
langevin_lab.outputs.encode_rows and compares the text with the lines
it stands in for, f"{i}," + ",".join(map(repr, row)) + "\\n".  Blocks
rotate through three kinds of values: uniform random bit patterns (every
sign, exponent and class), random bit patterns whose exponent lies in or
near the fixed-notation range the encoder computes itself, and chain-like
values (normals at random decimal scales, half of them rounded to a few
decimal places).  Exits 1 at the first block whose text differs.

Example:

    python scripts/float_text_crosscheck.py --n 10000000 --seed 1
"""

import argparse
import sys
import time

import numpy as np

from langevin_lab.outputs import encode_rows

ROWS, COLS = 100, 100


def block_of(rng: np.random.Generator, kind: int) -> np.ndarray:
    n = ROWS * COLS
    if kind == 0:
        bits = rng.integers(0, 2**64, n, dtype=np.uint64)
    elif kind == 1:
        exponent = rng.integers(1000, 1081, n, dtype=np.uint64)  # fixed notation: 1005..1074
        bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)) | (exponent << np.uint64(52))
        bits |= rng.integers(0, 2**52, n, dtype=np.uint64)
    else:
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n)
        half = rng.random(n) < 0.5
        x[half] = np.round(x[half] * 1e3) / 1e3
        return x.reshape(ROWS, COLS)
    return bits.view(np.float64).reshape(ROWS, COLS)


def reference(block: np.ndarray, first: int) -> str:
    return "".join(f"{first + i}," + ",".join(map(repr, row.tolist())) + "\n" for i, row in enumerate(block))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1_000_000, help="values to compare (rounded up to whole blocks)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the value draws")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    blocks = -(-args.n // (ROWS * COLS))
    started = time.perf_counter()
    for b in range(blocks):
        block = block_of(rng, b % 3)
        got, want = encode_rows(block, b * ROWS), reference(block, b * ROWS)
        if got != want:
            for line_got, line_want in zip(got.splitlines(), want.splitlines()):
                for x, y in zip(line_got.split(","), line_want.split(",")):
                    if x != y:
                        print(f"block {b}: encoded {x!r}, repr {y!r}")
                        return 1
            print(f"block {b}: texts differ")
            return 1
    print(f"{blocks * ROWS * COLS} values, seed {args.seed}: identical to repr "
          f"({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
