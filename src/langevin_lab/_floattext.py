"""Python's float repr for whole blocks of values: the text of sample CSVs.

encode_rows(block, first) returns, for a 2-D float64 block, exactly

    "".join(f"{first + i}," + ",".join(map(repr, row.tolist())) + "\\n"
            for i, row in enumerate(block))

without one repr call per value.  repr writes the shortest decimal that
reads back as the same double, the closest one if several are that short
(ties to an even last digit), in fixed notation when the decimal point
position decpt satisfies -4 < decpt <= 16.  For normal doubles written
that way with a fractional part, those digits come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), evaluated on
int64 arrays.  There v = c * 2**q with q in [-70, -1], so the power
10**-k = 5**e * 2**e that Schubfach scales by has e = -k <= 22 and
5**e < 2**53: the scaled values are exact dyadic rationals, and a float
estimate plus its residual modulo 2**64 stands in for the 128-bit
multiply by a rounded 10**-k.  Every other value (zeros, subnormals,
inf, nan, integral values, the scientific range, or all of them if
sys.float_repr_style is not "short") is written by repr itself.

Each value gets a fixed cell of NUL-padded bytes: sign, "0." and up to
three zeros, the 17 digits with a slot for the decimal point after each
of the first 16, and the separator.  Removing the NULs once leaves the
text.
"""

from __future__ import annotations

import sys

import numpy as np

_Q_LO, _Q_HI = -70, -1  # q of every fixed-notation value with a fractional part
_POW5 = np.array([5**e for e in range(23)], dtype=np.uint64)
_POW10X4 = np.array([4.0 * 10**e for e in range(23)])  # exact doubles
_CELL = 40  # sign, "0.", 3 zeros, 17 digits and 16 dot slots, separator
_TEXT = 24  # the longest repr: sign, 17 digits, ".", "e-308"
# Cell templates, row decpt + 3 for decpt in [-3, 16] and a blank last row:
# "0." and -decpt zeros before the digits, or the point after digit decpt.
_LAYOUT = np.zeros((21, _CELL), np.uint8)
for _d in range(-3, 1):
    _LAYOUT[_d + 3, 1 : 3 - _d] = np.frombuffer(b"0.000"[: 2 - _d], np.uint8)
_LAYOUT[np.arange(4, 20), np.arange(7, 38, 2)] = 46
_LAYOUT[:, -1] = 44  # ","


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's digits d and exponent k, d * 10**k, for doubles with q in [_Q_LO, _Q_HI].

    Other exponents are clipped into that range; their results are not used.
    """
    be = np.minimum(np.maximum((bits >> 52) & 0x7FF, 1075 + _Q_LO), 1075 + _Q_HI)
    f = bits & ((1 << 52) - 1)
    v = (f | (be << 52)).view(np.float64)  # |value|, the exponent clipped
    q = be.view(np.int64) - 1075
    x = (f | (1 << 52)) << 2  # 4c
    closer = f == 0  # a power of two: the gap below v is half the gap above
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2**q)), or of 3/4 * 2**q when closer
    t = k - q  # in [0, 48]: x * 2**q * 10**-k = x * 5**-k / 2**t = est + rem / 2**t
    est = np.floor(v * _POW10X4[-k]).astype(np.int64)  # within 64 of x * 5**-k / 2**t
    p5 = _POW5[-k]
    rem = (x * p5 - (est.view(np.uint64) << t.view(np.uint64))).view(np.int64)  # exact: |rem| < 2**63
    low = (1 << t) - 1

    def round_to_odd(r):  # est + r / 2**t rounded down, its last bit set if inexact
        return (est + (r >> t)) | ((r & low) != 0)

    p5 = p5.view(np.int64)
    odd = (x >> 2).view(np.int64) & 1  # an odd c excludes the interval's boundaries
    vb = round_to_odd(rem)
    lower = round_to_odd(rem - (2 - closer) * p5) + odd
    upper = round_to_odd(rem + 2 * p5) - odd
    s, sp = vb >> 2, vb // 40
    up_in, wp_in = lower <= 40 * sp, 40 * sp + 40 <= upper
    u_in, w_in = lower <= 4 * s, 4 * s + 4 <= upper
    round_up = (vb & 3) + (s & 1) > 2  # above the midpoint 4s + 2, or on it with s odd
    short = up_in != wp_in  # one decimal with a digit fewer lies inside the interval
    d = np.where(short, sp + wp_in, s + (w_in & (round_up | ~u_in)))  # u_in or w_in holds
    return d, k + short


def _digits(d17: np.ndarray) -> np.ndarray:
    """(17, N) decimal digits of integers below 10**17, most significant first."""
    halves = np.empty((2, d17.size), np.int32)
    halves[0] = d17 // 10**9
    halves[1] = d17 - halves[0] * np.int64(10**9)
    out = np.empty((9, 2, d17.size), np.uint8)
    for j in range(8, -1, -1):
        tens = halves // 10
        out[j] = halves - 10 * tens
        halves = tens
    return np.concatenate([out[1:, 0], out[:, 1]])


def _texts(strings: list, n: int) -> np.ndarray:
    return np.array(strings, dtype=f"S{_TEXT}").view(np.uint8).reshape(n, _TEXT)


def encode_rows(block: np.ndarray, first: int) -> str:
    """The CSV lines of block's rows, numbered from first (see the module docstring)."""
    n, p = block.shape
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    bits = v.view(np.uint64)
    d, k = _shortest(bits)
    ndig = 15 + (d >= 10**15) + (d >= 10**16)  # d >= 2**52 / 10
    decpt = ndig + k
    g = _digits(d * 10 ** (17 - ndig))
    rank = np.arange(17, dtype=np.uint8)[:, None]
    last = (rank * (g != 0)).max(axis=0)  # the last nonzero digit; later ones are not written
    g += 48
    g *= rank <= last
    be = (bits >> 52) & 0x7FF
    ok = (be >= 1075 + _Q_LO) & (be <= 1075 + _Q_HI) & (decpt > -4) & (decpt <= 16) & (last >= decpt)
    ok &= sys.float_repr_style == "short"

    layout = np.full((n, p + 1), len(_LAYOUT) - 1)
    layout[:, 1:] = (np.minimum(np.maximum(decpt, -3), 17) + 3).reshape(n, p)
    cells = np.take(_LAYOUT, layout, axis=0)
    values = cells[:, 1:]
    values[..., 0] = ((bits >> 63).astype(np.uint8) * 45).reshape(n, p)  # "-"
    values[..., 6:39:2] = g.T.reshape(n, p, 17)
    bad = np.flatnonzero(~ok)
    if bad.size:
        r, j = np.divmod(bad, p)
        values[r, j, :_TEXT] = _texts([repr(x) for x in v[bad].tolist()], bad.size)
        values[r, j, _TEXT:-1] = 0
    cells[:, 0, :_TEXT] = _texts([str(i) for i in range(first, first + n)], n)
    cells[:, -1, -1] = 10  # "\n"
    return cells.tobytes().translate(None, b"\0").decode("ascii")
