"""Every file the package writes (sample and figure1 CSVs, JSON, manifests) and both sample summaries.

Each file goes through _replacing, so it appears only once complete.  JSON is
strict: a non-finite float is null.  The numbers in a sample CSV are
Python's float repr for whole blocks of values: encode_rows(block, first)
returns, for a 2-D float64 block, exactly

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

import json
import math
import os
import stat
import sys
import time
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from . import __version__

# float64 values per block of CSV rows: a block is max(1, _BLOCK_VALUES // p) rows
_BLOCK_VALUES = 4096
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


@contextmanager
def _replacing(path) -> Iterator[TextIO]:
    """Text file whose contents replace path only when the block succeeds.

    Writes go to the sibling path + ".partial", which os.replace then
    moves onto path (through symlinks, keeping an existing file's mode);
    on any failure only that file is removed, so an existing path keeps
    its bytes.  A path that exists but cannot be opened for writing fails
    first, and a failed open names path as given, as a plain open would.
    """
    try:
        with open(path, "rb+") as existing:  # neither creates nor truncates
            mode = os.fstat(existing.fileno()).st_mode
    except FileNotFoundError:
        mode = None
    real = os.path.realpath(path)
    partial = Path(real + ".partial")
    try:
        fh = open(partial, "w", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the path as given, not its resolved .partial
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        if mode is not None:
            os.chmod(partial, stat.S_IMODE(mode))
        os.replace(partial, real)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_theta_csv(path, index: str, rows: Iterable[np.ndarray], dim: int) -> None:
    """CSV with header index,theta_0,...,theta_{dim-1}; line i is i, then rows[i] by repr.

    Rows are taken and encoded (encode_rows) in blocks of about
    _BLOCK_VALUES values, so memory does not grow with their number.
    The file appears at path only once every row is written (_replacing).
    """
    size = max(1, _BLOCK_VALUES // dim)
    with _replacing(path) as fh:
        fh.write(index + "," + ",".join(f"theta_{j}" for j in range(dim)) + "\n")
        if isinstance(rows, np.ndarray):  # already in memory: encode slices of it
            for first in range(0, len(rows), size):
                fh.write(encode_rows(rows[first : first + size], first))
            return
        rows, first = iter(rows), 0
        while len(block := np.fromiter(islice(rows, size), np.dtype((float, dim)))):
            fh.write(encode_rows(block, first))
            first += len(block)


def write_figure1_csv(path, points: Iterable) -> None:
    """figure1's CSV, a line per planner.CurvePoint; the log10 of a zero count is nan."""
    with _replacing(path) as fh:
        fh.write("p,epsilon,k_lmc,k_baseline,log10_k_lmc,log10_k_baseline,ratio\n")
        for point in points:
            log_l = math.log10(point.k_lmc) if point.k_lmc > 0 else math.nan
            log_b = math.log10(point.k_baseline) if point.k_baseline > 0 else math.nan
            fh.write(
                f"{point.p},{point.epsilon!r},{point.k_lmc},{point.k_baseline},"
                f"{log_l!r},{log_b!r},{point.ratio!r}\n"
            )


def _head(config, dim: int) -> dict:
    """The keys both sample summaries open with, from config: the run as requested."""
    return {"dim": dim, "iterations": config.K, "h": config.h, "seed": config.seed,
            "oracle": config.oracle.mode, "sigma": config.oracle.sigma}


class RunSummary:
    """A trajectory's JSON-ready summary from its n states fed one at a time.

    The path mean sums the rows in order from +0.0 and divides by n.
    """

    def __init__(self, n: int, p: int) -> None:
        self.n, self.last, self._sum = n, None, np.zeros(p)

    def add(self, row: np.ndarray) -> np.ndarray:
        """Take the next state and return it unchanged."""
        self.last = row
        self._sum += row
        return row

    def summary(self, config, replica: int, wall_time: float, tau: Optional[float] = None) -> dict:
        summary = {
            **_head(config, self._sum.size),
            "replica": replica,
            "wall_time_s": wall_time,
            "final": self.last.tolist(),
            "path_mean": (self._sum / self.n).tolist(),
        }
        if tau is not None:
            summary["tau"] = tau
        return summary


def trajectory_to_csv(traj, path) -> None:
    """Write a sampler.Trajectory's iterates as CSV with header k,theta_0,...,theta_{p-1}.

    Floats are written with repr so the file round-trips bit for bit.
    """
    write_theta_csv(path, "k", traj.iterates, traj.iterates.shape[1])


def trajectory_summary(traj) -> dict:
    """A sampler.Trajectory's summary: the shared head, replica, wall time, final state, path means."""
    run = RunSummary(*traj.iterates.shape)
    for row in traj.iterates:
        run.add(row)
    return run.summary(traj.config, traj.replica, traj.wall_time, traj.tau)


def write_trajectory(path, config, states: Iterable[np.ndarray], dim: int) -> dict:
    """Write replica 0's states to a trajectory CSV and return its summary.

    states is sampler.chain_states(target, config, initial).  The file and
    the summary are those trajectory_to_csv and trajectory_summary give
    for run_lmc or run_nlmc with the same arguments, byte for byte, except
    wall_time_s, which here covers the chain and the writing together.
    States are written block by block as they come, so memory does not
    grow with K.  If the chain fails, path is left as it was.
    """
    t0 = time.perf_counter()
    run = RunSummary(config.K + 1, dim)
    write_theta_csv(path, "k", map(run.add, states), dim)
    return run.summary(config, 0, time.perf_counter() - t0)


def write_finals(path, config, finals: np.ndarray) -> dict:
    """Write finals (replicas, dim), a row per replica; return the head, numpy's mean and ddof=1 variance."""
    write_theta_csv(path, "replica", finals, finals.shape[1])
    moments = {"final_mean": finals.mean(axis=0).tolist(), "final_variance": finals.var(axis=0, ddof=1).tolist()}
    return {**_head(config, finals.shape[1]), "replicas": len(finals), **moments}


def json_text(payload: dict) -> str:
    """payload as indented strict JSON: a non-finite float, such as an infinite bound, is null."""
    # a float's repr reads back as the same float, so only Infinity, -Infinity and NaN change
    strict = json.loads(json.dumps(payload), parse_constant=lambda constant: None)
    return json.dumps(strict, indent=2, allow_nan=False)


def write_json(path: Path, payload: dict) -> Path:
    """Write payload to path as json_text and return path."""
    with _replacing(path) as fh:
        fh.write(json_text(payload) + "\n")
    return path


def _sha256(path: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    buf = bytearray(1 << 16)  # one fixed 64 KB buffer, whatever the file size
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def write_manifest(anchor: Path, args, outputs: list[Path], started: float) -> Path:
    """Write <anchor>.manifest.json: every parsed flag but --out, wall time and output digests."""
    manifest = {
        "tool": "langevin-lab",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("subcommand", "func", "out")},
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": [
            {"path": out.name, "sha256": _sha256(out)} for out in outputs
        ],
    }
    return write_json(anchor.with_name(anchor.name + ".manifest.json"), manifest)
