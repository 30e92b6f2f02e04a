"""The rules every scalar and array argument of the public API is checked by.

Each rule returns the value coerced or raises ValueError naming the
argument.  Counts take integral floats such as 1e5; nothing is truncated.
"""

import math
import operator
import reprlib

import numpy as np

_SYM_TOL = 1e-12


def _checked(name: str, value, ok=lambda x: True, requirement: str = "") -> float:
    """value as a float (inf for an int beyond the float range) on which ok holds."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if not ok(x):
        raise ValueError(f"{name} must be {requirement}, got {value}")
    return x


def _rule(ok, requirement: str):
    """A rule(name, value) -> float that requires ok of the value."""
    return lambda name, value: _checked(name, value, ok, requirement)


finite = _rule(math.isfinite, "finite")
positive = _rule(lambda x: 0.0 < x < math.inf, "positive and finite")
nonnegative = _rule(lambda x: 0.0 <= x < math.inf, "nonnegative and finite")


def count(name: str, value, least: int = 0, below: int | None = None) -> int:
    """value as an int in [least, below); below None means no upper end."""
    span = f">= {least}" if below is None else f"in [{least}, {below})"
    x = _checked(name, value, float.is_integer, f"an integer {span}")
    try:
        n = operator.index(value)  # exact where x is rounded, above 2**53
    except TypeError:
        n = int(x)
    if not (least <= n and (below is None or n < below)):
        raise ValueError(f"{name} must be an integer {span}, got {value}")
    return n


def curvature(m, M) -> tuple[float, float]:
    """(m, M) as floats with 0 < m <= M < inf, the domain of every bound."""
    m, M = _checked("m", m), _checked("M", M)
    if not 0.0 < m <= M < math.inf:
        raise ValueError(f"curvature constants must satisfy 0 < m <= M < inf, got m={m}, M={M}")
    return m, M


def array(name: str, value, shape: tuple, context: str = "", check_finite: bool = True) -> np.ndarray:
    """value as a float array of the given shape whose entries are finite (if check_finite).

    None in shape takes any length >= 1, and a single number counts as a one-entry
    vector.  context ends the messages about the shape, e.g. " to match X".
    """
    try:
        a = None if value is None else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None:
        kind = "numbers in a rectangular array" if shape else "a number"
        raise ValueError(f"{name} must be {kind}, got {reprlib.repr(value)}")
    if a.ndim == 0 and len(shape) == 1:
        a = a.reshape(1)
    if a.ndim != len(shape):
        kind = f"a {len(shape)}-d array" if shape else "a number"
        raise ValueError(f"{name} must be {kind}{context}, got shape {a.shape}")
    if any(d is not None and n != d for n, d in zip(a.shape, shape)):
        raise ValueError(f"{name} must have shape {shape}{context}, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must have at least one entry{context}, got none")
    if check_finite and not np.isfinite(a).all():
        at = np.unravel_index(int(np.argmax(~np.isfinite(a))), a.shape)
        where = f"[{', '.join(map(str, at))}]" if at else ""
        raise ValueError(f"{name}{where} must be finite, got {a[at]}")
    return a


def choice(name: str, value, options: tuple) -> str:
    """value, which must be one of the strings in options."""
    if not (isinstance(value, str) and value in options):  # an array would compare elementwise
        raise ValueError(f"{name} must be {', '.join(map(repr, options[:-1]))} or {options[-1]!r}, got {value!r}")
    return value


def symmetrized(S: np.ndarray) -> np.ndarray:
    """(S + S') / 2, halving before adding in the entries where the sum overflows."""
    with np.errstate(over="ignore"):
        sym = (S + S.T) / 2.0
    return sym if np.isfinite(sym).all() else np.where(np.isfinite(sym), sym, S / 2.0 + S.T / 2.0)


def symmetric(name: str, S: np.ndarray) -> np.ndarray:
    """The finite square matrix S symmetrized, if max |S - S'| <= _SYM_TOL * max(|S|, 1)."""
    with np.errstate(over="ignore"):  # a gap beyond the float range is inf, and refused
        asym = float(np.abs(S - S.T).max())
    if not asym <= _SYM_TOL * max(float(np.abs(S).max()), 1.0):
        raise ValueError(f"{name} is not symmetric: max |S - S'| = {asym:.3e}")
    return symmetrized(S)
