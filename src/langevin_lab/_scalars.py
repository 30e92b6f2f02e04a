"""The rules every scalar argument of the public API is checked by.

Each rule returns the value coerced or raises ValueError naming the
argument.  Counts take integral floats such as 1e5; nothing is truncated.
"""

import math
import operator


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
