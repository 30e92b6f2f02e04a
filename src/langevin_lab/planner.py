"""Choose step size and iteration count for a requested precision.

Two services live here.  ``plan_for_epsilon`` applies the closed-form
recipe: cap the step so the bias term stays below the target precision,
then run long enough for the geometric term to shrink under it.
``minimal_k_lmc`` and ``minimal_k_baseline`` instead search for the
smallest iteration count any step size on a grid can certify, which is
what the head-to-head comparison curves are built from.

Grid searches are resolved in two stages: a coarse geometric sweep over
the admissible range, then an equally sized local grid around the best
coarse step.  On each step a bound is coef * rate^K + floor (in its
stated power), so the smallest K a step certifies is a logarithm; the
grid's minimum of those is confirmed on the bound itself, at K - 1 and
K in one evaluation whose row at K also locates the best step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from ._scalars import array, count, curvature, finite, nonnegative, positive
from .bounds import BoundInputs, baseline_terms, baseline_value, init_w2_from_mean, lmc_bound
from .bounds import lmc_terms_small_step, lmc_value_small_step
from .parallel import parallel_map

__all__ = [
    "Plan",
    "CurvePoint",
    "UnreachablePrecisionError",
    "default_h_grid",
    "plan_for_epsilon",
    "minimal_k_lmc",
    "minimal_k_baseline",
    "figure1_curves",
]

DEFAULT_GRID_SIZE = 10_000
DEFAULT_GRID_SPAN = 1e9
DEFAULT_K_CAP = 10**12


class UnreachablePrecisionError(ValueError):
    """Requested precision below what any step on the grid can certify."""

    def __init__(self, epsilon: float, bound_infimum: float, k_cap: int):
        self.epsilon = epsilon
        self.bound_infimum = bound_infimum
        super().__init__(
            f"precision epsilon={epsilon!r} is unreachable: after {k_cap} iterations the "
            f"bound's infimum over the step grid is {bound_infimum:.6g}; use a grid with "
            f"smaller steps or relax epsilon"
        )


@dataclass(frozen=True)
class Plan:
    """Planned run: step size, iteration count, and the certified bound."""

    epsilon: float
    h: float
    K: int
    predicted_bound: float
    binding: str
    zero_iterations: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CurvePoint:
    """One point of the iteration-count comparison curves."""

    p: int
    epsilon: float
    k_lmc: int
    k_baseline: int

    @property
    def ratio(self) -> float:
        """k_baseline / k_lmc; inf for a zero k_lmc, 1 when both are zero."""
        if self.k_lmc == 0:
            return 1.0 if self.k_baseline == 0 else math.inf
        return self.k_baseline / self.k_lmc

    def as_dict(self) -> dict:
        return {**asdict(self), "ratio": self.ratio}


def _check_common(m, M, p, w2_init, epsilon) -> tuple[float, float, int, float, float]:
    m, M = curvature(m, M)
    return m, M, count("dimension p", p, 1), nonnegative("w2_init", w2_init), positive("epsilon", epsilon)


def default_h_grid(
    m: float, M: float, size: int = DEFAULT_GRID_SIZE, span: float = DEFAULT_GRID_SPAN
) -> np.ndarray:
    """Geometric grid of candidate steps over (2/((m+M) span), 2/(m+M)].

    The upper end is the regime boundary, where both bounds are stated;
    the span covers nine decades by default so that tight precisions
    stay reachable in high dimension.
    """
    m, M = curvature(m, M)
    size, span = count("grid size", size, 2), finite("grid span", span)
    if not span > 1.0:
        raise ValueError(f"grid span must exceed 1, got {span}")
    hi = 2.0 / (m + M)
    if math.isinf(hi):
        raise ValueError(f"m={m!r} and M={M!r} are too small for a step grid: 2/(m+M) overflows")
    if not hi < 2.0 / M:  # the top step would be 2/M, where no bound is stated
        raise ValueError(f"M/m = {M / m:g} is too large for a step grid: 2/(m+M) rounds to 2/M (m={m:g}, M={M:g})")
    if not hi / span > 0.0:
        raise ValueError(f"the smallest grid step 2/((m+M) span) underflows to 0 (m={m:g}, M={M:g}, span={span:g})")
    try:
        return np.geomspace(hi / span, hi, size)
    except (ValueError, MemoryError) as err:  # beyond numpy's size limit, or the address space
        raise ValueError(f"grid size={size} is too large to hold: {err}") from None


def plan_for_epsilon(m: float, M: float, p: int, w2_init: float, epsilon: float) -> Plan:
    """Closed-form (h, K) recipe certifying W2 error at most epsilon.

    The step is h = min(m^2 eps^2 / (14 M^2 p), 2/(m+M)): the first cap
    pins the bias term under eps with margin, the second keeps h in the
    small-step regime.  Then K = ceil(log(2 w2_init / eps) / (m h))
    drives the geometric term below eps/2; where the float 1 - m h
    rounds so that this K falls short, K is recomputed with
    -log(1 - m h) in place of m h.  The returned predicted_bound
    re-evaluates the closed-form bound at (h, K) and is guaranteed to be
    at most epsilon.
    """
    m, M, p, w2_init, epsilon = _check_common(m, M, p, w2_init, epsilon)
    scale = 14.0 * M * M * p
    if scale == 0.0:
        raise ValueError(f"m={m!r} and M={M!r} are too small to plan for: 14 M^2 p underflows to 0")
    h_bias = m * m * epsilon * epsilon / scale
    if math.isnan(h_bias):
        raise ValueError(f"m={m:g} and M={M:g} are too large to plan for: m^2 and M^2 overflow")
    if math.isinf(scale):
        culprit = f"M={M:g}" if math.isinf(14.0 * M * M) else f"dimension p={p:g}"
        raise ValueError(f"{culprit} is too large to plan for: 14 M^2 p overflows")
    if not math.isfinite(2.0 * w2_init / epsilon):
        culprit = (f"epsilon={epsilon!r} is too small" if math.isfinite(2.0 * w2_init)
                   else f"w2_init={w2_init:g} is too large")
        raise ValueError(f"{culprit} to plan for: 2 w2_init / epsilon overflows")
    boundary = 2.0 / (m + M)
    h = min(h_bias, boundary)
    binding = "bias" if h < boundary else "boundary"
    if not 1.0 - m * h < 1.0:  # a larger epsilon helps only where the boundary step contracts
        cause = (f"epsilon={epsilon!r} is too small to plan for: the step h = m^2 eps^2 / (14 M^2 p) = {h:g}"
                 if 1.0 - m * boundary < 1.0 else
                 f"M/m = {M / m:g} is too large to plan for (m={m:g}, M={M:g}): even the boundary step "
                 f"h = 2/(m+M) = {boundary:g}")
        raise ValueError(f"{cause} leaves the contraction factor 1 - m h at 1 in floating point")
    log_ratio = math.log(2.0 * w2_init / epsilon) if 2.0 * w2_init > epsilon else 0.0
    K = 0
    # the float 1 - m h can round up so far that -log(1 - m h) < m h; only where that leaves K
    # short is it sized by the rate the bound actually uses (at m h = 1 the first K certifies)
    for rate in (m * h, -math.log(1.0 - m * h) if m * h < 1.0 else math.inf):
        K = max(K, math.ceil(log_ratio / rate))
        predicted = lmc_bound(BoundInputs(m=m, M=M, h=h, K=K, p=p, w2_init=w2_init)).value
        if predicted <= epsilon:
            break
    else:
        raise RuntimeError(
            f"planned (h={h:g}, K={K}) certifies {predicted:.6g} > epsilon={epsilon:g}; "
            f"this should be impossible and indicates a bug"
        )
    return Plan(epsilon, h, K, predicted, binding, zero_iterations=(K == 0))


ValueFn = Callable[..., np.ndarray]


def _validate_grid(h_grid: Optional[np.ndarray], m: float, M: float) -> np.ndarray:
    boundary = 2.0 / (m + M)
    if h_grid is None:
        return default_h_grid(m, M)
    grid = array("h_grid", h_grid, (None,))
    if not (grid.min() > 0.0 and grid.max() <= boundary):
        raise ValueError(f"h_grid values must be positive and at most 2/(m+M) = {boundary:.6g}, "
                         f"got min {grid.min():.6g} and max {grid.max():.6g}")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("h_grid must be strictly increasing")
    return grid


def _minimal_k(
    value: ValueFn, terms: Callable[..., tuple], power: int,
    m: float, M: float, p: int, w2_init: float, epsilon: float,
    h_grid: Optional[np.ndarray], k_cap: int,
) -> int:
    m, M, p, w2_init, epsilon = _check_common(m, M, p, w2_init, epsilon)
    k_cap = count("k_cap", k_cap)
    grid = _validate_grid(h_grid, m, M)

    def values(g: np.ndarray, ks: list[int]) -> np.ndarray:
        """One row of bound values over g per K in ks, from a single evaluation."""
        return value(m, M, g, np.array(ks, dtype=float)[:, None], p, w2_init)

    def seed(g: np.ndarray) -> float:
        """The logarithm's smallest K over g; after rounding it may be a step off."""
        coef, rate, floor = terms(m, M, g, p, w2_init)
        # log(coef) - log(slack) stays finite where coef / slack overflows, and epsilon**power saturates to inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            slack = np.power(epsilon, power) - floor
            steps = np.maximum(np.ceil((np.log(coef) - np.log(slack)) / -np.log(np.maximum(rate, 0.0))), 1.0)
            k_h = np.where(coef <= slack, 0.0, np.where((slack > 0.0) & (rate < 1.0), steps, np.inf))
        return float(k_h.min())

    def smallest(g: np.ndarray, cap: int) -> Optional[tuple[int, np.ndarray]]:
        """Smallest K <= cap some step of g certifies, with the bound row at that K."""
        hi = int(min(seed(g), cap))
        # confirm the seed together with its predecessor: usually that settles K
        rows = values(g, [hi - 1, hi] if hi > 0 else [hi])
        lo, row, stride = -1, rows[-1], 1
        if hi > 0 and (row <= epsilon).any():
            if not (rows[0] <= epsilon).any():
                return hi, row
            hi, row = hi - 1, rows[0]
        while not (row <= epsilon).any():  # gallop up from a seed that falls short
            if hi >= cap:
                return None
            lo, hi, stride = hi, min(hi + stride, cap), 2 * stride
            row = values(g, [hi])[0]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            mid_row = values(g, [mid])[0]
            if (mid_row <= epsilon).any():
                hi, row = mid, mid_row
            else:
                lo = mid
        return hi, row

    found = smallest(grid, k_cap)
    if found is None:
        raise UnreachablePrecisionError(epsilon, float(values(grid, [k_cap]).min()), k_cap)
    k1, row = found
    if k1 == 0:
        return 0
    # refine locally around the best coarse step with an equally dense grid
    i = int(np.argmin(row))
    lo_h = grid[max(0, i - 2)]
    hi_h = min(grid[min(grid.size - 1, i + 2)], 2.0 / (m + M))
    if not lo_h < hi_h:
        return k1
    found = smallest(np.geomspace(lo_h, hi_h, grid.size), k1)
    return k1 if found is None else min(k1, found[0])


def minimal_k_lmc(m: float, M: float, p: int, w2_init: float, epsilon: float,
                  h_grid: Optional[np.ndarray] = None, k_cap: int = DEFAULT_K_CAP) -> int:
    """Smallest K such that some grid step certifies W2 error <= epsilon
    under the exact-gradient chain bound."""
    return _minimal_k(lmc_value_small_step, lmc_terms_small_step, 1, m, M, p, w2_init, epsilon, h_grid, k_cap)


def minimal_k_baseline(m: float, M: float, p: int, w2_init: float, epsilon: float,
                       h_grid: Optional[np.ndarray] = None, k_cap: int = DEFAULT_K_CAP) -> int:
    """Smallest K certified by the squared-form comparison bound."""
    return _minimal_k(baseline_value, baseline_terms, 2, m, M, p, w2_init, epsilon, h_grid, k_cap)


def figure1_curves(
    m: float,
    M: float,
    epsilons: Iterable[float],
    p_values: Iterable[int],
    grid_size: int = DEFAULT_GRID_SIZE,
    span: float = DEFAULT_GRID_SPAN,
    k_cap: int = DEFAULT_K_CAP,
) -> list[CurvePoint]:
    """Head-to-head iteration counts across dimensions and precisions.

    For each (epsilon, p) the start is placed at squared distance p from
    the mode, giving w2_init = sqrt(p + p/m) through the mean-based
    initial bound, and both planners search the same step grid.  Either
    count may be the smaller one: k_lmc <= k_baseline is not a theorem,
    since the additive bound's bias exceeds the squared form's once M/m
    is above about 1.22 (m=2, M=7, eps=0.1, p=3 gives 40,123 against
    39,595).
    """
    eps_list = [positive("epsilon", e) for e in epsilons]
    p_list = [count("dimension p", p, 1) for p in p_values]
    if not eps_list or not p_list:
        raise ValueError(f"the {'dimension p' if eps_list else 'epsilon'} list must be nonempty")
    grid = default_h_grid(m, M, size=grid_size, span=span)

    def solve(point: tuple[float, int]) -> CurvePoint:
        eps, p = point
        w2 = init_w2_from_mean(float(p), p, m)
        k_l = minimal_k_lmc(m, M, p, w2, eps, h_grid=grid, k_cap=k_cap)
        k_b = minimal_k_baseline(m, M, p, w2, eps, h_grid=grid, k_cap=k_cap)
        return CurvePoint(p=p, epsilon=eps, k_lmc=k_l, k_baseline=k_b)

    jobs = [(eps, p) for eps in eps_list for p in p_list]
    return parallel_map(solve, jobs)
