"""Closed-form Wasserstein-2 error bounds for constant-step Langevin chains.

All bounds share the shape

    W2(law of step K, target)  <=  contraction_term + bias_term

where the contraction term decays geometrically in K from the initial
distance w2_init and the bias term is the step-size-dependent floor the
chain cannot beat.  Two step-size regimes appear throughout, split at
h = 2/(m + M): the ``small_step`` branch below it and the
``large_step`` branch above it.  Constants are fixed numeric literals;
they are part of the published form of each bound and are not tuned
here.

A third, older bound in squared form is kept as ``baseline_bound`` for
iteration-count comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundInputs",
    "BoundReport",
    "SMALL_STEP",
    "LARGE_STEP",
    "contraction_factor",
    "lmc_bound",
    "noisy_lmc_bound",
    "baseline_bound",
    "lmc_value_small_step",
    "lmc_terms_small_step",
    "baseline_value",
    "baseline_terms",
    "init_w2_from_mean",
    "init_w2_from_f",
]

SMALL_STEP = "small_step"
LARGE_STEP = "large_step"

_BOUNDARY_AGREEMENT_RTOL = 1e-9


def _check_curvature(m: float, M: float) -> None:
    if not (0.0 < m <= M and math.isfinite(M)):
        raise ValueError(f"curvature constants must satisfy 0 < m <= M < inf, got m={m}, M={M}")


@dataclass(frozen=True)
class BoundInputs:
    """Arguments shared by the bound evaluators.

    sigma is the per-coordinate standard deviation of the gradient
    noise; it only enters the noisy-gradient bound and is ignored by
    the exact-gradient ones.
    """

    m: float
    M: float
    h: float
    K: int
    p: int
    w2_init: float
    sigma: float = 0.0

    def __post_init__(self) -> None:
        _check_curvature(float(self.m), float(self.M))
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "M", float(self.M))
        h = float(self.h)
        if not (h > 0.0 and math.isfinite(h)):
            raise ValueError(f"step size h must be positive and finite, got {h}")
        object.__setattr__(self, "h", h)
        K = int(self.K)
        if K < 0:
            raise ValueError(f"iteration count K must be nonnegative, got {self.K}")
        object.__setattr__(self, "K", K)
        p = int(self.p)
        if p < 1:
            raise ValueError(f"dimension p must be at least 1, got {self.p}")
        object.__setattr__(self, "p", p)
        w2 = float(self.w2_init)
        if not (w2 >= 0.0 and math.isfinite(w2)):
            raise ValueError(f"w2_init must be nonnegative and finite, got {self.w2_init}")
        object.__setattr__(self, "w2_init", w2)
        sigma = float(self.sigma)
        if not (sigma >= 0.0 and math.isfinite(sigma)):
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def boundary(self) -> float:
        """Step size 2/(m + M) separating the two regimes."""
        return 2.0 / (self.m + self.M)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound with its decomposition.

    gamma is the per-step contraction factor the geometric term is
    built from, so contraction_term == gamma**K * w2_init.
    """

    value: float
    regime: str
    gamma: float
    contraction_term: float
    bias_term: float

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "regime": self.regime,
            "gamma": self.gamma,
            "contraction_term": self.contraction_term,
            "bias_term": self.bias_term,
        }


def contraction_factor(m: float, M: float, h: float) -> float:
    """Per-step W2 contraction factor of the exact-gradient chain.

    Equals 1 - mh for h <= 2/(m + M) and Mh - 1 above; both are in
    [0, 1) on the admissible range 0 < h < 2/M.
    """
    _check_curvature(m, M)
    if not (0.0 < h < 2.0 / M):
        raise ValueError(f"step size h must lie in (0, 2/M) = (0, {2.0 / M:.6g}), got {h}")
    if h <= 2.0 / (m + M):
        return 1.0 - m * h
    return M * h - 1.0


def lmc_terms_small_step(m, M, h, p, w2_init):
    """(coef, rate, floor) with lmc_value_small_step = coef * rate**K + floor, vectorized in h."""
    h = np.asarray(h, dtype=float)
    return w2_init, 1.0 - m * h, 1.82 * (M / m) * np.sqrt(h * p)


def lmc_value_small_step(m, M, h, K, p, w2_init):
    """Exact-gradient bound value in the small-step regime, vectorized in h.

    Valid for 0 < h <= 2/(m + M).  Used by the planner, which sweeps
    large grids; the scalar evaluator goes through the same arithmetic
    so grid search and spot checks agree to the last bit.
    """
    coef, rate, floor = lmc_terms_small_step(m, M, h, p, w2_init)
    with np.errstate(under="ignore"):
        return rate**K * coef + floor


def _lmc_value_large_step(m, M, h, K, p, w2_init):
    h = np.asarray(h, dtype=float)
    with np.errstate(under="ignore"):
        return (M * h - 1.0) ** K * w2_init + 1.82 * (M * h / (2.0 - M * h)) * np.sqrt(h * p)


def lmc_bound(inputs: BoundInputs, regime: str | None = None) -> BoundReport:
    """W2 error bound for the exact-gradient chain after K steps.

    small_step (h <= 2/(m + M)):
        (1 - mh)^K * w2_init + 1.82 (M/m) sqrt(hp)
    large_step (2/(m + M) <= h < 2/M):
        (Mh - 1)^K * w2_init + 1.82 (Mh / (2 - Mh)) sqrt(hp)

    Exactly at the regime boundary both forms apply and agree
    algebraically; the small-step branch is returned there and the
    agreement is verified at runtime.  Pass regime to force a branch,
    which is only legal where that branch is stated.
    """
    i = inputs
    if not (0.0 < i.h < 2.0 / i.M):
        raise ValueError(
            f"step size h must lie in (0, 2/M) = (0, {2.0 / i.M:.6g}), got {i.h}"
        )
    boundary = i.boundary
    at_boundary = i.h == boundary
    if regime is None:
        regime = SMALL_STEP if i.h <= boundary else LARGE_STEP
    elif regime == SMALL_STEP and i.h > boundary:
        raise ValueError(f"regime '{SMALL_STEP}' requires h <= 2/(m+M) = {boundary:.6g}, got h={i.h}")
    elif regime == LARGE_STEP and i.h < boundary:
        raise ValueError(f"regime '{LARGE_STEP}' requires h >= 2/(m+M) = {boundary:.6g}, got h={i.h}")
    elif regime not in (SMALL_STEP, LARGE_STEP):
        raise ValueError(f"unknown regime {regime!r}")

    if regime == SMALL_STEP:
        gamma = 1.0 - i.m * i.h
        bias = 1.82 * (i.M / i.m) * math.sqrt(i.h * i.p)
    else:
        gamma = i.M * i.h - 1.0
        bias = 1.82 * (i.M * i.h / (2.0 - i.M * i.h)) * math.sqrt(i.h * i.p)
    contraction = gamma**i.K * i.w2_init
    value = contraction + bias

    if at_boundary:
        other = float(_lmc_value_large_step(i.m, i.M, i.h, i.K, i.p, i.w2_init))
        ref = max(abs(value), abs(other), 1e-300)
        if abs(value - other) > _BOUNDARY_AGREEMENT_RTOL * ref:
            raise RuntimeError(
                f"regime branches disagree at the boundary step h={i.h}: "
                f"{value!r} versus {other!r}"
            )
    return BoundReport(value, regime, gamma, contraction, bias)


def noisy_lmc_bound(inputs: BoundInputs, regime: str | None = None) -> BoundReport:
    """W2 error bound for the noisy-gradient chain after K steps.

    small_step (h <= 2/(m + M)):
        (1 - mh/2)^K * w2_init + sqrt(2hp/m) * sqrt(sigma^2 + 3.3 M^2 / m)
    large_step (2/(m + M) <= h <= 2/M):
        (Mh/2)^K * w2_init + sqrt(2 h^2 p / (2 - Mh)) * sqrt(sigma^2 + 6.6 M / (2 - Mh))

    The two branches are distinct published forms and do NOT agree at
    h = 2/(m + M); the small-step branch is used there.  At h = 2/M the
    large-step denominators vanish and the bias is reported as inf.
    """
    i = inputs
    if not (0.0 < i.h <= 2.0 / i.M):
        raise ValueError(
            f"step size h must lie in (0, 2/M] = (0, {2.0 / i.M:.6g}], got {i.h}"
        )
    boundary = i.boundary
    if regime is None:
        regime = SMALL_STEP if i.h <= boundary else LARGE_STEP
    elif regime == SMALL_STEP and i.h > boundary:
        raise ValueError(f"regime '{SMALL_STEP}' requires h <= 2/(m+M) = {boundary:.6g}, got h={i.h}")
    elif regime == LARGE_STEP and i.h < boundary:
        raise ValueError(f"regime '{LARGE_STEP}' requires h >= 2/(m+M) = {boundary:.6g}, got h={i.h}")
    elif regime not in (SMALL_STEP, LARGE_STEP):
        raise ValueError(f"unknown regime {regime!r}")

    if regime == SMALL_STEP:
        gamma = 1.0 - i.m * i.h / 2.0
        bias = math.sqrt(2.0 * i.h * i.p / i.m) * math.sqrt(i.sigma**2 + 3.3 * i.M**2 / i.m)
    else:
        gamma = i.M * i.h / 2.0
        rest = 2.0 - i.M * i.h
        if rest <= 0.0:
            bias = math.inf
        else:
            bias = math.sqrt(2.0 * i.h**2 * i.p / rest) * math.sqrt(i.sigma**2 + 6.6 * i.M / rest)
    contraction = gamma**i.K * i.w2_init
    return BoundReport(contraction + bias, regime, gamma, contraction, bias)


def baseline_terms(m, M, h, p, w2_init):
    """(coef, rate, floor) with baseline_value**2 = coef * rate**K + floor, vectorized in h."""
    h = np.asarray(h, dtype=float)
    s = m + M
    floor = (
        (M * h * p / m)
        * s
        * (h + s / (2.0 * m * M))
        * (2.0 + M * M * h / m + M * M * h * h / 6.0)
    )
    return 2.0 * w2_init * w2_init, 1.0 - m * M * h / s, floor


def baseline_value(m, M, h, K, p, w2_init):
    """Comparison bound value, vectorized in h.

    Stated in squared form for 0 < h <= 2/(m + M):

        W2^2 <= 2 (1 - mMh/(m+M))^K * w2_init^2
                + (Mhp/m)(m+M)(h + (m+M)/(2mM))(2 + M^2 h/m + M^2 h^2/6)

    and the square root is returned so units match the other bounds.
    """
    _, rate, floor = baseline_terms(m, M, h, p, w2_init)
    # 2 * rate**K * w2^2 in this order, not coef * rate**K: same rounding as the stated form
    with np.errstate(under="ignore"):
        return np.sqrt(2.0 * rate**K * w2_init * w2_init + floor)


def baseline_bound(inputs: BoundInputs) -> float:
    """Scalar comparison bound; only stated for h <= 2/(m + M)."""
    i = inputs
    if not (0.0 < i.h <= i.boundary):
        raise ValueError(
            f"the comparison bound requires 0 < h <= 2/(m+M) = {i.boundary:.6g}, got h={i.h}"
        )
    return float(baseline_value(i.m, i.M, i.h, i.K, i.p, i.w2_init))


def init_w2_from_mean(dist2_to_mean: float, p: int, m: float) -> float:
    """Upper bound on the initial W2 distance from a point start.

    W2(point mass at theta0, target)^2 <= ||theta0 - mode||^2 + p/m,
    where dist2_to_mean is the squared distance to the minimizer of f.
    """
    dist2 = float(dist2_to_mean)
    if not (dist2 >= 0.0 and math.isfinite(dist2)):
        raise ValueError(f"dist2_to_mean must be nonnegative and finite, got {dist2_to_mean}")
    if int(p) < 1:
        raise ValueError(f"dimension p must be at least 1, got {p}")
    if not (float(m) > 0.0):
        raise ValueError(f"m must be positive, got {m}")
    return math.sqrt(dist2 + int(p) / float(m))


def init_w2_from_f(f_at_theta0: float, p: int, m: float, f_lower_bound: float = 0.0) -> float:
    """Upper bound on the initial W2 distance using only potential values.

    W2(point mass at theta0, target)^2 <= (2/m)(f(theta0) - c + p)
    for any c at most the mean of f under the target; f_lower_bound
    supplies such a c (0 works whenever f >= 0).  Tighter c gives a
    tighter bound.
    """
    if int(p) < 1:
        raise ValueError(f"dimension p must be at least 1, got {p}")
    if not (float(m) > 0.0):
        raise ValueError(f"m must be positive, got {m}")
    f0, c = float(f_at_theta0), float(f_lower_bound)
    radicand = (2.0 / float(m)) * (f0 - c + int(p))
    if radicand < 0.0:
        raise ValueError(
            f"negative radicand: f(theta0) = {f0} lies more than p = {int(p)} "
            f"below the stated lower bound {c}"
        )
    return math.sqrt(radicand)
