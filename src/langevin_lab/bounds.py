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

Every bound is homogeneous in the curvature, B(m, M, h, w2_init, sigma) =
B(1, M/m, m h, sqrt(m) w2_init, sigma/sqrt(m)) / sqrt(m).  Each is written in
M/m, m h, M h, p/m and roots of h, m and M, never m^2 or m M, so scaling m, M
by a power of four s, h by 1/s and w2_init, sigma by 1/sqrt(s), sqrt(s) divides
it by exactly sqrt(s); the regime and the step range are decided as passed.

Each bound has one array core (``lmc_core``, ``noisy_lmc_core``,
``baseline_value``) that broadcasts a step grid h of shape (n,) against
iteration counts K of shape (c, 1), and every ``rate**K`` in them takes
numpy's array power loop.  The scalar evaluators are thin wrappers
around those cores, so a scalar bound and the same element of any grid
agree to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._scalars import choice, count, curvature, finite, nonnegative, positive

__all__ = [
    "BoundInputs",
    "BoundReport",
    "SMALL_STEP",
    "LARGE_STEP",
    "contraction_factor",
    "lmc_core",
    "noisy_lmc_core",
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
# past this M/m, rounding 2 - M h alone ((1 + M/m) ulps) can exceed that agreement at the boundary
_ILL_CONDITIONED_RATIO = 1e-9 / np.finfo(float).eps - 1.0


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
        m, M = curvature(self.m, self.M)
        checked = dict(m=m, M=M, h=positive("step size h", self.h), K=count("iteration count K", self.K),
                       p=count("dimension p", self.p, 1), w2_init=nonnegative("w2_init", self.w2_init),
                       sigma=nonnegative("sigma", self.sigma))
        for name, value in checked.items():
            object.__setattr__(self, name, value)

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
        return asdict(self)


def _first(x, bad) -> float:
    """The first element of x, broadcast against the mask bad, where bad holds."""
    return float(np.broadcast_to(x, bad.shape)[bad][0])


def _power(rate, K):
    """rate**K for nonnegative K, rounded alike for every shape of rate and K.

    A Python float's ``**`` calls libm ``pow``, which rounds differently
    from numpy's SIMD power loop in a few percent of inputs; a 0-d, a
    one-element and a large array all take that loop.  The loop squares
    instead when one exponent 2 serves its whole inner loop, and not
    when K varies along it, so K == 2 is always rate * rate here.

    Where rate < 2**(-1100/K), rate**K < 2**-1100, far below half the
    least subnormal, so those elements are left at +0.0 and never reach
    pow, whose underflow slow path costs about 15x a normal element.  The
    floor is taken over K's shape only, so a (c, 1) x (n,) grid pays a
    compare and a sign test per element.  K <= 0, NaN K and NaN rates are
    never cut, nor is a negative rate or -0.0 (the sign of the zero
    depends on K).
    """
    with np.errstate(divide="ignore", under="ignore"):
        floor = np.exp2(-1100.0 / np.maximum(K, 0.0))
    dead = (rate < floor) & ~np.signbit(rate)
    with np.errstate(under="ignore"):
        out = np.power(rate, K, out=np.zeros(dead.shape), where=~dead)
        two = np.equal(K, 2)
        return np.where(two, rate * rate, out) if two.any() else out


def _check_step(h, M, closed: bool = False) -> None:
    """Every h must lie in (0, 2/M), or (0, 2/M] when closed; names the first that does not."""
    top = 2.0 / M
    bad = ~((h > 0.0) & ((h <= top) if closed else (h < top)))
    if bad.any():
        end = "]" if closed else ")"
        raise ValueError(
            f"step size h must lie in (0, 2/M{end} = (0, {_first(top, bad):.6g}{end}, got {_first(h, bad)}"
        )


def _branch(m, M, h, regime: str | None):
    """The regime every h is evaluated in, or a small-step mask when h straddles 2/(m + M).

    regime=None picks by h (small_step up to and at the boundary);
    a forced regime is checked against every h.
    """
    boundary = 2.0 / (m + M)
    if regime is None:
        small = h <= boundary
        return SMALL_STEP if small.all() else LARGE_STEP if not small.any() else small
    regime = choice("regime", regime, (SMALL_STEP, LARGE_STEP))
    bad = h > boundary if regime == SMALL_STEP else h < boundary
    if bad.any():
        side = "<=" if regime == SMALL_STEP else ">="
        boundary, h = _first(boundary, bad), _first(h, bad)
        raise ValueError(f"regime '{regime}' requires h {side} 2/(m+M) = {boundary:.6g}, got h={h}")
    return regime


def _core(terms, m, M, h, K, p, w2_init, regime, *extra, closed: bool = False) -> tuple:
    """(value, gamma, contraction, bias, branch) of the bound whose per-regime (gamma, bias) is terms."""
    h = np.asarray(h, dtype=float)
    _check_step(h, M, closed)
    branch = _branch(m, M, h, regime)
    if isinstance(branch, str):
        gamma, bias = terms(m, M, h, p, *extra, branch)
    else:
        both = zip(terms(m, M, h, p, *extra, SMALL_STEP), terms(m, M, h, p, *extra, LARGE_STEP))
        gamma, bias = (np.where(branch, small, large) for small, large in both)
    contraction = _power(gamma, K) * w2_init
    return contraction + bias, gamma, contraction, bias, branch


def _lmc_terms(m, M, h, p, regime):
    """(gamma, bias) of the exact-gradient bound in one regime, elementwise."""
    if regime == SMALL_STEP:
        gamma, scale = 1.0 - m * h, M / m
    else:
        gamma, scale = M * h - 1.0, M * h / (2.0 - M * h)
    return gamma, 1.82 * scale * np.sqrt(h * p)


def lmc_core(m, M, h, K, p, w2_init, regime: str | None = None) -> tuple:
    """Exact-gradient bound over arrays: (value, gamma, contraction, bias, branch).

    All arguments broadcast elementwise; a step grid h of shape (n,)
    against iteration counts K of shape (c, 1) gives (c, n) values.
    branch is the regime, or a small-step mask when h straddles
    2/(m + M).  Every h must lie in (0, 2/M).  Where h == 2/(m + M)
    both branches are stated, and they are checked to agree there.
    """
    out = _core(_lmc_terms, m, M, h, K, p, w2_init, regime)
    boundary = 2.0 / (m + M)
    at = np.equal(h, boundary)
    if at.any():
        a, b = (_core(_lmc_terms, m, M, boundary, K, p, w2_init, r)[0] for r in (SMALL_STEP, LARGE_STEP))
        bad = at & (np.abs(a - b) > _BOUNDARY_AGREEMENT_RTOL * np.maximum(np.abs(a), np.abs(b)).clip(1e-300))
        if bad.any():
            ratio = _first(np.divide(M, m), bad)
            if ratio > _ILL_CONDITIONED_RATIO:  # the input's fault, not the formulas'
                raise ValueError(f"M/m = {ratio:g} is too ill-conditioned for the boundary step h = 2/(m+M): "
                                 f"rounding alone parts the regime branches there")
            raise RuntimeError(
                f"regime branches disagree at the boundary step h={_first(boundary, bad)}: "
                f"{_first(a, bad)!r} versus {_first(b, bad)!r}"
            )
    return out


def _noisy_terms(m, M, h, p, sigma, regime):
    """(gamma, bias) of the noisy-gradient bound in one regime; inf bias where 2 - Mh <= 0.

    Square roots are taken factor by factor, so no part overflows where the bias does not, unless M/sqrt(m) does."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if regime == SMALL_STEP:
            root, root_p = np.sqrt(m), np.sqrt(1.0 * p)
            lead, noise = np.sqrt(2.0 * h) / root, np.hypot(sigma, np.sqrt(3.3) * (M / root))
            # lead is subnormal only at a subnormal h: there it is formed 2**52 times larger, scaled back last
            scaled = np.sqrt(2.0**105 * h) / root * noise * root_p * 2.0**-52
            return 1.0 - m * h / 2.0, np.where(lead < np.finfo(float).tiny, scaled, lead * noise * root_p)
        rest = 2.0 - M * h
        bias = np.sqrt(2.0 * p / rest) * (h * np.hypot(sigma, np.sqrt(6.6 / rest) * np.sqrt(M)))
    return M * h / 2.0, np.where(rest > 0.0, bias, np.inf)


def noisy_lmc_core(m, M, h, K, p, w2_init, sigma, regime: str | None = None) -> tuple:
    """Noisy-gradient bound over arrays: (value, gamma, contraction, bias, branch).

    Broadcasts like lmc_core; every h must lie in (0, 2/M].
    """
    return _core(_noisy_terms, m, M, h, K, p, w2_init, regime, sigma, closed=True)


def _report(core: tuple) -> BoundReport:
    value, gamma, contraction, bias, regime = core
    return BoundReport(float(value), regime, float(gamma), float(contraction), float(bias))


def contraction_factor(m: float, M: float, h: float) -> float:
    """Per-step W2 contraction factor of the exact-gradient chain.

    Equals 1 - mh for h <= 2/(m + M) and Mh - 1 above; both are in
    [0, 1) on the admissible range 0 < h < 2/M.
    """
    m, M = curvature(m, M)
    return float(lmc_core(m, M, h, 0, 1, 0.0)[1])


def lmc_terms_small_step(m, M, h, p, w2_init):
    """(coef, rate, floor) with lmc_value_small_step = coef * rate**K + floor, vectorized in h."""
    return (w2_init, *_lmc_terms(m, M, np.asarray(h, dtype=float), p, SMALL_STEP))


def lmc_value_small_step(m, M, h, K, p, w2_init):
    """Exact-gradient bound value in the small-step regime, vectorized in (h, K).

    Valid for 0 < h <= 2/(m + M).  Used by the planner, which sweeps
    large grids; it is lmc_core itself, so grid search and scalar spot
    checks agree to the last bit.
    """
    return lmc_core(m, M, h, K, p, w2_init, SMALL_STEP)[0]


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
    return _report(lmc_core(i.m, i.M, i.h, i.K, i.p, i.w2_init, regime))


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
    return _report(noisy_lmc_core(i.m, i.M, i.h, i.K, i.p, i.w2_init, i.sigma, regime))


def baseline_terms(m, M, h, p, w2_init):
    """(coef, rate, floor) with baseline_value**2 = coef * rate**K + floor, vectorized in h."""
    # beyond this the contraction term is lost: rate**K underflows first or the product overflows
    if not (coef := 2.0 * w2_init * w2_init) < math.inf:
        raise ValueError(f"w2_init={w2_init:g} is too large for the comparison bound: 2 w2_init^2 overflows")
    h, kappa = np.asarray(h, dtype=float), M / m
    s = 1.0 + kappa
    floor = M * h * p / m * s * (m * h + s / (2.0 * kappa)) * (2.0 + kappa * (M * h) + (M * h) * (M * h) / 6.0)
    return coef, 1.0 - M * h / s, floor


def baseline_value(m, M, h, K, p, w2_init):
    """Comparison bound value, vectorized in (h, K).

    Stated in squared form for 0 < h <= 2/(m + M):

        W2^2 <= 2 (1 - mMh/(m+M))^K * w2_init^2
                + (Mhp/m)(m+M)(h + (m+M)/(2mM))(2 + M^2 h/m + M^2 h^2/6)

    and the square root is returned so units match the other bounds.
    """
    _, rate, floor = baseline_terms(m, M, h, p, w2_init)
    # 2 * rate**K * w2^2 in this order, not coef * rate**K: same rounding as the stated form
    return np.sqrt(2.0 * _power(rate, K) * w2_init * w2_init + floor)


def baseline_bound(inputs: BoundInputs) -> float:
    """Scalar comparison bound; only stated for h <= 2/(m + M), and refused where floats cannot hold its parts."""
    i = inputs
    if not (0.0 < i.h <= i.boundary):
        raise ValueError(
            f"the comparison bound requires 0 < h <= 2/(m+M) = {i.boundary:.6g}, got h={i.h}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(baseline_value(i.m, i.M, i.h, i.K, i.p, i.w2_init))
    # past the largest float the square is lost, and a subnormal M h or M h p / m would round the floor down
    if not value < math.inf or min(i.M * i.h, i.M * i.h * i.p / i.m) < np.finfo(float).tiny:
        raise ValueError(f"the comparison bound cannot be evaluated in floats at m={i.m!r}, M={i.M!r}, "
                         f"h={i.h!r}, K={i.K}, p={i.p}: W2^2 or M/m overflows, or M h or M h p / m is subnormal")
    return value


def init_w2_from_mean(dist2_to_mean: float, p: int, m: float) -> float:
    """Upper bound on the initial W2 distance from a point start.

    W2(point mass at theta0, target)^2 <= ||theta0 - mode||^2 + p/m,
    where dist2_to_mean is the squared distance to the minimizer of f.
    """
    dist2, p, m = nonnegative("dist2_to_mean", dist2_to_mean), count("dimension p", p, 1), positive("m", m)
    if not (w2 := math.sqrt(dist2 + p / m)) < math.inf:
        raise ValueError(f"dist2_to_mean + p/m overflows: dist2_to_mean={dist2:g}, p={p:g}, m={m:g}")
    return w2


def init_w2_from_f(f_at_theta0: float, p: int, m: float, f_lower_bound: float = 0.0) -> float:
    """Upper bound on the initial W2 distance using only potential values.

    W2(point mass at theta0, target)^2 <= (2/m)(f(theta0) - c + p)
    for any c at most the mean of f under the target; f_lower_bound
    supplies such a c (0 works whenever f >= 0).  Tighter c gives a
    tighter bound.
    """
    p, m = count("dimension p", p, 1), positive("m", m)
    f0, c = finite("f_at_theta0", f_at_theta0), finite("f_lower_bound", f_lower_bound)
    radicand = (2.0 / m) * (f0 - c + p)
    if radicand < 0.0:
        raise ValueError(
            f"negative radicand: f_at_theta0 = {f0} lies more than p = {p} "
            f"below the stated lower bound f_lower_bound = {c}"
        )
    if not radicand < math.inf:
        raise ValueError(f"(2/m)(f(theta0) - c + p) overflows: f_at_theta0={f0:g}, "
                         f"f_lower_bound={c:g}, p={p:g}, m={m:g}")
    return math.sqrt(radicand)
