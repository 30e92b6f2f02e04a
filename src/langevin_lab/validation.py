"""Systematic checks of the bounds against exact Gaussian calculations.

Each check sweeps randomized quadratic targets, where chain laws and
distances are available in closed form, and confirms an inequality the
library relies on.  All randomness is seeded, so a given seed always
checks the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scalars import count, finite
from .bounds import LARGE_STEP, SMALL_STEP, init_w2_from_f, init_w2_from_mean, lmc_core, noisy_lmc_core
# lmc_bound, noisy_lmc_bound, gaussian_w2 and stationary_moments are unused
# here but stay module attributes: perfbench/tracing.py patches them by
# name, so without them every `--trace 1` benchmark run stops with
# AttributeError.  They can go once the tracer no longer looks them up.
from .bounds import lmc_bound, noisy_lmc_bound  # noqa: F401
from .gaussian_oracle import _point_start_w2, gaussian_w2, stationary_moments, w2_init_exact  # noqa: F401
from .targets import quadratic_target

__all__ = [
    "CheckResult",
    "random_spd",
    "check_lmc_bound_validity",
    "check_regime_continuity",
    "check_noise_dominance",
    "check_stationary_gradient_norm",
    "check_init_bound_ordering",
    "run_all_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cells: int
    worst: float
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAILED"
        line = f"{self.name}: {status} ({self.cells} cells, worst margin {self.worst:.3e})"
        if self.detail:
            line += f"\n  {self.detail}"
        return line


def _rng(seed: int, salt: int) -> np.random.Generator:
    seed = count("seed", seed, below=2**64)
    return np.random.Generator(np.random.Philox(key=np.array([seed, salt], dtype=np.uint64)))


def random_spd(rng: np.random.Generator, p: int, lo: float = 1.0, hi: float = 10.0) -> np.ndarray:
    """Random symmetric positive definite matrix with spectrum in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    w = rng.uniform(lo, hi, p)
    a = (q * w) @ q.T
    return (a + a.T) / 2.0


def check_lmc_bound_validity(
    seed: int = 0,
    dims: tuple[int, ...] = (1, 2, 5, 10),
    targets_per_dim: int = 10,
    n_steps: int = 20,
    checkpoints: tuple[int, ...] = (1, 10, 100, 1000),
    slack: float = 1e-10,
) -> CheckResult:
    """Exact W2 error of the chain never exceeds the closed-form bound.

    Sweeps random quadratics, step sizes across both regimes, and
    iteration checkpoints; each cell's exact distance is the closed-form
    k-step law's W2, whose cost does not grow with k.  Cell count is
    len(dims) * targets_per_dim * n_steps * len(checkpoints).
    """
    rng = _rng(seed, 1)
    dims = [count(f"dims[{i}]", p, 1) for i, p in enumerate(dims)]
    targets_per_dim, n_steps = count("targets_per_dim", targets_per_dim), count("n_steps", n_steps, 1)
    checkpoints = tuple(sorted(set(count("checkpoint", k) for k in checkpoints)))
    slack = finite("slack", slack)
    cells = 0
    worst = -np.inf
    first_bad = ""
    for p in dims:
        for _ in range(targets_per_dim):
            target = quadratic_target(rng.standard_normal(p), random_spd(rng, p))
            spec = target.oracle_meta
            theta0 = spec.mean + 3.0 * rng.standard_normal(p)
            w2_0 = w2_init_exact(spec, theta0)
            hs = np.linspace(0.02, 0.98, n_steps) * (2.0 / target.M)
            exact = _point_start_w2(spec, theta0, hs, checkpoints)
            bound = lmc_core(target.m, target.M, hs, np.array(checkpoints)[:, None], p, w2_0)[0]
            margin = exact - bound
            cells += margin.size
            worst = float(np.fmax.reduce(margin, axis=None, initial=worst))
            # a non-finite margin fails too: such a cell shows no domination
            with np.errstate(over="ignore"):  # a slack near the float limit saturates to +-inf
                tolerance = slack + slack * np.abs(bound)
            bad = ~np.isfinite(margin) | (margin > tolerance)
            if bad.any() and not first_bad:
                r, c = np.argwhere(bad)[0]  # checkpoint-major, as the cells are counted
                verdict = f"by {margin[r, c]:.3e}" if np.isfinite(margin[r, c]) else "(margin not finite)"
                first_bad = (
                    f"p={p} h={hs[c]:.6g} K={checkpoints[r]}: exact W2 {exact[r, c]:.12g} exceeds "
                    f"bound {bound[r, c]:.12g} {verdict}"
                )
    return CheckResult("lmc bound dominates exact W2", not first_bad, cells, worst, first_bad)


def check_regime_continuity(seed: int = 0, trials: int = 100, rtol: float = 1e-12) -> CheckResult:
    """The two branches of the exact-gradient bound agree at h = 2/(m+M)."""
    rng = _rng(seed, 2)
    trials, rtol = count("trials", trials), finite("rtol", rtol)
    m, M, w2 = np.empty((3, trials))
    K, p = np.empty((2, trials), dtype=np.int64)
    for t in range(trials):
        m[t] = rng.uniform(0.1, 5.0)
        M[t] = m[t] * rng.uniform(1.0, 20.0)
        K[t] = rng.integers(0, 1000)
        p[t] = rng.integers(1, 100)
        w2[t] = rng.uniform(0.0, 50.0)
    h = 2.0 / (m + M)
    a, b = (lmc_core(m, M, h, K, p, w2, regime)[0] for regime in (SMALL_STEP, LARGE_STEP))
    rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)).clip(1e-300)
    first_bad = ""
    if (rel > rtol).any():
        j = np.argmax(rel > rtol)
        first_bad = (
            f"m={m[j]:.6g} M={M[j]:.6g} K={K[j]} p={p[j]} w2={w2[j]:.6g}: "
            f"branches {a[j].item()!r} vs {b[j].item()!r}"
        )
    worst = float(rel.max(initial=0.0))
    return CheckResult("bound branches agree at the regime boundary", not first_bad, trials, worst, first_bad)


def check_noise_dominance(seed: int = 0, trials: int = 1000) -> CheckResult:
    """At sigma = 0 the noisy-gradient bound is no tighter than the exact one.

    The noisy analysis pays for generality, so its zero-noise value must
    sit at or above the exact-gradient bound wherever both are stated.
    """
    rng = _rng(seed, 3)
    trials = count("trials", trials)
    m, M, h, w2 = np.empty((4, trials))
    K, p = np.empty((2, trials), dtype=np.int64)
    for t in range(trials):
        m[t] = rng.uniform(0.1, 5.0)
        M[t] = m[t] * rng.uniform(1.0, 20.0)
        h[t] = rng.uniform(0.0, 1.0) * (2.0 / M[t])
        if h[t] <= 0.0:
            h[t] = 1.0 / (m[t] + M[t])
        K[t] = rng.integers(0, 2000)
        p[t] = rng.integers(1, 100)
        w2[t] = rng.uniform(0.0, 50.0)
    keep = h < 2.0 / M
    m, M, h, K, p, w2 = (x[keep] for x in (m, M, h, K, p, w2))
    exact = lmc_core(m, M, h, K, p, w2)[0]
    noisy = noisy_lmc_core(m, M, h, K, p, w2, 0.0)[0]
    margin = exact - noisy
    first_bad = ""
    if (margin > 0.0).any():
        j = np.argmax(margin > 0.0)
        first_bad = (
            f"m={m[j]:.6g} M={M[j]:.6g} h={h[j]:.6g} K={K[j]} p={p[j]} w2={w2[j]:.6g}: "
            f"noisy bound {noisy[j].item()!r} below exact bound {exact[j].item()!r}"
        )
    worst = float(margin.max(initial=-np.inf))
    return CheckResult("noisy bound dominates exact bound at sigma=0", not first_bad, trials, worst, first_bad)


def check_stationary_gradient_norm(seed: int = 0, trials: int = 100, rtol: float = 1e-12) -> CheckResult:
    """Mean squared gradient norm under the target is at most M * p.

    For quadratics the mean is exactly tr(precision), computable without
    sampling, and the cap p * (largest eigenvalue) must dominate it.
    """
    rng = _rng(seed, 4)
    trials, rtol = count("trials", trials), finite("rtol", rtol)
    worst = -np.inf
    first_bad = ""
    for _ in range(trials):
        p = int(rng.integers(1, 30))
        target = quadratic_target(rng.standard_normal(p), random_spd(rng, p, 0.5, 20.0))
        exact = float(np.trace(target.oracle_meta.precision))
        cap = target.M * p
        margin = exact - cap
        worst = max(worst, margin / max(cap, 1e-300))
        if exact > cap * (1.0 + rtol) and not first_bad:
            first_bad = f"p={p}: tr(precision)={exact!r} exceeds M*p={cap!r}"
    return CheckResult("stationary gradient moment under M*p", not first_bad, trials, worst, first_bad)


def check_init_bound_ordering(seed: int = 0, trials: int = 100, rtol: float = 1e-12) -> CheckResult:
    """Computable initial-distance bounds dominate the exact initial W2.

    Checks both the mean-based and the potential-based bound, the latter
    with the generic lower bound 0 and with the exact stationary mean of
    f (p/2 for quadratics), which must be tighter yet still valid.
    """
    rng = _rng(seed, 5)
    trials, rtol = count("trials", trials), finite("rtol", rtol)
    worst = -np.inf
    first_bad = ""
    cells = 0
    for _ in range(trials):
        p = int(rng.integers(1, 30))
        target = quadratic_target(rng.standard_normal(p), random_spd(rng, p, 0.5, 20.0))
        spec = target.oracle_meta
        theta0 = spec.mean + float(rng.uniform(0.5, 5.0)) * rng.standard_normal(p)
        exact = w2_init_exact(spec, theta0)
        d2 = float(np.sum((theta0 - spec.mean) ** 2))
        f0 = float(target.eval(theta0))
        trio = (
            ("mean-based", init_w2_from_mean(d2, p, target.m)),
            ("f-based, generic floor", init_w2_from_f(f0, p, target.m, 0.0)),
            ("f-based, exact mean of f", init_w2_from_f(f0, p, target.m, p / 2.0)),
        )
        for label, val in trio:
            cells += 1
            margin = exact - val
            worst = max(worst, margin / max(val, 1e-300))
            if exact > val * (1.0 + rtol) and not first_bad:
                first_bad = f"p={p} {label}: exact {exact!r} exceeds bound {val!r}"
        if trio[2][1] > trio[1][1] * (1.0 + rtol) and not first_bad:
            first_bad = (
                f"p={p}: tighter floor gave looser bound "
                f"({trio[2][1]!r} > {trio[1][1]!r})"
            )
    return CheckResult("initial-distance bounds dominate exact W2", not first_bad, cells, worst, first_bad)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """Full deterministic validation sweep, in a fixed order."""
    return [
        check_lmc_bound_validity(seed),
        check_regime_continuity(seed),
        check_noise_dominance(seed),
        check_stationary_gradient_norm(seed),
        check_init_bound_ordering(seed),
    ]
