"""Exact distributional reference for the chain on quadratic targets.

For f(x) = (1/2)(x - mu)' A (x - mu) the update

    x_{k+1} = x_k - h A (x_k - mu) + sqrt(2h) xi_{k+1}

maps Gaussians to Gaussians, so the law of the chain after any number
of steps has closed-form moments, and the Wasserstein-2 distance
between two Gaussians is available in closed form as well.  Everything
here is deterministic linear algebra; it is the yardstick the error
bounds are validated against.

The target law and every k-step law from a point start are diagonal in
the precision's eigenbasis, which each ``QuadraticSpec`` computes once
(``spec.eigenbasis``); W2 between two such laws is an O(p) sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scalars import array, count, positive, symmetric, symmetrized
from .targets import QuadraticSpec

__all__ = [
    "GaussianMoments",
    "point_mass",
    "stationary_moments",
    "moments_after_k",
    "gaussian_w2",
    "empirical_w2_1d",
    "w2_init_exact",
]

_EIG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GaussianMoments:
    """Mean vector and covariance matrix of a Gaussian law.

    The covariance must be symmetric and positive semidefinite up to a
    small tolerance; eigenvalues in [-tol, 0) are clamped to zero so
    nearly singular covariances round-trip cleanly.  The laws this module
    builds (point masses, and V diag(var) V' in a target's eigenbasis,
    kept as ``_modes = (V, var)``) are PSD by construction and skip that
    eigendecomposition.
    """

    mean: np.ndarray
    cov: np.ndarray
    _modes = None  # (eigenbasis, per-mode variances) on laws from _eigen_law

    def __post_init__(self) -> None:
        mean = array("mean", self.mean, (None,))
        cov = symmetric("cov", array("cov", self.cov, (mean.size, mean.size), " to match mean"))
        scale = max(float(np.abs(cov).max()), 1.0)
        w, V = np.linalg.eigh(cov)
        if w[0] < -_EIG_TOL * scale:
            raise ValueError(f"cov is not positive semidefinite: smallest eigenvalue {w[0]:.3e}")
        if w[0] < 0.0:
            cov = symmetrized((V * np.clip(w, 0.0, None)) @ V.T)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _trusted_law(mean: np.ndarray, cov: np.ndarray, modes=None) -> GaussianMoments:
    """A law whose covariance is PSD by construction, so it skips the eigh check."""
    law = object.__new__(GaussianMoments)
    object.__setattr__(law, "mean", mean)
    object.__setattr__(law, "cov", cov)
    object.__setattr__(law, "_modes", modes)
    return law


def _eigen_law(mean: np.ndarray, V: np.ndarray, var: np.ndarray) -> GaussianMoments:
    """N(mean, V diag(var) V') for a spec's cached eigenbasis V and var >= 0."""
    return _trusted_law(mean, symmetrized((V * var) @ V.T), (V, var))


def point_mass(theta: np.ndarray) -> GaussianMoments:
    """Degenerate law concentrated at theta."""
    theta = array("theta", theta, (None,))
    return _trusted_law(theta, np.zeros((theta.size, theta.size)))


def stationary_moments(spec: QuadraticSpec) -> GaussianMoments:
    """Moments of the target density itself: N(mean, precision^{-1})."""
    w, V = spec.eigenbasis
    if w[0] <= 0.0:
        raise ValueError(f"precision must be positive definite; smallest eigenvalue is {w[0]:.6e}")
    return _eigen_law(spec.mean, V, 1.0 / w)


def _mode_factors(lam: np.ndarray, h, k):
    """Per-eigenmode factors (g^k, noise variance) of the k-step law, g = 1 - h lam.

    The noise variance 2h (1 - g^(2k)) / (1 - g^2) is formed with
    1 - g^2 = h lam (2 - h lam) and expm1/log1p, so slowly mixing modes
    keep full precision; at h lam = 2 (g^2 = 1) it is the limit 2hk.
    At k = 0 the factors are exactly (1, 0), also where h lam = 1 and
    k * log1p(-d) would be 0 * -inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = h * lam * (2.0 - h * lam)
        var = np.where(d == 0.0, 2.0 * h * k, -2.0 * h * np.expm1(k * np.log1p(-d)) / d)
        return (1.0 - h * lam) ** k, np.where(np.equal(k, 0), 0.0, var)


def moments_after_k(spec: QuadraticSpec, init: GaussianMoments | np.ndarray, h: float, k: int) -> GaussianMoments:
    """Exact law of the chain after k steps from a Gaussian start.

    E = I - hA shares the eigenvectors of A = V diag(lam) V', so with
    g = 1 - h lam the recursion mean <- mean - hA(mean - mu),
    cov <- E cov E' + 2h I has a closed form whose cost does not grow with k:

        mean_k = mu + V (g^k * V'(mean_0 - mu))
        cov_k  = E^k cov_0 E^k + V diag(2h (1 - g^(2k)) / (1 - g^2)) V'

    A deterministic start may be passed as a plain vector.  h > 0 and a
    finite start mean are required; transient step sizes (h lam > 2) are
    allowed until the law overflows, which raises ValueError.  Where
    mean_k overflows in that form it is taken from halves,
    2 (mu/2 + V (g^k * V'(mean_0/2 - mu/2))).  From a point start, or a
    start law already in the target's eigenbasis, the result stays in
    that basis with per-mode variances g^2k var_0 + var.
    """
    h, k = positive("step size h", h), count("step count k", k)
    is_law = isinstance(init, GaussianMoments)
    mean = array("init", init.mean if is_law else init, (spec.dim,), " to match the target's dimension")
    init = init if is_law else point_mass(mean)
    if k == 0:
        return init
    lam, V = spec.eigenbasis
    gk, var = _mode_factors(lam, h, k)
    if not (np.isfinite(gk).all() and np.isfinite(var).all()):
        raise ValueError(f"step size h={h!r} gives a non-finite law after k={k} steps")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = spec.mean + V @ (gk * (V.T @ (init.mean - spec.mean)))
        if not np.isfinite(mean).all():  # a start or target near the float limit: halve before subtracting
            mean = 2.0 * (spec.mean / 2.0 + V @ (gk * (V.T @ (init.mean / 2.0 - spec.mean / 2.0))))
    if not np.isfinite(mean).all():
        cause = f"step size h={h!r} and init give" if np.abs(gk).max() > 1.0 else "init gives"
        raise ValueError(f"{cause} a mean that overflows after k={k} steps")
    cov = None
    with np.errstate(over="ignore", invalid="ignore"):
        if init._modes is not None and init._modes[0] is V:
            var = gk * gk * init._modes[1] + var
        elif init.cov.any():
            cov = V @ (gk[:, None] * (V.T @ init.cov @ V) * gk + np.diag(var)) @ V.T
    if not np.isfinite(var if cov is None else cov).all():
        raise ValueError(f"step size h={h!r} and init give a covariance that overflows after k={k} steps")
    return _eigen_law(mean, V, var) if cov is None else GaussianMoments(mean, symmetrized(cov))


def _point_start_w2(spec: QuadraticSpec, theta0: np.ndarray, hs: np.ndarray, ks) -> np.ndarray:
    """Exact W2 to the target of the k-step law from a point start, shape (len(ks), len(hs)).

    Both covariances are diagonal in the precision's eigenbasis, so the
    Gaussian W2 (Gelbrich 1990) is an O(p) sum per (k, h):
    ||g^k * z0||^2 + sum_i (sqrt(var_i) - 1/sqrt(lam_i))^2, z0 = V'(theta0 - mu).
    """
    lam, V = spec.eigenbasis
    z0 = V.T @ (np.asarray(theta0, dtype=float) - spec.mean)
    gk, var = _mode_factors(lam, np.asarray(hs, dtype=float)[None, :, None], np.asarray(ks)[:, None, None])
    return np.sqrt(np.sum((gk * z0) ** 2 + (np.sqrt(var) - 1.0 / np.sqrt(lam)) ** 2, axis=-1))


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(symmetrized(S))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def gaussian_w2(a: GaussianMoments, b: GaussianMoments) -> float:
    """Wasserstein-2 distance between two Gaussian laws.

    W2^2 = ||mean_a - mean_b||^2
           + tr(cov_a + cov_b - 2 (cov_b^{1/2} cov_a cov_b^{1/2})^{1/2})

    Symmetric eigendecompositions keep the cross term stable; the
    squared distance is floored at zero before the final square root to
    absorb roundoff on nearly identical inputs.  Two laws in the same
    target eigenbasis commute, so the trace term is the O(p) sum
    sum_i (sqrt(var_a_i) - sqrt(var_b_i))^2 (Gelbrich 1990).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} versus {b.dim}")
    delta = a.mean - b.mean
    if a._modes is not None and b._modes is not None and a._modes[0] is b._modes[0]:
        gap = np.sqrt(a._modes[1]) - np.sqrt(b._modes[1])
        return math.sqrt(float(delta @ delta) + float(gap @ gap))
    root_b = _psd_sqrt(b.cov)
    cross = _psd_sqrt(root_b @ a.cov @ root_b)
    w2_sq = float(delta @ delta) + float(np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    return math.sqrt(max(w2_sq, 0.0))


def empirical_w2_1d(xs: np.ndarray, ys: np.ndarray) -> float:
    """Wasserstein-2 distance between two equal-size 1-d samples.

    The optimal coupling in one dimension is monotone, so it suffices
    to sort both samples and average the squared gaps.
    """
    xs = array("xs", xs, (None,), " (samples must be nonempty)")
    ys = array("ys", ys, (xs.size,), " to match xs (samples must have equal size)")
    gap = np.sort(xs) - np.sort(ys)
    return math.sqrt(float(np.mean(gap * gap)))


def w2_init_exact(spec: QuadraticSpec, theta0: np.ndarray) -> float:
    """Exact W2 distance from a point mass at theta0 to the target law.

    Against a point mass the coupling is forced, giving
    W2^2 = ||theta0 - mean||^2 + tr(precision^{-1}).
    """
    theta0 = array("theta0", theta0, (spec.dim,), " to match the target's dimension")
    w = spec.eigenbasis[0]
    if w[0] <= 0.0:
        raise ValueError(f"precision must be positive definite; smallest eigenvalue is {w[0]:.6e}")
    delta = theta0 - spec.mean
    return math.sqrt(float(delta @ delta) + float(np.sum(1.0 / w)))
