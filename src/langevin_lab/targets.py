"""Target potentials: strongly convex functions with Lipschitz gradients.

A target is a potential f on R^p together with curvature constants
0 < m <= M such that for all x, y

    f(y) >= f(x) + <grad f(x), y - x> + (m/2) * ||y - x||^2
    ||grad f(x) - grad f(y)|| <= M * ||x - y||

The density of interest is proportional to exp(-f).  ``eval`` and
``grad`` accept a single point of shape (p,) or a batch of shape (B, p)
and vectorize over the leading axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

__all__ = [
    "QuadraticSpec",
    "SumStructure",
    "TargetPotential",
    "quadratic_target",
    "logistic_target",
    "custom_target",
    "temper",
    "target_from_dict",
    "load_target",
    "check_curvature",
]

_SYM_TOL = 1e-12


def _require_finite(name: str, values: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite entry of ``values``."""
    bad = ~np.isfinite(values)
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), values.shape)
        where = ", ".join(str(int(i)) for i in idx)
        raise ValueError(f"{name}[{where}] must be finite, got {float(values[idx])}")


@dataclass(frozen=True, eq=False)
class QuadraticSpec:
    """Quadratic potential f(x) = (1/2) (x - mean)' precision (x - mean).

    The matching density is Gaussian with the given mean and covariance
    precision^{-1}, which is what makes closed-form reference
    calculations possible.  ``mean`` and ``precision`` are private,
    read-only copies, so the cached ``eigenbasis`` always describes
    the matrix the spec holds.
    """

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float, ndmin=1)
        prec = np.asarray(self.precision, dtype=float)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if mean.size == 0:
            raise ValueError("mean must have at least one entry, got none")
        _require_finite("mean", mean)
        if prec.shape != (mean.size, mean.size):
            raise ValueError(
                f"precision must have shape {(mean.size, mean.size)} to match the "
                f"{mean.size} entries of mean, got {prec.shape}"
            )
        _require_finite("precision", prec)
        asym = float(np.abs(prec - prec.T).max()) if prec.size else 0.0
        scale = max(float(np.abs(prec).max()), 1.0) if prec.size else 1.0
        if asym > _SYM_TOL * scale:
            raise ValueError(f"precision is not symmetric: max |A - A'| = {asym:.3e}")
        with np.errstate(over="ignore"):
            sym = (prec + prec.T) / 2.0
        if not np.isfinite(sym).all():  # entries near the float limit: halve before adding
            sym = prec / 2.0 + prec.T / 2.0
        prec = sym
        mean.flags.writeable = False
        prec.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh(precision)``, computed once per spec and read-only.

        Every exact law of the chain on this target is diagonal in this
        basis; the Gaussian oracle recognises such laws by the identity
        of the returned eigenvector array.
        """
        lam, V = np.linalg.eigh(self.precision)
        lam.flags.writeable = False
        V.flags.writeable = False
        return lam, V


@dataclass(frozen=True, eq=False)
class SumStructure:
    """Finite-sum decomposition used by the subsampled gradient oracle.

    grad f(x) = sum over observations of obs_grad plus common_grad,
    where common_grad is the part that is always computed exactly
    (a ridge penalty, typically).  ``obs_grad(theta, idx)`` returns the
    per-observation gradients for the rows in ``idx`` as an array of
    shape (len(idx), p).
    """

    n_obs: int
    obs_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    common_grad: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if int(self.n_obs) < 1:
            raise ValueError(f"n_obs must be at least 1, got {self.n_obs}")
        object.__setattr__(self, "n_obs", int(self.n_obs))


@dataclass(frozen=True, eq=False)
class TargetPotential:
    """A potential with declared curvature constants.

    temperature records accumulated rescaling by ``temper``; it is 1.0
    for targets built directly from data.  oracle_meta is present only
    when the target is exactly quadratic, in which case closed-form
    distributional calculations apply.  parts is present only when the
    potential has finite-sum structure.
    """

    dim: int
    m: float
    M: float
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    temperature: float = 1.0
    oracle_meta: Optional[QuadraticSpec] = None
    parts: Optional[SumStructure] = None

    def __post_init__(self) -> None:
        if int(self.dim) < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        m, M = float(self.m), float(self.M)
        if not (0.0 < m <= M) or not np.isfinite(M):
            raise ValueError(f"curvature constants must satisfy 0 < m <= M < inf, got m={m}, M={M}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)
        if not (float(self.temperature) > 0.0):
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        object.__setattr__(self, "temperature", float(self.temperature))

    @property
    def kappa(self) -> float:
        """Condition number M/m."""
        return self.M / self.m


def quadratic_target(mean: np.ndarray, precision: np.ndarray) -> TargetPotential:
    """Build the quadratic target for a Gaussian density N(mean, precision^{-1}).

    m and M are the extreme eigenvalues of the precision matrix, which
    are exact for this family.  Raises ValueError if the precision is
    not symmetric positive definite.
    """
    spec = QuadraticSpec(mean, precision)
    eigs = np.linalg.eigvalsh(spec.precision)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0:
        raise ValueError(f"precision must be positive definite; smallest eigenvalue is {lo:.6e}")
    if not math.isfinite(hi):
        raise ValueError(f"precision's largest eigenvalue overflows: M = {hi}")
    mu, A = spec.mean, spec.precision

    def _eval(theta: np.ndarray) -> np.ndarray:
        d = np.asarray(theta, dtype=float) - mu
        return 0.5 * np.sum((d @ A) * d, axis=-1)

    def _grad(theta: np.ndarray) -> np.ndarray:
        return (np.asarray(theta, dtype=float) - mu) @ A

    return TargetPotential(dim=spec.dim, m=lo, M=hi, eval=_eval, grad=_grad, oracle_meta=spec)


def logistic_target(X: np.ndarray, y: np.ndarray, ridge: float) -> TargetPotential:
    """Ridge-penalized logistic regression potential.

    f(theta) = sum_i [log(1 + exp(x_i' theta)) - y_i x_i' theta]
               + (ridge / 2) ||theta||^2

    with labels y_i in {0, 1}.  The data term is convex with Hessian
    bounded by (1/4) X'X, so m = ridge and
    M = ridge + lambda_max(X'X) / 4.  Carries finite-sum structure: the
    per-observation gradients cover the data term and the ridge part is
    treated as the exactly-computed common term.
    """
    # scipy is imported here, not at module level: it is the slowest
    # import of the package and only logistic targets use it.
    from scipy.special import expit

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d design matrix, got shape {X.shape}")
    _require_finite("X", X)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},) to match X, got {y.shape}")
    bad = (y != 0.0) & (y != 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"labels must be 0 or 1; y[{i}] = {y[i]}")
    ridge = float(ridge)
    if not 0.0 < ridge < math.inf:
        raise ValueError(f"ridge must be positive (it supplies strong convexity) and finite, got {ridge}")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = X.T @ X
    if not np.isfinite(gram).all():
        raise ValueError("X is too large: X'X overflows, so M = ridge + lambda_max(X'X) / 4 is not finite")
    gram_top = float(np.linalg.eigvalsh(gram)[-1])
    m = ridge
    M = ridge + 0.25 * gram_top
    if not math.isfinite(M):
        raise ValueError(f"ridge and X are too large: M = ridge + lambda_max(X'X) / 4 = {M}")

    def _eval(theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        z = theta @ X.T
        data = np.logaddexp(0.0, z).sum(axis=-1) - z @ y
        return data + 0.5 * ridge * np.sum(theta * theta, axis=-1)

    def _grad(theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        z = theta @ X.T
        return (expit(z) - y) @ X + ridge * theta

    def _obs_grad(theta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        Xs = X[idx]
        z = Xs @ np.asarray(theta, dtype=float)
        return (expit(z) - y[idx])[:, None] * Xs

    def _common_grad(theta: np.ndarray) -> np.ndarray:
        return ridge * np.asarray(theta, dtype=float)

    parts = SumStructure(n_obs=n, obs_grad=_obs_grad, common_grad=_common_grad)
    return TargetPotential(dim=p, m=m, M=M, eval=_eval, grad=_grad, parts=parts)


def custom_target(
    dim: int,
    m: float,
    M: float,
    eval: Callable[[np.ndarray], np.ndarray],
    grad: Callable[[np.ndarray], np.ndarray],
    vectorized: bool = True,
) -> TargetPotential:
    """Wrap user-supplied callables with declared constants.

    The constants are taken on trust; run check_curvature to probe them.
    Pass vectorized=False for callables that only handle a single (p,)
    point; they are then lifted over the leading batch axis.
    """
    if vectorized:
        f, g = eval, grad
    else:
        f0, g0 = eval, grad

        def f(theta: np.ndarray) -> np.ndarray:
            theta = np.asarray(theta, dtype=float)
            if theta.ndim == 1:
                return np.asarray(f0(theta), dtype=float)
            return np.apply_along_axis(lambda row: float(f0(row)), -1, theta)

        def g(theta: np.ndarray) -> np.ndarray:
            theta = np.asarray(theta, dtype=float)
            if theta.ndim == 1:
                return np.asarray(g0(theta), dtype=float)
            return np.apply_along_axis(lambda row: np.asarray(g0(row), dtype=float), -1, theta)

    return TargetPotential(dim=dim, m=m, M=M, eval=f, grad=g)


def temper(target: TargetPotential, tau: float) -> TargetPotential:
    """Rescale a potential to f / tau.

    Curvature constants scale the same way and quadratic structure is
    preserved (precision / tau).  Temperatures compose multiplicatively.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    f, g = target.eval, target.grad
    meta = None
    if target.oracle_meta is not None:
        meta = QuadraticSpec(target.oracle_meta.mean, target.oracle_meta.precision / tau)
    parts = None
    if target.parts is not None:
        src = target.parts
        parts = SumStructure(
            n_obs=src.n_obs,
            obs_grad=lambda theta, idx: src.obs_grad(theta, idx) / tau,
            common_grad=lambda theta: src.common_grad(theta) / tau,
        )
    return TargetPotential(
        dim=target.dim,
        m=target.m / tau,
        M=target.M / tau,
        eval=lambda theta: f(theta) / tau,
        grad=lambda theta: g(theta) / tau,
        temperature=target.temperature * tau,
        oracle_meta=meta,
        parts=parts,
    )


def _numbers(payload: dict, name: str, ndim: Optional[int] = None) -> np.ndarray:
    """payload[name] as a float array; ValueError naming the field if it is not one."""
    try:
        values = np.asarray(payload[name], dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or (ndim is not None and values.ndim != ndim):
        kind = "a number" if ndim == 0 else "numbers in a rectangular array"
        raise ValueError(f"{name} must be {kind}, got {json.dumps(payload[name])[:60]}")
    return values


def target_from_dict(payload: dict) -> TargetPotential:
    """Build a target from a JSON-style dict.

    Two forms are understood:

      {"type": "quadratic", "mean": [...], "precision": [[...], ...]}
      {"type": "logistic", "X": [[...], ...], "y": [...], "ridge": r}
    """
    if not isinstance(payload, dict):
        raise ValueError(f"target description must be an object, got {type(payload).__name__}")
    kind = payload.get("type")
    if kind == "quadratic":
        missing = [k for k in ("mean", "precision") if k not in payload]
        if missing:
            raise ValueError(f"quadratic target is missing fields: {', '.join(missing)}")
        return quadratic_target(_numbers(payload, "mean"), _numbers(payload, "precision"))
    if kind == "logistic":
        missing = [k for k in ("X", "y", "ridge") if k not in payload]
        if missing:
            raise ValueError(f"logistic target is missing fields: {', '.join(missing)}")
        return logistic_target(_numbers(payload, "X"), _numbers(payload, "y"),
                               float(_numbers(payload, "ridge", ndim=0)))
    raise ValueError(f"unknown target type: {kind!r} (expected 'quadratic' or 'logistic')")


def load_target(path: str | Path) -> TargetPotential:
    """Read a target description from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return target_from_dict(payload)


def check_curvature(
    target: TargetPotential,
    trials: int = 1000,
    seed: int = 0,
    scale: float = 1.0,
    rel_slack: float = 1e-9,
) -> dict:
    """Probe the declared (m, M) on random point pairs.

    Draws ``trials`` pairs (x, y) from N(0, scale^2 I) and checks the
    strong-convexity lower bound and the gradient Lipschitz bound with
    relative slack ``rel_slack``.  Returns a small report dict; raises
    ValueError on the first violated pair.  This is a sanity probe, not
    a proof: it can only ever refute the declared constants.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    xs = scale * rng.standard_normal((trials, target.dim))
    ys = scale * rng.standard_normal((trials, target.dim))
    fx, fy = target.eval(xs), target.eval(ys)
    gx, gy = target.grad(xs), target.grad(ys)
    diff = ys - xs
    sq = np.sum(diff * diff, axis=-1)

    lower = fx + np.sum(gx * diff, axis=-1) + 0.5 * target.m * sq
    conv_slack = rel_slack * np.maximum(np.abs(fy), np.maximum(np.abs(lower), 1.0))
    conv_gap = fy - lower
    if (conv_gap < -conv_slack).any():
        i = int(np.argmin(conv_gap + conv_slack))
        raise ValueError(
            f"strong convexity with m={target.m} violated at pair {i}: "
            f"f(y) - lower bound = {conv_gap[i]:.6e}"
        )

    gnorm = np.linalg.norm(gx - gy, axis=-1)
    lip_cap = target.M * np.sqrt(sq) * (1.0 + rel_slack) + rel_slack
    if (gnorm > lip_cap).any():
        i = int(np.argmax(gnorm - lip_cap))
        raise ValueError(
            f"gradient Lipschitz bound M={target.M} violated at pair {i}: "
            f"||grad f(x) - grad f(y)|| = {gnorm[i]:.6e} for ||x - y|| = {np.sqrt(sq[i]):.6e}"
        )

    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(sq > 0, gnorm / np.sqrt(sq), 0.0)
    return {
        "pairs": trials,
        "min_convexity_gap": float(conv_gap.min()),
        "max_lipschitz_ratio": float(ratio.max()),
    }
