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

from ._scalars import array, choice, count, curvature, nonnegative, positive, symmetric

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
        mean = array("mean", self.mean, (None,)).copy()
        prec = symmetric("precision", array("precision", self.precision, (mean.size, mean.size), " to match mean"))
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
        object.__setattr__(self, "n_obs", count("n_obs", self.n_obs, 1))


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
        object.__setattr__(self, "dim", count("dim", self.dim, 1))
        m, M = curvature(self.m, self.M)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "temperature", positive("temperature", self.temperature))

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


def _expit(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)), scipy.special.expit's formula: 0.0 where exp(-z) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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
    X = array("X", X, (None, None))
    n, p = X.shape
    y = array("y", y, (n,), " to match X")
    bad = (y != 0.0) & (y != 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"labels must be 0 or 1; y[{i}] = {y[i]}")
    ridge = positive("ridge", ridge)  # it supplies the strong convexity m
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
        return (_expit(z) - y) @ X + ridge * theta

    def _obs_grad(theta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        Xs = X[idx]
        z = Xs @ np.asarray(theta, dtype=float)
        return (_expit(z) - y[idx])[:, None] * Xs

    def _common_grad(theta: np.ndarray) -> np.ndarray:
        return ridge * np.asarray(theta, dtype=float)

    parts = SumStructure(n_obs=n, obs_grad=_obs_grad, common_grad=_common_grad)
    return TargetPotential(dim=p, m=m, M=M, eval=_eval, grad=_grad, parts=parts)


def _lifted(fn: Callable, signature: str) -> Callable:
    """fn of one (p,) point over any leading batch axes; a single point skips np.vectorize's setup."""
    batched = np.vectorize(fn, otypes=[float], signature=signature)
    return lambda theta: fn(theta) if np.ndim(theta) == 1 else batched(theta)


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
    if not vectorized:  # each point reaches the callables as a float copy; results are taken as floats
        f0, g0 = eval, grad
        eval = _lifted(lambda x: float(f0(np.array(x, dtype=float))), "(p)->()")
        grad = _lifted(lambda x: np.asarray(g0(np.array(x, dtype=float)), dtype=float), "(p)->(p)")
    return TargetPotential(dim=dim, m=m, M=M, eval=eval, grad=grad)


def temper(target: TargetPotential, tau: float) -> TargetPotential:
    """Rescale a potential to f / tau.

    Curvature constants scale the same way and quadratic structure is
    preserved (precision / tau).  Temperatures compose multiplicatively.
    """
    tau = positive("tau", tau)
    if not (target.m / tau > 0.0 and target.M / tau < math.inf):
        raise ValueError(f"tau={tau} is out of range: m / tau and M / tau must be positive and finite")
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


def target_from_dict(payload: dict) -> TargetPotential:
    """Build a target from a JSON-style dict.

    Two forms are understood:

      {"type": "quadratic", "mean": [...], "precision": [[...], ...]}
      {"type": "logistic", "X": [[...], ...], "y": [...], "ridge": r}
    """
    if not isinstance(payload, dict):
        raise ValueError(f"target description must be an object, got {type(payload).__name__}")
    kind = choice("target type", payload.get("type"), ("quadratic", "logistic"))
    fields = ("mean", "precision") if kind == "quadratic" else ("X", "y", "ridge")
    if missing := [k for k in fields if k not in payload]:
        raise ValueError(f"{kind} target is missing fields: {', '.join(missing)}")
    if kind == "quadratic":
        return quadratic_target(payload["mean"], payload["precision"])
    return logistic_target(payload["X"], payload["y"], float(array("ridge", payload["ridge"], ())))


def load_target(path: str | Path) -> TargetPotential:
    """Read a target description from a JSON file; a ValueError about its contents starts with path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return target_from_dict(payload)
    except ValueError as exc:  # bad JSON or UTF-8, bad data, a precision that is not positive definite
        raise ValueError(f"{path}: {exc}") from None


@np.errstate(over="ignore", invalid="ignore")  # overflow at the probe points raises below
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
    trials, seed = count("trials", trials, 1), count("seed", seed, below=2**64)
    scale, rel_slack = positive("scale", scale), nonnegative("rel_slack", rel_slack)
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
    gnorm = np.linalg.norm(gx - gy, axis=-1)
    if not (np.isfinite(conv_gap).all() and np.isfinite(gnorm).all()):
        raise ValueError(f"scale={scale} is too large for this target: f or grad f overflows at the probes")
    if (conv_gap < -conv_slack).any():
        i = int(np.argmin(conv_gap + conv_slack))
        raise ValueError(
            f"strong convexity with m={target.m} violated at pair {i}: "
            f"f(y) - lower bound = {conv_gap[i]:.6e}"
        )

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
