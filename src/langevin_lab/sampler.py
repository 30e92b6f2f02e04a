"""Constant-step Langevin chains with exact and noisy gradient oracles.

The update is

    theta_{k+1} = theta_k - h * Y_k + sqrt(2h) * xi_{k+1}

with xi i.i.d. standard Gaussian and Y_k the gradient oracle's answer
at theta_k: the exact gradient, the gradient plus additive noise, or a
subsampled finite-sum estimate.

Reproducibility contract: every replica owns counter-based random
streams keyed by (seed, replica, channel).  Drive noise xi, oracle
noise zeta, and the initial draw live on separate channels, so changing
the oracle never shifts the drive noise, and a noisy run with sigma = 0
walks the exact same path as the exact-gradient run.  Every chain or
chunk of replicas, whatever the oracle, runs through one kernel that
draws noise in blocks of steps, re-keying one Philox per replica, and
checks at the end of each block that every state is still finite.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from ._scalars import array, choice, count, nonnegative, positive
from .parallel import parallel_map
from .targets import TargetPotential

__all__ = [
    "XI_STREAM",
    "ZETA_STREAM",
    "INIT_STREAM",
    "noise_stream",
    "GradientOracle",
    "LmcConfig",
    "Trajectory",
    "lmc_step",
    "oracle_gradient",
    "run_lmc",
    "run_nlmc",
    "run_tempered_lmc",
    "gradient_descent",
    "chain_states",
    "final_states",
]

XI_STREAM = 0
ZETA_STREAM = 1
INIT_STREAM = 2

_CHANNELS_PER_REPLICA = 4
# float64 values each replica row draws per re-key: a noise block is
# _NOISE_BUDGET // p steps, so buffers depend on neither K nor spare memory
_NOISE_BUDGET = 4096
# float64 values per chunk of replicas and channel (8 MB), see _chunk_rows
_CHUNK_VALUES = 2**20

InitialState = Union[np.ndarray, Callable[[np.random.Generator], np.ndarray]]


def _stream_keys(seed: int, replicas: range, channel: int) -> list:
    """Philox keys [seed, 4 * replica + channel] of a run of replicas."""
    last = replicas.stop - 1
    if _CHANNELS_PER_REPLICA * last + channel >= 2**64:
        raise ValueError(f"replica {last} is too large: 4 * replica + channel must be below 2**64")
    return [[seed, _CHANNELS_PER_REPLICA * r + channel] for r in replicas]


def noise_stream(seed: int, replica: int, channel: int) -> np.random.Generator:
    """Counter-based generator for one (seed, replica, channel) triple.

    Streams with distinct triples are statistically independent, and a
    given triple always yields the same draws, regardless of how many
    other replicas run or in what order.
    """
    seed, replica = count("seed", seed, below=2**64), count("replica", replica)
    channel = count("channel", channel, below=_CHANNELS_PER_REPLICA)
    key = np.array(_stream_keys(seed, range(replica, replica + 1), channel)[0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_steps(K: int, p: int) -> int:
    """Steps per noise block: each replica row draws about _NOISE_BUDGET values per re-key."""
    return max(1, min(K, _NOISE_BUDGET // p))


def _noise(keys: list, shape: tuple, K: int, law: str = "gaussian") -> Iterator[np.ndarray]:
    """Yield K per-step draws shaped like the chain state; row j follows stream keys[j].

    One Philox is re-keyed to each replica's key at counter 0 with an
    empty buffer, where noise_stream starts, so the draws are the same
    bit for bit.  Each re-key fills one row of a (rows, block, p) buffer
    with a block of _block_steps(K, p) steps, and each replica's state
    is saved between blocks.  Yielded steps are views into that buffer,
    valid until the next block is drawn.  law is "gaussian" or
    "rademacher".
    """
    n, p = len(keys), shape[-1]
    block = _block_steps(K, p)
    buf = np.empty((n, block, p))
    bitgen = np.random.Philox(0)  # re-keyed before every draw
    gen = np.random.Generator(bitgen)
    fresh = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    states = [None] * n
    for k0 in range(0, K, block):
        rows = buf[:, : min(block, K - k0)]
        for j, row in enumerate(rows):
            fresh["state"]["key"] = keys[j]
            bitgen.state = states[j] if k0 else fresh
            if law == "gaussian":
                gen.standard_normal(out=row)
            else:
                row[...] = 2.0 * gen.integers(0, 2, size=row.shape) - 1.0
            if k0 + block < K:
                states[j] = bitgen.state
        yield from rows[0] if len(shape) == 1 else rows.transpose(1, 0, 2)


@dataclass(frozen=True)
class GradientOracle:
    """How the chain obtains gradients.

    mode:
      "exact"       true gradient
      "gaussian"    true gradient plus sigma * zeta with zeta drawn per
                    step from the oracle channel; the zeta law is
                    standard normal or scaled Rademacher per ``noise``
      "subsampled"  unbiased finite-sum estimate from ``batch``
                    observations drawn without replacement, plus the
                    exactly computed common term

    batch equal to the observation count reproduces the exact gradient.
    """

    mode: str = "exact"
    sigma: float = 0.0
    batch: int = 1
    noise: str = "gaussian"

    def __post_init__(self) -> None:
        choice("oracle mode", self.mode, ("exact", "gaussian", "subsampled"))
        sigma = nonnegative("sigma", self.sigma)
        if self.mode == "exact" and sigma != 0.0:
            raise ValueError("sigma must be 0 for the exact oracle; use mode='gaussian'")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "batch", count("batch", self.batch, 1))
        choice("noise law", self.noise, ("gaussian", "rademacher"))


@dataclass(frozen=True)
class LmcConfig:
    """Step size, horizon and seeding for one chain."""

    h: float
    K: int
    seed: int = 0
    oracle: GradientOracle = field(default_factory=GradientOracle)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", positive("step size h", self.h))
        object.__setattr__(self, "K", count("iteration count K", self.K))
        object.__setattr__(self, "seed", count("seed", self.seed, below=2**64))


@dataclass(frozen=True)
class Trajectory:
    """A realized chain: iterates has shape (K + 1, dim), row k is step k."""

    iterates: np.ndarray
    config: LmcConfig
    wall_time: float
    replica: int = 0
    tau: Optional[float] = None

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def _check_step_size(h: float, target: TargetPotential) -> None:
    limit = 2.0 / target.M
    if h >= limit:
        warnings.warn(
            f"step size h={h:.6g} is at or beyond 2/M = {limit:.6g}; the chain is "
            f"transient there and no error bound applies",
            RuntimeWarning,
            stacklevel=3,
        )


def _resolve_initial(initial: InitialState, target: TargetPotential, seed: int, replica: int) -> np.ndarray:
    if callable(initial):
        initial = initial(noise_stream(seed, replica, INIT_STREAM))
    return array("initial state", initial, (target.dim,), " to match the target's dimension")


def lmc_step(state: np.ndarray, target: TargetPotential, h: float, noise: np.ndarray) -> np.ndarray:
    """One update with an exact gradient and externally supplied noise."""
    h = positive("step size h", h)
    if not 2.0 * h < math.inf:
        raise ValueError(f"step size h={h} is too large: the noise scale sqrt(2h) overflows")
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != target.dim:
        raise ValueError(
            f"state has dimension {state.shape[-1]} but the target has dimension {target.dim}"
        )
    noise = array("noise", noise, state.shape, " to match state", check_finite=False)
    return state - h * target.grad(state) + math.sqrt(2.0 * h) * noise


def _check_subsampled(target: TargetPotential, oracle: GradientOracle) -> None:
    """The subsampled oracle needs a finite-sum target with at least batch observations."""
    if target.parts is None:
        raise ValueError(
            "target has no finite-sum structure; the subsampled oracle needs "
            "per-observation gradients"
        )
    if oracle.batch > target.parts.n_obs:
        raise ValueError(f"batch {oracle.batch} exceeds the observation count {target.parts.n_obs}")


def oracle_gradient(
    target: TargetPotential,
    oracle: GradientOracle,
    state: np.ndarray,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Evaluate the configured gradient oracle at one state or a batch.

    rng is the oracle's own channel and may be None only for the exact
    mode.  The subsampled mode handles single states only; replicated
    runs call it once per replica row, each on that replica's stream.
    """
    state = np.asarray(state, dtype=float)
    if oracle.mode == "exact":
        return target.grad(state)
    if rng is None:
        raise ValueError(f"oracle mode {oracle.mode!r} needs its noise stream, got rng=None")
    if oracle.mode == "gaussian":
        g = target.grad(state)
        if oracle.noise == "gaussian":
            zeta = rng.standard_normal(state.shape)
        else:
            zeta = 2.0 * rng.integers(0, 2, size=state.shape).astype(float) - 1.0
        return g + oracle.sigma * zeta
    _check_subsampled(target, oracle)
    if state.ndim != 1:
        raise ValueError("the subsampled oracle supports single states, not batches")
    n = target.parts.n_obs
    idx = rng.choice(n, size=oracle.batch, replace=False)
    scale = n / oracle.batch
    return scale * target.parts.obs_grad(state, idx).sum(axis=0) + target.parts.common_grad(state)


def _advance(theta, K, a, drift, b=0.0, seed=0, replicas=range(1), law=None) -> Iterator[np.ndarray]:
    """The chain kernel: yield theta_1, ..., theta_K of theta <- theta - a * drift(theta, zeta_k) + b * xi_k.

    theta is one state (p,) or one per replica, (n, p).  xi and, if law
    is set, zeta come from the replicas' streams (see _noise); else drift
    gets zeta_k = None.  b = 0 draws and adds no noise.  At the end of
    every noise block the state must be finite: otherwise
    FloatingPointError names the first non-finite replica and the
    block's steps.
    """
    xi = _noise(_stream_keys(seed, replicas, XI_STREAM), theta.shape, K) if b else repeat(None)
    zeta = _noise(_stream_keys(seed, replicas, ZETA_STREAM), theta.shape, K, law) if law else repeat(None)
    block = _block_steps(K, theta.shape[-1])
    for k0 in range(0, K, block):
        for _, x, z in zip(range(min(block, K - k0)), xi, zeta):
            theta = theta - a * drift(theta, z)
            if b:
                theta = theta + b * x
            yield theta
        finite = np.isfinite(theta).all(axis=-1)
        if not finite.all():
            r = replicas[int(np.argmin(finite))]
            raise FloatingPointError(
                f"chain diverged: replica {r} is not finite after steps {k0 + 1}..{min(k0 + block, K)}"
            )


def _final(theta: np.ndarray, states: Iterable[np.ndarray]) -> np.ndarray:
    """The last of states, or theta if there are none."""
    for theta in states:
        pass
    return theta


def _record(theta: np.ndarray, states: Iterable[np.ndarray], K: int) -> np.ndarray:
    """Iterates (K + 1, p): theta, then the K states."""
    iterates = np.empty((K + 1, theta.shape[-1]))
    iterates[0] = theta
    for k, state in enumerate(states, 1):
        iterates[k] = state
    return iterates


def _lmc(target: TargetPotential, config: LmcConfig, theta: np.ndarray, replicas: range) -> Iterator[np.ndarray]:
    """The states of config's chain from theta, one state per replica (see _advance)."""
    oracle, h = config.oracle, config.h
    if oracle.mode == "subsampled":
        _check_subsampled(target, oracle)  # here too, so a K = 0 chain is refused like any other
        rngs = [noise_stream(config.seed, r, ZETA_STREAM) for r in replicas]
        grads = lambda x: [oracle_gradient(target, oracle, y, g) for y, g in zip(np.atleast_2d(x), rngs)]
        drift = lambda x, z: np.reshape(grads(x), x.shape)
    else:  # zeta_k is None for the exact oracle and at sigma 0
        drift = lambda x, z: target.grad(x) if z is None else target.grad(x) + oracle.sigma * z
    law = oracle.noise if oracle.mode == "gaussian" and oracle.sigma != 0.0 else None
    return _advance(theta, config.K, h, drift, math.sqrt(2.0 * h), config.seed, replicas, law)


def chain_states(target: TargetPotential, config: LmcConfig, initial: InitialState,
                 replica: int = 0) -> Iterator[np.ndarray]:
    """theta_0, ..., theta_K of replica's chain, each computed when taken; the step and start are checked at once."""
    replica = count("replica", replica)
    _check_step_size(config.h, target)
    theta = _resolve_initial(initial, target, config.seed, replica)
    return chain([theta], _lmc(target, config, theta, range(replica, replica + 1)))


def _run_chain(
    target: TargetPotential, config: LmcConfig, initial: InitialState, replica: int
) -> Trajectory:
    t0 = time.perf_counter()
    states = chain_states(target, config, initial, replica)
    iterates = _record(next(states), states, config.K)
    return Trajectory(iterates, config, time.perf_counter() - t0, replica=count("replica", replica))


def run_lmc(
    target: TargetPotential, config: LmcConfig, initial: InitialState, replica: int = 0
) -> Trajectory:
    """Run one exact-gradient chain for config.K steps."""
    if config.oracle.mode != "exact":
        raise ValueError(
            f"run_lmc uses the exact gradient but the oracle mode is {config.oracle.mode!r}; "
            f"use run_nlmc for noisy oracles"
        )
    return _run_chain(target, config, initial, replica)


def run_nlmc(
    target: TargetPotential, config: LmcConfig, initial: InitialState, replica: int = 0
) -> Trajectory:
    """Run one noisy-gradient chain (additive-noise or subsampled oracle).

    With mode "gaussian" and sigma = 0 the iterates coincide with
    run_lmc under the same seed: no oracle noise is drawn, and the drive
    noise lives on its own channel.
    """
    if config.oracle.mode == "exact":
        raise ValueError("run_nlmc needs a noisy oracle; use run_lmc for the exact gradient")
    return _run_chain(target, config, initial, replica)


def gradient_descent(
    target: TargetPotential, h: float, K: int, initial: InitialState
) -> np.ndarray:
    """Plain descent iterates, shape (K + 1, dim); the zero-noise chain."""
    config = LmcConfig(h=h, K=K)
    theta = _resolve_initial(initial, target, 0, 0)
    return _record(theta, _advance(theta, config.K, config.h, lambda x, z: target.grad(x)), config.K)


def run_tempered_lmc(target: TargetPotential, tau: float, K: int, seed: int = 0, *,
                     initial: InitialState, replica: int = 0) -> Trajectory:
    """Chain with unit-curvature step and temperature-scaled noise:

        theta_{k+1} = theta_k - (1/M) grad f(theta_k) + sqrt(2 tau / M) xi

    Identical in law to the exact-gradient chain on the rescaled
    potential f / tau with step h = tau / M, and identical draw by draw
    under the same seed.  tau = 0 collapses to gradient descent with
    step 1/M; the noise stream is then untouched, and a callable start
    still draws from (seed, replica) as at tau > 0.
    """
    tau, replica = nonnegative("tau", tau), count("replica", replica)
    t0 = time.perf_counter()
    M = target.M
    if tau and not (tau / M > 0.0 and 2.0 * tau / M < math.inf):
        raise ValueError(f"tau={tau} is out of range: tau / M and 2 tau / M must be positive and finite")
    config = LmcConfig(h=tau / M if tau else 1.0 / M, K=K, seed=seed)
    theta = _resolve_initial(initial, target, seed, replica)
    if tau == 0.0:
        iterates = gradient_descent(target, config.h, config.K, theta)
    else:
        # a = 1 with drift grad / M rounds exactly as the formula above
        drift = lambda x, z: target.grad(x) / M
        b, replicas = math.sqrt(2.0 * tau / M), range(replica, replica + 1)
        iterates = _record(theta, _advance(theta, config.K, 1.0, drift, b, config.seed, replicas), config.K)
    return Trajectory(iterates, config, time.perf_counter() - t0, replica=replica, tau=tau)


def _chunk_rows(K: int, p: int) -> int:
    # fill _CHUNK_VALUES with noise blocks, at most 4096 rows.  A row's
    # block, _block_steps(K, p) * p values, is at most the divisor below
    # for any _NOISE_BUDGET; dividing by the exact block size would move
    # chunk edges where p does not divide the budget, and a different row
    # count regroups the BLAS sums and changes final states in the last bit
    return max(1, min(4096, _CHUNK_VALUES // max(p, min(K * p, _NOISE_BUDGET))))


def final_states(
    target: TargetPotential, config: LmcConfig, initial: InitialState, replicas: int
) -> np.ndarray:
    """Final iterates of many independent replicas, shape (replicas, dim).

    Replica r reproduces the single-chain run with the same seed and
    replica index up to floating-point reassociation in batched linear
    algebra; its noise streams are exactly the same.  Results do not
    depend on the thread cap, and prefixes agree across different
    replica counts.  Chains advance together in chunks of replicas;
    each chunk re-keys one Philox per replica and draws about 4096 noise
    values per replica at a time, so memory grows with neither K nor the
    chunk's spare room: 32 replicas at p = 100 hold 1 MB of noise per
    channel.  The subsampled oracle draws each row's batch from that
    replica's own stream.  A replica whose state turns non-finite raises
    FloatingPointError.
    """
    replicas = count("replicas", replicas, 1)
    _check_step_size(config.h, target)
    seed = config.seed
    try:
        out = np.empty((replicas, target.dim))
    except (ValueError, MemoryError) as err:  # beyond numpy's size limit, or the address space
        raise ValueError(f"replicas={replicas} is too many to hold: {err}") from None
    chunk = _chunk_rows(config.K, target.dim)

    def run_block(r0: int) -> None:
        rows = range(r0, min(r0 + chunk, replicas))
        if callable(initial):
            theta = np.stack([_resolve_initial(initial, target, seed, r) for r in rows])
        else:
            theta = np.tile(_resolve_initial(initial, target, seed, 0), (len(rows), 1))
        out[r0 : rows.stop] = _final(theta, _lmc(target, config, theta, rows))

    parallel_map(run_block, range(0, replicas, chunk))
    return out
