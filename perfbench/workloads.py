"""The benchmark's workloads: seeded inputs, one op each, and its output check.

Every workload is a closed loop with one client.  An op is a list of
in-process ``cli.main([...])`` calls wherever the command line exposes
the path, so argument parsing, CSV writing and manifest hashing are
measured as users pay for them.  Inputs (target JSON files and per-op
seeds) come from the run seed only; the program sees the generated
files and flags, nothing else.

Checks run after an op, outside its timing.  References they compare
against are computed here from the generated inputs, independently of
the program's own oracle, except where a check is a program bound by
definition (the W2 bounds).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

# A statistic more than Z_LIMIT standard errors from its exact value
# fails the op.  At 6 the false-alarm rate is about 2e-9 per statistic,
# which keeps a run of ~100 ops x 100 coordinates clear of flukes while
# a 10-standard-error shift is still rejected.
Z_LIMIT = 6.0

# (epsilon, p) -> (k_lmc, k_baseline): the certified counts the
# acceptance tests pin for figure1 at m=4, M=5 on the default grid.
FROZEN_CURVES = {
    (0.1, 10): (9306, 25645),
    (0.1, 100): (110253, 313222),
    (0.1, 1000): (1270428, 3694062),
    (0.1, 10000): (14356365, 42505492),
    (0.3, 10): (844, 2251),
    (0.3, 100): (10429, 28784),
    (0.3, 1000): (123365, 350896),
    (0.3, 10000): (1420044, 4132924),
}


class CheckFailed(Exception):
    """An op's output does not match its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def spd_matrix(rng: np.random.Generator, p: int, lo: float, hi: float) -> np.ndarray:
    """Random symmetric positive definite matrix whose spectrum spans exactly [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    w = rng.uniform(lo, hi, p)
    w[0], w[-1] = lo, hi
    a = (q * w) @ q.T
    return (a + a.T) / 2.0


def quadratic_payload(mean: np.ndarray, precision: np.ndarray) -> dict:
    return {"type": "quadratic", "mean": mean.tolist(), "precision": precision.tolist()}


def read_csv(path: Path, header: str, rows: int, last: int | None = None) -> np.ndarray:
    """Parse a CSV the CLI wrote; reject a wrong header, row count, ragged row or row order.

    Every row is validated; only the last ``last`` rows are parsed when given.
    """
    lines = path.read_text(encoding="utf-8").split("\n")
    require(lines[-1] == "", f"{path.name}: last line is not newline-terminated")
    lines = lines[:-1]
    require(lines[0] == header, f"{path.name}: unexpected header {lines[0][:60]!r}")
    require(len(lines) == rows + 1, f"{path.name}: {len(lines) - 1} data rows, expected {rows}")
    commas = header.count(",")
    for r, line in enumerate(lines[1:]):
        require(line.count(",") == commas, f"{path.name}: row {r} has {line.count(',') + 1} fields")
        require(line[: line.index(",")] == str(r), f"{path.name}: row {r} is labelled {line[:12]!r}")
    keep = lines[1:] if last is None else lines[-last:]
    return np.array([[float(x) for x in line.split(",")[1:]] for line in keep])


def theta_header(first: str, p: int) -> str:
    return first + "," + ",".join(f"theta_{j}" for j in range(p))


def check_mean(sample: np.ndarray, mean: np.ndarray, var: np.ndarray, label: str) -> None:
    """Per-coordinate ensemble mean within Z_LIMIT standard errors of the exact mean."""
    se = np.sqrt(var / sample.shape[0])
    z = np.abs(sample.mean(axis=0) - mean) / se
    j = int(np.argmax(z))
    require(bool(z[j] <= Z_LIMIT), f"{label}: mean of coordinate {j} is {z[j]:.2f} standard errors off")


class Workload:
    """One workload: its target files, op rotation, references and checks.

    ``rotation`` is the number of distinct op variants; op i runs
    variant i % rotation, and runs measure whole rotations.
    """

    name = ""
    rotation = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.op_seed_base = int(self.rng.integers(0, 2**40))

    def op_seed(self, i: int) -> int:
        return self.op_seed_base + i

    def target_payloads(self) -> dict[str, dict]:
        raise NotImplementedError

    def prepare(self, lab, paths: dict[str, Path]) -> None:
        """Build exact references from the generated inputs (untimed)."""

    def steps(self, i: int) -> int:
        """Chain steps op i advances: replicas x K, or steps of the exact law."""
        raise NotImplementedError

    def run(self, lab, i: int, out: Path):
        """Run op i, writing into the empty directory out; returns what check needs."""
        raise NotImplementedError

    def check(self, lab, i: int, out: Path, result) -> None:
        raise NotImplementedError


def run_cli(lab, argv: list[str]) -> None:
    code = lab.cli.main(argv)
    require(code == 0, f"langevin-lab {argv[0]} exited with code {code}")


class Replicas1d(Workload):
    """``sample --oracle gaussian --replicas 4096 --K 200`` on a 1-d quadratic.

    The noise-floor experiment at 1/25 of its replicas, sigma rotating
    through 0, 0.5 and 2.  Each op opens about 8192 Philox streams and
    the gradients are trivial, so stream setup and noise draws are most
    of the op; planner and Gaussian oracle do nothing.
    """

    name = "replicas_1d"
    SIGMAS = (0.0, 0.5, 2.0)
    rotation = len(SIGMAS)
    A, MU, H, K, R, INIT = 4.0, 1.0, 0.2, 200, 4096, 3.0

    def target_payloads(self):
        return {"quadratic_1d": quadratic_payload(np.array([self.MU]), np.array([[self.A]]))}

    def prepare(self, lab, paths):
        self.target = paths["quadratic_1d"]
        g = 1.0 - self.H * self.A
        self.mean = self.MU + g**self.K * (self.INIT - self.MU)
        self.quantiles = self.MU + stats.norm.ppf((np.arange(self.R) + 0.5) / self.R) / math.sqrt(self.A)
        w2_init = math.hypot(self.INIT - self.MU, 1.0 / math.sqrt(self.A))
        self.var = {}
        self.bound = {}
        for sigma in self.SIGMAS:
            step_var = 2.0 * self.H + (self.H * sigma) ** 2
            self.var[sigma] = step_var * (1.0 - g ** (2 * self.K)) / (1.0 - g * g)
            inputs = lab.bounds.BoundInputs(
                m=self.A, M=self.A, h=self.H, K=self.K, p=1, w2_init=w2_init, sigma=sigma
            )
            self.bound[sigma] = lab.bounds.noisy_lmc_bound(inputs).value

    def steps(self, i):
        return self.R * self.K

    def run(self, lab, i, out):
        sigma = self.SIGMAS[i % self.rotation]
        run_cli(lab, [
            "sample", "--target", str(self.target), "--oracle", "gaussian",
            "--sigma", repr(sigma), "--h", repr(self.H), "--K", str(self.K),
            "--replicas", str(self.R), "--init", repr(self.INIT),
            "--seed", str(self.op_seed(i)), "--out", str(out / "finals.csv"),
        ])

    def check(self, lab, i, out, result):
        sigma = self.SIGMAS[i % self.rotation]
        x = read_csv(out / "finals.csv", theta_header("replica", 1), self.R)
        var = self.var[sigma]
        check_mean(x, np.array([self.mean]), np.array([var]), f"sigma={sigma}")
        s2 = float(x[:, 0].var(ddof=1))
        z = abs(s2 - var) / (var * math.sqrt(2.0 / (self.R - 1)))
        require(z <= Z_LIMIT, f"sigma={sigma}: variance {s2:.6g} is {z:.2f} standard errors from {var:.6g}")
        w2 = math.sqrt(float(np.mean((np.sort(x[:, 0]) - self.quantiles) ** 2)))
        require(w2 <= self.bound[sigma], f"sigma={sigma}: empirical W2 {w2:.6g} above bound {self.bound[sigma]:.6g}")


class ChainsP100(Workload):
    """Three ``sample`` calls: a K=1000 trajectory and 32 replicas on a dense
    p=100 quadratic (spectrum [1, 10], h = 1/M), then 4 subsampled chains
    on a logistic target (n=1000, p=20, batch 32, K=250).

    Gradients, the per-step loop, the noise buffer and CSV formatting
    dominate, with at most 41 streams per op.
    """

    name = "chains_p100"
    P, K, REPLICAS = 100, 1000, 32
    N_OBS, P_LOGIT, RIDGE, BATCH, LOGIT_REPLICAS, LOGIT_K = 1000, 20, 1.0, 32, 4, 250

    def target_payloads(self):
        rng = self.rng
        mean = rng.standard_normal(self.P)
        precision = spd_matrix(rng, self.P, 1.0, 10.0)
        X = rng.standard_normal((self.N_OBS, self.P_LOGIT)) / math.sqrt(self.P_LOGIT)
        beta = rng.standard_normal(self.P_LOGIT)
        y = (rng.uniform(size=self.N_OBS) < 1.0 / (1.0 + np.exp(-X @ beta))).astype(float)
        self.h_logit = 1.0 / (self.RIDGE + 0.25 * float(np.linalg.eigvalsh(X.T @ X)[-1]))
        return {
            "quadratic_p100": quadratic_payload(mean, precision),
            "logistic_p20": {"type": "logistic", "X": X.tolist(), "y": y.tolist(), "ridge": self.RIDGE},
        }

    def prepare(self, lab, paths):
        self.quadratic, self.logistic = paths["quadratic_p100"], paths["logistic_p20"]
        payload = json.loads(self.quadratic.read_text(encoding="utf-8"))
        mu, A = np.asarray(payload["mean"]), np.asarray(payload["precision"])
        lam, V = np.linalg.eigh(A)
        self.h = 1.0 / float(lam[-1])
        g = 1.0 - self.h * lam
        # exact law after K steps from theta_0 = 0: spectral form of the moment recursion
        self.mean = mu - V @ (g**self.K * (V.T @ mu))
        self.var = (V * V) @ (2.0 * self.h * (1.0 - g ** (2 * self.K)) / (1.0 - g * g))

    def steps(self, i):
        return self.K + self.REPLICAS * self.K + self.LOGIT_REPLICAS * self.LOGIT_K

    def run(self, lab, i, out):
        seed = str(self.op_seed(i))
        common = ["sample", "--target", str(self.quadratic), "--h", repr(self.h), "--K", str(self.K), "--seed", seed]
        run_cli(lab, common + ["--replicas", "1", "--out", str(out / "trajectory.csv")])
        run_cli(lab, common + ["--replicas", str(self.REPLICAS), "--out", str(out / "replicas.csv")])
        run_cli(lab, [
            "sample", "--target", str(self.logistic), "--oracle", "subsampled",
            "--batch", str(self.BATCH), "--replicas", str(self.LOGIT_REPLICAS),
            "--K", str(self.LOGIT_K), "--h", repr(self.h_logit), "--seed", seed,
            "--out", str(out / "logistic.csv"),
        ])

    def check(self, lab, i, out, result):
        last = read_csv(out / "trajectory.csv", theta_header("k", self.P), self.K + 1, last=1)[0]
        reps = read_csv(out / "replicas.csv", theta_header("replica", self.P), self.REPLICAS)
        gap = float(np.linalg.norm(last - reps[0]))
        require(
            gap <= 1e-9 * float(np.linalg.norm(reps[0])),
            f"trajectory end differs from replica 0 by {gap:.3e}",
        )
        check_mean(reps, self.mean, self.var, "p=100 ensemble")
        finals = read_csv(out / "logistic.csv", theta_header("replica", self.P_LOGIT), self.LOGIT_REPLICAS)
        require(bool(np.all(np.isfinite(finals))), "logistic finals are not finite")


class Certify(Workload):
    """``figure1`` for one frozen (epsilon, p) point, a 320-cell bound-validity
    sweep, and exact moments plus W2 at k = 10, 100, 300 on a p=50 quadratic.

    Bisection over the step grid, the vectorized bounds, the moment
    recursion and W2 make up the whole op; nothing is sampled.
    """

    name = "certify"
    POINTS = sorted(FROZEN_CURVES)
    rotation = len(POINTS)
    P, KS, SWEEP_CELLS = 50, (10, 100, 300), 320
    # check_lmc_bound_validity with targets_per_dim=1: 4 dimensions x 20 steps x horizon 1000
    SWEEP_STEPS = 4 * 20 * 1000

    def target_payloads(self):
        mean = self.rng.standard_normal(self.P)
        return {"quadratic_p50": quadratic_payload(mean, spd_matrix(self.rng, self.P, 1.0, 10.0))}

    def prepare(self, lab, paths):
        self.target = lab.targets.load_target(paths["quadratic_p50"])
        self.spec = self.target.oracle_meta
        self.h = 1.0 / self.target.M

    def steps(self, i):
        return self.SWEEP_STEPS + sum(self.KS)

    def start(self, i):
        rng = np.random.default_rng(self.op_seed(i))
        return self.spec.mean + 3.0 * rng.standard_normal(self.P)

    def run(self, lab, i, out):
        eps, p = self.POINTS[i % self.rotation]
        run_cli(lab, ["figure1", "--eps", repr(eps), "--p-values", str(p), "--out", str(out / "figure1.csv")])
        sweep = lab.validation.check_lmc_bound_validity(seed=self.op_seed(i), targets_per_dim=1)
        theta0 = self.start(i)
        target_law = lab.gaussian_oracle.stationary_moments(self.spec)
        w2 = [
            lab.gaussian_oracle.gaussian_w2(lab.gaussian_oracle.moments_after_k(self.spec, theta0, self.h, k), target_law)
            for k in self.KS
        ]
        return sweep, w2

    def check(self, lab, i, out, result):
        eps, p = self.POINTS[i % self.rotation]
        header = "p,epsilon,k_lmc,k_baseline,log10_k_lmc,log10_k_baseline,ratio"
        lines = (out / "figure1.csv").read_text(encoding="utf-8").splitlines()
        require(len(lines) == 2 and lines[0] == header, f"figure1.csv: malformed ({len(lines)} lines)")
        fields = lines[1].split(",")
        got = (int(fields[0]), float(fields[1]), int(fields[2]), int(fields[3]))
        require(got == (p, eps) + FROZEN_CURVES[(eps, p)], f"figure1 at eps={eps}, p={p}: got {got}")
        sweep, w2 = result
        require(sweep.passed and sweep.cells == self.SWEEP_CELLS, f"validity sweep: {sweep}")
        w2_init = lab.gaussian_oracle.w2_init_exact(self.spec, self.start(i))
        for k, w in zip(self.KS, w2):
            inputs = lab.bounds.BoundInputs(m=self.target.m, M=self.target.M, h=self.h, K=k, p=self.P, w2_init=w2_init)
            bound = lab.bounds.lmc_bound(inputs).value
            require(0.0 < w <= bound, f"exact W2 {w!r} at k={k} not in (0, bound {bound!r}]")


WORKLOADS = {w.name: w for w in (Replicas1d, ChainsP100, Certify)}
