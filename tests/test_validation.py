import numpy as np
import pytest

from langevin_lab.validation import (
    CheckResult,
    check_init_bound_ordering,
    check_lmc_bound_validity,
    check_noise_dominance,
    check_regime_continuity,
    check_stationary_gradient_norm,
    random_spd,
    run_all_checks,
)
from hypothesis import given, settings, strategies as st

import langevin_lab.validation as validation_mod
from langevin_lab.bounds import (
    BoundInputs, LARGE_STEP, SMALL_STEP, init_w2_from_f, init_w2_from_mean, lmc_bound, noisy_lmc_bound,
)
from langevin_lab.gaussian_oracle import _point_start_w2, w2_init_exact
from langevin_lab.targets import quadratic_target
from langevin_lab.validation import _rng, _verdict


class TestRandomSpd:
    def test_spectrum_in_requested_range(self, rng):
        a = random_spd(rng, 6, lo=0.5, hi=3.0)
        assert np.allclose(a, a.T)
        w = np.linalg.eigvalsh(a)
        assert w.min() >= 0.5 - 1e-10 and w.max() <= 3.0 + 1e-10


class TestIndividualChecks:
    def test_bound_validity_sweep_passes(self):
        r = check_lmc_bound_validity(seed=0, dims=(1, 3), targets_per_dim=4, n_steps=8)
        assert r.passed, r.detail
        assert r.cells == 2 * 4 * 8 * 4
        assert r.worst <= 0.0

    def test_bound_validity_at_planner_horizons(self):
        # the planner certifies K in the 1e5-1e7 range; the exact law at
        # those horizons is as cheap as at K = 1
        r = check_lmc_bound_validity(seed=0, checkpoints=(10**5, 10**6, 10**7))
        assert r.passed, r.detail
        assert r.cells == 4 * 10 * 20 * 3
        assert r.worst <= 0.0

    def test_regime_continuity_passes(self):
        r = check_regime_continuity(seed=0, trials=50)
        assert r.passed, r.detail
        assert r.worst <= 1e-12

    def test_noise_dominance_passes(self):
        r = check_noise_dominance(seed=0, trials=200)
        assert r.passed, r.detail
        assert r.worst <= 0.0

    def test_stationary_gradient_norm_passes(self):
        r = check_stationary_gradient_norm(seed=0, trials=50)
        assert r.passed, r.detail

    def test_init_bound_ordering_passes(self):
        r = check_init_bound_ordering(seed=0, trials=50)
        assert r.passed, r.detail
        assert r.cells == 150

    def test_checks_are_deterministic_per_seed(self):
        a = check_regime_continuity(seed=7, trials=20)
        b = check_regime_continuity(seed=7, trials=20)
        assert a == b


class TestRunAll:
    def test_full_sweep_is_green(self):
        results = run_all_checks(seed=0)
        assert len(results) == 5
        names = [r.name for r in results]
        assert len(set(names)) == 5
        for r in results:
            assert r.passed, f"{r.name}: {r.detail}"

    def test_str_formats_status_line(self):
        ok = CheckResult("demo", True, 10, -0.5)
        bad = CheckResult("demo", False, 10, 0.5, "p=1: boom")
        assert "ok" in str(ok) and "10 cells" in str(ok)
        assert "FAILED" in str(bad) and "boom" in str(bad)


def _per_cell_validity(seed, dims, targets_per_dim, n_steps, checkpoints, slack):
    """check_lmc_bound_validity as a per-cell loop over the scalar lmc_bound (reference)."""
    rng = _rng(seed, 1)
    checkpoints = tuple(sorted(set(int(k) for k in checkpoints)))
    cells, worst, first_bad = 0, -np.inf, ""
    for p in dims:
        for _ in range(targets_per_dim):
            target = quadratic_target(rng.standard_normal(p), random_spd(rng, p))
            spec = target.oracle_meta
            theta0 = spec.mean + 3.0 * rng.standard_normal(p)
            w2_0 = w2_init_exact(spec, theta0)
            hs = np.linspace(0.02, 0.98, n_steps) * (2.0 / target.M)
            exact = _point_start_w2(spec, theta0, hs, checkpoints)
            for k, row in zip(checkpoints, exact):
                for h, w2 in zip(hs, row):
                    bound = lmc_bound(
                        BoundInputs(m=target.m, M=target.M, h=float(h), K=k, p=p, w2_init=w2_0)
                    ).value
                    margin = float(w2) - bound
                    cells += 1
                    worst = max(worst, margin)
                    if margin > slack + slack * abs(bound) and not first_bad:
                        first_bad = (
                            f"p={p} h={h:.6g} K={k}: exact W2 {w2:.12g} exceeds "
                            f"bound {bound:.12g} by {margin:.3e}"
                        )
    return CheckResult("lmc bound dominates exact W2", not first_bad, cells, worst, first_bad)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    targets_per_dim=st.integers(0, 3),
    n_steps=st.integers(1, 12),
    checkpoints=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**6)), min_size=1, max_size=4),
    slack=st.one_of(st.just(1e-10), st.floats(-1.0, 1e-3)),
)
def test_grid_sweep_equals_per_cell_loop(seed, dims, targets_per_dim, n_steps, checkpoints, slack):
    args = (seed, tuple(dims), targets_per_dim, n_steps, tuple(checkpoints), slack)
    assert check_lmc_bound_validity(*args) == _per_cell_validity(*args)


def test_grid_sweep_reports_the_first_failure_in_checkpoint_order():
    args = (3, (2, 4), 2, 6, (1, 10, 100), -0.05)
    got = check_lmc_bound_validity(*args)
    assert not got.passed and got == _per_cell_validity(*args)


def _per_trial_continuity(seed, trials, rtol):
    rng = _rng(seed, 2)
    worst, first_bad = 0.0, ""
    for _ in range(trials):
        m = float(rng.uniform(0.1, 5.0))
        M = m * float(rng.uniform(1.0, 20.0))
        K = int(rng.integers(0, 1000))
        p = int(rng.integers(1, 100))
        w2 = float(rng.uniform(0.0, 50.0))
        inputs = BoundInputs(m=m, M=M, h=2.0 / (m + M), K=K, p=p, w2_init=w2)
        a = lmc_bound(inputs, regime=SMALL_STEP).value
        b = lmc_bound(inputs, regime=LARGE_STEP).value
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        worst = max(worst, rel)
        if rel > rtol and not first_bad:
            first_bad = f"m={m:.6g} M={M:.6g} K={K} p={p} w2={w2:.6g}: branches {a!r} vs {b!r}"
    return CheckResult("bound branches agree at the regime boundary", not first_bad, trials, worst, first_bad)


def _per_trial_noise_dominance(seed, trials):
    rng = _rng(seed, 3)
    worst, first_bad = -np.inf, ""
    for _ in range(trials):
        m = float(rng.uniform(0.1, 5.0))
        M = m * float(rng.uniform(1.0, 20.0))
        h = float(rng.uniform(0.0, 1.0)) * (2.0 / M)
        if h <= 0.0:
            h = 1.0 / (m + M)
        K = int(rng.integers(0, 2000))
        p = int(rng.integers(1, 100))
        w2 = float(rng.uniform(0.0, 50.0))
        inputs = BoundInputs(m=m, M=M, h=h, K=K, p=p, w2_init=w2, sigma=0.0)
        if h >= 2.0 / M:
            continue
        exact = lmc_bound(inputs).value
        noisy = noisy_lmc_bound(inputs).value
        margin = exact - noisy
        worst = max(worst, margin)
        if margin > 0.0 and not first_bad:
            first_bad = (
                f"m={m:.6g} M={M:.6g} h={h:.6g} K={K} p={p} w2={w2:.6g}: "
                f"noisy bound {noisy!r} below exact bound {exact!r}"
            )
    return CheckResult("noisy bound dominates exact bound at sigma=0", not first_bad, trials, worst, first_bad)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), trials=st.integers(0, 300), rtol=st.sampled_from([1e-12, 0.0, -1.0]))
def test_vectorized_trial_checks_equal_per_trial_loops(seed, trials, rtol):
    assert check_regime_continuity(seed, trials, rtol) == _per_trial_continuity(seed, trials, rtol)
    assert check_noise_dominance(seed, trials) == _per_trial_noise_dominance(seed, trials)


def test_validity_sweep_counts_a_non_finite_cell_as_a_failure(monkeypatch):
    def with_nan_cell(spec, theta0, hs, ks):
        exact = _point_start_w2(spec, theta0, hs, ks)
        exact[0, 1] = np.nan
        return exact

    monkeypatch.setattr(validation_mod, "_point_start_w2", with_nan_cell)
    got = check_lmc_bound_validity(0, (1,), 1, 3, (0, 1))
    assert not got.passed
    assert "K=0" in got.detail and "margin not finite" in got.detail


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validity_sweep_takes_a_slack_near_the_float_limit_quietly():
    assert check_lmc_bound_validity(0, (1, 2), 1, 5, (1, 10), slack=1e308).passed
    assert not check_lmc_bound_validity(0, (1, 2), 1, 5, (1, 10), slack=-1e308).passed


def _per_trial_gradient_norm(seed, trials, rtol):
    rng = _rng(seed, 4)
    worst, first_bad = -np.inf, ""
    for _ in range(trials):
        p = int(rng.integers(1, 30))
        target = quadratic_target(rng.standard_normal(p), random_spd(rng, p, 0.5, 20.0))
        exact, cap = float(np.trace(target.oracle_meta.precision)), target.M * p
        worst = max(worst, (exact - cap) / max(cap, 1e-300))
        if exact > cap * (1.0 + rtol) and not first_bad:
            first_bad = f"p={p}: tr(precision)={exact!r} exceeds M*p={cap!r}"
    return CheckResult("stationary gradient moment under M*p", not first_bad, trials, worst, first_bad)


def _per_trial_init_ordering(seed, trials, rtol):
    rng = _rng(seed, 5)
    worst, first_bad = -np.inf, ""
    for _ in range(trials):
        p = int(rng.integers(1, 30))
        target = quadratic_target(rng.standard_normal(p), random_spd(rng, p, 0.5, 20.0))
        spec = target.oracle_meta
        theta0 = spec.mean + float(rng.uniform(0.5, 5.0)) * rng.standard_normal(p)
        exact = w2_init_exact(spec, theta0)
        d2, f0 = float(np.sum((theta0 - spec.mean) ** 2)), float(target.eval(theta0))
        trio = (
            ("mean-based", init_w2_from_mean(d2, p, target.m)),
            ("f-based, generic floor", init_w2_from_f(f0, p, target.m, 0.0)),
            ("f-based, exact mean of f", init_w2_from_f(f0, p, target.m, p / 2.0)),
        )
        for label, val in trio:
            worst = max(worst, (exact - val) / max(val, 1e-300))
            if exact > val * (1.0 + rtol) and not first_bad:
                first_bad = f"p={p} {label}: exact {exact!r} exceeds bound {val!r}"
        if trio[2][1] > trio[1][1] * (1.0 + rtol) and not first_bad:
            first_bad = f"p={p}: tighter floor gave looser bound ({trio[2][1]!r} > {trio[1][1]!r})"
    return CheckResult("initial-distance bounds dominate exact W2", not first_bad, 3 * trials, worst, first_bad)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32), trials=st.integers(0, 40), rtol=st.sampled_from([1e-12, 0.0, -1.0]))
def test_per_trial_model_checks_equal_per_trial_loops(seed, trials, rtol):
    # at rtol = -1 every cell fails, so the failure details are compared too
    assert check_stationary_gradient_norm(seed, trials, rtol) == _per_trial_gradient_norm(seed, trials, rtol)
    assert check_init_bound_ordering(seed, trials, rtol) == _per_trial_init_ordering(seed, trials, rtol)


def test_init_ordering_fails_a_tighter_floor_that_gives_a_looser_bound(monkeypatch):
    # a floor c that raises the bound by c: every cell still holds, the floor test does not
    calls = []

    def looser_with_floor(f0, p, m, c):
        calls.append(p)
        return init_w2_from_f(f0, p, m, 0.0) + c

    monkeypatch.setattr(validation_mod, "init_w2_from_f", looser_with_floor)
    got = check_init_bound_ordering(0, 4)
    assert not got.passed and got.cells == 12 and got.worst <= 0.0
    assert got.detail.startswith(f"p={calls[0]}: tighter floor gave looser bound (")


def _with_nan_value(core, at, named, describe):
    """core with a NaN in its first call's value at index at; named records describe(*args)."""
    def patched(*args):
        out = core(*args)
        if named:
            return out
        value = out[0].copy()
        value[at] = np.nan
        named.append(describe(*args))
        return (value,) + tuple(out[1:])
    return patched


class TestNonFiniteMarginFails:
    """A NaN margin shows nothing, so every check fails at that cell and names it."""

    def test_bound_validity(self, monkeypatch):
        named = []
        monkeypatch.setattr(validation_mod, "lmc_core", _with_nan_value(
            validation_mod.lmc_core, (1, 2), named, lambda m, M, h, K, p, w2: f"p={p} h={h[2]:.6g} K={K[1, 0]}:"))
        got = check_lmc_bound_validity(0, (2,), 2, 4, (1, 10))
        assert not got.passed and got.detail.startswith(named[0]) and "margin not finite" in got.detail

    def test_regime_continuity(self, monkeypatch):
        named = []
        monkeypatch.setattr(validation_mod, "lmc_core", _with_nan_value(
            validation_mod.lmc_core, 3, named,
            lambda m, M, h, K, p, w2, regime: f"m={m[3]:.6g} M={M[3]:.6g} K={K[3]} p={p[3]} w2={w2[3]:.6g}:"))
        got = check_regime_continuity(0, 10)
        assert not got.passed and got.detail.startswith(named[0]) and "branches nan vs" in got.detail

    def test_noise_dominance(self, monkeypatch):
        named = []
        monkeypatch.setattr(validation_mod, "noisy_lmc_core", _with_nan_value(
            validation_mod.noisy_lmc_core, 3, named,
            lambda m, M, h, K, p, w2, s: f"m={m[3]:.6g} M={M[3]:.6g} h={h[3]:.6g} K={K[3]} p={p[3]} w2={w2[3]:.6g}:"))
        got = check_noise_dominance(0, 10)
        assert not got.passed and got.detail.startswith(named[0]) and "noisy bound nan below" in got.detail

    def test_stationary_gradient_norm(self, monkeypatch):
        trace, named = np.trace, []

        def nan_on_third_call(a, *args, **kwargs):
            named.append(a.shape[0])
            return np.nan if len(named) == 3 else trace(a, *args, **kwargs)

        monkeypatch.setattr(validation_mod.np, "trace", nan_on_third_call)
        got = check_stationary_gradient_norm(0, 5)
        assert not got.passed and got.detail.startswith(f"p={named[2]}: tr(precision)=nan exceeds")

    def test_init_bound_ordering(self, monkeypatch):
        exact, named = validation_mod.w2_init_exact, []

        def nan_on_second_call(spec, theta0):
            named.append(theta0.size)
            return np.nan if len(named) == 2 else exact(spec, theta0)

        monkeypatch.setattr(validation_mod, "w2_init_exact", nan_on_second_call)
        got = check_init_bound_ordering(0, 5)
        assert not got.passed and got.detail.startswith(f"p={named[1]} mean-based: exact nan exceeds")

    def test_verdict_takes_the_first_cell_in_counting_order(self):
        margin = np.array([[-1.0, np.inf], [2.0, np.nan]])
        got = _verdict("demo", 4, margin, margin > 1.0, lambda i: f"cell {i}")
        assert got == CheckResult("demo", False, 4, np.inf, "cell 1")  # fmax skips only NaN
        assert _verdict("demo", 0, [], [], str, worst=0.0) == CheckResult("demo", True, 0, 0.0, "")
