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
