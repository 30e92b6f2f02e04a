import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_spd, philox
from langevin_lab.gaussian_oracle import (
    GaussianMoments,
    empirical_w2_1d,
    gaussian_w2,
    moments_after_k,
    point_mass,
    stationary_moments,
    w2_init_exact,
)
from langevin_lab.targets import QuadraticSpec


class TestMoments:
    def test_point_mass_has_zero_covariance(self):
        m = point_mass(np.array([1.0, 2.0]))
        assert np.all(m.cov == 0.0)
        assert m.dim == 2

    def test_recursion_matches_direct_formula(self, rng):
        p = 3
        A = make_spd(rng, p)
        mu = rng.standard_normal(p)
        spec = QuadraticSpec(mu, A)
        theta0 = rng.standard_normal(p)
        h, k = 0.05, 7
        got = moments_after_k(spec, theta0, h, k)
        E = np.eye(p) - h * A
        Ek = np.linalg.matrix_power(E, k)
        mean = mu + Ek @ (theta0 - mu)
        cov = sum(
            np.linalg.matrix_power(E, j) @ (2.0 * h * np.eye(p)) @ np.linalg.matrix_power(E.T, j)
            for j in range(k)
        )
        np.testing.assert_allclose(got.mean, mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.cov, cov, rtol=1e-10, atol=1e-12)

    def test_k_zero_returns_initial_law(self, rng):
        spec = QuadraticSpec(np.zeros(2), make_spd(rng, 2))
        init = GaussianMoments(np.array([1.0, -1.0]), 0.5 * np.eye(2))
        got = moments_after_k(spec, init, 0.1, 0)
        np.testing.assert_allclose(got.mean, init.mean)
        np.testing.assert_allclose(got.cov, init.cov)

    def test_chain_variance_converges_to_fixed_point(self):
        # 1-d identity: the chain's limiting variance is 1/(a(1 - ha/2)),
        # which solves v = (1 - ha)^2 v + 2h
        a, h = 2.0, 0.3
        spec = QuadraticSpec(np.array([0.0]), np.array([[a]]))
        v_inf = 1.0 / (a * (1.0 - h * a / 2.0))
        assert 2.0 * h / (1.0 - (1.0 - h * a) ** 2) == pytest.approx(v_inf, rel=1e-12)
        got = moments_after_k(spec, np.array([5.0]), h, 400)
        assert got.cov[0, 0] == pytest.approx(v_inf, rel=1e-10)
        assert got.mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_arguments(self, rng):
        spec = QuadraticSpec(np.zeros(2), make_spd(rng, 2))
        with pytest.raises(ValueError, match="h"):
            moments_after_k(spec, np.zeros(2), 0.0, 3)
        with pytest.raises(ValueError, match="k"):
            moments_after_k(spec, np.zeros(2), 0.1, -1)
        with pytest.raises(ValueError, match="dimension"):
            moments_after_k(spec, np.zeros(3), 0.1, 1)

    def test_moments_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMoments(np.zeros(2), np.array([[1.0, 0.3], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianMoments(np.zeros(2), np.diag([1.0, -0.1]))
        # eigenvalues within roundoff of zero are clamped, not rejected
        tiny = np.diag([1.0, -1e-15])
        m = GaussianMoments(np.zeros(2), tiny)
        assert np.linalg.eigvalsh(m.cov)[0] >= 0.0

    def test_stationary_moments_invert_precision(self, rng):
        A = make_spd(rng, 4)
        spec = QuadraticSpec(rng.standard_normal(4), A)
        pi = stationary_moments(spec)
        np.testing.assert_allclose(pi.cov @ A, np.eye(4), atol=1e-10)


def _step_recursion(spec, init, h, k):
    """The chain's moment recursion, one step at a time (reference)."""
    A, mu = spec.precision, spec.mean
    E = np.eye(spec.dim) - h * A
    mean, cov = init.mean.copy(), init.cov.copy()
    for _ in range(k):
        mean = mean - h * (A @ (mean - mu))
        cov = E @ cov @ E.T + 2.0 * h * np.eye(spec.dim)
    return mean, cov


def _assert_law_matches_recursion(spec, init, h, k):
    got = moments_after_k(spec, init, h, k)
    mean, cov = _step_recursion(spec, init, h, k)
    scale = max(float(np.abs(cov).max()), float(np.abs(mean).max()), 1.0)
    np.testing.assert_allclose(got.mean, mean, rtol=1e-9, atol=1e-10 * scale)
    np.testing.assert_allclose(got.cov, cov, rtol=1e-9, atol=1e-10 * scale)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    k=st.integers(1, 40),
    step=st.floats(0.01, 1.3),
    gaussian_start=st.booleans(),
)
def test_spectral_law_matches_step_recursion(seed, p, k, step, gaussian_start):
    # step > 1 puts h above 2/lam_max, where the top modes grow (transient)
    r = philox(seed, 80)
    A = make_spd(r, p, 0.5, 8.0)
    spec = QuadraticSpec(r.standard_normal(p), A)
    h = step * 2.0 / float(np.linalg.eigvalsh(A)[-1])
    theta0 = spec.mean + 3.0 * r.standard_normal(p)
    init = GaussianMoments(theta0, make_spd(r, p, 0.1, 3.0)) if gaussian_start else point_mass(theta0)
    _assert_law_matches_recursion(spec, init, h, k)


@settings(max_examples=40, deadline=None)
@given(
    lams=st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]), min_size=1, max_size=4),
    pick=st.integers(0, 3),
    k=st.integers(1, 40),
    gaussian_start=st.booleans(),
)
def test_spectral_law_at_h_lambda_two(lams, pick, k, gaussian_start):
    # h * lam = 2 exactly for one mode: g^2 = 1, and its noise variance
    # is the limit 2hk rather than 0/0
    lam = float(lams[pick % len(lams)])
    h = 2.0 / lam
    assert h * lam == 2.0
    spec = QuadraticSpec(np.arange(len(lams), dtype=float), np.diag(lams))
    theta0 = spec.mean + 1.5
    init = GaussianMoments(theta0, 0.5 * np.eye(len(lams))) if gaussian_start else point_mass(theta0)
    got = moments_after_k(spec, init, h, k)
    assert np.all(np.isfinite(got.cov))
    _assert_law_matches_recursion(spec, init, h, k)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 5))
def test_k_zero_returns_initial_law_exactly(seed, p):
    r = philox(seed, 81)
    spec = QuadraticSpec(r.standard_normal(p), make_spd(r, p))
    init = GaussianMoments(r.standard_normal(p), make_spd(r, p, 0.1, 3.0))
    got = moments_after_k(spec, init, 0.05, 0)
    assert np.array_equal(got.mean, init.mean)
    assert np.array_equal(got.cov, init.cov)


class TestGaussianW2:
    def test_zero_on_identical_laws(self, rng):
        m = GaussianMoments(rng.standard_normal(3), make_spd(rng, 3))
        assert gaussian_w2(m, m) == pytest.approx(0.0, abs=1e-7)

    def test_pure_mean_shift(self, rng):
        cov = make_spd(rng, 3)
        a = GaussianMoments(np.zeros(3), cov)
        b = GaussianMoments(np.array([3.0, 4.0, 0.0]), cov)
        assert gaussian_w2(a, b) == pytest.approx(5.0, rel=1e-9)

    def test_one_dimensional_closed_form(self):
        a = GaussianMoments(np.array([1.0]), np.array([[4.0]]))
        b = GaussianMoments(np.array([-2.0]), np.array([[9.0]]))
        # sqrt(dmean^2 + (sd_a - sd_b)^2)
        assert gaussian_w2(a, b) == pytest.approx(math.sqrt(9.0 + 1.0), rel=1e-12)

    def test_commuting_covariances(self, rng):
        wa = np.array([1.0, 4.0])
        wb = np.array([9.0, 16.0])
        a = GaussianMoments(np.zeros(2), np.diag(wa))
        b = GaussianMoments(np.zeros(2), np.diag(wb))
        want = math.sqrt(float(np.sum((np.sqrt(wa) - np.sqrt(wb)) ** 2)))
        assert gaussian_w2(a, b) == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gaussian_w2(point_mass(np.zeros(2)), point_mass(np.zeros(3)))

    def test_against_point_mass_equals_init_distance(self, rng):
        A = make_spd(rng, 4)
        spec = QuadraticSpec(rng.standard_normal(4), A)
        theta0 = rng.standard_normal(4)
        via_w2 = gaussian_w2(point_mass(theta0), stationary_moments(spec))
        assert w2_init_exact(spec, theta0) == pytest.approx(via_w2, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gaussian_w2_is_symmetric_and_nonnegative(seed):
    r = philox(seed, 78)
    p = int(r.integers(1, 5))
    a = GaussianMoments(r.standard_normal(p), make_spd(r, p, 0.2, 5.0))
    b = GaussianMoments(r.standard_normal(p), make_spd(r, p, 0.2, 5.0))
    ab, ba = gaussian_w2(a, b), gaussian_w2(b, a)
    assert ab >= 0.0
    assert ab == pytest.approx(ba, rel=1e-8, abs=1e-10)


class TestEmpiricalW2:
    def test_identical_samples_give_zero(self, rng):
        xs = rng.standard_normal(100)
        assert empirical_w2_1d(xs, np.random.permutation(xs)) == 0.0

    def test_pure_shift(self, rng):
        xs = rng.standard_normal(1000)
        assert empirical_w2_1d(xs, xs + 2.5) == pytest.approx(2.5, rel=1e-12)

    def test_matches_gaussian_formula_asymptotically(self):
        r = philox(42, 79)
        n = 200_000
        xs = 2.0 * r.standard_normal(n)
        ys = 1.0 + r.standard_normal(n)
        # W2 between N(0,4) and N(1,1) is sqrt(1 + 1) = sqrt(2)
        assert empirical_w2_1d(xs, ys) == pytest.approx(math.sqrt(2.0), rel=2e-2)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="equal size"):
            empirical_w2_1d(np.zeros(3), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            empirical_w2_1d(np.array([]), np.array([]))


class TestInitDistance:
    def test_frozen_example(self):
        spec = QuadraticSpec(np.array([0.5]), np.array([[4.0]]))
        assert w2_init_exact(spec, np.array([1.5])) == 1.118033988749895

    def test_shape_check(self):
        spec = QuadraticSpec(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            w2_init_exact(spec, np.zeros(3))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 6),
    k=st.integers(0, 40),
    step=st.floats(0.01, 1.3),
    more=st.integers(0, 5),
)
def test_shared_basis_w2_matches_general_formula(seed, p, k, step, more):
    # laws the oracle builds on one spec share its eigenbasis, so their W2 is
    # an O(p) sum; copies built through GaussianMoments take the general path
    r = philox(seed, 82)
    spec = QuadraticSpec(r.standard_normal(p), make_spd(r, p, 0.5, 8.0))
    h = step * 2.0 / float(np.linalg.eigvalsh(spec.precision)[-1])
    theta0 = spec.mean + 3.0 * r.standard_normal(p)
    target = stationary_moments(spec)
    law = moments_after_k(spec, theta0, h, k)
    later = moments_after_k(spec, law, h, more)
    for a, b in ((law, target), (target, law), (later, target)):
        general = gaussian_w2(GaussianMoments(a.mean, a.cov), GaussianMoments(b.mean, b.cov))
        assert gaussian_w2(a, b) == pytest.approx(general, rel=1e-12)


def test_user_built_non_psd_law_still_raises():
    spec = QuadraticSpec(np.zeros(3), np.diag([1.0, 2.0, 4.0]))
    target = stationary_moments(spec)
    with pytest.raises(ValueError, match="semidefinite"):
        GaussianMoments(target.mean, target.cov - 0.5 * np.eye(3))
    with pytest.raises(ValueError, match="semidefinite"):
        GaussianMoments(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_warmed_spec_needs_no_further_eigendecompositions(monkeypatch, rng):
    spec = QuadraticSpec(rng.standard_normal(6), make_spd(rng, 6))
    spec.eigenbasis  # the one eigh this spec ever makes
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigh)
    target = stationary_moments(spec)
    theta0 = spec.mean + 3.0 * rng.standard_normal(6)
    distances = [gaussian_w2(moments_after_k(spec, theta0, 0.05, k), target) for k in (10, 100, 300)]
    assert w2_init_exact(spec, theta0) > 0.0
    assert calls == []
    assert all(math.isfinite(w) and w > 0.0 for w in distances)


def test_zero_steps_at_unit_step_curvature_is_the_start():
    from langevin_lab.gaussian_oracle import _point_start_w2

    # h * lambda = 1 at k = 0 once read 0 * log1p(-1) = NaN for the variance
    spec = QuadraticSpec(np.zeros(1), np.array([[4.0]]))
    w2 = _point_start_w2(spec, np.array([1.0]), np.array([0.25, 0.2]), [0, 1])
    assert w2[0, 0] == math.sqrt(1.25) and w2[0, 1] == math.sqrt(1.25)
    assert np.all(np.isfinite(w2))
    law = moments_after_k(spec, np.array([1.0]), 0.25, 0)
    assert np.array_equal(law.mean, [1.0]) and np.array_equal(law.cov, [[0.0]])



_DIAG45 = QuadraticSpec(np.zeros(2), np.diag([4.0, 5.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: moments_after_k(_DIAG45, np.zeros(2), math.nan, 3), "step size h must be positive and finite, got nan"),
    (lambda: moments_after_k(_DIAG45, np.zeros(2), math.inf, 3), "step size h must be positive and finite, got inf"),
    (lambda: moments_after_k(_DIAG45, np.ones(2), 1e300, 3), "step size h=1e+300 gives a non-finite law"),
    (lambda: moments_after_k(_DIAG45, np.array([0.0, math.nan]), 0.1, 3), "init[1] must be finite, got nan"),
    (lambda: w2_init_exact(_DIAG45, np.array([0.0, math.inf])), "theta0[1] must be finite, got inf"),
    (lambda: empirical_w2_1d([1.0, 2.0, math.nan], [0.0, 1.0, 2.0]), "xs[2] must be finite, got nan"),
    (lambda: empirical_w2_1d([1.0, 2.0], [-math.inf, 1.0]), "ys[0] must be finite, got -inf"),
])
def test_non_finite_input_raises_naming_the_argument(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert message in str(exc.value)


def test_mean_of_a_start_near_the_float_limit_is_taken_from_halves():
    # init - mu overflows although the k-step mean, mu + g^k (init - mu), is finite
    spec = QuadraticSpec(np.array([1e308]), np.array([[1.0]]))
    with np.errstate(all="raise"):
        law = moments_after_k(spec, np.array([-1e308]), 0.1, 3)
    assert law.mean[0] == pytest.approx(-4.58e307, rel=1e-12)
    # with the transient g = -2 the true mean overflows too, and the step size is named with init
    with pytest.raises(ValueError, match=r"step size h=3.0 and init give a mean that overflows after k=3 steps"):
        moments_after_k(QuadraticSpec(np.array([1.7e308]), np.array([[1.0]])), np.array([-1.7e308]), 3.0, 3)
    # a stable step (|g| <= 1 in both modes) that keeps the mode along (1, 1): init alone is named
    a, b = 0.5 + 5e-11, -0.5 + 5e-11
    spec = QuadraticSpec(np.array([1.7e308, -1.7e308]), np.array([[a, b], [b, a]]))
    with pytest.raises(ValueError, match=r"^init gives a mean that overflows after k=1 steps"):
        moments_after_k(spec, np.array([1.7e308, 1.7e308]), 1.0, 1)


@pytest.mark.filterwarnings("error")
def test_covariance_that_overflows_from_a_law_in_the_eigenbasis_raises():
    # g = 1 - 2.5 = -1.5: one call leaves the variance near 4.9e176, a second overflows it
    spec = QuadraticSpec(np.array([0.0]), np.array([[1.0]]))
    law = moments_after_k(spec, np.array([0.0]), 2.5, 500)
    assert law.cov[0, 0] == pytest.approx(4.9e176, rel=0.01)
    with pytest.raises(ValueError, match=r"^step size h=2.5 and init give a covariance that overflows after k=500 steps"):
        moments_after_k(spec, law, 2.5, 500)


@pytest.mark.filterwarnings("error")
def test_covariance_that_overflows_from_a_full_start_covariance_raises():
    # a start law built by the caller is not in the eigenbasis, so E^k cov_0 E^k is a full product
    spec = QuadraticSpec(np.array([0.0]), np.array([[1.0]]))
    with pytest.raises(ValueError, match=r"^step size h=2.5 and init give a covariance that overflows after k=500 steps"):
        moments_after_k(spec, GaussianMoments([0.0], [[1e300]]), 2.5, 500)


@pytest.mark.filterwarnings("error")
def test_covariance_near_the_float_limit_is_symmetrized_without_overflow():
    assert np.array_equal(GaussianMoments([0.0], [[1.7e308]]).cov, [[1.7e308]])
    cov = np.array([[1.7e308, 1e-300], [1e-300, 1e308]])
    assert np.array_equal(GaussianMoments([0.0, 0.0], cov).cov, cov)
    # only the overflowing entry is halved first; 5e-324 / 2 would round to 0
    cov = np.array([[1.7e308, 5e-324], [5e-324, 1.0]])
    assert np.array_equal(GaussianMoments([0.0, 0.0], cov).cov, cov)
    spec = QuadraticSpec(np.zeros(1), np.array([[1e-308]]))
    assert stationary_moments(spec).cov[0, 0] == pytest.approx(1e308, rel=1e-12)
