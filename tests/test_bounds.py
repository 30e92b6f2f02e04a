import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from langevin_lab.bounds import (
    BoundInputs,
    LARGE_STEP,
    SMALL_STEP,
    baseline_bound,
    baseline_value,
    contraction_factor,
    init_w2_from_f,
    init_w2_from_mean,
    lmc_bound,
    lmc_value_small_step,
    noisy_lmc_bound,
)
from langevin_lab import bounds
from langevin_lab.bounds import lmc_core, noisy_lmc_core


class TestContractionFactor:
    def test_small_step_branch(self):
        assert contraction_factor(4.0, 5.0, 0.1) == pytest.approx(0.6, rel=1e-12)

    def test_large_step_branch(self):
        assert contraction_factor(4.0, 5.0, 0.3) == pytest.approx(0.5, rel=1e-12)

    def test_branches_meet_at_boundary(self):
        m, M = 3.0, 7.0
        h = 2.0 / (m + M)
        assert 1.0 - m * h == pytest.approx(M * h - 1.0, rel=1e-12)
        assert contraction_factor(m, M, h) == pytest.approx(1.0 - m * h, rel=1e-12)

    def test_always_below_one(self):
        for h in np.linspace(0.01, 0.39, 25):
            assert 0.0 <= contraction_factor(4.0, 5.0, float(h)) < 1.0

    def test_rejects_out_of_range_step(self):
        with pytest.raises(ValueError, match="2/M"):
            contraction_factor(4.0, 5.0, 0.4)
        with pytest.raises(ValueError, match="2/M"):
            contraction_factor(4.0, 5.0, 0.0)


class TestLmcBound:
    def test_frozen_value_at_boundary(self):
        r = lmc_bound(BoundInputs(m=4.0, M=5.0, h=2.0 / 9.0, K=10, p=1, w2_init=1.0))
        assert r.value == 1.0724452850863944
        assert r.regime == SMALL_STEP
        assert r.value == r.contraction_term + r.bias_term
        assert r.gamma == pytest.approx(1.0 - 4.0 * 2.0 / 9.0, rel=1e-12)

    def test_forced_branches_agree_at_boundary(self):
        i = BoundInputs(m=4.0, M=5.0, h=2.0 / 9.0, K=10, p=1, w2_init=1.0)
        a = lmc_bound(i, regime=SMALL_STEP).value
        b = lmc_bound(i, regime=LARGE_STEP).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_regime_dispatch(self):
        lo = lmc_bound(BoundInputs(m=4.0, M=5.0, h=0.1, K=3, p=2, w2_init=1.0))
        hi = lmc_bound(BoundInputs(m=4.0, M=5.0, h=0.3, K=3, p=2, w2_init=1.0))
        assert lo.regime == SMALL_STEP
        assert hi.regime == LARGE_STEP

    def test_forcing_wrong_regime_is_rejected(self):
        i = BoundInputs(m=4.0, M=5.0, h=0.1, K=3, p=2, w2_init=1.0)
        with pytest.raises(ValueError, match="large_step"):
            lmc_bound(i, regime=LARGE_STEP)
        j = BoundInputs(m=4.0, M=5.0, h=0.3, K=3, p=2, w2_init=1.0)
        with pytest.raises(ValueError, match="small_step"):
            lmc_bound(j, regime=SMALL_STEP)
        with pytest.raises(ValueError, match="regime"):
            lmc_bound(i, regime="medium")

    def test_step_must_be_below_two_over_m(self):
        with pytest.raises(ValueError, match="2/M"):
            lmc_bound(BoundInputs(m=4.0, M=5.0, h=0.4, K=1, p=1, w2_init=1.0))

    def test_monotone_nonincreasing_in_k(self):
        vals = [
            lmc_bound(BoundInputs(m=2.0, M=6.0, h=0.1, K=k, p=3, w2_init=5.0)).value
            for k in range(0, 60, 5)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_zero_initial_distance_leaves_only_bias(self):
        r = lmc_bound(BoundInputs(m=2.0, M=6.0, h=0.1, K=0, p=3, w2_init=0.0))
        assert r.contraction_term == 0.0
        assert r.value == r.bias_term

    def test_scalar_and_array_paths_agree(self):
        m, M, K, p, w2 = 3.0, 8.0, 17, 4, 2.5
        hs = np.geomspace(1e-6, 2.0 / (m + M), 50)
        arr = lmc_value_small_step(m, M, hs, float(K), p, w2)
        for h, v in zip(hs, arr):
            got = lmc_bound(BoundInputs(m=m, M=M, h=float(h), K=K, p=p, w2_init=w2)).value
            assert got == pytest.approx(float(v), rel=1e-14)


class TestNoisyBound:
    def test_frozen_branch_values_at_boundary(self):
        i = BoundInputs(m=4.0, M=5.0, h=2.0 / 9.0, K=0, p=1, w2_init=0.0, sigma=0.0)
        assert noisy_lmc_bound(i, regime=SMALL_STEP).value == 1.5138251770487456
        assert noisy_lmc_bound(i, regime=LARGE_STEP).value == 2.03100960115899

    def test_branches_differ_at_boundary(self):
        # The two branch formulas do not meet at h = 2/(m+M): the
        # large-step bias brace 6.6*M/(2 - Mh) equals 3.3*M*(m+M)/m there,
        # not the small-step brace 3.3*M^2/m.  Dispatch uses the
        # small-step form at the boundary.
        i = BoundInputs(m=4.0, M=5.0, h=2.0 / 9.0, K=0, p=1, w2_init=0.0, sigma=0.0)
        a = noisy_lmc_bound(i, regime=SMALL_STEP).value
        b = noisy_lmc_bound(i, regime=LARGE_STEP).value
        assert abs(a - b) / a > 0.3
        assert noisy_lmc_bound(i).regime == SMALL_STEP

    def test_gamma_is_continuous_at_boundary_even_so(self):
        m, M = 4.0, 5.0
        i = BoundInputs(m=m, M=M, h=2.0 / (m + M), K=5, p=1, w2_init=1.0)
        a = noisy_lmc_bound(i, regime=SMALL_STEP)
        b = noisy_lmc_bound(i, regime=LARGE_STEP)
        assert a.gamma == pytest.approx(b.gamma, rel=1e-12)

    def test_increasing_in_sigma(self):
        vals = [
            noisy_lmc_bound(
                BoundInputs(m=2.0, M=5.0, h=0.1, K=10, p=2, w2_init=1.0, sigma=s)
            ).value
            for s in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_infinite_bias_at_two_over_m(self):
        i = BoundInputs(m=1.0, M=5.0, h=2.0 / 5.0, K=3, p=1, w2_init=1.0, sigma=1.0)
        r = noisy_lmc_bound(i)
        assert r.regime == LARGE_STEP
        assert math.isinf(r.value)

    def test_step_beyond_two_over_m_rejected(self):
        with pytest.raises(ValueError, match="2/M"):
            noisy_lmc_bound(BoundInputs(m=1.0, M=5.0, h=0.41, K=1, p=1, w2_init=1.0))


class TestBaselineBound:
    def test_frozen_value(self):
        i = BoundInputs(m=4.0, M=5.0, h=2.0 / 9.0, K=10, p=1, w2_init=1.0)
        assert baseline_bound(i) == 2.005299661143275

    def test_only_stated_below_boundary(self):
        with pytest.raises(ValueError, match="2/\\(m\\+M\\)"):
            baseline_bound(BoundInputs(m=4.0, M=5.0, h=0.23, K=1, p=1, w2_init=1.0))

    def test_no_universal_ordering_against_additive_bound(self):
        # Counterexample: near the small-step limit the additive bound's
        # bias exceeds the squared-form bound's whenever M/m > 1.22, and
        # even at M = m the additive combination contraction + bias can
        # exceed sqrt(contraction^2*2 + bias^2).  So element-wise
        # domination fails in both directions; only the certified
        # minimal iteration counts are comparable (see planner tests).
        m = M = 2.0
        h, p = 0.001, 1
        w2 = 1.82 * (M / m) * math.sqrt(h * p)
        i = BoundInputs(m=m, M=M, h=h, K=0, p=p, w2_init=w2)
        additive = lmc_bound(i).value
        squared = baseline_bound(i)
        assert additive > squared
        # and with a large start the squared form is the looser one
        j = BoundInputs(m=4.0, M=5.0, h=2.0 / 9.0, K=10, p=1, w2_init=1.0)
        assert lmc_bound(j).value < baseline_bound(j)


    @pytest.mark.parametrize("K", [2000, 1000])
    def test_w2_init_whose_square_overflows_is_named(self, K):
        # the stated form is about 1.1e132 at K = 2000 and 1.4e220 at K = 1000, which floats
        # cannot form: rate**K underflows to 0 first, or the product overflows
        i = BoundInputs(m=1.0, M=2.0, h=0.5, K=K, p=1, w2_init=1e308)
        with pytest.raises(ValueError, match=r"w2_init=1e\+308 is too large .*: 2 w2_init\^2 overflows"):
            baseline_bound(i)

    def test_largest_w2_init_whose_square_is_finite_evaluates(self):
        w2 = math.sqrt(math.nextafter(math.inf, 0.0) / 2.0)
        assert 2.0 * w2 * w2 < math.inf
        assert math.isfinite(float(baseline_value(1.0, 2.0, 0.5, 3.0, 1, w2)))


class TestInitBounds:
    def test_mean_based_formula(self):
        assert init_w2_from_mean(0.0, 1, 1.0) == 1.0
        assert init_w2_from_mean(1.0, 1, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_f_based_frozen_example(self):
        assert init_w2_from_f(1.0, 1, 1.0, 0.0) == 2.0

    def test_f_based_tighter_floor_is_tighter(self):
        loose = init_w2_from_f(3.0, 2, 1.5, 0.0)
        tight = init_w2_from_f(3.0, 2, 1.5, 1.0)
        assert tight < loose

    def test_negative_radicand_is_rejected(self):
        with pytest.raises(ValueError, match="radicand"):
            init_w2_from_f(-3.0, 1, 1.0, 0.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="dist2"):
            init_w2_from_mean(-1.0, 1, 1.0)
        with pytest.raises(ValueError, match="p"):
            init_w2_from_mean(1.0, 0, 1.0)
        with pytest.raises(ValueError, match="m"):
            init_w2_from_f(1.0, 1, 0.0)


class TestBoundInputs:
    def test_validation_messages_name_the_field(self):
        with pytest.raises(ValueError, match="0 < m <= M"):
            BoundInputs(m=2.0, M=1.0, h=0.1, K=1, p=1, w2_init=1.0)
        with pytest.raises(ValueError, match="step size h"):
            BoundInputs(m=1.0, M=2.0, h=0.0, K=1, p=1, w2_init=1.0)
        with pytest.raises(ValueError, match="K"):
            BoundInputs(m=1.0, M=2.0, h=0.1, K=-1, p=1, w2_init=1.0)
        with pytest.raises(ValueError, match="p"):
            BoundInputs(m=1.0, M=2.0, h=0.1, K=1, p=0, w2_init=1.0)
        with pytest.raises(ValueError, match="w2_init"):
            BoundInputs(m=1.0, M=2.0, h=0.1, K=1, p=1, w2_init=-0.1)
        with pytest.raises(ValueError, match="sigma"):
            BoundInputs(m=1.0, M=2.0, h=0.1, K=1, p=1, w2_init=1.0, sigma=-1.0)

    def test_boundary_property(self):
        i = BoundInputs(m=4.0, M=5.0, h=0.1, K=1, p=1, w2_init=1.0)
        assert i.boundary == pytest.approx(2.0 / 9.0, rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    m=st.floats(0.05, 10.0),
    ratio=st.floats(1.0, 25.0),
    k=st.integers(0, 2000),
    p=st.integers(1, 200),
    w2=st.floats(0.0, 100.0),
)
def test_bound_branches_agree_at_regime_boundary(m, ratio, k, p, w2):
    """At h = 2/(m+M) the two branch formulas are the same number."""
    M = m * ratio
    i = BoundInputs(m=m, M=M, h=2.0 / (m + M), K=k, p=p, w2_init=w2)
    a = lmc_bound(i, regime=SMALL_STEP).value
    b = lmc_bound(i, regime=LARGE_STEP).value
    assert a == pytest.approx(b, rel=1e-9, abs=1e-300)


@settings(max_examples=80, deadline=None)
@given(
    m=st.floats(0.05, 5.0),
    ratio=st.floats(1.0, 20.0),
    frac=st.floats(1e-6, 1.0),
    k=st.integers(0, 500),
    p=st.integers(1, 100),
    w2=st.floats(0.0, 50.0),
)
def test_baseline_scalar_matches_vectorized(m, ratio, frac, k, p, w2):
    M = m * ratio
    h = frac * 2.0 / (m + M)
    i = BoundInputs(m=m, M=M, h=h, K=k, p=p, w2_init=w2)
    assert baseline_bound(i) == float(baseline_value(m, M, h, k, p, w2))


@settings(max_examples=300, deadline=None)
@given(
    m=st.floats(0.01, 10.0),
    ratio=st.floats(1.0, 30.0),
    frac=st.floats(1e-9, 1.0, exclude_max=True),
    small=st.booleans(),
    k=st.one_of(st.integers(0, 3), st.integers(0, 10**7)),
    p=st.integers(1, 10**4),
    w2=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
)
def test_scalar_bound_is_the_vectorized_arithmetic_to_the_last_bit(m, ratio, frac, small, k, p, w2):
    """lmc_bound, lmc_value_small_step and contraction_factor share one term function."""
    M = m * ratio
    boundary = 2.0 / (m + M)
    h = frac * boundary if small else boundary + frac * (2.0 / M - boundary)
    if not 0.0 < h < 2.0 / M:
        return
    report = lmc_bound(BoundInputs(m=m, M=M, h=h, K=k, p=p, w2_init=w2))
    assert report.gamma == contraction_factor(m, M, h)
    if h <= boundary:
        assert report.value == float(lmc_value_small_step(m, M, h, k, p, w2))
    # both branches are stated at the boundary; each forced one is its own formula
    at = BoundInputs(m=m, M=M, h=boundary, K=k, p=p, w2_init=w2)
    forced_small = lmc_bound(at, regime=SMALL_STEP)
    assert forced_small == lmc_bound(at)
    assert forced_small.value == float(lmc_value_small_step(m, M, boundary, k, p, w2))
    assert forced_small.gamma == contraction_factor(m, M, boundary) == 1.0 - m * boundary
    forced_large = lmc_bound(at, regime=LARGE_STEP)
    assert forced_large.regime == LARGE_STEP and forced_large.gamma == M * boundary - 1.0


def _steps(m, M, fracs):
    """Steps across (0, 2/M) from fractions in [0, 1): below 2/(m+M), at it, and above it."""
    boundary = 2.0 / (m + M)
    small = [f * boundary for f in fracs if f * boundary > 0.0]
    large = [boundary + f * (2.0 / M - boundary) for f in fracs]
    return small, boundary, [h for h in large if h < 2.0 / M]


@settings(max_examples=100, deadline=None)
@given(
    m=st.floats(0.01, 10.0),
    ratio=st.floats(1.0, 30.0),
    fracs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=12),
    ks=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**7)), min_size=1, max_size=3),
    p=st.integers(1, 10**4),
    w2=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    sigma=st.floats(0.0, 10.0),
)
def test_array_cores_are_the_scalar_bounds_to_the_last_bit(m, ratio, fracs, ks, p, w2, sigma):
    """Every element of a multi-element core array == the scalar wrapper, in every regime."""
    M = m * ratio
    small, boundary, large = _steps(m, M, fracs)
    K = np.array(ks)[:, None]

    def assert_elementwise(core, scalar, hs, regime):
        terms = np.broadcast_arrays(*core(np.array(hs), K, regime)[:4])  # value, gamma, contraction, bias
        for r, k in enumerate(ks):
            for c, h in enumerate(hs):
                got = scalar(BoundInputs(m=m, M=M, h=h, K=k, p=p, w2_init=w2, sigma=sigma), regime)
                assert (got.value, got.gamma, got.contraction_term, got.bias_term) == tuple(t[r, c] for t in terms)

    def lmc(hs, K, regime):
        return lmc_core(m, M, hs, K, p, w2, regime)

    def noisy(hs, K, regime):
        return noisy_lmc_core(m, M, hs, K, p, w2, sigma, regime)

    both = small + [boundary] + large
    for core, scalar, every in ((lmc, lmc_bound, both), (noisy, noisy_lmc_bound, both + [2.0 / M])):
        assert_elementwise(core, scalar, every, None)
        assert_elementwise(core, scalar, small + [boundary], SMALL_STEP)
        assert_elementwise(core, scalar, [boundary] + large, LARGE_STEP)
    below = np.array(small + [boundary])
    for k in ks:
        grid = lmc_value_small_step(m, M, below, float(k), p, w2)
        base = baseline_value(m, M, below, float(k), p, w2)
        for h, v, b in zip(below, grid, base):
            i = BoundInputs(m=m, M=M, h=float(h), K=k, p=p, w2_init=w2)
            assert lmc_bound(i).value == v
            assert baseline_bound(i) == b


class TestCoreChecks:
    def test_out_of_range_step_is_named(self):
        with pytest.raises(ValueError, match=r"\(0, 2/M\) = \(0, 0.4\), got 0.45"):
            lmc_core(4.0, 5.0, np.array([0.1, 0.45, 0.5]), 3, 1, 1.0)
        with pytest.raises(ValueError, match=r"got -0.1"):
            lmc_core(4.0, 5.0, np.array([0.1, -0.1]), np.array([[1], [2]]), 1, 1.0)
        with pytest.raises(ValueError, match=r"\(0, 2/M\] = \(0, 0.4\], got 0.41"):
            noisy_lmc_core(4.0, 5.0, np.array([0.4, 0.41]), 3, 1, 1.0, 0.0)
        assert noisy_lmc_core(4.0, 5.0, np.array([0.1, 0.4]), 3, 1, 1.0, 0.0)[3][1] == math.inf
        with pytest.raises(ValueError, match=r"regime 'small_step' requires h <= 2/\(m\+M\) = 0.222222, got h=0.3"):
            lmc_core(4.0, 5.0, np.array([0.1, 0.3, 0.35]), 3, 1, 1.0, SMALL_STEP)

    def test_boundary_step_runs_the_agreement_check(self, monkeypatch):
        m, M = 4.0, 5.0
        off = np.array([0.05, 0.1, 0.3])
        at = np.array([0.05, 2.0 / (m + M), 0.3])
        K = np.array([[3], [40]])
        monkeypatch.setattr(bounds, "_BOUNDARY_AGREEMENT_RTOL", -1.0)
        lmc_core(m, M, off, K, 2, 1.0)
        with pytest.raises(RuntimeError, match=f"boundary step h={2.0 / (m + M)!r}"):
            lmc_core(m, M, at, K, 2, 1.0)
        with pytest.raises(RuntimeError, match="disagree"):
            lmc_bound(BoundInputs(m=m, M=M, h=2.0 / (m + M), K=3, p=2, w2_init=1.0), regime=LARGE_STEP)


# the noisy bias sqrt(a) sqrt(sigma^2 + b) read inf where a, b or sigma^2 overflowed but the bias does not
@pytest.mark.parametrize("inputs, bias", [
    (BoundInputs(m=5.0, M=5.0, h=0.1, K=10, p=3, w2_init=1.0, sigma=1e308), math.sqrt(0.12) * 1e308),
    (BoundInputs(m=1.0, M=1e200, h=1e-201, K=10, p=3, w2_init=1.0), math.sqrt(6e-201) * math.sqrt(3.3) * 1e200),
    (BoundInputs(m=1.0, M=5.0, h=0.39, K=10, p=3, w2_init=1.0, sigma=1e307),  # large step: 2 - Mh = 0.05
     math.sqrt(2 * 0.39**2 * 3 / 0.05) * 1e307),
])
def test_noisy_bias_is_finite_where_only_its_parts_overflow(inputs, bias):
    got = noisy_lmc_bound(inputs)
    assert got.bias_term == pytest.approx(bias, rel=1e-12)
    assert got.value == got.contraction_term + got.bias_term
    hs = np.array([inputs.h / 4, inputs.h / 2, inputs.h])
    grid = noisy_lmc_core(inputs.m, inputs.M, hs, inputs.K, inputs.p, inputs.w2_init, inputs.sigma)[3]
    for h, b in zip(hs, grid):  # scalar and grid values still agree to the last bit
        assert noisy_lmc_bound(BoundInputs(**{**vars(inputs), "h": float(h)})).bias_term == b


def test_noisy_bias_overflows_only_where_its_true_value_does():
    # M/m beyond the float range: the true bias, about 4e323, is not a double either
    got = noisy_lmc_bound(BoundInputs(m=5e-324, M=2.0, h=0.1, K=10, p=3, w2_init=1.0))
    assert math.isinf(got.bias_term)


_RATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308]),  # zeros, one, least subnormal and normal
    st.floats(0.0, 1.0),
    st.integers(0, 63).map(lambda i: float(1.0 - np.geomspace(1e-17, 1.0, 64)[i])),
)
_COUNTS = st.one_of(st.integers(0, 3), st.integers(0, 10**12))


def _numpy_power(rate, K):
    with np.errstate(under="ignore"):
        return np.where(np.equal(K, 2), rate * rate, np.power(rate, K))


@settings(max_examples=200, deadline=None)
@given(
    rates=st.lists(_RATES, min_size=1, max_size=24),
    ks=st.lists(_COUNTS, min_size=1, max_size=8),
    cut=st.lists(st.tuples(st.integers(1, 10**12), st.floats(-1110.0, -1090.0)), min_size=1, max_size=24),
)
def test_power_is_numpy_power_bit_for_bit(rates, ks, cut):
    """_power only skips pow where the result is +0.0, in every layout the bound cores use."""
    def assert_same(rate, K):
        got, want = np.asarray(bounds._power(rate, K)), np.asarray(_numpy_power(rate, K))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (rate, K)

    # rates whose K * log2(rate) lies around the -1100 cut
    cut_k = np.array([k for k, _ in cut], dtype=float)
    cut_rates = np.exp2(np.array([t for _, t in cut]) / cut_k)
    cut_rates[0] = np.nextafter(np.exp2(-1100.0 / cut_k[0]), 0.0)  # the largest rate cut at that K
    assert_same(cut_rates, cut_k)
    rates = np.array(rates + cut_rates.tolist())
    every_k = np.resize(np.array(ks + cut_k.tolist()), rates.size)
    for rate, k in zip(rates, every_k):
        assert_same(float(rate), int(k))
    assert_same(rates, every_k)
    assert_same(rates, every_k.astype(np.int64))
    for k in ks:
        assert_same(rates, np.array([[k], [k + 1], [k + 2]], dtype=float))
        assert_same(rates, np.array([[k], [k + 1], [k + 2]], dtype=np.int64))
    for k in cut_k:
        assert_same(rates, np.array([[k - 1.0], [k], [k + 1.0]]))
