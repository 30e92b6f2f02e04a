import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from langevin_lab.bounds import (
    BoundInputs,
    baseline_bound,
    baseline_terms,
    baseline_value,
    init_w2_from_mean,
    lmc_bound,
    lmc_terms_small_step,
    lmc_value_small_step,
)
from langevin_lab.planner import (
    CurvePoint,
    _minimal_k,
    UnreachablePrecisionError,
    default_h_grid,
    figure1_curves,
    minimal_k_baseline,
    minimal_k_lmc,
    plan_for_epsilon,
)

from test_acceptance import FROZEN_CURVES


class TestDefaultGrid:
    def test_endpoints_and_shape(self):
        g = default_h_grid(4.0, 5.0, size=100, span=1e6)
        assert g.shape == (100,)
        assert g[-1] == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert g[0] == pytest.approx(2.0 / 9.0 / 1e6, rel=1e-12)
        assert np.all(np.diff(g) > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="0 < m <= M"):
            default_h_grid(5.0, 4.0)
        with pytest.raises(ValueError, match="size"):
            default_h_grid(4.0, 5.0, size=1)
        with pytest.raises(ValueError, match="span"):
            default_h_grid(4.0, 5.0, span=1.0)


class TestPlanForEpsilon:
    def test_frozen_example(self):
        plan = plan_for_epsilon(m=4.0, M=5.0, p=10, w2_init=math.sqrt(12.5), epsilon=0.1)
        assert plan.h == 4.571428571428572e-05
        assert plan.K == 23290
        assert plan.predicted_bound == 0.09861476921644319
        assert plan.binding == "bias"
        assert not plan.zero_iterations

    def test_boundary_binding_for_loose_precision(self):
        plan = plan_for_epsilon(m=4.0, M=5.0, p=1, w2_init=10.0, epsilon=8.0)
        assert plan.binding == "boundary"
        assert plan.h == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert plan.predicted_bound <= 8.0

    def test_zero_iterations_when_already_close(self):
        plan = plan_for_epsilon(m=4.0, M=5.0, p=1, w2_init=0.3, epsilon=1.0)
        assert plan.K == 0
        assert plan.zero_iterations
        assert plan.predicted_bound <= 1.0

    def test_as_dict_round_trip(self):
        plan = plan_for_epsilon(m=2.0, M=3.0, p=2, w2_init=1.0, epsilon=0.5)
        d = plan.as_dict()
        assert set(d) == {"epsilon", "h", "K", "predicted_bound", "binding", "zero_iterations"}
        assert d["K"] == plan.K and d["h"] == plan.h

    def test_validation(self):
        with pytest.raises(ValueError, match="0 < m <= M"):
            plan_for_epsilon(2.0, 1.0, 1, 1.0, 0.5)
        with pytest.raises(ValueError, match="p"):
            plan_for_epsilon(1.0, 2.0, 0, 1.0, 0.5)
        with pytest.raises(ValueError, match="w2_init"):
            plan_for_epsilon(1.0, 2.0, 1, -1.0, 0.5)
        with pytest.raises(ValueError, match="epsilon"):
            plan_for_epsilon(1.0, 2.0, 1, 1.0, 0.0)

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-9])
    def test_step_too_small_to_contract_names_epsilon(self, eps):
        # m^2 eps^2 underflows (1e-300), or 1 - m h rounds to 1 (1e-160, 1e-9)
        with pytest.raises(ValueError, match=f"epsilon={eps:g} is too small"):
            plan_for_epsilon(4.0, 5.0, 10, 1.0, eps)


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(0.1, 8.0),
    ratio=st.floats(1.0, 12.0),
    p=st.integers(1, 300),
    w2=st.floats(0.0, 200.0),
    eps=st.floats(0.01, 10.0),
)
def test_plan_always_certifies_requested_precision(m, ratio, p, w2, eps):
    plan = plan_for_epsilon(m, m * ratio, p, w2, eps)
    assert plan.predicted_bound <= eps
    assert plan.zero_iterations == (plan.K == 0)
    assert (plan.K == 0) == (2.0 * w2 <= eps)
    i = BoundInputs(m=m, M=m * ratio, h=plan.h, K=plan.K, p=p, w2_init=w2)
    assert lmc_bound(i).value == plan.predicted_bound


class TestMinimalK:
    def test_singleton_grid_matches_direct_scan(self):
        m, M, p, w2, eps, h = 1.0, 2.0, 1, 5.0, 1.5, 0.05
        expected = next(
            k for k in range(200)
            if lmc_bound(BoundInputs(m=m, M=M, h=h, K=k, p=p, w2_init=w2)).value <= eps
        )
        got = minimal_k_lmc(m, M, p, w2, eps, h_grid=np.array([h]))
        assert got == expected
        assert expected == 39

    def test_singleton_grid_baseline_matches_direct_scan(self):
        m, M, p, w2, eps, h = 1.0, 2.0, 1, 5.0, 2.5, 0.05
        expected = next(
            k for k in range(500)
            if baseline_bound(BoundInputs(m=m, M=M, h=h, K=k, p=p, w2_init=w2)) <= eps
        )
        got = minimal_k_baseline(m, M, p, w2, eps, h_grid=np.array([h]))
        assert got == expected

    def test_zero_when_start_is_already_close(self):
        assert minimal_k_lmc(4.0, 5.0, 1, 0.0, 1.5) == 0

    def test_unreachable_precision_raises_with_diagnostics(self):
        with pytest.raises(UnreachablePrecisionError) as err:
            minimal_k_lmc(1.0, 2.0, 1, 5.0, 0.5, h_grid=np.array([0.3]))
        e = err.value
        assert e.epsilon == 0.5
        assert e.bound_infimum == pytest.approx(1.82 * 2.0 * math.sqrt(0.3), rel=1e-12)
        assert e.bound_infimum > e.epsilon
        assert isinstance(e, ValueError)

    def test_monotone_in_epsilon(self):
        grid = default_h_grid(4.0, 5.0, size=400, span=1e6)
        ks = [
            minimal_k_lmc(4.0, 5.0, 5, 10.0, eps, h_grid=grid)
            for eps in (2.0, 1.0, 0.5, 0.25)
        ]
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        assert ks[-1] > ks[0]

    def test_returned_k_respects_grid_minimality(self):
        m, M, p, w2, eps = 4.0, 5.0, 3, 6.0, 0.4
        grid = default_h_grid(m, M, size=300, span=1e6)
        k = minimal_k_lmc(m, M, p, w2, eps, h_grid=grid)
        assert k > 0
        # the search never returns more than the coarse-grid minimum, so
        # k-1 must be infeasible on every coarse step
        not_certified = min(
            lmc_bound(BoundInputs(m=m, M=M, h=float(h), K=k - 1, p=p, w2_init=w2)).value
            for h in grid
        )
        assert not_certified > eps
        # and a search restricted to any single step can only do worse
        best_h = min(
            grid,
            key=lambda h: lmc_bound(BoundInputs(m=m, M=M, h=float(h), K=k, p=p, w2_init=w2)).value,
        )
        assert minimal_k_lmc(m, M, p, w2, eps, h_grid=np.array([best_h])) >= k
        assert minimal_k_lmc(m, M, p, w2, eps, h_grid=grid) == k

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="1-d"):
            minimal_k_lmc(4.0, 5.0, 1, 1.0, 0.5, h_grid=np.ones((2, 2)))
        with pytest.raises(ValueError, match="positive"):
            minimal_k_lmc(4.0, 5.0, 1, 1.0, 0.5, h_grid=np.array([-0.1, 0.1]))
        with pytest.raises(ValueError, match="2/\\(m\\+M\\)"):
            minimal_k_lmc(4.0, 5.0, 1, 1.0, 0.5, h_grid=np.array([0.1, 0.3]))
        with pytest.raises(ValueError, match="increasing"):
            minimal_k_lmc(4.0, 5.0, 1, 1.0, 0.5, h_grid=np.array([0.2, 0.1]))

    def test_stable_under_grid_refinement(self):
        # doubling the grid density moves the certified count by at most
        # a whisker; the two-stage search already resolves the optimum
        m, M, p, eps = 4.0, 5.0, 10, 0.3
        w2 = math.sqrt(p + p / m)
        coarse = minimal_k_lmc(m, M, p, w2, eps, h_grid=default_h_grid(m, M, size=10_000))
        fine = minimal_k_lmc(m, M, p, w2, eps, h_grid=default_h_grid(m, M, size=20_000))
        assert abs(coarse - fine) <= 1


def _bisection_minimal_k(value, m, M, p, w2_init, epsilon, grid, k_cap):
    """The two-stage search by bisection on the feasibility predicate (reference)."""

    def smallest(g, cap):
        def feasible(K):
            with np.errstate(under="ignore"):
                return bool((value(m, M, g, float(K), p, w2_init) <= epsilon).any())

        if not feasible(cap):
            return None
        if feasible(0):
            return 0
        lo, hi = 0, cap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return hi

    k1 = smallest(grid, k_cap)
    if k1 is None:
        with np.errstate(under="ignore"):
            raise UnreachablePrecisionError(
                epsilon, float(value(m, M, grid, float(k_cap), p, w2_init).min()), k_cap
            )
    if k1 == 0:
        return 0
    with np.errstate(under="ignore"):
        i = int(np.argmin(value(m, M, grid, float(k1), p, w2_init)))
    lo_h = grid[max(0, i - 2)]
    hi_h = min(grid[min(grid.size - 1, i + 2)], 2.0 / (m + M))
    if not lo_h < hi_h:
        return k1
    k2 = smallest(np.geomspace(lo_h, hi_h, grid.size), k1)
    return k1 if k2 is None else min(k1, k2)


@settings(max_examples=150, deadline=None)
@given(
    m=st.floats(0.05, 8.0),
    ratio=st.floats(1.0, 30.0),
    p=st.integers(1, 5_000),
    w2=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
    eps=st.floats(0.005, 50.0),
    grid_size=st.integers(1, 400),
    span=st.floats(1.5, 1e9),
    k_cap=st.one_of(st.integers(0, 50), st.just(10**12)),
    skew=st.floats(0.3, 3.0),
)
def test_direct_search_equals_bisection(m, ratio, p, w2, eps, grid_size, span, k_cap, skew):
    M = m * ratio
    hi = 2.0 / (m + M)
    grid = np.array([hi / span]) if grid_size == 1 else np.geomspace(hi / span, hi, grid_size)
    for search, value, terms, power in (
        (minimal_k_lmc, lmc_value_small_step, lmc_terms_small_step, 1),
        (minimal_k_baseline, baseline_value, baseline_terms, 2),
    ):
        def skewed(*args, terms=terms):
            # a closed-form seed off by the factor 1/skew must only cost probes
            coef, rate, floor = terms(*args)
            return coef, rate**skew, floor

        searches = (
            lambda: search(m, M, p, w2, eps, h_grid=grid, k_cap=k_cap),
            lambda: _minimal_k(value, skewed, power, m, M, p, w2, eps, grid, k_cap),
        )
        try:
            want = _bisection_minimal_k(value, m, M, p, w2, eps, grid, k_cap)
        except UnreachablePrecisionError as err:
            for run in searches:
                with pytest.raises(UnreachablePrecisionError) as got:
                    run()
                assert got.value.bound_infimum == err.bound_infimum
        else:
            assert [run() for run in searches] == [want, want]


def test_figure1_reproduces_all_frozen_curves():
    pts = figure1_curves(4.0, 5.0, [0.1, 0.3], [10, 100, 1000, 10000])
    assert {(c.epsilon, c.p): (c.k_lmc, c.k_baseline) for c in pts} == FROZEN_CURVES


class TestCurvePoint:
    def test_ratio_cases(self):
        assert CurvePoint(p=1, epsilon=1.0, k_lmc=10, k_baseline=25).ratio == 2.5
        assert CurvePoint(p=1, epsilon=1.0, k_lmc=0, k_baseline=0).ratio == 1.0
        assert CurvePoint(p=1, epsilon=1.0, k_lmc=0, k_baseline=7).ratio == math.inf

    def test_as_dict(self):
        d = CurvePoint(p=2, epsilon=0.5, k_lmc=4, k_baseline=6).as_dict()
        assert d == {"p": 2, "epsilon": 0.5, "k_lmc": 4, "k_baseline": 6, "ratio": 1.5}


class TestFigureCurves:
    def test_frozen_points(self):
        pts = figure1_curves(4.0, 5.0, epsilons=[0.1, 0.3], p_values=[10])
        assert [(c.epsilon, c.p) for c in pts] == [(0.1, 10), (0.3, 10)]
        assert (pts[0].k_lmc, pts[0].k_baseline) == (9306, 25645)
        assert (pts[1].k_lmc, pts[1].k_baseline) == (844, 2251)

    def test_lmc_never_needs_more_iterations(self):
        pts = figure1_curves(
            2.0, 6.0, epsilons=[0.5, 1.0], p_values=[1, 3], grid_size=300, span=1e6
        )
        assert len(pts) == 4
        for c in pts:
            assert c.k_lmc <= c.k_baseline
            assert c.ratio >= 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            figure1_curves(4.0, 5.0, epsilons=[], p_values=[10])
        with pytest.raises(ValueError, match="nonempty"):
            figure1_curves(4.0, 5.0, epsilons=[0.5], p_values=[])


@pytest.mark.parametrize(
    "m, M, p, w2, lo, hi",
    [(4.0, 5.0, 10, 1.0, 7.8e-8, 1.2e-6), (1.0, 10.0, 100, 30.0, 3.9e-6, 5.3e-5), (0.1, 0.2, 1, 1e3, 2.5e-7, 4.4e-6)],
)
def test_plan_certifies_where_one_minus_mh_rounds_up(m, M, p, w2, lo, hi):
    # in these bands the float 1 - m h rounds so that -log(1 - m h) < m h,
    # and K = ceil(log(2 w2 / eps) / (m h)) alone leaves the bound above eps
    for eps in np.geomspace(lo, hi, 400):
        plan = plan_for_epsilon(m, M, p, w2, float(eps))
        assert plan.predicted_bound <= eps


def test_baseline_count_refuses_a_w2_init_whose_square_overflows():
    # float evaluation loses the contraction term here, so its counts would not be certified
    # (the log-space count on the default grid is 83,156)
    with pytest.raises(ValueError, match=r"w2_init=1e\+308 is too large"):
        minimal_k_baseline(1.0, 2.0, 1, 1e308, 0.5)


@pytest.mark.filterwarnings("error")
def test_lmc_count_where_the_closed_form_seed_overflows():
    # coef / slack overflows to inf in the seed, quietly; K is still confirmed on the bound
    m, M, p, w2, eps = 1.0, 2.0, 1, 1e308, 0.5
    want = _bisection_minimal_k(lmc_value_small_step, m, M, p, w2, eps, default_h_grid(m, M), 10**12)
    assert minimal_k_lmc(m, M, p, w2, eps) == want == 37702


def test_plan_names_the_dimension_when_it_makes_14_m2_p_overflow():
    with pytest.raises(ValueError, match=r"dimension p=1e\+308 is too large to plan for: 14 M\^2 p overflows"):
        plan_for_epsilon(1.0, 2.0, 1e308, 1.0, 0.5)


def test_plan_at_the_boundary_step_with_m_equal_to_M():
    # h = 2/(m+M) = 1/m makes the contraction factor 1 - m h exactly 0
    for w2, K in ((0.0, 0), (3.0, 1)):
        plan = plan_for_epsilon(1.0, 1.0, 1, w2, 4.0)
        assert (plan.h, plan.K, plan.binding) == (1.0, K, "boundary") and plan.predicted_bound <= 4.0
