import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimorder.cases import get_case
from claimorder.errors import DomainError
from claimorder.extremes import (
    ClaimCountDistribution,
    Portfolio,
    cdf_max_fixed,
    cdf_max_random,
    poisson_counts,
    survival_max_random,
    survival_min_fixed,
)
from claimorder.ordercheck import (
    CONFIRMED,
    HYP_VIOLATED_CONCLUSION_FAILS,
    HYP_VIOLATED_CONCLUSION_HOLDS,
    POTENTIAL_COUNTEREXAMPLE,
    TheoremId,
    _bisect_root,
    _refine,
    audit,
    schur_test,
    verify_rh,
    verify_st,
)
from claimorder.severity import Exponential, neg_log


def exp_portfolio(p, alpha):
    return Portfolio(Exponential(), neg_log(), np.asarray(p, float), np.asarray(alpha, float))


# differences on an even grid, read between points by linear interpolation;
# the small values put points within and just beyond each tolerance
_diffs = st.lists(
    st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e-10, -1e-10, -1e-6, -2e-3])),
    min_size=2, max_size=40,
)
_tols = st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.1])


def _piecewise_linear(diffs):
    grid = np.linspace(0.0, 1.0, len(diffs))
    return grid, lambda x: np.interp(x, grid, diffs), np.zeros_like


class TestVerifySt:
    def test_identical_curves_hold(self):
        grid = np.linspace(0.1, 5.0, 100)
        curve = lambda x: np.exp(-x)
        v = verify_st(curve, curve, grid)
        assert v.holds and v.margin == 0.0 and v.witness is None

    def test_dominated_curve_fails_with_witness(self):
        grid = np.linspace(0.1, 5.0, 200)
        v = verify_st(lambda x: np.exp(-2.0 * x), lambda x: np.exp(-x), grid)
        assert not v.holds
        assert v.witness is not None
        x_w, lhs, rhs = v.witness
        assert lhs < rhs

    def test_one_point_beyond_tol_fails_with_witness_in_the_cell_before_it(self):
        spike = np.zeros(50)
        spike[20] = -1e-6
        grid, a, zero = _piecewise_linear(spike)
        v = verify_st(a, zero, grid)
        assert not v.holds and v.margin == -1e-6
        assert grid[19] < v.witness[0] < grid[20]

    def test_one_point_within_tol_holds(self):
        spike = np.zeros(50)
        spike[20] = -1e-10
        grid, a, zero = _piecewise_linear(spike)
        v = verify_st(a, zero, grid)
        assert v.holds and v.margin == -1e-10 and v.witness is None

    @settings(max_examples=200, deadline=None)
    @given(_diffs, _tols)
    def test_holds_exactly_when_no_point_is_beyond_tol(self, diffs, tol):
        grid, a, zero = _piecewise_linear(diffs)
        v = verify_st(a, zero, grid, tol)
        assert v.holds == (min(diffs) >= -tol)
        assert v.margin == min(diffs)

    @settings(max_examples=200, deadline=None)
    @given(_diffs, _tols)
    def test_a_failure_still_fails_on_the_refined_grid(self, diffs, tol):
        grid, a, zero = _piecewise_linear(diffs)
        if not verify_st(a, zero, grid, tol).holds:
            assert not verify_st(a, zero, _refine(grid), tol).holds

    @settings(max_examples=200, deadline=None)
    @given(_diffs, _tols)
    def test_the_witness_bracket_runs_from_a_dominating_point_to_the_first_violation(
            self, diffs, tol):
        grid, a, zero = _piecewise_linear(diffs)
        diff = np.asarray(diffs)
        v = verify_st(a, zero, grid, tol)
        if v.holds:
            return
        first = int(np.argmax(diff < -tol))
        x_w, lhs, rhs = v.witness
        dominating = np.nonzero(diff[:first] >= 0)[0]
        if not dominating.size:
            assert (x_w, lhs, rhs) == (grid[first], diff[first], 0.0)
            return
        # the bracket runs from the last point with diff >= 0 before the first
        # point with diff < -tol to that point
        assert grid[dominating[-1]] < x_w < grid[first]
        assert (lhs, rhs) == (float(a(np.array([x_w]))[0]), 0.0)

    def test_published_example_max_curves_hold(self):
        case = get_case("ex3_1")
        grid = case.grid(points=800)
        v = verify_st(
            lambda x: survival_max_random(case.portfolio_a, case.counts_a, x),
            lambda x: survival_max_random(case.portfolio_b, case.counts_b, x),
            grid,
        )
        assert v.holds

    def test_first_counterexample_fails_with_crossing(self):
        case = get_case("cex3_1")
        grid = case.grid(points=800)
        v = verify_st(
            lambda x: survival_max_random(case.portfolio_a, case.counts_a, x),
            lambda x: survival_max_random(case.portfolio_b, case.counts_b, x),
            grid,
        )
        assert not v.holds and v.witness is not None

    def test_witness_bisection_starts_where_a_still_dominates(self):
        # with tol = 0.01 the first point beyond tol is preceded by points
        # violating by less than tol, between which and it the difference
        # has no sign change
        case = get_case("cex3_1")
        v = verify_st(case.curve_b, case.curve_a, case.grid(), tol=0.01)
        assert abs(v.witness[0] - 0.841381) <= 1e-6


class TestVerifyRh:
    def test_constant_ratio_holds(self):
        grid = np.linspace(0.1, 5.0, 100)
        cdf = lambda x: 1.0 - np.exp(-x)
        v = verify_rh(cdf, cdf, grid)
        assert v.holds

    def test_third_counterexample_ratio_non_monotone(self):
        case = get_case("cex3_3")
        grid = case.grid(points=1200)
        v = verify_rh(
            lambda x: cdf_max_random(case.portfolio_a, case.counts_a, x),
            lambda x: cdf_max_random(case.portfolio_b, case.counts_b, x),
            grid,
        )
        assert not v.holds and v.witness is not None

    def test_constructed_rh_instance_holds(self):
        # last-coordinate dominance plus row-weak majorization, fixed n
        pf_a = exp_portfolio([0.2, 0.3, 0.35], [3.0, 2.5, 2.2])
        pf_b = exp_portfolio([0.3, 0.4, 0.45], [2.0, 1.8, 1.5])
        assert pf_a.alpha[-1] >= pf_b.alpha[-1]
        assert pf_a.p[-1] <= pf_b.p[-1]
        grid = np.linspace(0.05, 8.0, 400)
        # higher rates mean smaller claims, so the maximum from pf_b dominates
        v = verify_rh(
            lambda x: cdf_max_fixed(pf_b, 3, x),
            lambda x: cdf_max_fixed(pf_a, 3, x),
            grid,
        )
        assert v.holds
        assert v.evidence == {}

    def test_rh_holds_implies_st_holds(self):
        # the extremes share the atom at 0, so rh dominance implies st dominance
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            pf_a = exp_portfolio(rng.uniform(0.2, 0.8, n), rng.uniform(0.5, 3.0, n))
            pf_b = exp_portfolio(rng.uniform(0.2, 0.8, n), rng.uniform(0.5, 3.0, n))
            grid = np.linspace(0.05, 10.0, 300)
            rh = verify_rh(
                lambda x: cdf_max_fixed(pf_a, n, x), lambda x: cdf_max_fixed(pf_b, n, x), grid
            )
            if not rh.holds:
                continue
            st = verify_st(
                lambda x: 1.0 - cdf_max_fixed(pf_a, n, x),
                lambda x: 1.0 - cdf_max_fixed(pf_b, n, x),
                grid,
            )
            assert st.holds
            checked += 1
        assert checked > 10


def test_bisect_root_evaluates_each_midpoint_once():
    calls = []

    def fn(x):
        calls.append(x)
        return x - 0.3

    assert _bisect_root(fn, 0.0, 1.0) == 0.2999997138977051
    assert len(calls) == 21
    assert len(set(calls)) == 21


class TestSchur:
    def test_coordinate_sum_is_schur_constant(self):
        res = schur_test(lambda u: float(np.sum(u)), np.array([1.0, 2.0, 3.0]))
        assert res.schur_convex and res.schur_concave
        assert abs(res.min_expression) < 1e-7 and abs(res.max_expression) < 1e-7

    def test_exponential_min_survival_is_schur_constant(self):
        p = np.array([0.4, 0.5, 0.6])
        x = 0.7

        def phi(alpha):
            pf = exp_portfolio(p, np.asarray(alpha))
            return float(survival_min_fixed(pf, 3, x))

        res = schur_test(phi, np.array([1.0, 2.0, 3.0]))
        assert abs(res.min_expression) < 1e-7 and abs(res.max_expression) < 1e-7

    def test_variance_like_function_is_schur_convex(self):
        res = schur_test(lambda u: float(np.sum(u**2)), np.array([1.0, 2.0, 4.0]))
        assert res.classification == "schur_convex_evidence"
        assert res.min_expression > 1e-3

    def test_rate_gamma_min_survival_reports_convex_evidence(self):
        case = get_case("cex3_2")
        pf = case.portfolio_a

        def phi(alpha):
            pf2 = Portfolio(pf.family, pf.psi, pf.p, np.asarray(alpha))
            return float(survival_min_fixed(pf2, pf2.n, 0.4))

        res = schur_test(phi, pf.alpha)
        assert res.classification == "schur_convex_evidence"

    def test_rejects_scalar_point(self):
        with pytest.raises(DomainError):
            schur_test(lambda u: float(np.sum(u)), np.array([1.0]))


class TestAudit:
    def test_example_instance_max_random(self):
        case = get_case("ex3_1")
        result = audit(
            TheoremId.ST_MAX_RANDOM,
            case.portfolio_a, case.portfolio_b, case.counts_a, case.counts_b,
            grid=case.grid(points=800),
        )
        assert result.conclusion.holds
        assert result.classification in (CONFIRMED, HYP_VIOLATED_CONCLUSION_HOLDS)
        assert result.classification != POTENTIAL_COUNTEREXAMPLE
        by_name = {p.name: p.satisfied for p in result.preconditions}
        assert by_name["N_1 <=_st N_2"]
        assert by_name["survival decreasing in alpha"]

    def test_first_counterexample_audit(self):
        case = get_case("cex3_1")
        result = audit(
            TheoremId.ST_MAX_RANDOM,
            case.portfolio_a, case.portfolio_b, case.counts_a, case.counts_b,
            grid=case.grid(points=800),
        )
        assert result.classification == HYP_VIOLATED_CONCLUSION_FAILS
        mn = [p for p in result.preconditions if "M_n" in p.name]
        assert not all(p.satisfied for p in mn)
        assert not result.conclusion.holds

    @pytest.mark.parametrize("field", ["tol"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    def test_non_finite_or_negative_tolerance_refused(self, field, bad):
        # at tol=nan every ``diff < -tol`` is false and the counterexample hid
        case = get_case("cex3_1")
        args = (TheoremId.ST_MAX_RANDOM, case.portfolio_a, case.portfolio_b,
                case.counts_a, case.counts_b)
        with pytest.raises(DomainError):
            audit(*args, grid=case.grid(points=200), **{field: bad})
        grid = np.linspace(0.1, 5.0, 50)
        curve = lambda x: np.exp(-x)
        with pytest.raises(DomainError):
            verify_st(curve, curve, grid, **{field: bad})
        with pytest.raises(DomainError):
            verify_rh(curve, curve, grid, **{field: bad})

    def test_zero_tolerance_accepted(self):
        case = get_case("cex3_1")
        result = audit(TheoremId.ST_MAX_RANDOM, case.portfolio_a, case.portfolio_b,
                       case.counts_a, case.counts_b, grid=case.grid(points=200),
                       tol=0.0)
        assert not result.conclusion.holds

    def test_second_counterexample_audit(self):
        case = get_case("cex3_2")
        result = audit(
            TheoremId.ST_MIN_RANDOM,
            case.portfolio_a, case.portfolio_b, case.counts_a, case.counts_b,
            grid=case.grid(points=800),
        )
        assert result.classification == HYP_VIOLATED_CONCLUSION_FAILS
        by_name = {p.name: p.satisfied for p in result.preconditions}
        assert not by_name["N_1 <=_st N_2"]
        assert not result.conclusion.holds

    def test_no_potential_counterexample_on_worked_instances(self):
        pairs = [
            ("ex3_1", TheoremId.ST_MAX_RANDOM),
            ("cex3_1", TheoremId.ST_MAX_RANDOM),
            ("cex3_2", TheoremId.ST_MIN_RANDOM),
            ("cex3_3", TheoremId.ST_MAX_RANDOM),
        ]
        for name, tid in pairs:
            case = get_case(name)
            result = audit(
                tid, case.portfolio_a, case.portfolio_b, case.counts_a, case.counts_b,
                grid=case.grid(points=600),
            )
            assert result.classification != POTENTIAL_COUNTEREXAMPLE

    def test_confirmed_on_constructed_exponential_instance(self):
        pf_a = exp_portfolio([0.2, 0.25, 0.3], [3.0, 2.5, 2.0])
        pf_b = exp_portfolio([0.15, 0.2, 0.25], [3.5, 3.0, 2.5])
        counts = poisson_counts(1.0, [2, 3])
        result = audit(TheoremId.ST_MAX_RANDOM, pf_a, pf_b, counts, counts)
        assert result.classification == CONFIRMED

    def test_structural_requirements(self):
        pf_a = exp_portfolio([0.3, 0.4], [1.0, 2.0])
        pf_b = exp_portfolio([0.3, 0.5], [1.0, 2.0])
        c1 = poisson_counts(1.0, [1, 2])
        c2 = poisson_counts(2.0, [1, 2])
        with pytest.raises(DomainError):
            audit(TheoremId.ST_MIN_ALPHA, pf_a, pf_b)  # unequal p vectors
        with pytest.raises(DomainError):
            audit(TheoremId.RH_MAX_RANDOM, pf_a, pf_b, c1, c2)  # unequal counts
        pf_c = exp_portfolio([0.3, 0.4, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            audit(TheoremId.ST_MAX_FIXED, pf_a, pf_c)
        with pytest.raises(DomainError):
            audit(TheoremId.ST_MAX_RANDOM, pf_a, pf_b)  # counts required

    def test_rh_min_preserve_decomposition(self):
        pf_a = exp_portfolio([0.3, 0.35, 0.4], [2.0, 1.8, 1.6])
        pf_b = exp_portfolio([0.3, 0.35, 0.4], [1.5, 1.3, 1.1])
        counts = ClaimCountDistribution(np.array([2, 3]), np.array([0.5, 0.5]))
        result = audit(TheoremId.RH_MIN_PRESERVE, pf_a, pf_b, counts, counts)
        names = [p.name for p in result.preconditions]
        assert "reversed hazard of min increasing in m" in names
        assert "CDF ratio of min increasing in m" in names
        assert result.classification != POTENTIAL_COUNTEREXAMPLE

    def test_rh_min_preserve_reads_no_regularity(self, monkeypatch):
        # none of its preconditions is a regularity field, so the check is skipped
        def fail(*args, **kwargs):
            raise AssertionError("check_regularity called")

        monkeypatch.setattr("claimorder.ordercheck.check_regularity", fail)
        pf_a = exp_portfolio([0.3, 0.35, 0.4], [2.0, 1.8, 1.6])
        pf_b = exp_portfolio([0.3, 0.35, 0.4], [1.5, 1.3, 1.1])
        counts = ClaimCountDistribution(np.array([2, 3]), np.array([0.5, 0.5]))
        d = audit(TheoremId.RH_MIN_PRESERVE, pf_a, pf_b, counts, counts).to_dict()
        # the report of the audit that ran the check
        assert d["preconditions"] == [
            {"name": "reversed hazard of min increasing in m", "satisfied": False,
             "evidence": ""},
            {"name": "CDF ratio of min increasing in m", "satisfied": False, "evidence": ""},
            {"name": "fixed-n reversed hazard order holds", "satisfied": False,
             "evidence": "margin -1.145e-04"},
        ]
        assert d["classification"] == HYP_VIOLATED_CONCLUSION_FAILS
        c = d["conclusion"]
        assert c["holds"] is False and c["grid_spec"] == "800 points on [0.0004, 4]"
        assert c["margin"] == pytest.approx(-0.00012130783946351364, rel=1e-9)
        assert c["witness"] == pytest.approx(
            [0.27356465891257176, 1.008547468408451, 1.0085434855435154], rel=1e-9)

    @pytest.mark.parametrize("tid", [TheoremId.RH_MAX_RANDOM, TheoremId.RH_MIN_RANDOM])
    def test_rh_audit_reads_no_reversed_hazard(self, tid, monkeypatch):
        # the conclusion is the CDF ratio's monotonicity; a pointwise reversed
        # hazard comparison would be work that no report shows
        case = get_case("ex3_1")
        counts = case.counts_a
        args = (tid, case.portfolio_a, case.portfolio_b, counts, counts)
        expected = audit(*args).to_dict()

        def fail(*args, **kwargs):
            raise AssertionError("reversed_hazard_random called")

        monkeypatch.setattr("claimorder.extremes.reversed_hazard_random", fail)
        assert audit(*args).to_dict() == expected

    def test_fixed_n_default_grid_is_built_for_n(self):
        # the n = 5 maximum still has CDF 0.991 at x = 8, where the grid for
        # N = 1 ends; a fixed-N result compares the extremes at N = n
        pf_a = exp_portfolio([0.5, 0.4, 0.3, 0.2, 0.1], [3.0, 2.5, 2.0, 1.0, 0.3])
        pf_b = exp_portfolio([0.5, 0.4, 0.3, 0.2, 0.1], [3.0, 2.5, 2.0, 1.2, 0.4])
        one = ClaimCountDistribution.degenerate(1)
        fixed = audit(TheoremId.ST_MAX_FIXED, pf_a, pf_b, one, one)
        assert fixed.conclusion.grid_spec == "800 points on [0.0064, 64]"
        assert audit(TheoremId.ST_MAX_FIXED, pf_a, pf_b).to_dict() == fixed.to_dict()
        random = audit(TheoremId.ST_MAX_RANDOM, pf_a, pf_b, one, one)
        assert random.conclusion.grid_spec == "800 points on [0.0008, 8]"

    def test_serialization_shape(self):
        case = get_case("ex3_1")
        result = audit(
            TheoremId.ST_MAX_RANDOM,
            case.portfolio_a, case.portfolio_b, case.counts_a, case.counts_b,
            grid=case.grid(points=400),
        )
        d = result.to_dict()
        assert d["theorem_id"] == "ST_MAX_RANDOM"
        assert {"name", "satisfied", "evidence"} <= set(d["preconditions"][0])
        assert {"holds", "margin", "grid_spec", "witness"} <= set(d["conclusion"])
        assert d["classification"] in (
            CONFIRMED,
            HYP_VIOLATED_CONCLUSION_FAILS,
            HYP_VIOLATED_CONCLUSION_HOLDS,
            POTENTIAL_COUNTEREXAMPLE,
        )


_M_N = ["(psi(p), alpha) in M_n", "(psi(p*), beta) in M_n"]
_ST_MAX = ["survival decreasing in alpha", "survival convex in alpha", "psi decreasing",
           "psi convex", *_M_N]
PRECONDITION_NAMES = {
    TheoremId.ST_MIN_ALPHA: ["survival decreasing in alpha", "survival log-convex in alpha",
                             *_M_N, "alpha weakly supermajorizes beta"],
    TheoremId.ST_MIN_PSI: ["psi decreasing", "psi log-convex", *_M_N,
                           "psi(p) weakly supermajorizes psi(p*)"],
    TheoremId.ST_MIN_RANDOM: ["N_1 <=_st N_2", "survival decreasing in alpha",
                              "survival log-convex in alpha", "psi decreasing", "psi log-convex",
                              *_M_N, "A row-weakly majorizes B"],
    TheoremId.ST_MAX_FIXED: [*_ST_MAX, "A row-weakly majorizes B"],
    TheoremId.ST_MAX_RANDOM: ["N_1 <=_st N_2", *_ST_MAX, "A row-weakly majorizes B"],
    TheoremId.ST_MAX_KWG: ["family is kumaraswamy_g", "N_1 <=_st N_2", *_ST_MAX,
                           "A row-weakly majorizes B"],
    TheoremId.ST_MAX_SCALE: ["family is scale", "baseline density decreasing", "N_1 <=_st N_2",
                             *_ST_MAX, "A row-weakly majorizes B"],
    TheoremId.ST_MAX_PHR: ["family is proportional_hazard", "N_1 <=_st N_2", *_ST_MAX,
                           "A row-weakly majorizes B"],
    TheoremId.ST_MAX_CHAIN: ["N_1 <=_st N_2", *_ST_MAX, "B = A P for doubly stochastic P"],
    TheoremId.ST_MAX_SCALE_CHAIN: ["family is scale", "baseline density decreasing",
                                   "N_1 <=_st N_2", *_ST_MAX, "B = A P for doubly stochastic P"],
    TheoremId.RH_MAX_ALPHA: ["psi decreasing", "survival decreasing in alpha",
                             "survival log-convex in alpha", "hazard decreasing in alpha",
                             "hazard convex in alpha", *_M_N, "alpha weakly supermajorizes beta"],
    TheoremId.RH_MAX_PSI: ["psi decreasing", "psi log-convex", "survival decreasing in alpha",
                           "hazard decreasing in alpha", *_M_N,
                           "psi(p) weakly supermajorizes psi(p*)"],
    TheoremId.RH_MAX_RANDOM: ["alpha_n >= beta_n", "p_n <= p*_n", "psi decreasing",
                              "psi log-convex", "survival decreasing in alpha",
                              "survival log-convex in alpha", "hazard decreasing in alpha",
                              "hazard convex in alpha", *_M_N, "A row-weakly majorizes B"],
    TheoremId.RH_MIN_ALPHA: ["CDF increasing in alpha (survival decreasing)",
                             "CDF log-convex in alpha", "hazard convex in alpha", *_M_N,
                             "alpha majorizes beta"],
    TheoremId.RH_MIN_PSI: ["psi increasing", "psi log-convex", *_M_N, "psi(p) majorizes psi(p*)"],
    TheoremId.RH_MIN_RANDOM: ["psi increasing", "psi log-convex", "CDF log-convex in alpha",
                              "hazard convex in alpha", *_M_N, "A row-majorizes B"],
    TheoremId.RH_MIN_PRESERVE: ["reversed hazard of min increasing in m",
                                "CDF ratio of min increasing in m",
                                "fixed-n reversed hazard order holds"],
}


@pytest.mark.parametrize("tid", list(TheoremId), ids=lambda t: t.value)
def test_precondition_names_and_order_per_theorem(tid):
    # equal-p variant for the *_ALPHA results, equal-alpha for *_PSI, and one
    # count distribution on both sides so the equal-counts results apply
    p, q = [0.2, 0.25, 0.3], [0.15, 0.2, 0.25]
    alpha, beta = [3.0, 2.5, 2.0], [3.5, 3.0, 2.5]
    if tid.value.endswith("_ALPHA"):
        q = p
    elif tid.value.endswith("_PSI"):
        beta = alpha
    counts = poisson_counts(1.0, [2, 3])
    result = audit(tid, exp_portfolio(p, alpha), exp_portfolio(q, beta), counts, counts)
    assert [pre.name for pre in result.preconditions] == PRECONDITION_NAMES[tid]
