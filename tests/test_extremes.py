import copy
import math
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from claimorder import extremes
from claimorder.cases import CASE_NAMES, get_case
from claimorder.errors import ClaimOrderError, DomainError
from claimorder.extremes import (
    ClaimCountDistribution,
    ExtremeKind,
    Portfolio,
    auto_x_grid,
    cdf_max_fixed,
    cdf_max_random,
    cdf_min_fixed,
    cdf_min_random,
    counts_st_leq,
    poisson_counts,
    reversed_hazard_max_fixed,
    reversed_hazard_min_fixed,
    reversed_hazard_random,
    survival_max_random,
    survival_min_fixed,
    survival_min_random,
)
from claimorder.ordercheck import TheoremId, audit, theorem_grid
from claimorder.severity import (
    Exponential,
    Gamma,
    KumaraswamyG,
    PowerGeneralizedWeibull,
    ProportionalHazard,
    Scale,
    WeibullRate,
    gamma_baseline,
    neg_log,
)


def exp_portfolio(p, alpha):
    return Portfolio(Exponential(), neg_log(), np.asarray(p, float), np.asarray(alpha, float))


class TestPortfolioAndCounts:
    def test_portfolio_validation(self):
        with pytest.raises(DomainError):
            exp_portfolio([1.2, 0.5], [1.0, 2.0])
        with pytest.raises(DomainError):
            exp_portfolio([0.5, 0.5], [1.0, -2.0])
        with pytest.raises(DomainError):
            exp_portfolio([0.5], [1.0, 2.0])

    @pytest.mark.parametrize("p,alpha", [
        ([np.nan, 0.5], [1.0, 2.0]),
        ([0.5, 0.5], [np.inf, 2.0]),
        ([0.5, 0.5], [1.0, np.nan]),
    ])
    def test_portfolio_rejects_non_finite_values(self, p, alpha):
        with pytest.raises(DomainError):
            exp_portfolio(p, alpha)

    def test_validated_arrays_are_read_only_copies(self):
        p, alpha = np.array([0.7, 0.3]), np.array([1.0, 2.0])
        pf = exp_portfolio(p, alpha)
        p[0], alpha[1] = 7.0, -1.0
        assert pf.p.tolist() == [0.7, 0.3] and pf.alpha.tolist() == [1.0, 2.0]
        support, weights = np.array([1, 2]), np.array([0.25, 0.75])
        counts = ClaimCountDistribution(support, weights)
        support[1], weights[0] = 9, 3.0
        assert counts.support.tolist() == [1, 2] and counts.weights.tolist() == [0.25, 0.75]
        for a in (pf.p, pf.alpha, counts.support, counts.weights):
            with pytest.raises(ValueError):
                a[0] = 0.5

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_poisson_counts_rejects_non_finite_rate(self, lam):
        with pytest.raises(DomainError):
            poisson_counts(lam, [1, 2])

    def test_counts_validation(self):
        with pytest.raises(DomainError):
            ClaimCountDistribution(np.array([2, 2]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            ClaimCountDistribution(np.array([0, 1]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            ClaimCountDistribution(np.array([1, 2]), np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            ClaimCountDistribution(np.array([1, 2]), np.array([np.nan, 0.5]))

    def test_poisson_counts_oracle(self):
        # the built-in cases' rates keep the direct formula's weights bit for bit
        for lam in (0.9, 1.9, 2.0, 10.9):
            counts = poisson_counts(lam, [3, 4, 5])
            raw = np.array([math.exp(-lam) * lam**m / math.factorial(m) for m in (3, 4, 5)])
            assert counts.weights.tobytes() == (raw / raw.sum()).tobytes(), lam
            assert counts.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert poisson_counts(2.0, [4]).weights[0] == 1.0

    @pytest.mark.parametrize("lam,support", [
        (50.0, range(1, 201)),   # lam**m and m! overflow
        (200.0, range(150, 171)),
        (800.0, [3, 4, 5]),      # exp(-lam) underflows to 0
        (742.0, [1, 2, 3]),      # the direct terms are subnormal
    ])
    def test_poisson_counts_far_from_the_direct_range(self, lam, support):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = poisson_counts(lam, support)
        logs = poisson.logpmf(np.asarray(support), lam)
        ref = np.exp(logs - logs.max())
        assert np.all(np.abs(counts.weights - ref / ref.sum()) <= 1e-12)

    def test_counts_st_examples(self):
        c1 = poisson_counts(0.9, [3, 4, 5])
        c2 = poisson_counts(1.9, [3, 4, 5])
        assert counts_st_leq(c1, c1)
        assert counts_st_leq(c1, c2)
        assert not counts_st_leq(c2, c1)
        d3 = ClaimCountDistribution.degenerate(3)
        d5 = ClaimCountDistribution.degenerate(5)
        assert counts_st_leq(d3, d5)
        assert not counts_st_leq(d5, d3)
        # the second counterexample's count pair is not st-ordered
        assert not counts_st_leq(poisson_counts(10.9, [3, 4, 5]), poisson_counts(2.0, [3, 4, 5]))


class TestFixedExtremes:
    def test_min_survival_atom(self):
        pf = exp_portfolio([0.5], [1.0])
        assert survival_min_fixed(pf, 1, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_min_survival_product_form(self):
        pf = exp_portfolio([0.5, 0.5], [1.0, 1.0])
        assert survival_min_fixed(pf, 2, math.log(2.0)) == pytest.approx(0.0625, rel=1e-12)

    def test_max_cdf_single_claim(self):
        pf = exp_portfolio([0.5], [1.0])
        assert cdf_max_fixed(pf, 1, math.log(2.0)) == pytest.approx(0.75, rel=1e-12)

    def test_atoms_at_zero(self):
        p = np.array([0.3, 0.6, 0.8])
        pf = exp_portfolio(p, [1.0, 2.0, 3.0])
        assert cdf_max_fixed(pf, 3, 0.0) == pytest.approx(np.prod(1 - p), rel=1e-12)
        assert cdf_min_fixed(pf, 3, 0.0) == pytest.approx(1 - np.prod(p), rel=1e-12)

    def test_m_out_of_range(self):
        pf = exp_portfolio([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(DomainError):
            survival_min_fixed(pf, 3, 1.0)
        with pytest.raises(DomainError):
            cdf_max_fixed(pf, 0, 1.0)

    def test_reversed_hazard_single_term_closed_form(self):
        pf = exp_portfolio([0.5], [1.0])
        xs = np.linspace(0.2, 3.0, 15)
        expected = 0.5 * np.exp(-xs) / (1.0 - 0.5 * np.exp(-xs))
        assert np.allclose(reversed_hazard_max_fixed(pf, 1, xs), expected, rtol=1e-12)
        assert np.allclose(reversed_hazard_min_fixed(pf, 1, xs), expected, rtol=1e-12)

    def test_min_hazard_sum_constant_for_exponentials(self):
        pf = exp_portfolio([0.4, 0.7], [1.0, 2.0])
        xs = np.linspace(0.2, 3.0, 10)
        s = survival_min_fixed(pf, 2, xs)
        f = cdf_min_fixed(pf, 2, xs)
        assert np.allclose(reversed_hazard_min_fixed(pf, 2, xs), (s / f) * 3.0, rtol=1e-12)

    def test_max_rh_increasing_in_m(self):
        pf = exp_portfolio([0.3, 0.5, 0.6, 0.4], [1.0, 0.8, 1.5, 2.0])
        xs = np.linspace(0.1, 5.0, 40)
        prev = reversed_hazard_max_fixed(pf, 1, xs)
        for m in (2, 3, 4):
            cur = reversed_hazard_max_fixed(pf, m, xs)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_monotone_in_m(self):
        pf = exp_portfolio([0.3, 0.5, 0.6, 0.4], [1.0, 0.8, 1.5, 2.0])
        xs = np.linspace(0.0, 5.0, 30)
        for m in (1, 2, 3):
            assert np.all(
                survival_min_fixed(pf, m + 1, xs) <= survival_min_fixed(pf, m, xs) + 1e-12
            )
            assert np.all(cdf_max_fixed(pf, m + 1, xs) <= cdf_max_fixed(pf, m, xs) + 1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rh_matches_log_cdf_derivative(self, m):
        pf = exp_portfolio([0.3, 0.5, 0.6], [1.0, 0.8, 1.5])
        xs = np.linspace(0.5, 3.0, 7)
        h = 1e-6
        for fn_rh, fn_cdf in (
            (reversed_hazard_max_fixed, cdf_max_fixed),
            (reversed_hazard_min_fixed, cdf_min_fixed),
        ):
            fd = (np.log(fn_cdf(pf, m, xs + h)) - np.log(fn_cdf(pf, m, xs - h))) / (2 * h)
            assert np.allclose(fn_rh(pf, m, xs), fd, rtol=1e-4)


class TestRandomExtremes:
    def setup_method(self):
        self.pf = exp_portfolio([0.3, 0.5, 0.6, 0.4], [1.0, 0.8, 1.5, 2.0])
        self.counts = poisson_counts(1.3, [2, 3, 4])

    def test_degenerate_counts_reduce_to_fixed(self):
        deg = ClaimCountDistribution.degenerate(3)
        xs = np.linspace(0.0, 4.0, 20)
        assert np.allclose(
            survival_min_random(self.pf, deg, xs), survival_min_fixed(self.pf, 3, xs)
        )
        assert np.allclose(cdf_max_random(self.pf, deg, xs), cdf_max_fixed(self.pf, 3, xs))
        xs_pos = xs[xs > 0]
        assert np.allclose(
            reversed_hazard_random(self.pf, deg, ExtremeKind.MAX, xs_pos),
            reversed_hazard_max_fixed(self.pf, 3, xs_pos),
            rtol=1e-12,
        )

    def test_mixture_bounds(self):
        xs = np.linspace(0.0, 4.0, 25)
        mins = np.minimum.reduce([survival_min_fixed(self.pf, m, xs) for m in (2, 3, 4)])
        maxs = np.maximum.reduce([survival_min_fixed(self.pf, m, xs) for m in (2, 3, 4)])
        mix = survival_min_random(self.pf, self.counts, xs)
        assert np.all(mix >= mins - 1e-12) and np.all(mix <= maxs + 1e-12)

    def test_curves_stay_finite_where_survival_underflows(self):
        # density / survival would be 0 / 0 at these points
        for family, alpha, x in ((PowerGeneralizedWeibull(2.0), 0.5, 10.0),
                                 (WeibullRate(1.7), 3.0, 30.0)):
            assert family.survival(x, alpha) == 0.0
            pf = Portfolio(family, neg_log(), np.array([0.3, 0.5]), np.array([alpha, alpha]))
            xs = np.array([0.5, x])
            for curve in (reversed_hazard_max_fixed, reversed_hazard_min_fixed):
                assert np.all(np.isfinite(curve(pf, 2, xs))), (family.name, curve.__name__)

    def test_support_exceeding_portfolio(self):
        with pytest.raises(DomainError):
            survival_min_random(self.pf, poisson_counts(1.0, [4, 5]), 1.0)

    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    def test_mixture_rh_matches_log_cdf_derivative(self, kind):
        xs = np.linspace(0.5, 3.0, 7)
        h = 1e-6
        cdf = cdf_min_random if kind is ExtremeKind.MIN else cdf_max_random
        fd = (
            np.log(cdf(self.pf, self.counts, xs + h)) - np.log(cdf(self.pf, self.counts, xs - h))
        ) / (2 * h)
        assert np.allclose(
            reversed_hazard_random(self.pf, self.counts, kind, xs), fd, rtol=1e-4
        )

    def test_max_survival_keeps_the_tail_digits(self):
        # Example 3.1's portfolio A against 50-digit arithmetic; 1 - CDF kept
        # only the CDF's absolute error, a relative error of 0.8 at x = 20
        import mpmath

        case = get_case("ex3_1")
        pf, counts = case.portfolio_a, case.counts_a
        xs = np.array([1.0, 5.0, 10.0, 15.0, 20.0])
        got = survival_max_random(pf, counts, xs)
        with mpmath.workdps(50):
            for x, value in zip(xs, got):
                # the scale family's survival at rate a: Q(1.5, a x), a x rounded as in floats
                s = [mpmath.gammainc(1.5, mpmath.mpf(a * x), mpmath.inf, regularized=True)
                     for a in pf.alpha]
                want = mpmath.fsum(
                    mpmath.mpf(w) * (1 - mpmath.fprod(1 - mpmath.mpf(p) * s[i]
                                                      for i, p in enumerate(pf.p[:m])))
                    for m, w in zip(counts.support, counts.weights))
                assert abs((value - want) / want) <= 1e-12, x

    def test_auto_grid_covers_tail(self):
        grid = auto_x_grid([self.pf], [self.counts], ExtremeKind.MAX, points=400)
        assert grid.size == 400
        assert np.all(np.diff(grid) > 0)
        assert cdf_max_random(self.pf, self.counts, grid[-1]) >= 1.0 - 1e-6


SHIPPED_FAMILIES = {
    "exponential": Exponential(),
    "weibull_rate": WeibullRate(1.7),
    "gamma": Gamma(1.3),
    "pgw": PowerGeneralizedWeibull(2.0),
    "scale_gamma": Scale(gamma_baseline(1.5)),
    "proportional_hazard": ProportionalHazard(gamma_baseline(2.0)),
    "kumaraswamy_g": KumaraswamyG(gamma_baseline(1.5), 0.7),
}


def _reference_fixed(pf, m, xs):
    """Every fixed-m curve as a per-claim product/sum of family.survival and
    family.hazard, one claim at a time, without the prefix kernel."""
    s = np.array([pf.family.survival(xs, a) for a in pf.alpha[:m]])
    r = np.array([pf.family.hazard(xs, a) for a in pf.alpha[:m]])
    q = pf.p[:m, None] * s
    surv_min = np.prod(q, axis=0)
    hazard_sum = np.sum(r, axis=0)
    cdf_max = np.prod(1.0 - q, axis=0)
    rh_max = np.sum(q * r / (1.0 - q), axis=0)
    return {
        (ExtremeKind.MIN, "survival"): surv_min,
        (ExtremeKind.MIN, "cdf"): 1.0 - surv_min,
        (ExtremeKind.MIN, "density"): surv_min * hazard_sum,
        (ExtremeKind.MIN, "rh"): surv_min * hazard_sum / (1.0 - surv_min),
        (ExtremeKind.MAX, "survival"): 1.0 - cdf_max,
        (ExtremeKind.MAX, "cdf"): cdf_max,
        (ExtremeKind.MAX, "density"): cdf_max * rh_max,
        (ExtremeKind.MAX, "rh"): rh_max,
    }


def _reference_random(pf, counts, xs):
    fixed = [_reference_fixed(pf, int(m), xs) for m in counts.support]
    out = {key: sum(w * f[key] for w, f in zip(counts.weights, fixed)) for key in fixed[0]}
    for kind in ExtremeKind:
        out[kind, "rh"] = out[kind, "density"] / out[kind, "cdf"]
    return out


def _assert_rel(got, ref, key, rtol=1e-12):
    got = np.asarray(got, dtype=float)
    # 1 - F is only as exact as the rounding of F, so the complement of a
    # curve near 1 is held to the same absolute error as the curve itself
    scale = np.abs(ref)
    if key[1] in ("survival", "cdf"):
        scale = np.maximum(scale, np.abs(1.0 - ref))
    assert np.all(np.isfinite(got)), key
    assert np.all(np.abs(got - ref) <= rtol * scale), (key, np.max(np.abs(got - ref) / scale))


_FIXED = {
    (ExtremeKind.MIN, "survival"): survival_min_fixed,
    (ExtremeKind.MIN, "cdf"): cdf_min_fixed,
    (ExtremeKind.MIN, "rh"): reversed_hazard_min_fixed,
    (ExtremeKind.MAX, "cdf"): cdf_max_fixed,
    (ExtremeKind.MAX, "rh"): reversed_hazard_max_fixed,
}

_RANDOM = {
    (ExtremeKind.MIN, "survival"): survival_min_random,
    (ExtremeKind.MIN, "cdf"): cdf_min_random,
    (ExtremeKind.MAX, "survival"): survival_max_random,
    (ExtremeKind.MAX, "cdf"): cdf_max_random,
}


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 40))
    family = draw(st.sampled_from(sorted(SHIPPED_FAMILIES)))
    unit = st.floats(0.0, 1.0)
    p = 0.02 + 0.93 * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    alpha = 0.5 + 2.5 * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    support = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(support),
                                 max_size=len(support))))
    counts = ClaimCountDistribution(np.sort(support), raw / raw.sum())
    m = draw(st.integers(1, n))
    return Portfolio(SHIPPED_FAMILIES[family], neg_log(), p, alpha), counts, m


class TestPrefixKernel:
    XS = np.geomspace(0.01, 3.0, 17)

    @settings(max_examples=60, deadline=None)
    @given(_instances())
    def test_curves_match_per_claim_reference(self, instance):
        pf, counts, m = instance
        ref = _reference_fixed(pf, m, self.XS)
        for key, fn in _FIXED.items():
            _assert_rel(fn(pf, m, self.XS), ref[key], key)
        ref = _reference_random(pf, counts, self.XS)
        for key, fn in _RANDOM.items():
            _assert_rel(fn(pf, counts, self.XS), ref[key], key)
        for kind in ExtremeKind:
            _assert_rel(reversed_hazard_random(pf, counts, kind, self.XS), ref[kind, "rh"],
                        (kind, "rh"))

    @pytest.mark.parametrize("name", sorted(SHIPPED_FAMILIES))
    def test_family_column_against_row_equals_per_row_calls(self, name):
        family = SHIPPED_FAMILIES[name]
        alpha = np.array([0.5, 0.9, 1.0, 1.7, 2.4, 3.0])
        xs = np.concatenate([np.geomspace(0.01, 3.0, 23), [0.5]])
        for method in (family.log_survival, family.hazard):
            block = np.asarray(method(xs[None, :], alpha[:, None]))
            rows = np.array([method(xs, a) for a in alpha])
            assert block.shape == rows.shape
            assert np.array_equal(block, rows), (name, method.__name__)

    @pytest.mark.parametrize("name", sorted(SHIPPED_FAMILIES))
    def test_degenerate_random_curves_equal_fixed_bit_for_bit(self, name):
        # fixed-N audits read the random-N curves at N = n
        rng = np.random.default_rng(5)
        pf = Portfolio(SHIPPED_FAMILIES[name], neg_log(), rng.uniform(0.05, 0.9, 50),
                       rng.uniform(0.5, 3.0, 50))
        xs = np.geomspace(1e-3, 8.0, 301)
        for m in (1, 3, 5, 50):
            deg = ClaimCountDistribution.degenerate(m)
            for key, fn in _RANDOM.items():
                if key not in _FIXED:
                    continue
                got, want = fn(pf, deg, xs), _FIXED[key](pf, m, xs)
                assert got.tobytes() == want.tobytes(), (name, m, key)

    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    def test_n_in_the_hundreds_stays_finite_and_in_unit_interval(self, kind):
        rng = np.random.default_rng(200)
        n = 200
        pf = Portfolio(Scale(gamma_baseline(1.5)), neg_log(),
                       rng.uniform(0.05, 0.9, n), rng.uniform(0.5, 5.0, n))
        support = np.arange(1, n + 1)
        counts = ClaimCountDistribution(support, np.full(n, 1.0 / n))
        xs = auto_x_grid([pf], [counts], kind, points=400)
        if kind is ExtremeKind.MIN:
            curves = [survival_min_random(pf, counts, xs), cdf_min_random(pf, counts, xs)]
        else:
            curves = [survival_max_random(pf, counts, xs), cdf_max_random(pf, counts, xs)]
        for curve in curves:
            assert np.all(np.isfinite(curve))
            assert np.all((curve >= 0.0) & (curve <= 1.0 + 1e-12))
        rh = reversed_hazard_random(pf, counts, kind, xs)
        assert np.all(np.isfinite(rh)) and np.all(rh >= 0.0)


# every public curve as fn(portfolio, counts, m, x)
_PUBLIC_CURVES = {
    "survival_min_fixed": lambda pf, c, m, x: survival_min_fixed(pf, m, x),
    "cdf_min_fixed": lambda pf, c, m, x: cdf_min_fixed(pf, m, x),
    "cdf_max_fixed": lambda pf, c, m, x: cdf_max_fixed(pf, m, x),
    "reversed_hazard_min_fixed": lambda pf, c, m, x: reversed_hazard_min_fixed(pf, m, x),
    "reversed_hazard_max_fixed": lambda pf, c, m, x: reversed_hazard_max_fixed(pf, m, x),
    "survival_min_random": lambda pf, c, m, x: survival_min_random(pf, c, x),
    "cdf_min_random": lambda pf, c, m, x: cdf_min_random(pf, c, x),
    "survival_max_random": lambda pf, c, m, x: survival_max_random(pf, c, x),
    "cdf_max_random": lambda pf, c, m, x: cdf_max_random(pf, c, x),
    "reversed_hazard_random_min":
        lambda pf, c, m, x: reversed_hazard_random(pf, c, ExtremeKind.MIN, x),
    "reversed_hazard_random_max":
        lambda pf, c, m, x: reversed_hazard_random(pf, c, ExtremeKind.MAX, x),
}

_MEMO_GRIDS = (
    np.geomspace(0.01, 3.0, 17),
    np.geomspace(0.01, 3.0, 17)[::2],
    0.7,
    np.array([[0.3, 1.0], [2.0, 0.05]]),
    np.array([0.0, 0.5, 12.0, 40.0]),
)


def _outcome(name, pf, counts, m, x):
    """The curve's shape and bytes, or the type and text of the error it raised."""
    try:
        v = np.asarray(_PUBLIC_CURVES[name](pf, counts, m, x), dtype=float)
    except ClaimOrderError as e:
        return type(e), str(e)
    return v.shape, v.tobytes()


def _cold(op):
    extremes._memo.clear()
    return _outcome(*op)


def _memo_portfolios(pf):
    """pf; one with pf's family object and alpha but other p, which shares pf's
    memo entries; one with a copy of the family object and other alpha."""
    other_p = np.clip(pf.p[::-1] * 0.9, 0.01, 0.99)
    return (pf, Portfolio(pf.family, pf.psi, other_p, pf.alpha),
            Portfolio(copy.copy(pf.family), pf.psi, other_p, pf.alpha * 1.25))


class TestClaimTermsMemo:
    def teardown_method(self):
        extremes._memo.clear()

    @settings(max_examples=80, deadline=None)
    @given(_instances(), st.booleans(), st.lists(
        st.tuples(st.sampled_from(sorted(_PUBLIC_CURVES)), st.integers(0, 2),
                  st.integers(0, len(_MEMO_GRIDS) - 1)), min_size=1, max_size=12))
    def test_any_order_equals_a_cold_evaluation(self, instance, fixed_n, calls):
        pf, counts, m = instance
        if fixed_n:
            counts = ClaimCountDistribution.degenerate(m)
        portfolios = _memo_portfolios(pf)
        ops = [(name, portfolios[i], counts, m, _MEMO_GRIDS[g]) for name, i, g in calls]
        extremes._memo.clear()
        warm = []
        with np.errstate(all="ignore"):
            for op in ops:
                warm.append(_outcome(*op))
                assert len(extremes._memo) <= extremes._MEMO_CAPACITY
            for op, got in zip(ops, warm):
                assert _cold(op) == got, op[0]

    def test_a_comparison_evaluates_the_family_once_per_portfolio(self):
        calls = []

        class CountingScale(Scale):
            def _log_sf(self, x, alpha):
                calls.append("log_sf")
                return super()._log_sf(x, alpha)

            def _pdf(self, x, alpha):
                calls.append("pdf")
                return super()._pdf(x, alpha)

        family = CountingScale(gamma_baseline(1.5))
        pa, pb = (Portfolio(family, neg_log(), np.array([0.3, 0.5, 0.6]), a)
                  for a in (np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.5, 3.5])))
        counts = poisson_counts(1.3, [2, 3])
        xs = np.geomspace(0.01, 8.0, 101)
        extremes._memo.clear()
        curves = [*_RANDOM.values(), *(partial(reversed_hazard_random, kind=k) for k in ExtremeKind)]
        for curve in curves:
            for pf in (pa, pb):
                curve(pf, counts, x=xs)
        assert calls == ["log_sf", "log_sf", "pdf", "pdf"]

    def test_an_all_theorem_audit_evaluates_each_portfolio_and_grid_once(self, monkeypatch):
        # what `claimorder audit` does: each theorem's grid, then its audit.
        # Both portfolios on auto_x_grid's probe grid and on the MIN and MAX
        # comparison grids are 6 keys, each evaluated once; the MIN witness
        # is a grid point, whose values verify_st already holds
        case = get_case("ex3_1")
        inputs = (case.portfolio_a, case.portfolio_b, case.counts_a, case.counts_b)

        def audit_all():
            out = []
            for tid in TheoremId:
                grid = theorem_grid(tid, *inputs, case.points)
                try:
                    out.append(repr(audit(tid, *inputs, grid=grid).to_dict()))
                except DomainError as e:
                    out.append(str(e))
                assert len(extremes._memo) <= extremes._MEMO_CAPACITY
            return out

        made = []
        terms = extremes._ClaimTerms

        def counting(*args):
            made.append(args)
            return terms(*args)

        monkeypatch.setattr(extremes, "_ClaimTerms", counting)
        extremes._memo.clear()
        warm = audit_all()
        assert len(made) == 6
        # with no entry kept, every lookup evaluates the family afresh
        monkeypatch.setattr(extremes, "_MEMO_CAPACITY", 0)
        extremes._memo.clear()
        assert audit_all() == warm
        assert len(made) > 10

    def test_grid_mutated_in_place_gives_the_new_values(self):
        pf = exp_portfolio([0.3, 0.5, 0.6], [1.0, 0.8, 1.5])
        counts = poisson_counts(1.3, [2, 3])
        xs = np.linspace(0.1, 3.0, 9)
        before = reversed_hazard_random(pf, counts, ExtremeKind.MAX, xs)
        xs *= 2.0
        after = reversed_hazard_random(pf, counts, ExtremeKind.MAX, xs)
        op = ("reversed_hazard_random_max", pf, counts, 3, xs)
        assert _cold(op) == (after.shape, after.tobytes())
        assert not np.array_equal(before, after)

    def test_equal_family_objects_never_share_an_entry(self):
        f1, f2 = WeibullRate(1.7), WeibullRate(1.7)
        assert f1 == f2 and f1 is not f2
        xs = np.linspace(0.1, 3.0, 9)
        extremes._memo.clear()
        for family in (f1, f2):
            cdf_max_fixed(Portfolio(family, neg_log(), np.array([0.3, 0.5]),
                                    np.array([1.0, 2.0])), 2, xs)
        assert [id(t.family) for t in extremes._memo.values()] == [id(f1), id(f2)]

    def test_memo_never_exceeds_its_capacity(self):
        pf = exp_portfolio([0.3, 0.5, 0.6], [1.0, 0.8, 1.5])
        extremes._memo.clear()
        for k in range(1, 8):
            reversed_hazard_max_fixed(pf, 3, np.linspace(0.1, float(k), 5))
            assert len(extremes._memo) == min(k, extremes._MEMO_CAPACITY)

    def test_threads_equal_serial_results(self):
        pf = Portfolio(Scale(gamma_baseline(1.5)), neg_log(),
                       np.linspace(0.2, 0.8, 12), np.linspace(1.0, 4.0, 12))
        counts = poisson_counts(6.0, range(1, 13))
        grids = (np.geomspace(0.01, 8.0, 301), np.geomspace(0.02, 6.0, 211))
        ops = [(name, p, counts, 12, x) for name in sorted(_PUBLIC_CURVES)
               for p in _memo_portfolios(pf) for x in grids]
        serial = [_cold(op) for op in ops]
        workers = 4
        barrier = threading.Barrier(workers, timeout=30)
        results, errors = {}, []

        def work(i):
            try:
                barrier.wait()
                order = ops[i:] + ops[:i]
                results[i] = [_outcome(*op) for op in order * 2]
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            extremes._memo.clear()
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for i in range(workers):
            assert results[i] == (serial[i:] + serial[:i]) * 2


def _reference_x_max(portfolios, counts, kind):
    """auto_x_grid's doubling search as one scalar evaluation per doubling and
    portfolio, stopping at the first doubling every portfolio passes."""
    x_max = 1.0
    for _ in range(80):
        done = True
        for pf, ct in zip(portfolios, counts):
            if kind is ExtremeKind.MAX:
                ok = cdf_max_random(pf, ct, x_max) >= 1.0 - 1e-6
            else:
                ok = survival_min_random(pf, ct, x_max) <= 1e-6
            if not ok:
                done = False
                break
        if done:
            break
        x_max *= 2.0
    return x_max


def _assert_x_max_matches_reference(portfolios, counts, kind, points=200):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = auto_x_grid(portfolios, counts, kind, points=points)
    ref = _reference_x_max(portfolios, counts, kind)
    assert grid[-1] == ref
    assert grid.tobytes() == auto_x_grid(portfolios, counts, kind, points=points,
                                         x_max=ref).tobytes()
    return ref


class TestAutoGridSearch:
    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    @pytest.mark.parametrize("name", sorted(SHIPPED_FAMILIES))
    def test_x_max_matches_the_doubling_loop(self, name, kind):
        rng = np.random.default_rng(11)
        family = SHIPPED_FAMILIES[name]
        pfs = [Portfolio(family, neg_log(), rng.uniform(0.05, 0.9, 6), rng.uniform(0.5, 3.0, 6))
               for _ in range(2)]
        counts = [poisson_counts(2.5, [2, 4, 6]), ClaimCountDistribution.degenerate(6)]
        _assert_x_max_matches_reference(pfs, counts, kind)

    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    @pytest.mark.parametrize("case", CASE_NAMES)
    def test_x_max_matches_the_doubling_loop_on_built_in_cases(self, case, kind):
        spec = get_case(case)
        _assert_x_max_matches_reference([spec.portfolio_a, spec.portfolio_b],
                                        [spec.counts_a, spec.counts_b], kind, points=spec.points)

    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    def test_tail_mass_never_reached(self, kind):
        pf = exp_portfolio([0.3, 0.5], [1e-25, 3e-25])
        counts = ClaimCountDistribution.degenerate(2)
        assert _assert_x_max_matches_reference([pf], [counts], kind) == 2.0 ** 80

    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    @pytest.mark.parametrize("family", [WeibullRate(60.0), PowerGeneralizedWeibull(40.0)])
    def test_curves_that_overflow_past_the_answer_raise_no_warning(self, family, kind):
        pf = Portfolio(family, neg_log(), np.array([0.3, 0.5, 0.7]), np.array([0.5, 1.0, 2.0]))
        counts = ClaimCountDistribution.degenerate(3)
        _assert_x_max_matches_reference([pf], [counts], kind)

    @settings(max_examples=40, deadline=None)
    @given(_instances(), st.sampled_from([ExtremeKind.MIN, ExtremeKind.MAX]))
    def test_x_max_matches_the_doubling_loop_on_random_instances(self, instance, kind):
        pf, counts, _ = instance
        _assert_x_max_matches_reference([pf], [counts], kind)
