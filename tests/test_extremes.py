import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimorder.errors import DomainError
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
    density_max_fixed,
    density_min_fixed,
    density_random,
    poisson_counts,
    reversed_hazard_max_fixed,
    reversed_hazard_min_fixed,
    reversed_hazard_random,
    survival_max_fixed,
    survival_max_random,
    survival_min_fixed,
    survival_min_random,
)
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
        counts = poisson_counts(0.9, [3, 4, 5])
        raw = np.array([math.exp(-0.9) * 0.9**m / math.factorial(m) for m in (3, 4, 5)])
        assert np.allclose(counts.raw_weights, raw, rtol=1e-14)
        assert np.allclose(counts.weights, raw / raw.sum(), rtol=1e-14)
        assert counts.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert poisson_counts(2.0, [4]).weights[0] == 1.0

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

    @pytest.mark.parametrize("m", [1, 3])
    def test_density_matches_cdf_derivative(self, m):
        pf = exp_portfolio([0.3, 0.5, 0.6], [1.0, 0.8, 1.5])
        xs = np.linspace(0.5, 3.0, 7)
        h = 1e-6
        fd_min = (cdf_min_fixed(pf, m, xs + h) - cdf_min_fixed(pf, m, xs - h)) / (2 * h)
        fd_max = (cdf_max_fixed(pf, m, xs + h) - cdf_max_fixed(pf, m, xs - h)) / (2 * h)
        assert np.allclose(density_min_fixed(pf, m, xs), fd_min, rtol=1e-4)
        assert np.allclose(density_max_fixed(pf, m, xs), fd_max, rtol=1e-4)


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
            for curve in (density_max_fixed, reversed_hazard_min_fixed):
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
    (ExtremeKind.MIN, "density"): density_min_fixed,
    (ExtremeKind.MIN, "rh"): reversed_hazard_min_fixed,
    (ExtremeKind.MAX, "survival"): survival_max_fixed,
    (ExtremeKind.MAX, "cdf"): cdf_max_fixed,
    (ExtremeKind.MAX, "density"): density_max_fixed,
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
            _assert_rel(density_random(pf, counts, kind, self.XS), ref[kind, "density"],
                        (kind, "density"))
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
        for curve in (density_random(pf, counts, kind, xs),
                      reversed_hazard_random(pf, counts, kind, xs)):
            assert np.all(np.isfinite(curve)) and np.all(curve >= 0.0)
