import math

import numpy as np
import pytest
from scipy import integrate

from claimorder.errors import DomainError, GridError
from claimorder.severity import (
    BaselineDistribution,
    Exponential,
    Gamma,
    KumaraswamyG,
    PowerGeneralizedWeibull,
    ProportionalHazard,
    Scale,
    WeibullRate,
    check_regularity,
    custom_psi,
    exponential_decay,
    gamma_baseline,
    neg_log,
    power_inverse,
)


class TestSurvivalOracles:
    def test_exponential_at_zero(self):
        assert Exponential().survival(0.0, 3.7) == 1.0

    def test_exponential_closed_form(self):
        assert Exponential().survival(2.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_gamma_integer_shape_series(self):
        # for shape 2 the regularized upper incomplete gamma has the exact
        # series value Q(2, z) = e^{-z} (1 + z)
        z = 5.0 / 10.09
        expected = math.exp(-z) * (1.0 + z)
        assert Gamma(theta=10.09).survival(5.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_weibull_closed_form(self):
        fam = WeibullRate(shape=2.0)
        assert fam.survival(1.5, 0.7) == pytest.approx(math.exp(-0.7 * 1.5**2), rel=1e-12)
        expected_density = 2.0 * 0.7 * 1.5 * math.exp(-0.7 * 1.5**2)
        assert fam.density(1.5, 0.7) == pytest.approx(expected_density, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            Exponential().survival(-1.0, 1.0)
        with pytest.raises(DomainError):
            Exponential().survival(1.0, 0.0)
        with pytest.raises(DomainError):
            Gamma(theta=-1.0)


class TestDerivedFunctions:
    def test_exponential_hazard_constant(self):
        fam = Exponential()
        xs = np.array([0.1, 1.0, 7.3])
        assert np.allclose(fam.hazard(xs, 2.0), 2.0)

    def test_gamma_reversed_hazard_vs_quadrature(self):
        fam = Gamma(theta=10.09)
        x, alpha = 1.0, 3.0
        cdf_quad, _ = integrate.quad(lambda t: fam.density(t, alpha), 0.0, x)
        expected = fam.density(x, alpha) / cdf_quad
        assert fam.reversed_hazard(x, alpha) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize(
        "family,alpha",
        [
            (Exponential(), 1.3),
            (WeibullRate(shape=1.7), 0.8),
            (Gamma(theta=1.5), 2.5),
            (PowerGeneralizedWeibull(c=1.4), 2.0),
            (Scale(gamma_baseline(1.5)), 2.0),
        ],
    )
    def test_density_hazard_survival_identity(self, family, alpha):
        xs = np.linspace(0.1, 4.0, 25)
        dens = family.density(xs, alpha)
        assert np.allclose(dens, family.hazard(xs, alpha) * family.survival(xs, alpha), rtol=1e-9)

    @pytest.mark.parametrize("family", [WeibullRate(shape=1.7), PowerGeneralizedWeibull(c=2.0),
                                        WeibullRate(shape=0.6), PowerGeneralizedWeibull(c=0.7)])
    def test_closed_form_hazard_matches_density_over_survival(self, family):
        xs = np.geomspace(1e-3, 60.0, 400)
        for alpha in (0.3, 0.5, 1.0, 3.0, 6.0):
            s = family.survival(xs, alpha)
            ok = s >= 1e-300
            ref = family.density(xs, alpha)[ok] / s[ok]
            assert np.allclose(family.hazard(xs, alpha)[ok], ref, rtol=1e-12, atol=0.0)
            assert np.all(np.isfinite(family.hazard(xs, alpha)))

    @pytest.mark.parametrize(
        "family,alpha",
        [
            (Exponential(), 1.3),
            (WeibullRate(shape=1.7), 0.8),
            (Gamma(theta=1.5), 2.5),
            (Scale(gamma_baseline(1.5)), 2.0),
        ],
    )
    def test_density_integrates_to_cdf(self, family, alpha):
        x = 2.0
        quad, _ = integrate.quad(lambda t: family.density(t, alpha), 0.0, x)
        assert abs(quad - family.cdf(x, alpha)) <= 1e-6

    @pytest.mark.parametrize(
        "family,alpha",
        [
            (Exponential(), 0.9),
            (WeibullRate(shape=2.2), 1.1),
            (Gamma(theta=10.09), 2.0),
            (PowerGeneralizedWeibull(c=2.0), 1.5),
            (Scale(gamma_baseline(10.09)), 0.4),
        ],
    )
    def test_survival_non_increasing_in_x(self, family, alpha):
        xs = np.linspace(0.0, 8.0, 200)
        s = family.survival(xs, alpha)
        assert np.all(np.diff(s) <= 1e-12)
        assert s[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "family,alpha",
        [
            (Exponential(), 1.3),
            (WeibullRate(shape=1.7), 0.8),
            (Gamma(theta=1.5), 2.5),
            (PowerGeneralizedWeibull(c=1.4), 2.0),
            (Scale(gamma_baseline(1.5)), 2.0),
        ],
    )
    def test_inverse_survival_roundtrip(self, family, alpha):
        us = np.array([0.9, 0.5, 0.1, 0.01])
        xs = family.inverse_survival(us, alpha)
        assert np.allclose(family.survival(xs, alpha), us, rtol=1e-9)


def _exp_baseline():
    return BaselineDistribution(
        cdf=lambda x: -np.expm1(-np.asarray(x, dtype=float)),
        pdf=lambda x: np.exp(-np.asarray(x, dtype=float)),
        ppf=lambda q: -np.log1p(-np.asarray(q, dtype=float)),
        sf=lambda x: np.exp(-np.asarray(x, dtype=float)),
        dpdf=lambda x: -np.exp(-np.asarray(x, dtype=float)),
        name="unit_exponential",
    )


class TestWrappedFamilies:
    def test_phr_log_space_identity_exact(self):
        base = _exp_baseline()
        fam = ProportionalHazard(base)
        xs = np.linspace(0.1, 50.0, 40)
        # log survival is exactly alpha times the baseline log survival: the
        # power is never formed, so deep tails cannot underflow
        assert np.array_equal(fam.log_survival(xs, 3.5), 3.5 * base.log_sf(xs))
        assert np.allclose(fam.log_survival(xs, 3.5), 3.5 * -xs, rtol=1e-12)

    def test_scale_derivative_closed_form(self):
        fam = Scale(gamma_baseline(1.5))
        x, alpha, h = 1.3, 2.0, 1e-5
        fd = (fam.survival(x, alpha + h) - fam.survival(x, alpha - h)) / (2 * h)
        assert fam.dsurvival_dalpha(x, alpha) == pytest.approx(fd, rel=1e-4)
        fd2 = (
            fam.survival(x, alpha + h) - 2 * fam.survival(x, alpha) + fam.survival(x, alpha - h)
        ) / h**2
        assert fam.d2survival_dalpha2(x, alpha) == pytest.approx(fd2, rel=1e-4)

    def test_phr_derivative_closed_form(self):
        fam = ProportionalHazard(_exp_baseline())
        x, alpha, h = 0.8, 2.5, 1e-5
        fd = (fam.survival(x, alpha + h) - fam.survival(x, alpha - h)) / (2 * h)
        assert fam.dsurvival_dalpha(x, alpha) == pytest.approx(fd, rel=1e-4)

    def test_kwg_derivative_matches_closed_form(self):
        fam = KumaraswamyG(_exp_baseline(), gamma=2.0)
        x, alpha, h = 0.9, 1.8, 1e-5
        fd = (fam.survival(x, alpha + h) - fam.survival(x, alpha - h)) / (2 * h)
        assert fam.dsurvival_dalpha(x, alpha) == pytest.approx(fd, rel=1e-4)
        fd2 = (
            fam.survival(x, alpha + h) - 2 * fam.survival(x, alpha) + fam.survival(x, alpha - h)
        ) / h**2
        assert fam.d2survival_dalpha2(x, alpha) == pytest.approx(fd2, rel=1e-4)
        # the first derivative is negative, the second positive
        assert fam.dsurvival_dalpha(x, alpha) < 0
        assert fam.d2survival_dalpha2(x, alpha) > 0

    def test_baseline_without_ppf_cannot_sample(self):
        base = BaselineDistribution(cdf=lambda x: np.minimum(x, 1.0), pdf=lambda x: np.ones_like(x))
        fam = Scale(base)
        with pytest.raises(DomainError):
            fam.inverse_survival(np.array([0.5]), 1.0)


class TestPsiTransforms:
    @pytest.mark.parametrize(
        "psi", [neg_log(), exponential_decay(2.0), power_inverse(1.5)]
    )
    def test_roundtrip(self, psi):
        ps = np.linspace(0.01, 0.99, 50)
        assert np.max(np.abs(psi.inverse(psi(ps)) - ps)) <= 1e-12

    @pytest.mark.parametrize(
        "psi", [neg_log(), exponential_decay(2.0), power_inverse(1.5)]
    )
    def test_strictly_decreasing_and_convex(self, psi):
        ps = np.linspace(0.02, 0.98, 97)
        vals = psi(ps)
        assert np.all(np.diff(vals) < 0)
        d2 = np.diff(vals, 2)
        assert np.all(d2 >= -1e-12)

    def test_rejects_closed_endpoints(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                neg_log()(bad)

    def test_increasing_power_via_custom(self):
        psi = custom_psi(lambda p: p**2.0, lambda v: v**0.5, kind="power_increasing")
        ps = np.linspace(0.1, 0.9, 9)
        assert np.all(np.diff(psi(ps)) > 0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            exponential_decay(0.0)
        with pytest.raises(DomainError):
            power_inverse(-1.0)


class TestRegularityChecker:
    def test_exponential_log_linear(self):
        rep = check_regularity(
            Exponential(), neg_log(), np.linspace(0.5, 3.0, 7), np.linspace(0.2, 5.0, 20)
        )
        assert rep.decreasing_in_alpha.holds
        assert rep.logconvex_in_alpha.holds  # log survival is linear in alpha
        assert rep.convex_in_alpha.holds
        assert rep.psi_decreasing.holds
        assert rep.psi_convex.holds

    def test_rate_gamma_decreasing_but_not_logconvex(self):
        # survival Q(k, alpha x) with shape k > 1 is strictly decreasing in the
        # rate alpha but log-concave in it; the checker reports what holds
        rep = check_regularity(
            Scale(gamma_baseline(10.09)),
            neg_log(),
            np.linspace(1.9, 10.9, 19),
            np.linspace(0.05, 5.0, 60),
        )
        assert rep.decreasing_in_alpha.holds
        assert not rep.logconvex_in_alpha.holds
        assert rep.hazard_convex_in_alpha.holds

    def test_shape_gamma_survival_increasing(self):
        # with alpha as the gamma shape the survival is increasing in alpha,
        # so the decrease hypothesis is honestly reported false
        rep = check_regularity(
            Gamma(theta=10.09), neg_log(), np.linspace(1.9, 10.9, 19), np.geomspace(0.5, 200.0, 50)
        )
        assert not rep.decreasing_in_alpha.holds

    def test_pgw_classification(self):
        # survival exp(1 - (1 + x^c)^{1/k}) is increasing in k (larger k means
        # heavier tail); recorded as a finding of the numerical check
        rep = check_regularity(
            PowerGeneralizedWeibull(c=2.0),
            neg_log(),
            np.linspace(0.5, 3.0, 9),
            np.linspace(0.2, 4.0, 30),
        )
        assert not rep.decreasing_in_alpha.holds

    def test_neg_log_psi_logconvex_only_below_inv_e(self):
        fam = Exponential()
        agrid = np.linspace(0.5, 2.0, 5)
        xgrid = np.linspace(0.5, 2.0, 5)
        low = check_regularity(fam, neg_log(), agrid, xgrid, p_grid=np.linspace(0.02, 0.3, 20))
        high = check_regularity(fam, neg_log(), agrid, xgrid, p_grid=np.linspace(0.5, 0.9, 20))
        assert low.psi_logconvex.holds
        assert not high.psi_logconvex.holds

    def test_analytic_shortcut_agrees_with_numerics(self):
        # the checker is purely numerical: a hand derivation for the
        # exponential family (log survival linear in alpha) must agree
        agrid = np.linspace(0.5, 3.0, 7)
        xgrid = np.linspace(0.2, 5.0, 20)
        rep = check_regularity(Exponential(), neg_log(), agrid, xgrid)
        logS = np.log(Exponential().survival(xgrid[:, None], agrid[None, :]))
        d2 = np.diff(logS, 2, axis=1)
        assert np.allclose(d2, 0.0, atol=1e-12)
        assert rep.logconvex_in_alpha.holds

    def test_grid_validation(self):
        with pytest.raises(GridError):
            check_regularity(Exponential(), neg_log(), [1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(GridError):
            check_regularity(Exponential(), neg_log(), [1.0, 2.0, 1.5], [1.0, 2.0])
        with pytest.raises(GridError):
            check_regularity(Exponential(), neg_log(), [1.0, 2.0, 3.0], [0.0, 1.0])
