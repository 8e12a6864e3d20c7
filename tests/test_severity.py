import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from claimorder import severity
from claimorder.errors import DomainError, EvaluationError, GridError, SingularityError
from claimorder.severity import (
    BaselineDistribution,
    Exponential,
    Gamma,
    HypothesisCheck,
    KumaraswamyG,
    PowerGeneralizedWeibull,
    ProportionalHazard,
    RegularityReport,
    Scale,
    WeibullRate,
    check_regularity,
    custom_psi,
    exponential_decay,
    gamma_baseline,
    neg_log,
    power_inverse,
)
from test_simulate import SHIPPED_FAMILIES


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

    @pytest.mark.parametrize("family, xs", [
        (KumaraswamyG(gamma_baseline(1.5), 0.7), [50.0, 400.0, 1e3, np.inf]),
        (ProportionalHazard(gamma_baseline(1.5)), [1e3, np.inf]),
        (Scale(gamma_baseline(1.5)), [np.inf]),
    ])
    def test_derivatives_are_zero_where_the_survival_is_zero(self, family, xs):
        # the survival is 0 for every alpha there, so both derivatives are 0;
        # the closed forms alone give -inf * 0 = NaN
        for name in ("dsurvival_dalpha", "d2survival_dalpha2"):
            fn = getattr(family, name)
            assert all(fn(x, a) == 0.0 for x in xs for a in (0.3, 1.5, 4.0))
            grid = fn(np.array(xs)[:, None], np.array([0.3, 1.5, 4.0])[None, :])
            assert np.all(np.isfinite(grid)) and np.all(grid == 0.0)

    def test_baseline_without_ppf_cannot_sample(self):
        base = BaselineDistribution(cdf=lambda x: np.minimum(x, 1.0), pdf=lambda x: np.ones_like(x))
        fam = Scale(base)
        with pytest.raises(DomainError):
            fam.inverse_survival(np.array([0.5]), 1.0)


class TestNanBaseline:
    """Range checks are written so that a NaN from a user baseline fails them."""

    @staticmethod
    def _nan(x):
        return np.full(np.shape(x), np.nan)

    def test_nan_cdf_raises(self):
        base = BaselineDistribution(cdf=self._nan, pdf=np.ones_like)
        with pytest.raises(EvaluationError):
            base.checked_cdf(np.array([0.5, 1.0]))
        with pytest.raises(EvaluationError):
            base.log_sf(np.array([0.5]))
        for fam in (Scale(base), ProportionalHazard(base), KumaraswamyG(base, 0.7)):
            with pytest.raises(EvaluationError):
                fam.cdf(np.array([0.5, 1.0]), 2.0)
            with pytest.raises(EvaluationError):
                fam.log_survival(1.0, 2.0)

    def test_nan_sf_raises(self):
        base = BaselineDistribution(cdf=lambda x: np.zeros(np.shape(x)), pdf=np.ones_like, sf=self._nan)
        with pytest.raises(EvaluationError):
            base.log_sf(np.array([0.5, 1.0]))
        with pytest.raises(EvaluationError):
            ProportionalHazard(base).survival(1.0, 2.0)

    def test_nan_incomplete_gamma_raises(self, monkeypatch):
        monkeypatch.setattr(scipy.special, "gammaincc",
                            lambda a, z: np.full(np.broadcast(a, z).shape, np.nan))
        with pytest.raises(EvaluationError):
            Gamma(theta=1.5).log_survival(np.array([0.5, 1.0]), 2.0)


class _ReferenceKumaraswamyG:
    """Kw-G written out from its own formulas, without the PHR hooks, as a
    plain reference (inputs are assumed valid)."""

    def __init__(self, baseline, gamma):
        self.baseline = baseline
        self.gamma = gamma

    @staticmethod
    def _out(v):
        a = np.asarray(v)
        return float(a) if a.ndim == 0 else a

    def _log_survival(self, x, alpha):
        g = self.baseline.checked_cdf(x)
        with np.errstate(divide="ignore"):
            return alpha * np.log1p(-np.power(g, self.gamma))

    def raw_density(self, x, alpha):
        """The density before NaN is read as 0."""
        g = self.baseline.checked_cdf(x)
        gg = np.power(g, self.gamma)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = alpha * np.exp((alpha - 1.0) * np.log1p(-gg))
            dgg = self.gamma * np.power(g, self.gamma - 1.0) * np.asarray(self.baseline.pdf(x), dtype=float)
            return inner * dgg

    def _density(self, x, alpha):
        out = self.raw_density(x, alpha)
        return np.where(np.isnan(out), 0.0, out)

    def log_survival(self, x, alpha):
        return self._out(self._log_survival(x, alpha))

    def survival(self, x, alpha):
        return self._out(np.exp(self._log_survival(x, alpha)))

    def cdf(self, x, alpha):
        return self._out(-np.expm1(self._log_survival(x, alpha)))

    def density(self, x, alpha):
        return self._out(self._density(x, alpha))

    def hazard(self, x, alpha):
        s = np.exp(self._log_survival(x, alpha))
        if np.any(s == 0.0):
            raise SingularityError("survival underflowed to 0; hazard undefined")
        return self._out(self._density(x, alpha) / s)

    def reversed_hazard(self, x, alpha):
        c = -np.expm1(self._log_survival(x, alpha))
        if np.any(c == 0.0):
            raise SingularityError("CDF is 0; reversed hazard undefined")
        return self._out(self._density(x, alpha) / c)

    def dsurvival_dalpha(self, x, alpha):
        g = self.baseline.checked_cdf(x)
        with np.errstate(divide="ignore"):
            lg = np.log1p(-np.power(g, self.gamma))
        # where the survival is 0 for every alpha, so are its derivatives
        with np.errstate(invalid="ignore"):
            return self._out(np.where(lg == -np.inf, 0.0, lg * np.exp(alpha * lg)))

    def d2survival_dalpha2(self, x, alpha):
        g = self.baseline.checked_cdf(x)
        with np.errstate(divide="ignore"):
            lg = np.log1p(-np.power(g, self.gamma))
        with np.errstate(invalid="ignore"):
            return self._out(np.where(lg == -np.inf, 0.0, lg * lg * np.exp(alpha * lg)))

    def inverse_survival(self, u, alpha):
        u = np.asarray(u, dtype=float)
        g = np.power(-np.expm1(np.log(u) / alpha), 1.0 / self.gamma)
        return self._out(self.baseline.checked_ppf(g))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularityError as exc:
        return exc


def _assert_same(got, ref):
    assert type(got) is type(ref)
    if isinstance(ref, Exception):
        assert str(got) == str(ref)
    else:
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.shape(got) == np.shape(ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestKumaraswamyGReference:
    """Kw-G as the PHR family over G**gamma gives the reference's results exactly."""

    FUNCTIONS = ("log_survival", "survival", "cdf", "density", "hazard", "reversed_hazard",
                 "dsurvival_dalpha", "d2survival_dalpha2")
    # x = 0, tiny x, the body, and the tail where G rounds to 1 for every shape
    XS = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-6, 400.0, 80), [1e3, np.inf]])
    US = np.array([1.0, 0.9, 0.5, 0.1, 1e-3, 1e-12, 1e-300])

    @pytest.mark.parametrize("shape", [0.5, 1.5, 10.09])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.7, 3.0])
    def test_equals_reference(self, shape, gamma):
        base = gamma_baseline(shape)
        fam, ref = KumaraswamyG(base, gamma), _ReferenceKumaraswamyG(base, gamma)
        assert base.cdf(self.XS[-3]) == 1.0
        for alpha in (0.3, 1.0, 2.2):
            for name in self.FUNCTIONS:
                got, want = getattr(fam, name), getattr(ref, name)
                _assert_same(_outcome(got, self.XS, alpha), _outcome(want, self.XS, alpha))
                for x in self.XS:
                    _assert_same(_outcome(got, x, alpha), _outcome(want, x, alpha))
            _assert_same(fam.inverse_survival(self.US, alpha), ref.inverse_survival(self.US, alpha))
            for u in self.US:
                _assert_same(fam.inverse_survival(u, alpha), ref.inverse_survival(u, alpha))
        alphas = np.array([0.3, 1.0, 2.2])
        for name in self.FUNCTIONS:
            _assert_same(_outcome(getattr(fam, name), self.XS[:, None], alphas[None, :]),
                         _outcome(getattr(ref, name), self.XS[:, None], alphas[None, :]))

    def test_cover_reaches_the_density_mask(self):
        # the grids above hold points where the raw density is NaN and the
        # mask makes it 0; without them the reference test could not tell
        ref = _ReferenceKumaraswamyG(gamma_baseline(1.5), 1.0)
        raw = ref.raw_density(self.XS, 1.0)
        assert np.any(np.isnan(raw))
        fam = KumaraswamyG(gamma_baseline(1.5), 1.0)
        assert np.all(fam.density(self.XS, 1.0)[np.isnan(raw)] == 0.0)


class TestFamilyContract:
    """Every shipped family checks its arguments and unwraps scalars the same way."""

    FUNCTIONS = ("log_survival", "survival", "cdf", "density", "hazard", "reversed_hazard")

    @pytest.mark.parametrize("name", sorted(SHIPPED_FAMILIES))
    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_contract(self, name, function):
        fn = getattr(SHIPPED_FAMILIES[name], function)
        for x in (-1.0, np.nan, np.array([1.0, np.nan])):
            with pytest.raises(DomainError):
                fn(x, 1.5)
        for alpha in (0.0, -1.0, np.nan, np.inf, np.array([1.5, np.inf])):
            with pytest.raises(DomainError):
                fn(1.0, alpha)
        assert type(fn(0.7, 1.5)) is float
        xs, alphas = np.array([0.3, 1.0, 2.5]), np.array([0.8, 1.5])
        out = fn(xs[:, None], alphas[None, :])
        assert isinstance(out, np.ndarray) and out.shape == (3, 2)


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


_CONSTRUCTORS = {
    "WeibullRate": WeibullRate,
    "Gamma": Gamma,
    "PowerGeneralizedWeibull": PowerGeneralizedWeibull,
    "gamma_baseline": gamma_baseline,
    "KumaraswamyG": lambda v: KumaraswamyG(gamma_baseline(1.5), v),
    "exponential_decay": exponential_decay,
    "power_inverse": power_inverse,
}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_constructor_parameter_must_be_positive_and_finite(name, value):
    # WeibullRate(nan) used to pass, and its survival at x = 1 was exp(-alpha)
    with pytest.raises(DomainError, match="must be positive and finite"):
        _CONSTRUCTORS[name](value)


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

    def test_non_finite_log_cdf_raises_the_typed_error_and_no_warning(self):
        # the CDF of the shape-8 PHR family rounds to 0 near x = 0, so its log
        # is -inf; the error used to follow numpy's "invalid value" warning
        family = ProportionalHazard(gamma_baseline(8.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as err:
                check_regularity(family, neg_log(), np.linspace(1.35, 3.85, 13),
                                 np.geomspace(0.0032, 30.0, 25), p_grid=np.linspace(0.15, 0.3, 21))
        assert str(err.value) == "non-finite value encountered in a regularity check"


# the per-check check_regularity that the stacked pass replaced, kept as the
# reference: each hypothesis takes its own differences and its own finite check


def _reference_second_divided_differences(t, f, axis=-1):
    f = np.moveaxis(np.asarray(f, dtype=float), axis, -1)
    d1 = np.diff(f, axis=-1) / np.diff(t)
    return np.diff(d1, axis=-1) / (t[2:] - t[:-2])


def _reference_to_check(slack):
    if not np.all(np.isfinite(slack)):
        raise EvaluationError("non-finite value encountered in a regularity check")
    if slack.size == 0:
        return HypothesisCheck(True, np.inf)
    worst = float(slack.min())
    return HypothesisCheck(worst >= -severity.REGULARITY_TOL, worst)


def _reference_monotone_check(values, axis, decreasing=True):
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    slack = -np.diff(v, axis=-1) if decreasing else np.diff(v, axis=-1)
    return _reference_to_check(slack)


def _reference_convex_check(t, values, axis):
    return _reference_to_check(_reference_second_divided_differences(t, values, axis=axis))


def _reference_check_regularity(family, psi, alpha_grid, x_grid, p_grid=None):
    agrid = severity._check_grid(alpha_grid, "alpha_grid", minimum=3)
    xgrid = severity._check_grid(x_grid, "x_grid", minimum=1)
    if np.any(xgrid <= 0):
        raise GridError("x_grid must be strictly positive")
    if p_grid is None:
        p_grid = np.linspace(0.02, 0.98, 49)
    pgrid = severity._check_grid(p_grid, "p_grid", minimum=3)
    if pgrid[0] <= 0 or pgrid[-1] >= 1:
        raise GridError("p_grid must lie inside (0, 1)")
    X = xgrid[:, None]
    A = agrid[None, :]
    logS = np.asarray(family.log_survival(X, A), dtype=float)
    S = np.exp(logS)
    F = np.asarray(family.cdf(X, A), dtype=float)
    dens = np.asarray(family.density(X, A), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        haz = dens / S
        logF = np.log(F)
    if not np.all(np.isfinite(logS)):
        raise EvaluationError("log-survival is non-finite on the grid")
    psi_vals = np.asarray(psi(pgrid), dtype=float)
    return RegularityReport(
        decreasing_in_alpha=_reference_monotone_check(S, axis=1, decreasing=True),
        convex_in_alpha=_reference_convex_check(agrid, S, axis=1),
        logconvex_in_alpha=_reference_convex_check(agrid, logS, axis=1),
        logconvex_in_alpha_of_F=_reference_convex_check(agrid, logF, axis=1),
        hazard_decreasing_in_alpha=_reference_monotone_check(haz, axis=1, decreasing=True),
        hazard_convex_in_alpha=_reference_convex_check(agrid, haz, axis=1),
        psi_decreasing=_reference_monotone_check(psi_vals, axis=0, decreasing=True),
        psi_increasing=_reference_monotone_check(psi_vals, axis=0, decreasing=False),
        psi_convex=_reference_convex_check(pgrid, psi_vals, axis=0),
        psi_logconvex=_reference_convex_check(pgrid, np.log(psi_vals), axis=0),
    )


def _regularity_outcome(check, *args, **kwargs):
    """Each check's truth value and the bits of its margin, or the error raised."""
    try:
        report = check(*args, **kwargs)
    except Exception as exc:  # compared with the reference's outcome below
        return type(exc), str(exc)
    out = []
    for f in dataclasses.fields(report):
        c = getattr(report, f.name)
        out.append((f.name, type(c.holds), c.holds, struct.pack("<d", c.worst_margin)))
    return out


_PSI_KINDS = {
    "neg_log": lambda v: neg_log(),
    "exponential_decay": exponential_decay,
    "power_inverse": power_inverse,
    # increasing, and not positive where p <= c, so that its log is not finite
    "custom": lambda v: custom_psi(lambda p, c=v / (1.0 + v): p - c,
                                   lambda y, c=v / (1.0 + v): y + c, kind="shifted"),
}


def _increasing(elements, min_size, max_size=9):
    return st.lists(elements, min_size=min_size, max_size=max_size, unique=True).map(sorted)


class TestStackedRegularityPass:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(SHIPPED_FAMILIES)),
        st.sampled_from(sorted(_PSI_KINDS)),
        st.floats(1e-20, 5.0),
        _increasing(st.floats(0.05, 40.0), 3),
        _increasing(st.floats(-14.0, 2.5), 1).map(lambda e: sorted({10.0 ** v for v in e})),
        _increasing(st.floats(1e-6, 1.0 - 1e-6, exclude_max=True), 3),
    )
    # S rounds to 1 at every alpha and psi to 1 at every p, so margins are zeros
    @example("exponential", "exponential_decay", 1e-20, [0.5, 1.0, 2.0], [1e-300, 1e-20, 1.0],
             [0.1, 0.5, 0.9])
    @example("weibull_rate", "custom", 0.5, [0.5, 1.0, 2.0], [1e-12, 0.5, 60.0], [0.2, 0.4, 0.6])
    @example("proportional_hazard", "neg_log", 1.0, [1.35, 2.0, 3.85], [0.0032, 1.0, 30.0],
             [0.15, 0.2, 0.3])
    def test_equals_the_per_check_reference(self, family, psi, v, agrid, xgrid, pgrid):
        args = (SHIPPED_FAMILIES[family], _PSI_KINDS[psi](v), agrid, xgrid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                want = _regularity_outcome(_reference_check_regularity, *args, p_grid=pgrid)
                got = _regularity_outcome(check_regularity, *args, p_grid=pgrid)
        assert got == want
