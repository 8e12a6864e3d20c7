"""Severity families, probability transforms, and parameter-regularity checks.

A severity family is a parameterized lifetime law exposing survival, density,
hazard and reversed-hazard functions at ``(x, alpha)``.  All survival values
are computed in log-space internally so that products of many small survivals
do not underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import DomainError, EvaluationError, GridError, SingularityError

__all__ = [
    "SeverityFamily",
    "Exponential",
    "WeibullRate",
    "Gamma",
    "PowerGeneralizedWeibull",
    "BaselineDistribution",
    "gamma_baseline",
    "Scale",
    "ProportionalHazard",
    "KumaraswamyG",
    "PsiTransform",
    "neg_log",
    "exponential_decay",
    "power_inverse",
    "custom_psi",
    "HypothesisCheck",
    "RegularityReport",
    "check_regularity",
]


def _as_float(x):
    """Return a plain float for 0-d results, the array otherwise."""
    a = np.asarray(x)
    return float(a) if a.ndim == 0 else a


def _validate_args(x, alpha):
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(x < 0):
        raise DomainError("x must be nonnegative")
    if np.any(alpha <= 0):
        raise DomainError("alpha must be positive")
    return x, alpha


class SeverityFamily:
    """Base class: a survival function F-bar(x; alpha) and its derived functions."""

    name = "base"

    def log_survival(self, x, alpha):
        raise NotImplementedError

    def density(self, x, alpha):
        raise NotImplementedError

    def inverse_survival(self, u, alpha):
        """x such that F-bar(x; alpha) = u, for u in (0, 1]."""
        raise NotImplementedError(f"{self.name} has no closed-form quantile")

    def survival(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(np.exp(self.log_survival(x, alpha)))

    def cdf(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(-np.expm1(self.log_survival(x, alpha)))

    def hazard(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        s = np.exp(self.log_survival(x, alpha))
        if np.any(s == 0.0):
            raise SingularityError("survival underflowed to 0; hazard undefined")
        return _as_float(self.density(x, alpha) / s)

    def reversed_hazard(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        c = -np.expm1(self.log_survival(x, alpha))
        if np.any(c == 0.0):
            raise SingularityError("CDF is 0; reversed hazard undefined")
        return _as_float(self.density(x, alpha) / c)


class Exponential(SeverityFamily):
    """F-bar(x; alpha) = exp(-alpha x); alpha is the rate."""

    name = "exponential"

    def log_survival(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(-alpha * x)

    def density(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(alpha * np.exp(-alpha * x))

    def hazard(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(np.broadcast_to(alpha, np.broadcast(x, alpha).shape).copy())

    def inverse_survival(self, u, alpha):
        return _as_float(-np.log(u) / alpha)


@dataclass(frozen=True)
class WeibullRate(SeverityFamily):
    """F-bar(x; alpha) = exp(-alpha x**shape); alpha is the rate, shape is fixed."""

    shape: float
    name: str = field(default="weibull_rate", init=False)

    def __post_init__(self):
        if self.shape <= 0:
            raise DomainError("Weibull shape must be positive")

    def log_survival(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(-alpha * np.power(x, self.shape))

    def density(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        xa = np.power(x, self.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            dxa = self.shape * np.power(x, self.shape - 1.0)
        return _as_float(alpha * dxa * np.exp(-alpha * xa))

    def hazard(self, x, alpha):
        """alpha * shape * x**(shape - 1), finite where the survival underflows."""
        x, alpha = _validate_args(x, alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _as_float(alpha * self.shape * np.power(x, self.shape - 1.0))

    def inverse_survival(self, u, alpha):
        return _as_float(np.power(-np.log(u) / alpha, 1.0 / self.shape))


@dataclass(frozen=True)
class Gamma(SeverityFamily):
    """Gamma law with fixed scale theta and shape parameter alpha.

    Survival is the regularized upper incomplete gamma Q(alpha, x / theta),
    which scipy evaluates by series/continued-fraction switching.
    """

    theta: float
    name: str = field(default="gamma", init=False)

    def __post_init__(self):
        if self.theta <= 0:
            raise DomainError("Gamma scale theta must be positive")

    def log_survival(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        q = special.gammaincc(alpha, x / self.theta)
        if np.any(q > 1.0) or np.any(q < 0.0):
            raise EvaluationError("incomplete gamma left [0, 1]")
        with np.errstate(divide="ignore"):
            return _as_float(np.log(q))

    def density(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (
                (alpha - 1.0) * np.log(x)
                - x / self.theta
                - special.gammaln(alpha)
                - alpha * np.log(self.theta)
            )
        out = np.exp(logpdf)
        # x == 0: the density is 0 for alpha > 1, 1/theta for alpha == 1
        out = np.where(
            np.broadcast_to(x, out.shape) == 0.0,
            np.where(np.broadcast_to(alpha, out.shape) > 1.0, 0.0,
                     np.where(np.broadcast_to(alpha, out.shape) == 1.0, 1.0 / self.theta, np.inf)),
            out,
        )
        return _as_float(out)

    def cdf(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(special.gammainc(alpha, x / self.theta))

    def inverse_survival(self, u, alpha):
        return _as_float(special.gammainccinv(alpha, u) * self.theta)


@dataclass(frozen=True)
class PowerGeneralizedWeibull(SeverityFamily):
    """F-bar(x; k) = exp(1 - (1 + x**c)**(1/k)); c fixed, k is the parameter."""

    c: float
    name: str = field(default="power_generalized_weibull", init=False)

    def __post_init__(self):
        if self.c <= 0:
            raise DomainError("PGW exponent c must be positive")

    def log_survival(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(1.0 - np.power(1.0 + np.power(x, self.c), 1.0 / alpha))

    def density(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        base = 1.0 + np.power(x, self.c)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = (1.0 / alpha) * np.power(base, 1.0 / alpha - 1.0) * self.c * np.power(x, self.c - 1.0)
        return _as_float(np.exp(1.0 - np.power(base, 1.0 / alpha)) * inner)

    def hazard(self, x, alpha):
        """(c / alpha) * x**(c - 1) * (1 + x**c)**(1/alpha - 1), finite where the
        survival underflows."""
        x, alpha = _validate_args(x, alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _as_float((self.c / alpha) * np.power(x, self.c - 1.0)
                             * np.power(1.0 + np.power(x, self.c), 1.0 / alpha - 1.0))

    def inverse_survival(self, u, alpha):
        return _as_float(np.power(np.power(1.0 - np.log(u), alpha) - 1.0, 1.0 / self.c))


@dataclass(frozen=True)
class BaselineDistribution:
    """A baseline law G on [0, inf) given by its CDF and density.

    ``ppf`` (inverse CDF) is optional; it is required only for sampling
    the wrapped families.  ``sf`` (survival) is optional; when present it is
    used for tail-accurate log-survival values.
    """

    cdf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]
    ppf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dpdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "baseline"

    def checked_cdf(self, x):
        g = np.asarray(self.cdf(x), dtype=float)
        if np.any(g < 0.0) or np.any(g > 1.0):
            raise EvaluationError(f"baseline CDF '{self.name}' left [0, 1]")
        return g

    def checked_ppf(self, q):
        if self.ppf is None:
            raise DomainError(f"baseline '{self.name}' has no inverse CDF; cannot sample")
        return np.asarray(self.ppf(q), dtype=float)

    def log_sf(self, x):
        """log(1 - G(x)), via ``sf`` when supplied."""
        if self.sf is not None:
            s = np.asarray(self.sf(x), dtype=float)
            if np.any(s < 0.0) or np.any(s > 1.0):
                raise EvaluationError(f"baseline survival '{self.name}' left [0, 1]")
            with np.errstate(divide="ignore"):
                return np.log(s)
        with np.errstate(divide="ignore"):
            return np.log1p(-self.checked_cdf(x))


def gamma_baseline(shape: float) -> BaselineDistribution:
    """Unit-scale gamma baseline with fixed ``shape``; wrap in :class:`Scale`
    to obtain the rate-parameterized gamma family F-bar(x; alpha) = Q(shape, alpha x)."""
    if shape <= 0:
        raise DomainError("gamma shape must be positive")
    def pdf(x):
        return np.exp(
            (shape - 1.0) * np.log(np.maximum(x, np.finfo(float).tiny))
            - np.asarray(x, dtype=float)
            - special.gammaln(shape)
        )

    return BaselineDistribution(
        cdf=lambda x: special.gammainc(shape, x),
        pdf=pdf,
        ppf=lambda q: special.gammaincinv(shape, q),
        sf=lambda x: special.gammaincc(shape, x),
        dpdf=lambda x: pdf(x) * ((shape - 1.0) / np.maximum(x, np.finfo(float).tiny) - 1.0),
        name=f"gamma_baseline(shape={shape:g})",
    )


@dataclass(frozen=True)
class Scale(SeverityFamily):
    """Scale family: F-bar(x; alpha) = 1 - G(alpha x)."""

    baseline: BaselineDistribution
    name: str = field(default="scale", init=False)

    def log_survival(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(self.baseline.log_sf(alpha * x))

    def cdf(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(self.baseline.checked_cdf(alpha * x))

    def density(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(alpha * np.asarray(self.baseline.pdf(alpha * x), dtype=float))

    def dsurvival_dalpha(self, x, alpha):
        """d F-bar / d alpha = -x g(alpha x), with g the baseline density."""
        x, alpha = _validate_args(x, alpha)
        return _as_float(-x * np.asarray(self.baseline.pdf(alpha * x), dtype=float))

    def d2survival_dalpha2(self, x, alpha):
        """d^2 F-bar / d alpha^2 = -x^2 g'(alpha x)."""
        if self.baseline.dpdf is None:
            raise DomainError(f"baseline '{self.baseline.name}' has no density derivative")
        x, alpha = _validate_args(x, alpha)
        return _as_float(-x * x * np.asarray(self.baseline.dpdf(alpha * x), dtype=float))

    def inverse_survival(self, u, alpha):
        return _as_float(self.baseline.checked_ppf(1.0 - np.asarray(u)) / alpha)


@dataclass(frozen=True)
class ProportionalHazard(SeverityFamily):
    """PHR family: F-bar(x; alpha) = (1 - G(x))**alpha, exact in log-space."""

    baseline: BaselineDistribution
    name: str = field(default="proportional_hazard", init=False)

    def _log_base_survival(self, x):
        return self.baseline.log_sf(x)

    def log_survival(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        return _as_float(alpha * self._log_base_survival(x))

    def density(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        ls = self._log_base_survival(x)
        g = np.asarray(self.baseline.pdf(x), dtype=float)
        return _as_float(alpha * np.exp((alpha - 1.0) * ls) * g)

    def dsurvival_dalpha(self, x, alpha):
        """d F-bar / d alpha = log(base survival) * base survival**alpha."""
        x, alpha = _validate_args(x, alpha)
        ls = self._log_base_survival(x)
        return _as_float(ls * np.exp(alpha * ls))

    def d2survival_dalpha2(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        ls = self._log_base_survival(x)
        return _as_float(ls * ls * np.exp(alpha * ls))

    def inverse_survival(self, u, alpha):
        u = np.asarray(u, dtype=float)
        # F-bar_base(x) = u**(1/alpha)
        return _as_float(self.baseline.checked_ppf(-np.expm1(np.log(u) / alpha)))


@dataclass(frozen=True)
class KumaraswamyG(SeverityFamily):
    """Kw-G family: F-bar(x; alpha) = (1 - G(x)**gamma)**alpha."""

    baseline: BaselineDistribution
    gamma: float
    name: str = field(default="kumaraswamy_g", init=False)

    def __post_init__(self):
        if self.gamma <= 0:
            raise DomainError("Kw-G exponent gamma must be positive")

    def log_survival(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        g = self.baseline.checked_cdf(x)
        with np.errstate(divide="ignore"):
            return _as_float(alpha * np.log1p(-np.power(g, self.gamma)))

    def density(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        g = self.baseline.checked_cdf(x)
        gg = np.power(g, self.gamma)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = alpha * np.exp((alpha - 1.0) * np.log1p(-gg))
            dgg = self.gamma * np.power(g, self.gamma - 1.0) * np.asarray(self.baseline.pdf(x), dtype=float)
        out = inner * dgg
        return _as_float(np.where(np.isnan(out), 0.0, out))

    def dsurvival_dalpha(self, x, alpha):
        """d F-bar / d alpha = log(1 - G**gamma) * (1 - G**gamma)**alpha."""
        x, alpha = _validate_args(x, alpha)
        g = self.baseline.checked_cdf(x)
        with np.errstate(divide="ignore"):
            lg = np.log1p(-np.power(g, self.gamma))
        return _as_float(lg * np.exp(alpha * lg))

    def d2survival_dalpha2(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        g = self.baseline.checked_cdf(x)
        with np.errstate(divide="ignore"):
            lg = np.log1p(-np.power(g, self.gamma))
        return _as_float(lg * lg * np.exp(alpha * lg))

    def inverse_survival(self, u, alpha):
        u = np.asarray(u, dtype=float)
        g = np.power(-np.expm1(np.log(u) / alpha), 1.0 / self.gamma)
        return _as_float(self.baseline.checked_ppf(g))


# ---------------------------------------------------------------------------
# psi transforms


@dataclass(frozen=True)
class PsiTransform:
    """A differentiable map from occurrence probability p in (0,1) to (0, inf)."""

    kind: str
    _fn: Callable[[np.ndarray], np.ndarray]
    _inv: Callable[[np.ndarray], np.ndarray]

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainError("psi is defined on the open interval (0, 1)")
        return _as_float(self._fn(p))

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        return _as_float(self._inv(v))


def neg_log() -> PsiTransform:
    """psi(p) = -ln p."""
    return PsiTransform("neg_log", lambda p: -np.log(p), lambda v: np.exp(-v))


def exponential_decay(a: float) -> PsiTransform:
    """psi(p) = exp(-a p), a > 0."""
    if a <= 0:
        raise DomainError("exponential decay rate a must be positive")
    return PsiTransform(
        f"exponential_decay(a={a})",
        lambda p: np.exp(-a * p),
        lambda v: -np.log(v) / a,
    )


def power_inverse(b: float) -> PsiTransform:
    """psi(p) = p**(-b), b > 0.

    The increasing variant p**b can be supplied through :func:`custom_psi`;
    only the decreasing form maps into the hypotheses of the ordering results.
    """
    if b <= 0:
        raise DomainError("power exponent b must be positive")
    return PsiTransform(
        f"power_inverse(b={b})",
        lambda p: np.power(p, -b),
        lambda v: np.power(v, -1.0 / b),
    )


def custom_psi(fn, inverse_fn, kind: str = "custom") -> PsiTransform:
    return PsiTransform(kind, fn, inverse_fn)


# ---------------------------------------------------------------------------
# regularity checks


@dataclass(frozen=True)
class HypothesisCheck:
    """Outcome of one grid-verified inequality."""

    holds: bool
    worst_margin: float
    at: Optional[tuple] = None


@dataclass(frozen=True)
class RegularityReport:
    """Per-hypothesis evidence for the parameter-regularity conditions."""

    decreasing_in_alpha: HypothesisCheck
    convex_in_alpha: HypothesisCheck
    logconvex_in_alpha: HypothesisCheck
    logconvex_in_alpha_of_F: HypothesisCheck
    hazard_decreasing_in_alpha: HypothesisCheck
    hazard_convex_in_alpha: HypothesisCheck
    psi_decreasing: HypothesisCheck
    psi_increasing: HypothesisCheck
    psi_convex: HypothesisCheck
    psi_logconvex: HypothesisCheck
    alpha_grid: np.ndarray
    x_grid: np.ndarray
    p_grid: np.ndarray


def _check_grid(grid, name, minimum=1):
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < minimum:
        raise GridError(f"{name} must be 1-d with at least {minimum} points")
    if g.size > 1 and np.any(np.diff(g) <= 0):
        raise GridError(f"{name} must be strictly increasing")
    return g


def _second_divided_differences(t, f, axis=-1):
    """f[t_i, t_{i+1}, t_{i+2}] along ``axis``; nonnegative iff convex."""
    f = np.moveaxis(np.asarray(f, dtype=float), axis, -1)
    d1 = np.diff(f, axis=-1) / np.diff(t)
    return np.diff(d1, axis=-1) / (t[2:] - t[:-2])


def _monotone_check(values, axis, decreasing=True, tol=1e-9):
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    slack = -np.diff(v, axis=-1) if decreasing else np.diff(v, axis=-1)
    return _to_check(slack, tol)


def _convex_check(t, values, axis, tol=1e-9):
    slack = _second_divided_differences(t, values, axis=axis)
    return _to_check(slack, tol)


def _to_check(slack, tol):
    if not np.all(np.isfinite(slack)):
        raise EvaluationError("non-finite value encountered in a regularity check")
    if slack.size == 0:
        return HypothesisCheck(True, np.inf, None)
    idx = np.unravel_index(np.argmin(slack), slack.shape)
    worst = float(slack[idx])
    return HypothesisCheck(worst >= -tol, worst, tuple(int(i) for i in idx))


def check_regularity(
    family: SeverityFamily,
    psi: PsiTransform,
    alpha_grid,
    x_grid,
    tol: float = 1e-9,
    p_grid=None,
) -> RegularityReport:
    """Verify the parameter-regularity hypotheses on a grid.

    Monotonicity is checked via consecutive differences, convexity and
    log-convexity via second divided differences.  A hypothesis holds only
    if its defining inequality has margin >= -tol at every grid point.
    """
    agrid = _check_grid(alpha_grid, "alpha_grid", minimum=3)
    xgrid = _check_grid(x_grid, "x_grid", minimum=1)
    if np.any(xgrid <= 0):
        raise GridError("x_grid must be strictly positive")
    if p_grid is None:
        p_grid = np.linspace(0.02, 0.98, 49)
    pgrid = _check_grid(p_grid, "p_grid", minimum=3)
    if pgrid[0] <= 0 or pgrid[-1] >= 1:
        raise GridError("p_grid must lie inside (0, 1)")

    # survival matrix S[x, alpha] and friends, in one sweep
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
        decreasing_in_alpha=_monotone_check(S, axis=1, decreasing=True, tol=tol),
        convex_in_alpha=_convex_check(agrid, S, axis=1, tol=tol),
        logconvex_in_alpha=_convex_check(agrid, logS, axis=1, tol=tol),
        logconvex_in_alpha_of_F=_convex_check(agrid, logF, axis=1, tol=tol),
        hazard_decreasing_in_alpha=_monotone_check(haz, axis=1, decreasing=True, tol=tol),
        hazard_convex_in_alpha=_convex_check(agrid, haz, axis=1, tol=tol),
        psi_decreasing=_monotone_check(psi_vals, axis=0, decreasing=True, tol=tol),
        psi_increasing=_monotone_check(psi_vals, axis=0, decreasing=False, tol=tol),
        psi_convex=_convex_check(pgrid, psi_vals, axis=0, tol=tol),
        psi_logconvex=_convex_check(pgrid, np.log(psi_vals), axis=0, tol=tol),
        alpha_grid=agrid,
        x_grid=xgrid,
        p_grid=pgrid,
    )
