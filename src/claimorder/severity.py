"""Severity families, probability transforms, and parameter-regularity checks.

A severity family is a parameterized lifetime law exposing survival, density,
hazard and reversed-hazard functions at ``(x, alpha)``.  All survival values
are computed in log-space internally so that products of many small survivals
do not underflow.

``scipy.special`` is imported where a gamma function is called, not with this
module: building a family, gamma baselines included, loads none of it, so
exponential, Weibull and PGW work never pays its import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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
    # written so that NaN, for which every comparison is false, fails
    if not np.all(x >= 0.0):
        raise DomainError("x must be nonnegative")
    if not np.all((alpha > 0.0) & np.isfinite(alpha)):
        raise DomainError("alpha must be positive and finite")
    return x, alpha


def _check_parameter(name: str, value) -> None:
    # written so that NaN, for which every comparison is false, fails
    if not (value > 0 and np.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


class SeverityFamily:
    """Base class: a survival function F-bar(x; alpha) and its derived functions.

    The public functions check ``(x, alpha)`` and return a float for a 0-d
    result.  A family supplies the math on checked arrays: ``_log_sf`` and
    ``_pdf``, and ``_cdf`` or ``_hazard`` where it has a more accurate
    closed form than the defaults below.  ``_hazard`` takes ``log_sf``, the
    ``_log_sf(x, alpha)`` a caller already holds, so that the default need
    not evaluate it again; a closed form ignores it.
    """

    name = "base"

    def _log_sf(self, x, alpha):
        raise NotImplementedError

    def _pdf(self, x, alpha):
        raise NotImplementedError

    def _cdf(self, x, alpha):
        return -np.expm1(self._log_sf(x, alpha))

    def _hazard(self, x, alpha, log_sf=None):
        if log_sf is None:
            log_sf = self._log_sf(x, alpha)
        s = np.exp(log_sf)
        if np.any(s == 0.0):
            raise SingularityError("survival underflowed to 0; hazard undefined")
        return self._pdf(x, alpha) / s

    def inverse_survival(self, u, alpha):
        """x such that F-bar(x; alpha) = u, for u in (0, 1]."""
        raise NotImplementedError(f"{self.name} has no closed-form quantile")

    def log_survival(self, x, alpha):
        return _as_float(self._log_sf(*_validate_args(x, alpha)))

    def survival(self, x, alpha):
        return _as_float(np.exp(self._log_sf(*_validate_args(x, alpha))))

    def cdf(self, x, alpha):
        return _as_float(self._cdf(*_validate_args(x, alpha)))

    def density(self, x, alpha):
        return _as_float(self._pdf(*_validate_args(x, alpha)))

    def hazard(self, x, alpha):
        return _as_float(self._hazard(*_validate_args(x, alpha)))

    def reversed_hazard(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        c = -np.expm1(self._log_sf(x, alpha))
        if np.any(c == 0.0):
            raise SingularityError("CDF is 0; reversed hazard undefined")
        return _as_float(self._pdf(x, alpha) / c)


class Exponential(SeverityFamily):
    """F-bar(x; alpha) = exp(-alpha x); alpha is the rate."""

    name = "exponential"

    def _log_sf(self, x, alpha):
        return -alpha * x

    def _pdf(self, x, alpha):
        return alpha * np.exp(-alpha * x)

    def _hazard(self, x, alpha, log_sf=None):
        return np.broadcast_to(alpha, np.broadcast(x, alpha).shape).copy()

    def inverse_survival(self, u, alpha):
        return _as_float(-np.log(u) / alpha)


@dataclass(frozen=True)
class WeibullRate(SeverityFamily):
    """F-bar(x; alpha) = exp(-alpha x**shape); alpha is the rate, shape is fixed."""

    shape: float
    name: str = field(default="weibull_rate", init=False)

    def __post_init__(self):
        _check_parameter("Weibull shape", self.shape)

    def _log_sf(self, x, alpha):
        return -alpha * np.power(x, self.shape)

    def _pdf(self, x, alpha):
        xa = np.power(x, self.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            dxa = self.shape * np.power(x, self.shape - 1.0)
        return alpha * dxa * np.exp(-alpha * xa)

    def _hazard(self, x, alpha, log_sf=None):
        """alpha * shape * x**(shape - 1), finite where the survival underflows."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return alpha * self.shape * np.power(x, self.shape - 1.0)

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
        _check_parameter("Gamma scale theta", self.theta)

    def _log_sf(self, x, alpha):
        from scipy import special
        q = special.gammaincc(alpha, x / self.theta)
        if not np.all((q >= 0.0) & (q <= 1.0)):
            raise EvaluationError("incomplete gamma left [0, 1]")
        with np.errstate(divide="ignore"):
            return np.log(q)

    def _pdf(self, x, alpha):
        from scipy import special
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (
                (alpha - 1.0) * np.log(x)
                - x / self.theta
                - special.gammaln(alpha)
                - alpha * np.log(self.theta)
            )
        out = np.exp(logpdf)
        # x == 0: the density is 0 for alpha > 1, 1/theta for alpha == 1
        return np.where(
            np.broadcast_to(x, out.shape) == 0.0,
            np.where(np.broadcast_to(alpha, out.shape) > 1.0, 0.0,
                     np.where(np.broadcast_to(alpha, out.shape) == 1.0, 1.0 / self.theta, np.inf)),
            out,
        )

    def _cdf(self, x, alpha):
        from scipy import special
        return special.gammainc(alpha, x / self.theta)

    def inverse_survival(self, u, alpha):
        from scipy import special
        return _as_float(special.gammainccinv(alpha, u) * self.theta)


@dataclass(frozen=True)
class PowerGeneralizedWeibull(SeverityFamily):
    """F-bar(x; k) = exp(1 - (1 + x**c)**(1/k)); c fixed, k is the parameter."""

    c: float
    name: str = field(default="power_generalized_weibull", init=False)

    def __post_init__(self):
        _check_parameter("PGW exponent c", self.c)

    def _log_sf(self, x, alpha):
        return 1.0 - np.power(1.0 + np.power(x, self.c), 1.0 / alpha)

    def _pdf(self, x, alpha):
        base = 1.0 + np.power(x, self.c)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = (1.0 / alpha) * np.power(base, 1.0 / alpha - 1.0) * self.c * np.power(x, self.c - 1.0)
        return np.exp(1.0 - np.power(base, 1.0 / alpha)) * inner

    def _hazard(self, x, alpha, log_sf=None):
        """(c / alpha) * x**(c - 1) * (1 + x**c)**(1/alpha - 1), finite where the
        survival underflows."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return ((self.c / alpha) * np.power(x, self.c - 1.0)
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
        # written so that NaN fails
        if not np.all((g >= 0.0) & (g <= 1.0)):
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
            if not np.all((s >= 0.0) & (s <= 1.0)):
                raise EvaluationError(f"baseline survival '{self.name}' left [0, 1]")
            with np.errstate(divide="ignore"):
                return np.log(s)
        with np.errstate(divide="ignore"):
            return np.log1p(-self.checked_cdf(x))


def gamma_baseline(shape: float) -> BaselineDistribution:
    """Unit-scale gamma baseline with fixed ``shape``; wrap in :class:`Scale`
    to obtain the rate-parameterized gamma family F-bar(x; alpha) = Q(shape, alpha x)."""
    _check_parameter("gamma shape", shape)

    def cdf(x):
        from scipy import special
        return special.gammainc(shape, x)

    def pdf(x):
        from scipy import special
        return np.exp(
            (shape - 1.0) * np.log(np.maximum(x, np.finfo(float).tiny))
            - np.asarray(x, dtype=float)
            - special.gammaln(shape)
        )

    def ppf(q):
        from scipy import special
        return special.gammaincinv(shape, q)

    def sf(x):
        from scipy import special
        return special.gammaincc(shape, x)

    def dpdf(x):
        return pdf(x) * ((shape - 1.0) / np.maximum(x, np.finfo(float).tiny) - 1.0)

    return BaselineDistribution(
        cdf=cdf,
        pdf=pdf,
        ppf=ppf,
        sf=sf,
        dpdf=dpdf,
        name=f"gamma_baseline(shape={shape:g})",
    )


@dataclass(frozen=True)
class Scale(SeverityFamily):
    """Scale family: F-bar(x; alpha) = 1 - G(alpha x)."""

    baseline: BaselineDistribution
    name: str = field(default="scale", init=False)

    def _log_sf(self, x, alpha):
        return self.baseline.log_sf(alpha * x)

    def _cdf(self, x, alpha):
        return self.baseline.checked_cdf(alpha * x)

    def _pdf(self, x, alpha):
        return alpha * np.asarray(self.baseline.pdf(alpha * x), dtype=float)

    def dsurvival_dalpha(self, x, alpha):
        """d F-bar / d alpha = -x g(alpha x), with g the baseline density.

        At x = inf the survival is 0 for every alpha, so this and the second
        derivative are 0 there.
        """
        x, alpha = _validate_args(x, alpha)
        with np.errstate(invalid="ignore"):
            d = -x * np.asarray(self.baseline.pdf(alpha * x), dtype=float)
        return _as_float(np.where(x == np.inf, 0.0, d))

    def d2survival_dalpha2(self, x, alpha):
        """d^2 F-bar / d alpha^2 = -x^2 g'(alpha x)."""
        if self.baseline.dpdf is None:
            raise DomainError(f"baseline '{self.baseline.name}' has no density derivative")
        x, alpha = _validate_args(x, alpha)
        with np.errstate(invalid="ignore"):
            d = -x * x * np.asarray(self.baseline.dpdf(alpha * x), dtype=float)
        return _as_float(np.where(x == np.inf, 0.0, d))

    def inverse_survival(self, u, alpha):
        return _as_float(self.baseline.checked_ppf(1.0 - np.asarray(u)) / alpha)


@dataclass(frozen=True)
class ProportionalHazard(SeverityFamily):
    """PHR family: F-bar(x; alpha) = (1 - G(x))**alpha, exact in log-space.

    The alpha = 1 law enters only through ``_base_log_sf``, ``_base_terms``
    and ``_base_ppf``; these read ``baseline`` = G.
    """

    baseline: BaselineDistribution
    name: str = field(default="proportional_hazard", init=False)

    def _base_log_sf(self, x):
        return self.baseline.log_sf(x)

    def _base_terms(self, x):
        """Log survival and density of the alpha = 1 law."""
        return self._base_log_sf(x), np.asarray(self.baseline.pdf(x), dtype=float)

    def _base_ppf(self, q):
        return self.baseline.checked_ppf(q)

    def _log_sf(self, x, alpha):
        return alpha * self._base_log_sf(x)

    def _pdf(self, x, alpha):
        ls, g = self._base_terms(x)
        return alpha * np.exp((alpha - 1.0) * ls) * g

    def dsurvival_dalpha(self, x, alpha):
        """d F-bar / d alpha = log(base survival) * base survival**alpha.

        Where the base survival is 0 the survival is 0 for every alpha, so this
        and the second derivative are 0 there (the formula gives -inf * 0).
        """
        x, alpha = _validate_args(x, alpha)
        ls = self._base_log_sf(x)
        with np.errstate(invalid="ignore"):
            return _as_float(np.where(ls == -np.inf, 0.0, ls * np.exp(alpha * ls)))

    def d2survival_dalpha2(self, x, alpha):
        x, alpha = _validate_args(x, alpha)
        ls = self._base_log_sf(x)
        with np.errstate(invalid="ignore"):
            return _as_float(np.where(ls == -np.inf, 0.0, ls * ls * np.exp(alpha * ls)))

    def inverse_survival(self, u, alpha):
        u = np.asarray(u, dtype=float)
        # F-bar_base(x) = u**(1/alpha)
        return _as_float(self._base_ppf(-np.expm1(np.log(u) / alpha)))


@dataclass(frozen=True)
class KumaraswamyG(ProportionalHazard):
    """Kw-G family: F-bar(x; alpha) = (1 - G(x)**gamma)**alpha.

    This is the PHR family over the baseline CDF G**gamma: only that
    alpha = 1 law is defined here, and ``baseline`` stays G.
    """

    gamma: float
    name: str = field(default="kumaraswamy_g", init=False)

    def __post_init__(self):
        _check_parameter("Kw-G exponent gamma", self.gamma)

    def _base_log_sf(self, x):
        with np.errstate(divide="ignore"):
            return np.log1p(-np.power(self.baseline.checked_cdf(x), self.gamma))

    def _base_terms(self, x):
        g = self.baseline.checked_cdf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            ls = np.log1p(-np.power(g, self.gamma))
            dens = self.gamma * np.power(g, self.gamma - 1.0) * np.asarray(self.baseline.pdf(x), dtype=float)
        return ls, dens

    def _base_ppf(self, q):
        return self.baseline.checked_ppf(np.power(q, 1.0 / self.gamma))

    def _pdf(self, x, alpha):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = super()._pdf(x, alpha)
        # 0 * inf where G is 0 or 1 gives NaN; the density there is 0
        return np.where(np.isnan(out), 0.0, out)


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
    _check_parameter("exponential decay rate a", a)
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
    _check_parameter("power exponent b", b)
    return PsiTransform(
        f"power_inverse(b={b})",
        lambda p: np.power(p, -b),
        lambda v: np.power(v, -1.0 / b),
    )


def custom_psi(fn, inverse_fn, kind: str = "custom") -> PsiTransform:
    return PsiTransform(kind, fn, inverse_fn)


# ---------------------------------------------------------------------------
# regularity checks

# a grid-checked hypothesis holds when its defining inequality has margin
# >= -REGULARITY_TOL at every grid point
REGULARITY_TOL = 1e-9


@dataclass(frozen=True)
class HypothesisCheck:
    """Outcome of one grid-verified inequality."""

    holds: bool
    worst_margin: float


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


def _check_grid(grid, name, minimum=1):
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < minimum:
        raise GridError(f"{name} must be 1-d with at least {minimum} points")
    if g.size > 1 and np.any(np.diff(g) <= 0):
        raise GridError(f"{name} must be strictly increasing")
    return g


def _differences(t, f):
    """First differences of ``f`` along its last axis, and its second divided
    differences f[t_i, t_{i+1}, t_{i+2}] there, nonnegative iff convex."""
    # finite values can still overflow here; the check below raises on that
    # without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(f, axis=-1)
        d2 = np.diff(d / np.diff(t), axis=-1) / (t[2:] - t[:-2])
    # every first difference enters a second one, so this covers both
    if not np.all(np.isfinite(d2)):
        raise EvaluationError("non-finite value encountered in a regularity check")
    return d, d2


def _to_check(slack):
    if slack.size == 0:
        return HypothesisCheck(True, np.inf)
    worst = float(slack.min())
    return HypothesisCheck(worst >= -REGULARITY_TOL, worst)


def check_regularity(
    family: SeverityFamily,
    psi: PsiTransform,
    alpha_grid,
    x_grid,
    p_grid=None,
) -> RegularityReport:
    """Verify the parameter-regularity hypotheses on a grid.

    Monotonicity is checked via consecutive differences, convexity and
    log-convexity via second divided differences.  A hypothesis holds only
    if its defining inequality has margin >= -REGULARITY_TOL at every grid
    point.  The quantities checked in alpha, and those checked in p, are
    stacked and differenced once, and each check reads its slice.
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
        # every quantity checked in alpha, as [quantity, x, alpha]
        in_alpha = np.stack([S, logS, np.log(F), dens / S])
    if not np.all(np.isfinite(logS)):
        raise EvaluationError("log-survival is non-finite on the grid")

    psi_vals = np.asarray(psi(pgrid), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        in_p = np.stack([psi_vals, np.log(psi_vals)])
    # each value enters a difference, so a non-finite one fails its checks:
    # raise before differencing it
    if not (np.all(np.isfinite(in_alpha)) and np.all(np.isfinite(in_p))):
        raise EvaluationError("non-finite value encountered in a regularity check")
    d_alpha, d2_alpha = _differences(agrid, in_alpha)
    d_p, d2_p = _differences(pgrid, in_p)

    return RegularityReport(
        decreasing_in_alpha=_to_check(-d_alpha[0]),
        convex_in_alpha=_to_check(d2_alpha[0]),
        logconvex_in_alpha=_to_check(d2_alpha[1]),
        logconvex_in_alpha_of_F=_to_check(d2_alpha[2]),
        hazard_decreasing_in_alpha=_to_check(-d_alpha[3]),
        hazard_convex_in_alpha=_to_check(d2_alpha[3]),
        psi_decreasing=_to_check(-d_p[0]),
        psi_increasing=_to_check(d_p[0]),
        psi_convex=_to_check(d2_p[0]),
        psi_logconvex=_to_check(d2_p[1]),
    )
