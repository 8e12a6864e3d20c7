"""Exact distributions of the smallest and largest claim amounts.

For a portfolio of Bernoulli-thinned severities T_i = J_i U_i the extreme of
the first m claims has closed-form survival/CDF products; the random-count
versions are finite mixtures over the count support, with N = m selecting the
FIRST m claims of the ordered portfolio.

Consecutive m share all but one factor, so every curve is read off one prefix
kernel: the severity family is evaluated once for all claims on the whole
grid, the per-claim log terms (and hazard terms) are summed claim by claim,
and row m - 1 of those running sums gives the first-m curve.  A fixed-m curve
reads one row; a mixture weights the rows at the count support.  A curve on
``x`` thus costs O(n * |x|) family work plus O(|support| * |x|) for the
mixture, where n is the largest count used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, SingularityError
from .majorization import ParamMatrix
from .severity import PsiTransform, SeverityFamily

__all__ = [
    "Portfolio",
    "ClaimCountDistribution",
    "ExtremeKind",
    "poisson_counts",
    "counts_st_leq",
    "survival_min_fixed",
    "cdf_min_fixed",
    "cdf_max_fixed",
    "survival_max_fixed",
    "density_min_fixed",
    "density_max_fixed",
    "reversed_hazard_min_fixed",
    "reversed_hazard_max_fixed",
    "survival_min_random",
    "cdf_min_random",
    "cdf_max_random",
    "survival_max_random",
    "density_random",
    "reversed_hazard_random",
    "auto_x_grid",
]


class ExtremeKind(Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class Portfolio:
    """An ordered list of (occurrence probability, severity parameter) claims
    sharing one severity family and one psi transform."""

    family: SeverityFamily
    psi: PsiTransform
    p: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if p.ndim != 1 or alpha.ndim != 1 or p.size != alpha.size or p.size == 0:
            raise DomainError("p and alpha must be 1-d vectors of equal positive length")
        # written so that NaN, for which every comparison is false, fails
        if not np.all((p > 0.0) & (p < 1.0)):
            raise DomainError("occurrence probabilities must lie in (0, 1)")
        if not np.all((alpha > 0.0) & np.isfinite(alpha)):
            raise DomainError("severity parameters must be positive and finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return self.p.size

    def psi_values(self) -> np.ndarray:
        return np.asarray(self.psi(self.p), dtype=float)

    def param_matrix(self) -> ParamMatrix:
        return ParamMatrix(self.psi_values(), self.alpha)


@dataclass(frozen=True)
class ClaimCountDistribution:
    """PMF of a positive-integer claim count on a finite support."""

    support: np.ndarray
    weights: np.ndarray
    raw_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        support = np.asarray(self.support, dtype=int)
        weights = np.asarray(self.weights, dtype=float)
        if support.ndim != 1 or support.size == 0:
            raise DomainError("support must be a non-empty 1-d integer vector")
        if np.any(np.diff(support) <= 0) or support[0] < 1:
            raise DomainError("support must be strictly increasing positive integers")
        if weights.shape != support.shape or not np.all(weights >= 0):
            raise DomainError("weights must be nonnegative and match the support")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 (within 1e-12)")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def max_support(self) -> int:
        return int(self.support[-1])

    def survival(self, m: int) -> float:
        """P(N > m)."""
        return float(self.weights[self.support > m].sum())

    @staticmethod
    def degenerate(m: int) -> "ClaimCountDistribution":
        return ClaimCountDistribution(np.array([m]), np.array([1.0]))


def poisson_counts(lam: float, support: Sequence[int]) -> ClaimCountDistribution:
    """Poisson(lam) weights restricted to ``support`` and renormalized.

    The raw (unnormalized) Poisson masses are recorded on the result; the
    renormalization is the minimal completion to a probability distribution.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"Poisson rate must be positive and finite, got {lam!r}")
    support = np.asarray(support, dtype=int)
    if support.size == 0:
        raise DomainError("support must be non-empty")
    raw = np.array([math.exp(-lam) * lam**m / math.factorial(m) for m in support])
    return ClaimCountDistribution(support, raw / raw.sum(), raw_weights=raw)


def counts_st_leq(c1: ClaimCountDistribution, c2: ClaimCountDistribution) -> bool:
    """True iff N_1 <=_st N_2, i.e. P(N_1 > m) <= P(N_2 > m) for every m."""
    hi = max(c1.max_support, c2.max_support)
    for m in range(hi + 1):
        if c1.survival(m) > c2.survival(m) + 1e-12:
            return False
    return True


def _check_m(portfolio: Portfolio, m: int) -> int:
    if not 1 <= m <= portfolio.n:
        raise DomainError(f"m={m} out of range 1..{portfolio.n}")
    return int(m)


def _check_counts(portfolio: Portfolio, counts: ClaimCountDistribution):
    if counts.max_support > portfolio.n:
        raise DomainError("count support exceeds portfolio size")


# ---------------------------------------------------------------------------
# the prefix kernel


def _prefixes(portfolio: Portfolio, m_max: int, x, kind: ExtremeKind, hazard: bool = False):
    """Running sums over the first ``m_max`` claims; row ``m - 1`` covers claims 1..m.

    MIN: ``sum_i (log p_i + log F-bar_i)`` = log P(T_{1:m} > x), and ``sum_i r_i``.
    MAX: ``sum_i log1p(-p_i F-bar_i)`` = log P(T_{m:m} <= x), and
    ``sum_i p_i F-bar_i r_i / (1 - p_i F-bar_i)``.

    Each family function is called once, with the claims as a column against
    ``x`` as a row, and the sums are accumulated claim by claim in portfolio
    order, so row ``m - 1`` equals the sum of the first m per-claim terms
    added left to right.  Both arrays have shape ``[m_max, *x.shape]``; the
    second is None unless ``hazard`` is set.  Cost: O(m_max * x.size).
    """
    x = np.asarray(x, dtype=float)
    row = x.reshape(1, -1)
    alpha = portfolio.alpha[:m_max, None]
    log_s = np.asarray(portfolio.family.log_survival(row, alpha), dtype=float)
    if kind is ExtremeKind.MIN:
        # log p_i joins the running total before log F-bar_i does
        steps = np.empty((m_max, 2, row.shape[1]))
        steps[:, 0] = np.array([math.log(v) for v in portfolio.p[:m_max]])[:, None]
        steps[:, 1] = log_s
        logs = np.cumsum(steps.reshape(2 * m_max, -1), axis=0)[1::2]
    else:
        ps = portfolio.p[:m_max, None] * np.exp(log_s)
        logs = np.cumsum(np.log1p(-ps), axis=0)
    rates = None
    if hazard:
        terms = np.asarray(portfolio.family.hazard(row, alpha), dtype=float)
        if kind is ExtremeKind.MAX:
            denom = 1.0 - ps
            if np.any(denom <= 0.0):
                raise SingularityError("1 - p * survival underflowed to 0")
            terms = ps * terms / denom
        rates = np.cumsum(terms, axis=0).reshape(m_max, *x.shape)
    return logs.reshape(m_max, *x.shape), rates


def _cdf(kind: ExtremeKind, logs):
    return -np.expm1(logs) if kind is ExtremeKind.MIN else np.exp(logs)


def _density(logs, rates):
    # MIN: survival times the summed hazards; MAX: CDF times the reversed hazard
    return np.exp(logs) * rates


def _fixed(portfolio: Portfolio, m: int, x, kind: ExtremeKind, hazard: bool = False):
    m = _check_m(portfolio, m)
    logs, rates = _prefixes(portfolio, m, x, kind, hazard)
    return logs[m - 1], None if rates is None else rates[m - 1]


def _random(portfolio: Portfolio, counts: ClaimCountDistribution, x, kind: ExtremeKind,
            hazard: bool = False):
    _check_counts(portfolio, counts)
    return _prefixes(portfolio, counts.max_support, x, kind, hazard)


def _mixture(counts: ClaimCountDistribution, curve, *prefixes):
    """sum_m P(N = m) curve(row m - 1 of each prefix array), in support order."""
    total = np.zeros(prefixes[0].shape[1:])
    for m, w in zip(counts.support, counts.weights):
        total = total + w * curve(*(a[m - 1] for a in prefixes))
    return total


# ---------------------------------------------------------------------------
# fixed m


def log_survival_min_fixed(portfolio: Portfolio, m: int, x):
    """log P(T_{1:m} > x) = sum_i (log p_i + log F-bar(x; alpha_i))."""
    return _fixed(portfolio, m, x, ExtremeKind.MIN)[0]


def survival_min_fixed(portfolio: Portfolio, m: int, x):
    return np.exp(log_survival_min_fixed(portfolio, m, x))


def cdf_min_fixed(portfolio: Portfolio, m: int, x):
    return -np.expm1(log_survival_min_fixed(portfolio, m, x))


def cdf_max_fixed(portfolio: Portfolio, m: int, x):
    """P(T_{m:m} <= x) = prod_i (1 - p_i F-bar(x; alpha_i)), via log1p sums."""
    return np.exp(_fixed(portfolio, m, x, ExtremeKind.MAX)[0])


def survival_max_fixed(portfolio: Portfolio, m: int, x):
    return 1.0 - cdf_max_fixed(portfolio, m, x)


def reversed_hazard_max_fixed(portfolio: Portfolio, m: int, x):
    """sum_i p_i F-bar r / (1 - p_i F-bar) over the first m claims."""
    return _fixed(portfolio, m, x, ExtremeKind.MAX, hazard=True)[1]


def reversed_hazard_min_fixed(portfolio: Portfolio, m: int, x):
    """(F-bar_{T_1:m} / F_{T_1:m}) * sum_i r(x; alpha_i)."""
    ls, hazards = _fixed(portfolio, m, x, ExtremeKind.MIN, hazard=True)
    s = np.exp(ls)
    f = -np.expm1(ls)
    # the atom at 0 has mass 1 - prod p_i > 0, so f > 0 for all x >= 0
    return (s / f) * hazards


def density_min_fixed(portfolio: Portfolio, m: int, x):
    """Density of T_{1:m} on x > 0 (excluding the atom at 0)."""
    return _density(*_fixed(portfolio, m, x, ExtremeKind.MIN, hazard=True))


def density_max_fixed(portfolio: Portfolio, m: int, x):
    """Density of T_{m:m} on x > 0 (excluding the atom at 0)."""
    return _density(*_fixed(portfolio, m, x, ExtremeKind.MAX, hazard=True))


# ---------------------------------------------------------------------------
# random N


def survival_min_random(portfolio: Portfolio, counts: ClaimCountDistribution, x):
    logs, _ = _random(portfolio, counts, x, ExtremeKind.MIN)
    return _mixture(counts, np.exp, logs)


def cdf_min_random(portfolio: Portfolio, counts: ClaimCountDistribution, x):
    logs, _ = _random(portfolio, counts, x, ExtremeKind.MIN)
    return _mixture(counts, partial(_cdf, ExtremeKind.MIN), logs)


def cdf_max_random(portfolio: Portfolio, counts: ClaimCountDistribution, x):
    logs, _ = _random(portfolio, counts, x, ExtremeKind.MAX)
    return _mixture(counts, np.exp, logs)


def survival_max_random(portfolio: Portfolio, counts: ClaimCountDistribution, x):
    return 1.0 - cdf_max_random(portfolio, counts, x)


def density_random(portfolio: Portfolio, counts: ClaimCountDistribution, kind: ExtremeKind, x):
    return _mixture(counts, _density, *_random(portfolio, counts, x, kind, hazard=True))


def reversed_hazard_random(portfolio: Portfolio, counts: ClaimCountDistribution, kind: ExtremeKind, x):
    """Mixture reversed hazard: term-wise mixture density over mixture CDF."""
    logs, rates = _random(portfolio, counts, x, kind, hazard=True)
    num = _mixture(counts, _density, logs, rates)
    den = _mixture(counts, partial(_cdf, kind), logs)
    if np.any(den <= 0.0):
        raise SingularityError("mixture CDF underflowed to 0")
    return num / den


# ---------------------------------------------------------------------------
# grids


def auto_x_grid(
    portfolios: Sequence[Portfolio],
    counts: Sequence[ClaimCountDistribution],
    kind: ExtremeKind,
    points: int = 2000,
    x_min: Optional[float] = None,
    x_max: Optional[float] = None,
    tail_mass: float = 1e-6,
) -> np.ndarray:
    """Geometric + linear hybrid grid covering the atom region and the tail.

    ``x_max`` defaults to the smallest value at which every mixture CDF
    exceeds ``1 - tail_mass`` (for MIN, at which every mixture survival drops
    below ``tail_mass``); ``x_min`` defaults to ``1e-4 * x_max`` and must lie
    in (0, x_max / 10), where the geometric part of the grid ends.
    """
    if x_max is None:
        x_max = 1.0
        for _ in range(80):
            done = True
            for pf, ct in zip(portfolios, counts):
                if kind is ExtremeKind.MAX:
                    ok = cdf_max_random(pf, ct, x_max) >= 1.0 - tail_mass
                else:
                    ok = survival_min_random(pf, ct, x_max) <= tail_mass
                if not ok:
                    done = False
                    break
            if done:
                break
            x_max *= 2.0
    if x_min is None:
        x_min = 1e-4 * x_max
    if not 0.0 < x_min < x_max / 10.0:
        raise DomainError(f"grid x_min={x_min:g} must lie in (0, x_max / 10 = {x_max / 10.0:g})")
    n_geo = points // 4
    geo = np.geomspace(x_min, x_max / 10.0, n_geo, endpoint=False)
    lin = np.linspace(x_max / 10.0, x_max, points - n_geo)
    return np.concatenate([geo, lin])
