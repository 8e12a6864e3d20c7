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

The per-claim severity terms (log-survival, and the hazard once a reversed
hazard asks for it) are remembered for the last four (family, alpha, grid)
triples: both portfolios of one comparison, each on the grid that
:func:`auto_x_grid` probes and on the comparison grid.  So the survival, CDF
and reversed-hazard curves of one comparison, and every theorem audited on
the same instance, evaluate the family once per portfolio and grid.  The
remembered arrays are the ones an unremembered call computes, so every curve
is bit for bit the same whatever was evaluated before it.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
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
    "reversed_hazard_min_fixed",
    "reversed_hazard_max_fixed",
    "survival_min_random",
    "cdf_min_random",
    "cdf_max_random",
    "survival_max_random",
    "reversed_hazard_random",
    "auto_x_grid",
]


def _frozen_copy(values, dtype) -> np.ndarray:
    """A read-only copy, so that a validated or remembered value cannot change."""
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


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
        p = _frozen_copy(self.p, float)
        alpha = _frozen_copy(self.alpha, float)
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

    def param_matrix(self) -> ParamMatrix:
        return ParamMatrix(np.asarray(self.psi(self.p), dtype=float), self.alpha)


@dataclass(frozen=True)
class ClaimCountDistribution:
    """PMF of a positive-integer claim count on a finite support."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = _frozen_copy(self.support, int)
        weights = _frozen_copy(self.weights, float)
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
    """Poisson(lam) weights restricted to ``support`` and renormalized."""
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"Poisson rate must be positive and finite, got {lam!r}")
    support = np.asarray(support, dtype=int)
    if support.size == 0:
        raise DomainError("support must be non-empty")
    try:
        with np.errstate(over="ignore"):
            raw = np.array([math.exp(-lam) * lam**m / math.factorial(m) for m in support])
    except OverflowError:  # m! beyond the float range
        raw = np.array([math.inf])
    # an overflowed term, or a total below the smallest normal float, lost its precision
    if not np.finfo(float).tiny <= raw.sum() < math.inf:
        logs = np.array([m * math.log(lam) - math.lgamma(m + 1) for m in support])
        raw = np.exp(logs - logs.max())
    return ClaimCountDistribution(support, raw / raw.sum())


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

# four entries hold both portfolios of one comparison, each on the auto_x_grid
# probe grid and on the comparison grid
_MEMO_CAPACITY = 4
_memo: "OrderedDict[tuple, _ClaimTerms]" = OrderedDict()
_memo_lock = threading.Lock()


@dataclass
class _ClaimTerms:
    # the family is held so that its id, part of the memo key, is not reused
    family: SeverityFamily
    log_s: np.ndarray
    hazard: Optional[np.ndarray] = None


def _claim_terms(family: SeverityFamily, alpha, row, hazard: bool):
    """``family.log_survival(row, alpha)`` and, if ``hazard``, the hazard on the
    same cells, as read-only arrays.

    Both are remembered for the last ``_MEMO_CAPACITY`` (family object, alpha
    values, row values) keys; a hit returns the arrays the first call
    computed, so the result does not depend on what was evaluated before.
    """
    key = (id(family), alpha.tobytes(), alpha.shape, row.tobytes(), row.shape)
    with _memo_lock:
        terms = _memo.get(key)
        if terms is not None:
            _memo.move_to_end(key)
    if terms is None:
        fresh = _ClaimTerms(family, _frozen_copy(family.log_survival(row, alpha), float))
        with _memo_lock:
            terms = _memo.setdefault(key, fresh)
            _memo.move_to_end(key)
            while len(_memo) > _MEMO_CAPACITY:
                _memo.popitem(last=False)
    if not hazard:
        return terms.log_s, None
    if terms.hazard is None:
        # row and alpha hold the key's values now, so the hazard belongs to it
        rates = _frozen_copy(family._hazard(row, alpha, terms.log_s), float)
        with _memo_lock:
            if terms.hazard is None:
                terms.hazard = rates
    return terms.log_s, terms.hazard


def _prefixes(portfolio: Portfolio, m_max: int, x, kind: ExtremeKind, hazard: bool = False):
    """Running sums over the first ``m_max`` claims; row ``m - 1`` covers claims 1..m.

    MIN: ``sum_i (log p_i + log F-bar_i)`` = log P(T_{1:m} > x), and ``sum_i r_i``.
    MAX: ``sum_i log1p(-p_i F-bar_i)`` = log P(T_{m:m} <= x), and
    ``sum_i p_i F-bar_i r_i / (1 - p_i F-bar_i)``.

    Each family function is called at most once per (family, alpha, grid),
    with the claims as a column against ``x`` as a row (see
    :func:`_claim_terms`), and the sums are accumulated claim by claim in
    portfolio order, so row ``m - 1`` equals the sum of the first m per-claim
    terms added left to right.  Both arrays have shape ``[m_max, *x.shape]``;
    the second is None unless ``hazard`` is set.  Cost: O(m_max * x.size).
    """
    x = np.asarray(x, dtype=float)
    row = x.reshape(1, -1)
    log_s, terms = _claim_terms(portfolio.family, portfolio.alpha[:m_max, None], row, hazard)
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
        if kind is ExtremeKind.MAX:
            denom = 1.0 - ps
            if np.any(denom <= 0.0):
                raise SingularityError("1 - p * survival underflowed to 0")
            terms = ps * terms / denom
        rates = np.cumsum(terms, axis=0).reshape(m_max, *x.shape)
    return logs.reshape(m_max, *x.shape), rates


def _one_minus_exp(logs):
    return -np.expm1(logs)


def _cdf(kind: ExtremeKind, logs):
    return _one_minus_exp(logs) if kind is ExtremeKind.MIN else np.exp(logs)


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


def survival_min_fixed(portfolio: Portfolio, m: int, x):
    """P(T_{1:m} > x) = exp(sum_i (log p_i + log F-bar(x; alpha_i)))."""
    return np.exp(_fixed(portfolio, m, x, ExtremeKind.MIN)[0])


def cdf_min_fixed(portfolio: Portfolio, m: int, x):
    return -np.expm1(_fixed(portfolio, m, x, ExtremeKind.MIN)[0])


def cdf_max_fixed(portfolio: Portfolio, m: int, x):
    """P(T_{m:m} <= x) = prod_i (1 - p_i F-bar(x; alpha_i)), via log1p sums."""
    return np.exp(_fixed(portfolio, m, x, ExtremeKind.MAX)[0])


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
    """sum_m P(N = m) (1 - P(T_{m:m} <= x)), each term via expm1 so that the
    tail, where the CDF rounds to 1, keeps its digits."""
    logs, _ = _random(portfolio, counts, x, ExtremeKind.MAX)
    return _mixture(counts, _one_minus_exp, logs)


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

# the default x_max leaves at most this much of every extreme's mass beyond it
_TAIL_MASS = 1e-6
# the candidates for the default x_max, 1, 2, 4, ..., 2**79
_DOUBLINGS = 2.0 ** np.arange(80)


def auto_x_grid(
    portfolios: Sequence[Portfolio],
    counts: Sequence[ClaimCountDistribution],
    kind: ExtremeKind,
    points: int = 2000,
    x_min: Optional[float] = None,
    x_max: Optional[float] = None,
) -> np.ndarray:
    """Geometric + linear hybrid grid covering the atom region and the tail.

    ``x_max`` defaults to the smallest power of two, from 1 to 2**79, at
    which every mixture CDF exceeds ``1 - 1e-6`` (for MIN, at which every
    mixture survival drops below ``1e-6``), and to 2**80 if there is none;
    each mixture is evaluated once, at all 80 candidates.  ``x_min``
    defaults to ``1e-4 * x_max`` and must lie in (0, x_max / 10), where the
    geometric part of the grid ends.
    """
    if x_max is None:
        done = np.ones(_DOUBLINGS.shape, dtype=bool)
        # curves past the answer may overflow on the way to their limit
        with np.errstate(over="ignore"):
            for pf, ct in zip(portfolios, counts):
                if kind is ExtremeKind.MAX:
                    done &= cdf_max_random(pf, ct, _DOUBLINGS) >= 1.0 - _TAIL_MASS
                else:
                    done &= survival_min_random(pf, ct, _DOUBLINGS) <= _TAIL_MASS
        x_max = float(_DOUBLINGS[np.argmax(done)]) if done.any() else 2.0 ** 80
    if x_min is None:
        x_min = 1e-4 * x_max
    if not 0.0 < x_min < x_max / 10.0:
        raise DomainError(f"grid x_min={x_min:g} must lie in (0, x_max / 10 = {x_max / 10.0:g})")
    n_geo = points // 4
    geo = np.geomspace(x_min, x_max / 10.0, n_geo, endpoint=False)
    lin = np.linspace(x_max / 10.0, x_max, points - n_geo)
    return np.concatenate([geo, lin])
