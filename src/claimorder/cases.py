"""The instance type and the built-in cases of the published illustrations.

An :class:`InstanceSpec` is one comparison: two portfolios, two claim-count
laws, the extreme compared, the grid and the options.  Instance files load
into it, and so do the four built-in cases (Example 3.1 and Counterexamples
3.1-3.3), which :func:`get_case` builds from one data table.

Each case embeds the published portfolio and count parameters verbatim, with
one systematic correction: occurrence probabilities printed with a positive
exponent (e.g. e^{3.9}) exceed 1 and are replaced by the evident typo fix
e^{-3.9}; every applied correction is recorded on the case.

The gamma severities enter through the scale family, survival Q(k, alpha x)
with fixed shape k and the listed alpha_i acting as rates.  This is the only
reading under which the survival is decreasing in alpha (as the ordering
hypotheses require) and the published curve shapes are reproduced; with
alpha as the gamma shape the survival is increasing in alpha and every
comparison flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError
from .extremes import (
    ClaimCountDistribution,
    ExtremeKind,
    Portfolio,
    auto_x_grid,
    cdf_max_random,
    poisson_counts,
    survival_min_random,
)
from .severity import Scale, gamma_baseline, neg_log

__all__ = ["InstanceSpec", "get_case", "CASE_NAMES"]


@dataclass(frozen=True)
class InstanceSpec:
    """Two portfolios, two counts, the extreme compared, grid and options."""

    portfolio_a: Portfolio
    portfolio_b: Portfolio
    counts_a: ClaimCountDistribution
    counts_b: ClaimCountDistribution
    kind: ExtremeKind
    points: int = 2000
    x_min: Optional[float] = None
    x_max: Optional[float] = None
    tolerance: float = 1e-9
    seed: int = 0
    comparison: str = "difference"  # "difference" or "ratio"
    corrections: Tuple[str, ...] = ()

    def _curve(self, portfolio, counts, x):
        if self.kind is ExtremeKind.MAX:
            return cdf_max_random(portfolio, counts, x)
        return survival_min_random(portfolio, counts, x)

    def curve_a(self, x):
        return self._curve(self.portfolio_a, self.counts_a, x)

    def curve_b(self, x):
        return self._curve(self.portfolio_b, self.counts_b, x)

    def grid(self, points: Optional[int] = None) -> np.ndarray:
        return auto_x_grid(
            [self.portfolio_a, self.portfolio_b],
            [self.counts_a, self.counts_b],
            self.kind,
            points=self.points if points is None else points,
            x_min=self.x_min,
            x_max=self.x_max,
        )


# Columns: gamma shape k, alpha, beta, exponents c_i of p_i = e^{c_i} and of
# q_i, the Poisson rates of N_1 and N_2 (support {3, 4, 5}), the extreme and
# the comparison.  Counterexample 3.3 is Example 3.1 compared as a CDF ratio.
_EX3_1 = (1.5, (1.9, 2.0, 3.0, 5.0, 6.0), (4.9, 6.5, 7.6, 8.2, 10.9),
          (-0.7, -0.9, -3.0, -4.9, 3.9), (-1.2, -1.5, -1.6, -2.6, 3.9), 0.9, 1.9,
          ExtremeKind.MAX)
_CASES = {
    "ex3_1": (*_EX3_1, "difference"),
    "cex3_1": (1.5, (1.9, 5.0, 5.5, 6.0, 10.0), (0.7, 0.9, 3.0, 4.9, 3.9),
               (-0.7, -0.9, -3.0, -4.9, 3.9), (-3.9, -1.5, -1.6, -4.2, 2.6), 0.9, 1.9,
               ExtremeKind.MAX, "difference"),
    "cex3_2": (10.09, (1.9, 2.0, 3.0, 5.0, 6.0), (4.9, 6.5, 7.6, 8.2, 10.9),
               (-0.7, -2.1, -3.2, -4.9, -6.9), (-1.5, -1.6, -2.6, -3.9, -4.2), 10.9, 2.0,
               ExtremeKind.MIN, "difference"),
    "cex3_3": (*_EX3_1, "ratio"),
}

CASE_NAMES = tuple(_CASES)


def _corrected_probs(exponents, label) -> Tuple[np.ndarray, List[str]]:
    """p_i = e^{c_i}; any c_i > 0 is corrected to -c_i so that p_i in (0,1)."""
    notes = [f"{label}[{i + 1}] = e^{{{c:g}}} exceeds 1; corrected to e^{{-{c:g}}}"
             for i, c in enumerate(exponents) if c > 0]
    return np.array([np.exp(-abs(c)) for c in exponents]), notes


def get_case(name: str, literal: bool = False) -> InstanceSpec:
    """Return a built-in case by name.

    With ``literal=True`` the published probability exponents are used as
    printed; a case needing correction then refuses with a DomainError so the
    discrepancy is reported rather than silently repaired.
    """
    if name not in _CASES:
        raise DomainError(f"unknown case {name!r}; choose from {CASE_NAMES}")
    shape, alpha, beta, exp_p, exp_q, lam_a, lam_b, kind, comparison = _CASES[name]
    p, notes_p = _corrected_probs(exp_p, "p")
    q, notes_q = _corrected_probs(exp_q, "q")
    if literal and (notes_p or notes_q):
        bad = next(c for c in exp_p + exp_q if c > 0)
        raise DomainError(
            f"case {name}: literal probabilities e^{{{bad:g}}} lie outside (0, 1); "
            "rerun without --literal to apply the typo correction"
        )
    family, psi = Scale(gamma_baseline(shape)), neg_log()
    return InstanceSpec(
        Portfolio(family, psi, p, alpha),
        Portfolio(family, psi, q, beta),
        poisson_counts(lam_a, [3, 4, 5]),
        poisson_counts(lam_b, [3, 4, 5]),
        kind,
        comparison=comparison,
        corrections=tuple(notes_p + notes_q),
    )
