"""Built-in reproduction cases for the published numerical illustrations.

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
from typing import List, Tuple

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

__all__ = ["BuiltinCase", "get_case", "CASE_NAMES"]

CASE_NAMES = ("ex3_1", "cex3_1", "cex3_2", "cex3_3")


@dataclass(frozen=True)
class BuiltinCase:
    name: str
    portfolio_a: Portfolio
    portfolio_b: Portfolio
    counts_a: ClaimCountDistribution
    counts_b: ClaimCountDistribution
    kind: ExtremeKind
    comparison: str  # "difference" or "ratio"
    corrections: Tuple[str, ...]

    def curve_a(self, x):
        if self.kind is ExtremeKind.MAX:
            return cdf_max_random(self.portfolio_a, self.counts_a, x)
        return survival_min_random(self.portfolio_a, self.counts_a, x)

    def curve_b(self, x):
        if self.kind is ExtremeKind.MAX:
            return cdf_max_random(self.portfolio_b, self.counts_b, x)
        return survival_min_random(self.portfolio_b, self.counts_b, x)

    def delta(self, x):
        a, b = self.curve_a(x), self.curve_b(x)
        return a / b if self.comparison == "ratio" else a - b

    def grid(self, points: int = 2000) -> np.ndarray:
        return auto_x_grid(
            [self.portfolio_a, self.portfolio_b],
            [self.counts_a, self.counts_b],
            self.kind,
            points=points,
        )


def _corrected_probs(exponents, label) -> Tuple[np.ndarray, List[str]]:
    """p_i = e^{c_i}; any c_i > 0 is corrected to -c_i so that p_i in (0,1)."""
    notes = []
    fixed = []
    for i, c in enumerate(exponents):
        if c > 0:
            notes.append(
                f"{label}[{i + 1}] = e^{{{c:g}}} exceeds 1; corrected to e^{{-{c:g}}}"
            )
            c = -c
        fixed.append(np.exp(c))
    return np.array(fixed), notes


def get_case(name: str, literal: bool = False) -> BuiltinCase:
    """Return a built-in case by name.

    With ``literal=True`` the published probability exponents are used as
    printed; a case needing correction then refuses with a DomainError so the
    discrepancy is reported rather than silently repaired.
    """
    if name not in CASE_NAMES:
        raise DomainError(f"unknown case {name!r}; choose from {CASE_NAMES}")
    psi = neg_log()
    if name == "ex3_1":
        family = Scale(gamma_baseline(1.5))
        alpha = np.array([1.9, 2.0, 3.0, 5.0, 6.0])
        beta = np.array([4.9, 6.5, 7.6, 8.2, 10.9])
        exp_p = (-0.7, -0.9, -3.0, -4.9, 3.9)
        exp_q = (-1.2, -1.5, -1.6, -2.6, 3.9)
        counts_a = poisson_counts(0.9, [3, 4, 5])
        counts_b = poisson_counts(1.9, [3, 4, 5])
        kind, comparison = ExtremeKind.MAX, "difference"
    elif name == "cex3_1":
        family = Scale(gamma_baseline(1.5))
        alpha = np.array([1.9, 5.0, 5.5, 6.0, 10.0])
        beta = np.array([0.7, 0.9, 3.0, 4.9, 3.9])
        exp_p = (-0.7, -0.9, -3.0, -4.9, 3.9)
        exp_q = (-3.9, -1.5, -1.6, -4.2, 2.6)
        counts_a = poisson_counts(0.9, [3, 4, 5])
        counts_b = poisson_counts(1.9, [3, 4, 5])
        kind, comparison = ExtremeKind.MAX, "difference"
    elif name == "cex3_2":
        family = Scale(gamma_baseline(10.09))
        alpha = np.array([1.9, 2.0, 3.0, 5.0, 6.0])
        beta = np.array([4.9, 6.5, 7.6, 8.2, 10.9])
        exp_p = (-0.7, -2.1, -3.2, -4.9, -6.9)
        exp_q = (-1.5, -1.6, -2.6, -3.9, -4.2)
        counts_a = poisson_counts(10.9, [3, 4, 5])
        counts_b = poisson_counts(2.0, [3, 4, 5])
        kind, comparison = ExtremeKind.MIN, "difference"
    else:  # cex3_3: same configuration as ex3_1, compared as a CDF ratio
        base = get_case("ex3_1", literal=literal)
        return BuiltinCase(
            "cex3_3", base.portfolio_a, base.portfolio_b, base.counts_a,
            base.counts_b, ExtremeKind.MAX, "ratio", base.corrections,
        )

    if literal:
        bad = [c for c in exp_p + exp_q if c > 0]
        if bad:
            raise DomainError(
                f"case {name}: literal probabilities e^{{{bad[0]:g}}} lie outside (0, 1); "
                "rerun without --literal to apply the typo correction"
            )
        p, notes_p = np.exp(exp_p), []
        q, notes_q = np.exp(exp_q), []
    else:
        p, notes_p = _corrected_probs(exp_p, "p")
        q, notes_q = _corrected_probs(exp_q, "q")

    return BuiltinCase(
        name,
        Portfolio(family, psi, p, alpha),
        Portfolio(family, psi, q, beta),
        counts_a,
        counts_b,
        kind,
        comparison,
        tuple(notes_p + notes_q),
    )
