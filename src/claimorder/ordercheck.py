"""Stochastic-order verifiers, the Schur-convexity tester, and theorem audits.

Each audit pairs a named ordering result's hypotheses (checked numerically on
grids) with its conclusion (checked by a curve verifier), and classifies the
outcome.  A conclusion failure with all hypotheses satisfied is re-checked at
doubled grid resolution before being reported as a potential counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import extremes as ext
from . import majorization as maj
from .errors import DomainError, EvaluationError
from .extremes import ClaimCountDistribution, ExtremeKind, Portfolio
from .severity import check_regularity

__all__ = [
    "OrderVerdict",
    "verify_st",
    "verify_rh",
    "SchurTestResult",
    "schur_test",
    "TheoremId",
    "TheoremSpec",
    "THEOREMS",
    "Precondition",
    "TheoremAudit",
    "theorem_grid",
    "audit",
    "CONFIRMED",
    "HYP_VIOLATED_CONCLUSION_FAILS",
    "HYP_VIOLATED_CONCLUSION_HOLDS",
    "POTENTIAL_COUNTEREXAMPLE",
]

CONFIRMED = "confirmed"
HYP_VIOLATED_CONCLUSION_FAILS = "hypothesis_violated_and_conclusion_fails"
HYP_VIOLATED_CONCLUSION_HOLDS = "hypothesis_violated_but_conclusion_holds"
POTENTIAL_COUNTEREXAMPLE = "POTENTIAL_COUNTEREXAMPLE"


@dataclass(frozen=True)
class OrderVerdict:
    """Result of a stochastic-order check on a grid."""

    holds: bool
    margin: float
    grid_spec: str
    witness: Optional[Tuple[float, float, float]] = None  # (x, lhs, rhs)
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "margin": self.margin,
            "grid_spec": self.grid_spec,
            "witness": list(self.witness) if self.witness else None,
        }


def _eval_curve(curve, grid):
    vals = np.asarray(curve(grid), dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).astype(float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("curve produced non-finite values on the grid")
    return vals


def _grid_spec(grid) -> str:
    return f"{grid.size} points on [{grid[0]:.6g}, {grid[-1]:.6g}]"


def _bisect_root(fn, lo, hi, width=1e-6, max_iter=200):
    flo = fn(lo)
    for _ in range(max_iter):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_tol(name: str, value: float) -> None:
    # written so that NaN, for which every comparison is false, fails
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


def verify_st(curve_a, curve_b, grid, tol: float = 1e-9) -> OrderVerdict:
    """Verify A >=_st B: survival of A dominates survival of B on the grid.

    A crossing is confirmed only by two consecutive grid points violating
    beyond ``tol``; the witness abscissa is then refined by bisection.
    """
    _check_tol("tol", tol)
    grid = np.asarray(grid, dtype=float)
    a = _eval_curve(curve_a, grid)
    b = _eval_curve(curve_b, grid)
    diff = a - b
    margin = float(diff.min())
    spec = _grid_spec(grid)
    bad = diff < -tol
    confirmed = bad[:-1] & bad[1:]
    if not np.any(confirmed):
        return OrderVerdict(True, margin, spec)
    first = int(np.argmax(confirmed))
    # refine the crossing between the last non-violating point and the run
    x_w = grid[first]
    before = np.nonzero(~bad[: first + 1])[0]
    if before.size:
        j = int(before[-1])
        g = lambda x: float(np.asarray(curve_a(np.array([x])) - curve_b(np.array([x])))[0])
        x_w = _bisect_root(g, grid[j], grid[first + 1])
    lhs = float(np.asarray(curve_a(np.array([x_w])))[0])
    rhs = float(np.asarray(curve_b(np.array([x_w])))[0])
    return OrderVerdict(False, margin, spec, witness=(float(x_w), lhs, rhs))


def verify_rh(cdf_a, cdf_b, grid, tol: float = 1e-9, rh_a=None, rh_b=None) -> OrderVerdict:
    """Verify A >=_rh B via monotonicity of the CDF ratio F_A / F_B.

    The ratio characterization is numerically stabler than comparing reversed
    hazards where the CDFs are tiny; when reversed-hazard callables are given
    the pointwise comparison is attached as secondary evidence.
    """
    _check_tol("tol", tol)
    grid = np.asarray(grid, dtype=float)
    fa = _eval_curve(cdf_a, grid)
    fb = _eval_curve(cdf_b, grid)
    if np.any(fb <= 0.0) or np.any(fa <= 0.0):
        raise EvaluationError("CDFs must be positive on the grid interior")
    ratio = fa / fb
    steps = np.diff(ratio)
    margin = float(steps.min()) if steps.size else np.inf
    spec = _grid_spec(grid)
    evidence = {}
    if rh_a is not None and rh_b is not None:
        diffs = _eval_curve(rh_a, grid) - _eval_curve(rh_b, grid)
        evidence["pointwise_rh_min_margin"] = float(diffs.min())
    bad = steps < -tol
    confirmed = bad[:-1] & bad[1:]
    if not np.any(confirmed):
        return OrderVerdict(True, margin, spec, evidence=evidence)
    first = int(np.argmax(confirmed))
    witness = (float(grid[first + 1]), float(ratio[first]), float(ratio[first + 1]))
    return OrderVerdict(False, margin, spec, witness=witness, evidence=evidence)


# ---------------------------------------------------------------------------
# Schur-convexity tester


@dataclass(frozen=True)
class SchurTestResult:
    """Aggregated sign evidence of the pairwise derivative expression
    (u_i - u_j)(d phi/du_i - d phi/du_j) over a cloud of test points."""

    schur_convex: bool
    schur_concave: bool
    min_expression: float
    max_expression: float

    @property
    def classification(self) -> str:
        if self.schur_convex:
            return "schur_convex_evidence"
        if self.schur_concave:
            return "schur_concave_evidence"
        return "neither"


def schur_test(
    phi: Callable[[np.ndarray], float],
    point,
    h: Optional[float] = None,
    tol: float = 1e-7,
    n_perturb: int = 4,
    seed: int = 0,
) -> SchurTestResult:
    """Finite-difference Schur-convexity evidence at ``point`` and nearby."""
    base = np.asarray(point, dtype=float)
    if base.ndim != 1 or base.size < 2:
        raise DomainError("point must be a vector with at least two coordinates")
    rng = np.random.default_rng(seed)
    cloud = [base]
    for _ in range(n_perturb):
        pert = base * (1.0 + 0.05 * rng.standard_normal(base.size))
        cloud.append(np.abs(pert) + 1e-12)

    lo, hi = np.inf, -np.inf
    for u in cloud:
        steps = h if h is not None else 1e-5 * (1.0 + np.abs(u))
        steps = np.broadcast_to(steps, u.shape)
        grad = np.empty(u.size)
        for i in range(u.size):
            up, dn = u.copy(), u.copy()
            up[i] += steps[i]
            dn[i] -= steps[i]
            grad[i] = (phi(up) - phi(dn)) / (2.0 * steps[i])
        if not np.all(np.isfinite(grad)):
            raise EvaluationError("non-finite gradient in schur_test")
        for i in range(u.size):
            for j in range(i + 1, u.size):
                e = (u[i] - u[j]) * (grad[i] - grad[j])
                lo, hi = min(lo, e), max(hi, e)
    return SchurTestResult(lo >= -tol, hi <= tol, float(lo), float(hi))


# ---------------------------------------------------------------------------
# theorem audits


class TheoremId(Enum):
    ST_MIN_ALPHA = "ST_MIN_ALPHA"
    ST_MIN_PSI = "ST_MIN_PSI"
    ST_MIN_RANDOM = "ST_MIN_RANDOM"
    ST_MAX_FIXED = "ST_MAX_FIXED"
    ST_MAX_RANDOM = "ST_MAX_RANDOM"
    ST_MAX_KWG = "ST_MAX_KWG"
    ST_MAX_SCALE = "ST_MAX_SCALE"
    ST_MAX_PHR = "ST_MAX_PHR"
    ST_MAX_CHAIN = "ST_MAX_CHAIN"
    ST_MAX_SCALE_CHAIN = "ST_MAX_SCALE_CHAIN"
    RH_MAX_ALPHA = "RH_MAX_ALPHA"
    RH_MAX_PSI = "RH_MAX_PSI"
    RH_MAX_RANDOM = "RH_MAX_RANDOM"
    RH_MIN_ALPHA = "RH_MIN_ALPHA"
    RH_MIN_PSI = "RH_MIN_PSI"
    RH_MIN_RANDOM = "RH_MIN_RANDOM"
    RH_MIN_PRESERVE = "RH_MIN_PRESERVE"


@dataclass(frozen=True)
class Precondition:
    name: str
    satisfied: bool
    evidence: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "satisfied": self.satisfied, "evidence": self.evidence}


@dataclass(frozen=True)
class TheoremAudit:
    theorem_id: TheoremId
    preconditions: List[Precondition]
    conclusion: OrderVerdict
    classification: str

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id.value,
            "preconditions": [p.to_dict() for p in self.preconditions],
            "conclusion": self.conclusion.to_dict(),
            "classification": self.classification,
        }


@dataclass(frozen=True)
class TheoremSpec:
    """One ordering result: the extreme it compares, the order it concludes
    ("st" or "rh"), whether N is random, which inputs it requires equal
    ("p", "alpha", "counts" or None), and its hypotheses in report order.
    A hypothesis names a ``_REGULARITY`` field or a ``_STRUCTURAL`` check."""

    kind: ExtremeKind
    order: str
    random_n: bool
    equal: Optional[str]
    preconditions: Tuple[str, ...]


_REGULARITY = {
    "survival decreasing in alpha": "decreasing_in_alpha",
    "CDF increasing in alpha (survival decreasing)": "decreasing_in_alpha",
    "survival convex in alpha": "convex_in_alpha",
    "survival log-convex in alpha": "logconvex_in_alpha",
    "CDF log-convex in alpha": "logconvex_in_alpha_of_F",
    "hazard decreasing in alpha": "hazard_decreasing_in_alpha",
    "hazard convex in alpha": "hazard_convex_in_alpha",
    "psi decreasing": "psi_decreasing",
    "psi increasing": "psi_increasing",
    "psi convex": "psi_convex",
    "psi log-convex": "psi_logconvex",
}


def _rows(result):
    return result.holds, f"psi row {result.psi_row}, alpha row {result.alpha_row}"


def _baseline_density_decreasing(i):
    if not hasattr(i.pf_a.family, "baseline"):
        return False, "family has no baseline"
    dens = np.asarray(i.pf_a.family.baseline.pdf(i.xgrid), dtype=float)
    return np.all(np.diff(dens) <= i.reg_tol)


def _increasing_in_m(i, curve):
    """Whether ``curve(m, xs)`` is non-decreasing in m over the support of N_1."""
    xs = i.grid[i.grid > 0][:: max(1, i.grid.size // 50)]
    rows = np.array([curve(int(m), xs) for m in i.counts_a.support])
    return np.all(np.diff(rows, axis=0) >= -i.tol)


def _fixed_n_rh(i):
    m = i.counts_a.max_support
    fixed = verify_rh(lambda x: ext.cdf_min_fixed(i.pf_a, m, x),
                      lambda x: ext.cdf_min_fixed(i.pf_b, m, x), i.grid, tol=i.tol)
    return fixed.holds, f"margin {fixed.margin:.3e}"


# each check returns a truth value, or (truth value, evidence)
_STRUCTURAL: Dict[str, Callable] = {
    "(psi(p), alpha) in M_n": lambda i: maj.in_Mn(i.A),
    "(psi(p*), beta) in M_n": lambda i: maj.in_Mn(i.B),
    "N_1 <=_st N_2": lambda i: ext.counts_st_leq(i.counts_a, i.counts_b),
    "A row-weakly majorizes B": lambda i: _rows(maj.row_weakly_majorizes(i.A, i.B)),
    "A row-majorizes B": lambda i: _rows(maj.row_majorizes(i.A, i.B)),
    "alpha majorizes beta": lambda i: maj.majorizes(i.pf_a.alpha, i.pf_b.alpha),
    "alpha weakly supermajorizes beta":
        lambda i: maj.weakly_supermajorizes(i.pf_a.alpha, i.pf_b.alpha),
    "psi(p) majorizes psi(p*)": lambda i: maj.majorizes(i.A.row_psi, i.B.row_psi),
    "psi(p) weakly supermajorizes psi(p*)":
        lambda i: maj.weakly_supermajorizes(i.A.row_psi, i.B.row_psi),
    **{f"family is {name}": (lambda i, name=name: i.pf_a.family.name == name)
       for name in ("kumaraswamy_g", "scale", "proportional_hazard")},
    "baseline density decreasing": _baseline_density_decreasing,
    "B = A P for doubly stochastic P": lambda i: (
        maj.chain_majorizes_doubly_stochastic(i.A, i.B).feasible,
        "necessary condition for a T-transform chain factorization"),
    "alpha_n >= beta_n": lambda i: i.pf_a.alpha[-1] >= i.pf_b.alpha[-1] - 1e-12,
    "p_n <= p*_n": lambda i: i.pf_a.p[-1] <= i.pf_b.p[-1] + 1e-12,
    # the preservation result decomposes into two monotonicity conditions in m
    # plus the fixed-n reversed-hazard comparison
    "reversed hazard of min increasing in m": lambda i: _increasing_in_m(
        i, lambda m, xs: ext.reversed_hazard_min_fixed(i.pf_b, m, xs)),
    "CDF ratio of min increasing in m": lambda i: _increasing_in_m(
        i, lambda m, xs: ext.cdf_min_fixed(i.pf_a, m, xs) / ext.cdf_min_fixed(i.pf_b, m, xs)),
    "fixed-n reversed hazard order holds": _fixed_n_rh,
}

_MN = ("(psi(p), alpha) in M_n", "(psi(p*), beta) in M_n")
_S_LOG = ("survival decreasing in alpha", "survival log-convex in alpha")
_PSI_LOG = ("psi decreasing", "psi log-convex")
_ST_MAX = ("survival decreasing in alpha", "survival convex in alpha", "psi decreasing",
           "psi convex", *_MN)
_SCALE = ("family is scale", "baseline density decreasing")
_N_ST, _ROW_WEAK = "N_1 <=_st N_2", "A row-weakly majorizes B"
_DS = "B = A P for doubly stochastic P"
_MIN, _MAX = ExtremeKind.MIN, ExtremeKind.MAX

THEOREMS: Dict[TheoremId, TheoremSpec] = {
    TheoremId.ST_MIN_ALPHA: TheoremSpec(_MIN, "st", False, "p", (
        *_S_LOG, *_MN, "alpha weakly supermajorizes beta")),
    TheoremId.ST_MIN_PSI: TheoremSpec(_MIN, "st", False, "alpha", (
        *_PSI_LOG, *_MN, "psi(p) weakly supermajorizes psi(p*)")),
    TheoremId.ST_MIN_RANDOM: TheoremSpec(_MIN, "st", True, None, (
        _N_ST, *_S_LOG, *_PSI_LOG, *_MN, _ROW_WEAK)),
    TheoremId.ST_MAX_FIXED: TheoremSpec(_MAX, "st", False, None, (*_ST_MAX, _ROW_WEAK)),
    TheoremId.ST_MAX_RANDOM: TheoremSpec(_MAX, "st", True, None, (_N_ST, *_ST_MAX, _ROW_WEAK)),
    TheoremId.ST_MAX_KWG: TheoremSpec(_MAX, "st", True, None, (
        "family is kumaraswamy_g", _N_ST, *_ST_MAX, _ROW_WEAK)),
    TheoremId.ST_MAX_SCALE: TheoremSpec(_MAX, "st", True, None, (
        *_SCALE, _N_ST, *_ST_MAX, _ROW_WEAK)),
    TheoremId.ST_MAX_PHR: TheoremSpec(_MAX, "st", True, None, (
        "family is proportional_hazard", _N_ST, *_ST_MAX, _ROW_WEAK)),
    TheoremId.ST_MAX_CHAIN: TheoremSpec(_MAX, "st", True, None, (_N_ST, *_ST_MAX, _DS)),
    TheoremId.ST_MAX_SCALE_CHAIN: TheoremSpec(_MAX, "st", True, None, (
        *_SCALE, _N_ST, *_ST_MAX, _DS)),
    TheoremId.RH_MAX_ALPHA: TheoremSpec(_MAX, "rh", False, "p", (
        "psi decreasing", *_S_LOG, "hazard decreasing in alpha", "hazard convex in alpha",
        *_MN, "alpha weakly supermajorizes beta")),
    TheoremId.RH_MAX_PSI: TheoremSpec(_MAX, "rh", False, "alpha", (
        *_PSI_LOG, "survival decreasing in alpha", "hazard decreasing in alpha", *_MN,
        "psi(p) weakly supermajorizes psi(p*)")),
    TheoremId.RH_MAX_RANDOM: TheoremSpec(_MAX, "rh", True, "counts", (
        "alpha_n >= beta_n", "p_n <= p*_n", *_PSI_LOG, *_S_LOG,
        "hazard decreasing in alpha", "hazard convex in alpha", *_MN, _ROW_WEAK)),
    TheoremId.RH_MIN_ALPHA: TheoremSpec(_MIN, "rh", False, "p", (
        "CDF increasing in alpha (survival decreasing)", "CDF log-convex in alpha",
        "hazard convex in alpha", *_MN, "alpha majorizes beta")),
    TheoremId.RH_MIN_PSI: TheoremSpec(_MIN, "rh", False, "alpha", (
        "psi increasing", "psi log-convex", *_MN, "psi(p) majorizes psi(p*)")),
    TheoremId.RH_MIN_RANDOM: TheoremSpec(_MIN, "rh", True, "counts", (
        "psi increasing", "psi log-convex", "CDF log-convex in alpha",
        "hazard convex in alpha", *_MN, "A row-majorizes B")),
    TheoremId.RH_MIN_PRESERVE: TheoremSpec(_MIN, "rh", True, "counts", (
        "reversed hazard of min increasing in m", "CDF ratio of min increasing in m",
        "fixed-n reversed hazard order holds")),
}

_EQUAL = {"p": "equal occurrence-probability vectors",
          "alpha": "equal severity-parameter vectors",
          "counts": "identically distributed counts"}


def _precondition(name: str, inst) -> Precondition:
    if name in _REGULARITY:
        check = getattr(inst.reg, _REGULARITY[name])
        return Precondition(name, bool(check.holds), f"worst margin {check.worst_margin:.3e}")
    out = _STRUCTURAL[name](inst)
    ok, evidence = out if isinstance(out, tuple) else (out, "")
    return Precondition(name, bool(ok), evidence)


def _reg_grids(pf_a: Portfolio, pf_b: Portfolio, grid: np.ndarray):
    alphas = np.concatenate([pf_a.alpha, pf_b.alpha])
    agrid = np.linspace(0.9 * alphas.min(), 1.1 * alphas.max(), 13)
    # x follows the conclusion grid: one grid per theorem, and no second grid rule
    xs = grid[grid > 0]
    xgrid = xs[:: max(1, xs.size // 25)]
    ps = np.concatenate([pf_a.p, pf_b.p])
    plo, phi = ps.min(), ps.max()
    if phi - plo < 1e-9:
        plo, phi = max(plo * 0.9, 1e-6), min(phi * 1.1, 1.0 - 1e-9)
    pgrid = np.linspace(plo, phi, 21)
    return agrid, xgrid, pgrid


def _conclusion(spec: TheoremSpec, inst, grid: np.ndarray) -> OrderVerdict:
    """Check the conclusion on ``grid``."""
    def pair(curve, *args):
        return (lambda x: curve(inst.pf_a, inst.counts_a, *args, x),
                lambda x: curve(inst.pf_b, inst.counts_b, *args, x))

    if spec.order == "rh":
        cdf = ext.cdf_min_random if spec.kind is _MIN else ext.cdf_max_random
        return verify_rh(*pair(cdf), grid, tol=inst.tol)
    surv = ext.survival_min_random if spec.kind is _MIN else ext.survival_max_random
    return verify_st(*pair(surv), grid, tol=inst.tol)


def _compared_counts(theorem_id, spec, pf_a, pf_b, counts_a, counts_b):
    # a fixed-N result compares the extremes at N = n, whose random-N curves
    # equal the fixed-n ones bit for bit
    if not spec.random_n:
        return ClaimCountDistribution.degenerate(pf_a.n), ClaimCountDistribution.degenerate(pf_b.n)
    if counts_a is None or counts_b is None:
        raise DomainError(f"{theorem_id.value} requires both count distributions")
    ext._check_counts(pf_a, counts_a)
    ext._check_counts(pf_b, counts_b)
    return counts_a, counts_b


def theorem_grid(theorem_id, portfolio_a, portfolio_b, counts_a=None, counts_b=None,
                 points=800, x_min=None, x_max=None) -> np.ndarray:
    """The auto x-grid of ``theorem_id``'s conclusion (see ``extremes.auto_x_grid``).
    It spans the extreme the theorem compares, ``T_{1:N}`` or ``T_{N:N}``, at
    ``N = n`` for a fixed-N theorem and at the given counts otherwise."""
    spec = THEOREMS[theorem_id]
    counts = _compared_counts(theorem_id, spec, portfolio_a, portfolio_b, counts_a, counts_b)
    return ext.auto_x_grid([portfolio_a, portfolio_b], counts, spec.kind, points=points,
                           x_min=x_min, x_max=x_max)


def _refine(grid: np.ndarray) -> np.ndarray:
    return np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))


def audit(
    theorem_id: TheoremId,
    portfolio_a: Portfolio,
    portfolio_b: Portfolio,
    counts_a: Optional[ClaimCountDistribution] = None,
    counts_b: Optional[ClaimCountDistribution] = None,
    grid=None,
    tol: float = 1e-9,
    reg_tol: float = 1e-9,
) -> TheoremAudit:
    """Audit one ordering theorem on a concrete instance.

    Every hypothesis that ``THEOREMS`` lists for the theorem is evaluated
    numerically; then the conclusion is checked with :func:`verify_st` or
    :func:`verify_rh` on the appropriate extreme-claim curves.
    """
    spec = THEOREMS.get(theorem_id)
    if spec is None:
        raise DomainError(f"unknown theorem id {theorem_id}")
    _check_tol("tol", tol)
    _check_tol("reg_tol", reg_tol)
    pf_a, pf_b = portfolio_a, portfolio_b
    if pf_a.n != pf_b.n:
        raise DomainError("portfolios must have equal size")
    if pf_a.family.name != pf_b.family.name:
        raise DomainError("portfolios must share one severity family")
    counts_a, counts_b = _compared_counts(theorem_id, spec, pf_a, pf_b, counts_a, counts_b)
    if spec.equal == "counts":
        same = np.array_equal(counts_a.support, counts_b.support) and np.allclose(
            counts_a.weights, counts_b.weights, atol=1e-12)
    else:
        same = spec.equal is None or np.allclose(
            getattr(pf_a, spec.equal), getattr(pf_b, spec.equal), atol=1e-12)
    if not same:
        raise DomainError(f"{theorem_id.value} requires {_EQUAL[spec.equal]}")

    if grid is None:
        grid = theorem_grid(theorem_id, pf_a, pf_b, counts_a, counts_b)
    grid = np.asarray(grid, dtype=float)

    agrid, xgrid, pgrid = _reg_grids(pf_a, pf_b, grid)
    reg = None
    if any(name in _REGULARITY for name in spec.preconditions):
        reg = check_regularity(pf_a.family, pf_a.psi, agrid, xgrid, tol=reg_tol, p_grid=pgrid)
    inst = SimpleNamespace(pf_a=pf_a, pf_b=pf_b, counts_a=counts_a, counts_b=counts_b,
                           A=pf_a.param_matrix(), B=pf_b.param_matrix(), grid=grid,
                           xgrid=xgrid, tol=tol, reg_tol=reg_tol, reg=reg)
    pre = [_precondition(name, inst) for name in spec.preconditions]

    conclusion = _conclusion(spec, inst, grid)
    all_pre = all(p.satisfied for p in pre)
    if conclusion.holds:
        classification = CONFIRMED if all_pre else HYP_VIOLATED_CONCLUSION_HOLDS
    elif not all_pre:
        classification = HYP_VIOLATED_CONCLUSION_FAILS
    else:
        # re-check at doubled resolution before reporting a counterexample
        conclusion = _conclusion(spec, inst, _refine(grid))
        classification = CONFIRMED if conclusion.holds else POTENTIAL_COUNTEREXAMPLE
    return TheoremAudit(theorem_id, pre, conclusion, classification)
