"""Command-line entry point.

Subcommands:

* ``reproduce`` — built-in curve comparisons written as CSV with a verdict line;
* ``audit``     — theorem audits of an instance file, with a JSON report;
* ``majorize``  — vector/matrix majorization report with prefix-sum tables;
* ``simulate``  — Monte Carlo cross-check of the analytic curves (KS vs DKW).

Instance files are YAML; see the schema in the README.  An instance's ``kind``
selects the curves that ``simulate`` checks.  ``audit`` checks each theorem on
the grid :func:`claimorder.ordercheck.theorem_grid` builds for the extreme
that theorem compares, so its report does not depend on ``kind``.  CSV output
uses the fixed header ``x,value_a,value_b,delta`` with 17 significant digits,
so equal inputs produce byte-identical files.  Exit codes: 0 success, 1 usage
or parse error, 2 potential counterexample, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import extremes as ext
from . import majorization as maj
from .cases import CASE_NAMES, InstanceSpec, get_case
from .errors import ClaimOrderError, DomainError, SpecError
from .extremes import ClaimCountDistribution, ExtremeKind, Portfolio, poisson_counts
from .ordercheck import POTENTIAL_COUNTEREXAMPLE, TheoremId, audit, theorem_grid, verify_rh, verify_st
from .severity import (
    Exponential,
    Gamma,
    KumaraswamyG,
    PowerGeneralizedWeibull,
    ProportionalHazard,
    PsiTransform,
    Scale,
    SeverityFamily,
    WeibullRate,
    exponential_decay,
    gamma_baseline,
    neg_log,
    power_inverse,
)
from .simulate import SimulationConfig, dkw_bound, ks_distance, sample_extreme

__all__ = ["main", "InstanceSpec", "load_instance_spec", "write_curve_csv"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# instance specification files


def _spec_error(path: str, message: str) -> SpecError:
    return SpecError(f"{path}: {message}")


def _require(mapping, key, path, expected=None):
    if not isinstance(mapping, dict):
        raise _spec_error(path, f"expected a mapping, got {type(mapping).__name__}")
    if key not in mapping:
        raise _spec_error(f"{path}.{key}", "missing required field")
    value = mapping[key]
    if expected is not None and not isinstance(value, expected):
        names = getattr(expected, "__name__", str(expected))
        raise _spec_error(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    return value


def _get_number(mapping, key, path, default=None):
    if key not in mapping:
        if default is not None:
            return default
        raise _spec_error(f"{path}.{key}", "missing required field")
    value = mapping[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise _spec_error(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _get_vector(mapping, key, path):
    value = _require(mapping, key, path, expected=list)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise _spec_error(f"{path}.{key}", "expected a list of numbers")
    if arr.ndim != 1 or arr.size == 0:
        raise _spec_error(f"{path}.{key}", "expected a non-empty flat list of numbers")
    if not np.all(np.isfinite(arr)):
        raise _spec_error(f"{path}.{key}", f"expected finite numbers, got {value!r}")
    return arr


def _get_integer(mapping, key, path, default=None):
    value = _get_number(mapping, key, path, default)
    if value != int(value):
        raise _spec_error(f"{path}.{key}", f"expected an integer, got {value!r}")
    return int(value)


def _get_integers(mapping, key, path):
    values = _get_vector(mapping, key, path).tolist()
    ints = [int(v) for v in values]
    if ints != values:
        raise _spec_error(f"{path}.{key}", f"expected integers, got {values!r}")
    return ints


def _build_baseline(node, path):
    kind = _require(node, "kind", path, expected=str)
    if kind == "gamma":
        return gamma_baseline(_get_number(node, "shape", path))
    raise _spec_error(f"{path}.kind", f"unknown baseline kind {kind!r} (supported: gamma)")


def _build_family(node, path) -> SeverityFamily:
    kind = _require(node, "kind", path, expected=str)
    try:
        if kind == "exponential":
            return Exponential()
        if kind == "weibull_rate":
            return WeibullRate(shape=_get_number(node, "shape", path))
        if kind == "gamma":
            return Gamma(theta=_get_number(node, "theta", path))
        if kind == "pgw":
            return PowerGeneralizedWeibull(c=_get_number(node, "c", path))
        if kind == "scale":
            return Scale(_build_baseline(_require(node, "baseline", path), f"{path}.baseline"))
        if kind == "proportional_hazard":
            return ProportionalHazard(
                _build_baseline(_require(node, "baseline", path), f"{path}.baseline")
            )
        if kind == "kumaraswamy_g":
            return KumaraswamyG(
                _build_baseline(_require(node, "baseline", path), f"{path}.baseline"),
                gamma=_get_number(node, "gamma", path),
            )
    except DomainError as exc:
        raise _spec_error(path, str(exc))
    raise _spec_error(f"{path}.kind", f"unknown family kind {kind!r}")


def _build_psi(node, path) -> PsiTransform:
    kind = _require(node, "kind", path, expected=str)
    try:
        if kind == "neg_log":
            return neg_log()
        if kind == "exponential_decay":
            return exponential_decay(_get_number(node, "a", path))
        if kind == "power_inverse":
            return power_inverse(_get_number(node, "b", path))
    except DomainError as exc:
        raise _spec_error(path, str(exc))
    raise _spec_error(f"{path}.kind", f"unknown psi kind {kind!r}")


def _build_portfolio(node, path) -> Portfolio:
    family = _build_family(_require(node, "family", path), f"{path}.family")
    psi = _build_psi(_require(node, "psi", path), f"{path}.psi")
    p = _get_vector(node, "p", path)
    alpha = _get_vector(node, "alpha", path)
    try:
        return Portfolio(family, psi, p, alpha)
    except DomainError as exc:
        raise _spec_error(path, str(exc))


def _build_counts(node, path) -> ClaimCountDistribution:
    kind = _require(node, "kind", path, expected=str)
    try:
        if kind == "poisson":
            support = _get_integers(node, "support", path)
            return poisson_counts(_get_number(node, "lam", path), support)
        if kind == "explicit":
            support = _get_integers(node, "support", path)
            weights = _get_vector(node, "weights", path)
            return ClaimCountDistribution(np.asarray(support), weights)
        if kind == "degenerate":
            return ClaimCountDistribution.degenerate(_get_integer(node, "m", path))
    except (DomainError, OverflowError) as exc:
        raise _spec_error(path, str(exc))
    raise _spec_error(f"{path}.kind", f"unknown counts kind {kind!r}")


def load_instance_spec(path: str) -> InstanceSpec:
    # imported here: only the commands that read an instance file need it
    import yaml

    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}")
    except yaml.YAMLError as exc:
        raise SpecError(f"{path}: not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: top level must be a mapping (missing field portfolio_a)")

    kind_str = doc.get("kind", "max")
    if kind_str not in ("min", "max"):
        raise _spec_error("kind", f"expected 'min' or 'max', got {kind_str!r}")
    grid_node = doc.get("grid", {})
    if not isinstance(grid_node, dict):
        raise _spec_error("grid", "expected a mapping")

    def _grid_edge(key):
        value = grid_node.get(key, "auto")
        if value in ("auto", None):
            return None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not np.isfinite(value) or value <= 0):
            raise _spec_error(f"grid.{key}",
                              f"expected a positive number or 'auto', got {value!r}")
        return float(value)

    points = grid_node.get("points", 2000)
    if not isinstance(points, int) or points < 16:
        raise _spec_error("grid.points", f"expected an integer >= 16, got {points!r}")

    x_min, x_max = _grid_edge("x_min"), _grid_edge("x_max")
    if x_min is not None and x_max is not None and x_min >= x_max / 10.0:
        raise _spec_error("grid.x_min", f"must lie below grid.x_max / 10 = {x_max / 10.0:g}, "
                                        f"got {x_min:g}")

    tolerance = _get_number(doc, "tolerance", "<root>", default=1e-9)
    if tolerance <= 0:
        raise _spec_error("<root>.tolerance", f"expected a positive number, got {tolerance!r}")

    spec = InstanceSpec(
        portfolio_a=_build_portfolio(_require(doc, "portfolio_a", "<root>"), "portfolio_a"),
        portfolio_b=_build_portfolio(_require(doc, "portfolio_b", "<root>"), "portfolio_b"),
        counts_a=_build_counts(_require(doc, "counts_a", "<root>"), "counts_a"),
        counts_b=_build_counts(_require(doc, "counts_b", "<root>"), "counts_b"),
        kind=ExtremeKind(kind_str),
        points=points,
        x_min=x_min,
        x_max=x_max,
        tolerance=tolerance,
        seed=_get_integer(doc, "seed", "<root>", default=0),
    )
    for label, counts in (("counts_a", spec.counts_a), ("counts_b", spec.counts_b)):
        pf = spec.portfolio_a if label == "counts_a" else spec.portfolio_b
        if counts.max_support > pf.n:
            raise _spec_error(label, "count support exceeds portfolio size")
    return spec


# ---------------------------------------------------------------------------
# CSV emission


def _fmt17(v: float) -> str:
    return format(float(v), ".17g")


def write_curve_csv(path: str, x, value_a, value_b, delta) -> None:
    """Write the fixed curve layout: header x,value_a,value_b,delta, 17
    significant digits, no thousands separators."""
    with open(path, "w", newline="") as fh:
        fh.write("x,value_a,value_b,delta\n")
        for xi, ai, bi, di in zip(x, value_a, value_b, delta):
            fh.write(f"{_fmt17(xi)},{_fmt17(ai)},{_fmt17(bi)},{_fmt17(di)}\n")


# ---------------------------------------------------------------------------
# reproduce


def _difference_verdict(case, x, tol) -> str:
    # fl(b - a) = -fl(a - b), so b >=_st a holding is max(a - b) <= tol;
    # 0.0 - margin prints a zero margin as 0, not -0
    le = verify_st(case.curve_b, case.curve_a, x, tol)
    if le.holds:
        return f"holds: difference <= 0 everywhere (max difference {0.0 - le.margin:.6g})"
    ge = verify_st(case.curve_a, case.curve_b, x, tol)
    if ge.holds:
        return f"holds: difference >= 0 everywhere (min difference {ge.margin:.6g})"
    # the direction failing later brackets the first crossing; the other's
    # witness lies before that bracket
    return f"sign change at x ~= {max(le.witness[0], ge.witness[0]):.6g}"


def _ratio_verdict(case, x, tol) -> str:
    verdict = verify_rh(case.curve_a, case.curve_b, x, tol=tol)
    if verdict.holds:
        return "ratio non-decreasing on the grid"
    i = int(np.searchsorted(x, verdict.witness[0])) - 1
    return f"ratio decreases on [{x[i]:.6g}, {x[i + 2]:.6g}] (not monotone)"


def cmd_reproduce(args) -> int:
    case = get_case(args.case, literal=args.literal)
    for note in case.corrections:
        print(f"correction applied: {note}")
    x = case.grid(points=args.points)
    a = case.curve_a(x)
    b = case.curve_b(x)
    delta = a / b if case.comparison == "ratio" else a - b
    if args.out:
        write_curve_csv(args.out, x, a, b, delta)
        print(f"wrote {x.size} rows to {args.out}")
    if case.comparison == "ratio":
        verdict = _ratio_verdict(case, x, args.tol)
    else:
        verdict = _difference_verdict(case, x, args.tol)
    print(f"{args.case}: {verdict}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit


def _print_audit(result) -> None:
    print(f"theorem {result.theorem_id.value}: {result.classification}")
    width = max((len(p.name) for p in result.preconditions), default=0)
    for p in result.preconditions:
        flag = "ok  " if p.satisfied else "FAIL"
        suffix = f"  ({p.evidence})" if p.evidence else ""
        print(f"  [{flag}] {p.name:<{width}}{suffix}")
    c = result.conclusion
    line = f"  conclusion: holds={c.holds} margin={c.margin:.6g} on {c.grid_spec}"
    if c.witness:
        line += f" witness x={c.witness[0]:.6g}"
    print(line)


def cmd_audit(args) -> int:
    spec = load_instance_spec(args.spec)
    if args.theorem == "all":
        ids = list(TheoremId)
    else:
        try:
            ids = [TheoremId(args.theorem.upper())]
        except ValueError:
            raise SpecError(
                f"unknown theorem id {args.theorem!r}; choose from "
                + ", ".join(t.value for t in TheoremId) + " or 'all'"
            )
    inputs = (spec.portfolio_a, spec.portfolio_b, spec.counts_a, spec.counts_b)
    reports = []
    for tid in ids:
        # outside the try: a grid error is a usage error, never a skipped theorem
        grid = theorem_grid(tid, *inputs, spec.points, spec.x_min, spec.x_max)
        try:
            result = audit(tid, *inputs, grid=grid, tol=spec.tolerance)
        except DomainError as exc:
            if args.theorem != "all":
                raise
            print(f"theorem {tid.value}: skipped ({exc})")
            continue
        _print_audit(result)
        reports.append(result.to_dict())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2)
            fh.write("\n")
        print(f"wrote JSON report to {args.out}")
    found = any(r["classification"] == POTENTIAL_COUNTEREXAMPLE for r in reports)
    return EXIT_COUNTEREXAMPLE if found else EXIT_OK


# ---------------------------------------------------------------------------
# majorize


def _prefix_table(label, a, b) -> None:
    a_s = np.sort(np.asarray(a, dtype=float))
    b_s = np.sort(np.asarray(b, dtype=float))
    pa, pb = np.cumsum(a_s), np.cumsum(b_s)
    print(f"  {label}: sorted-ascending prefix sums")
    print(f"    a: {np.array2string(pa, precision=6)}")
    print(f"    b: {np.array2string(pb, precision=6)}")
    rel = np.where(pb >= pa - 1e-12, "b>=a", "b<a ")
    print(f"    cmp: {' '.join(rel)}")


def cmd_majorize(args) -> int:
    spec = load_instance_spec(args.spec)
    A = spec.portfolio_a.param_matrix()
    B = spec.portfolio_b.param_matrix()
    pairs = [
        ("alpha rows", A.row_alpha, B.row_alpha),
        ("psi rows", A.row_psi, B.row_psi),
    ]
    for label, a, b in pairs:
        _prefix_table(label, a, b)
        for name, x, y in ((f"{label}: a vs b", a, b), (f"{label}: b vs a", b, a)):
            print(
                f"  {name}: majorizes={maj.majorizes(x, y)} "
                f"weakly_supermajorizes={maj.weakly_supermajorizes(x, y)}"
            )
    rw_ab = maj.row_weakly_majorizes(A, B)
    rw_ba = maj.row_weakly_majorizes(B, A)
    rm_ab = maj.row_majorizes(A, B)
    rm_ba = maj.row_majorizes(B, A)
    print(f"  matrix A row-majorizes B: {rm_ab.holds} (psi {rm_ab.psi_row}, alpha {rm_ab.alpha_row})")
    print(f"  matrix B row-majorizes A: {rm_ba.holds} (psi {rm_ba.psi_row}, alpha {rm_ba.alpha_row})")
    print(f"  matrix A row-weakly majorizes B: {rw_ab.holds} (psi {rw_ab.psi_row}, alpha {rw_ab.alpha_row})")
    print(f"  matrix B row-weakly majorizes A: {rw_ba.holds} (psi {rw_ba.psi_row}, alpha {rw_ba.alpha_row})")
    ds_ab = maj.chain_majorizes_doubly_stochastic(A, B)
    ds_ba = maj.chain_majorizes_doubly_stochastic(B, A)
    print(f"  B = A P for doubly stochastic P: {ds_ab.feasible}")
    print(f"  A = B P for doubly stochastic P: {ds_ba.feasible}")
    print(f"  A in M_n: {maj.in_Mn(A)}; B in M_n: {maj.in_Mn(B)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    spec = load_instance_spec(args.spec)
    seed = spec.seed if args.seed is None else args.seed
    config = SimulationConfig(samples=args.samples, seed=seed)
    grid = spec.grid()
    exit_code = EXIT_OK
    curves = {}
    for label, pf, counts in (
        ("a", spec.portfolio_a, spec.counts_a),
        ("b", spec.portfolio_b, spec.counts_b),
    ):
        emp = sample_extreme(pf, counts, spec.kind, config)
        if spec.kind is ExtremeKind.MIN:
            analytic = lambda x, pf=pf, counts=counts: ext.cdf_min_random(pf, counts, x)
        else:
            analytic = lambda x, pf=pf, counts=counts: ext.cdf_max_random(pf, counts, x)
        ks = ks_distance(emp, analytic)
        bound = dkw_bound(config.samples)
        ok = ks <= bound
        print(
            f"portfolio {label}: KS distance {ks:.6g} vs DKW bound {bound:.6g} "
            f"({'within' if ok else 'EXCEEDS'} bound, {config.samples} samples, seed {config.seed})"
        )
        curves[label] = (emp, analytic)
        if not ok:
            exit_code = EXIT_COUNTEREXAMPLE
    if args.out:
        emp, analytic = curves["a"]
        emp_vals = emp.cdf(grid)
        ana_vals = np.asarray(analytic(grid), dtype=float)
        write_curve_csv(args.out, grid, emp_vals, ana_vals, emp_vals - ana_vals)
        print(f"wrote empirical-vs-analytic overlay for portfolio a to {args.out}")
    return exit_code


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="claimorder", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="reproduce a built-in curve comparison")
    rep.add_argument("case", choices=CASE_NAMES)
    rep.add_argument("--out", help="CSV output path")
    rep.add_argument("--points", type=int, default=2000)
    rep.add_argument("--tol", type=_tolerance, default=1e-9,
                     help="a difference beyond it at one grid point decides; a ratio must "
                          "fall by more in two consecutive steps (default 1e-9)")
    rep.add_argument(
        "--literal", action="store_true",
        help="use published probabilities verbatim; refuse if any lies outside (0, 1)",
    )
    rep.set_defaults(fn=cmd_reproduce)

    aud = sub.add_parser("audit", help="audit ordering theorems on an instance file")
    aud.add_argument("spec", help="instance YAML file")
    aud.add_argument("--theorem", default="all", help="theorem id or 'all'")
    aud.add_argument("--out", help="JSON report path")
    aud.set_defaults(fn=cmd_audit)

    mjz = sub.add_parser("majorize", help="majorization report for an instance file")
    mjz.add_argument("spec", help="instance YAML file")
    mjz.set_defaults(fn=cmd_majorize)

    sim = sub.add_parser("simulate", help="Monte Carlo cross-check of analytic curves")
    sim.add_argument("spec", help="instance YAML file")
    sim.add_argument("--samples", type=int, default=100000)
    sim.add_argument("--seed", type=int, default=None,
                     help="sampler seed (default: the instance file's seed)")
    sim.add_argument("--out", help="CSV overlay output path")
    sim.set_defaults(fn=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClaimOrderError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
