"""The four benchmark workloads: seeded inputs, operations and output checks.

Every workload is a closed loop with one client: it yields rounds of
operations, and the runner times each operation's ``run`` and then calls its
``check`` outside the timed region.  A round is the unit after which the loop
may stop, so every run holds the same mix of operations.  Inputs depend only
on the workload seed and the round index.  The traced pass runs a fixed
number of rounds (``trace_rounds``), so its counts repeat exactly.

Why these four (each stresses other layers, see ``BENCHMARK.json``):

* ``audit_sweep`` - many small ``audit()`` calls: per-call overhead, the
  regularity check, the LP and re-checks; no sampling.
* ``mc_crosscheck`` - ``sample_extreme`` at 2^18 samples plus ``ks_distance``:
  severity inversion and the mixture CDF on many points; no audits.
* ``large_portfolio`` - st and rh comparisons of portfolios with n up to 96:
  the O(n * |support|) mixture; no audits, no sampling.
* ``cli_cold`` - fresh ``python -m claimorder.cli`` processes: import cost,
  YAML parsing and CSV/JSON writing.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from claimorder import extremes as ext
from claimorder import ordercheck as oc
from claimorder import simulate as sim
from claimorder.cases import get_case
from claimorder.errors import DomainError
from claimorder.extremes import ClaimCountDistribution, ExtremeKind, Portfolio
from claimorder.severity import (
    Exponential,
    KumaraswamyG,
    ProportionalHazard,
    Scale,
    exponential_decay,
    gamma_baseline,
    neg_log,
    power_inverse,
)

CLASSES = (
    oc.CONFIRMED,
    oc.HYP_VIOLATED_CONCLUSION_FAILS,
    oc.HYP_VIOLATED_CONCLUSION_HOLDS,
    oc.POTENTIAL_COUNTEREXAMPLE,
)

DKW_LEVEL = 1e-3


@dataclass
class Op:
    """One request of a workload: ``run`` is timed, ``check`` is not.

    ``check`` takes run's return value and returns (work, error, info); an
    error string marks the output as wrong.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Record:
    label: str
    latency_s: float
    work: float
    status: str  # "ok", "skip" (expected DomainError) or "fail"
    error: Optional[str] = None
    info: dict = field(default_factory=dict)


_REF_SMALL = np.linspace(0.0, 1.0, 64)
_REF_BIG = np.linspace(1e-3, 20.0, 400_000)
_REF_U = np.linspace(1e-6, 1.0 - 1e-6, 5_000)
_REF_SHUFFLED = np.random.default_rng(0).random(400_000)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, NumPy and SciPy work:
    small-array calls in a loop, elementwise math, incomplete-gamma functions
    and their inverse, and a sort.

    It shares no code with claimorder; timed next to the operations it tells
    how fast the shared host runs at that moment.
    """
    from scipy import special

    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(10_000):
        acc += float(np.exp(-_REF_SMALL).sum())
    acc += float(np.log1p(np.exp(-_REF_BIG)).sum())
    acc += float(special.gammaincc(1.5, _REF_BIG[::4]).sum())
    acc += float(special.gammaincinv(1.5, _REF_U).sum())
    acc += float(np.sort(_REF_SHUFFLED)[0])
    return time.perf_counter() - t0


def _subseed(*words) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# audit_sweep

AUDIT_FAMILIES = ("exponential", "scale_gamma", "phr_gamma", "kwg_gamma")
AUDIT_POINTS = 800  # audit()'s default auto grid; a re-check doubles it to 2N-1
EQUAL_COUNT_THEOREMS = ("RH_MAX_RANDOM", "RH_MIN_RANDOM", "RH_MIN_PRESERVE")


def _psi(rng):
    choice = int(rng.integers(3))
    if choice == 0:
        return neg_log()
    if choice == 1:
        return exponential_decay(float(rng.uniform(0.5, 3.0)))
    return power_inverse(float(rng.uniform(0.5, 2.0)))


def _audit_family(name, rng):
    if name == "exponential":
        return Exponential()
    base = gamma_baseline(float(rng.uniform(1.2, 3.0)))
    if name == "scale_gamma":
        return Scale(base)
    if name == "phr_gamma":
        return ProportionalHazard(base)
    return KumaraswamyG(base, gamma=float(rng.uniform(0.5, 2.0)))


def _random_counts(rng, n):
    support = np.arange(int(rng.integers(1, n + 1)), n + 1)
    kind = int(rng.integers(3))
    if kind == 0:
        return ClaimCountDistribution.degenerate(n)
    if kind == 1:
        return ext.poisson_counts(float(rng.uniform(0.5, n)), support)
    w = rng.dirichlet(np.ones(support.size))
    return ClaimCountDistribution(support, w / w.sum())


class AuditSweep:
    """Instance pairs with n in 3..6 over four families, all 17 theorems each.

    Instance k has family ``AUDIT_FAMILIES[k % 4]`` and n = 3 + (k // 4) % 4,
    so every 16 instances cover each (family, n) once.  Half of the instances
    are structured (A in M_n, B = A T for a T-transform T), so hypotheses hold
    often enough that every classification and the re-check path occur.
    """

    name = "audit_sweep"
    trace_rounds = 32  # two full (family, n) cycles

    def __init__(self, seed, smoke, workdir, src):
        self.seed = seed
        self.theorems = list(oc.TheoremId)

    def instance(self, k):
        rng = np.random.default_rng([self.seed, 1, k])
        family = _audit_family(AUDIT_FAMILIES[k % 4], rng)
        n = 3 + (k // 4) % 4
        psi = _psi(rng)
        p_grid = np.linspace(0.02, 0.98, 97)
        psi_of_p = np.asarray(psi(p_grid))
        alpha = np.sort(rng.uniform(1.0, 6.0, n))
        # psi(p) sorted ascending alongside alpha keeps (psi(p), alpha) in M_n
        psi_a = np.sort(rng.uniform(psi_of_p.min(), psi_of_p.max(), n))
        if rng.random() < 0.5:
            i = int(rng.integers(n - 1))
            w = float(rng.uniform(0.5, 1.0))
            beta, psi_b = alpha.copy(), psi_a.copy()
            for row in (beta, psi_b):
                row[i], row[i + 1] = (w * row[i] + (1 - w) * row[i + 1],
                                      (1 - w) * row[i] + w * row[i + 1])
        else:
            beta = rng.uniform(1.0, 6.0, n)
            psi_b = rng.uniform(psi_of_p.min(), psi_of_p.max(), n)
        p = np.clip(np.asarray(psi.inverse(psi_a), dtype=float), 0.02, 0.98)
        q = np.clip(np.asarray(psi.inverse(psi_b), dtype=float), 0.02, 0.98)
        counts_a, counts_b = _random_counts(rng, n), _random_counts(rng, n)
        pa = Portfolio(family, psi, p, alpha)
        pb = Portfolio(family, psi, q, beta)
        variants = {
            "equal_p": Portfolio(family, psi, p, beta),
            "equal_alpha": Portfolio(family, psi, q, alpha),
        }
        return pa, pb, counts_a, counts_b, variants

    def round(self, k):
        pa, pb, ca, cb, variants = self.instance(k)
        ops = []
        for tid in self.theorems:
            b, cb_t = pb, cb
            if tid.value.endswith("_ALPHA"):
                b = variants["equal_p"]
            elif tid.value.endswith("_PSI"):
                b = variants["equal_alpha"]
            if tid.value in EQUAL_COUNT_THEOREMS:
                cb_t = ca
            run = lambda tid=tid, b=b, cb_t=cb_t: oc.audit(tid, pa, b, ca, cb_t)
            ops.append(Op(tid.value, run, self.check))
        return ops

    @staticmethod
    def check(result):
        info = {"class": result.classification}
        points = int(result.conclusion.grid_spec.split()[0])
        info["recheck"] = points == 2 * AUDIT_POINTS - 1
        if result.classification not in CLASSES:
            return 1, f"unknown classification {result.classification!r}", info
        if not np.isfinite(result.conclusion.margin):
            return 1, f"non-finite margin {result.conclusion.margin!r}", info
        return 1, None, info

    def warmup(self):
        return self.round(0)[0]


# ---------------------------------------------------------------------------
# mc_crosscheck


class McCrosscheck:
    """Seven (portfolio, kind) checks per round at 2^18 samples each.

    ex3_1 a/b for MIN and MAX (gamma shape 1.5), cex3_2 a/b for MIN (shape
    10.09) and one seeded exponential portfolio for MAX.  Each round draws
    fresh sample seeds; the KS distance must lie within the DKW band.
    """

    name = "mc_crosscheck"
    trace_rounds = 1

    def __init__(self, seed, smoke, workdir, src):
        self.seed = seed
        self.samples = 1 << 12 if smoke else 1 << 18
        ex, cx = get_case("ex3_1"), get_case("cex3_2")
        rng = np.random.default_rng([seed, 2])
        expo = Portfolio(Exponential(), neg_log(), rng.uniform(0.2, 0.8, 5),
                         np.sort(rng.uniform(0.5, 3.0, 5)))
        expo_counts = ext.poisson_counts(float(rng.uniform(0.5, 3.0)), [3, 4, 5])
        MIN, MAX = ExtremeKind.MIN, ExtremeKind.MAX
        self.checks = [
            ("ex3_1_a_min", ex.portfolio_a, ex.counts_a, MIN),
            ("ex3_1_b_min", ex.portfolio_b, ex.counts_b, MIN),
            ("ex3_1_a_max", ex.portfolio_a, ex.counts_a, MAX),
            ("ex3_1_b_max", ex.portfolio_b, ex.counts_b, MAX),
            ("cex3_2_a_min", cx.portfolio_a, cx.counts_a, MIN),
            ("cex3_2_b_min", cx.portfolio_b, cx.counts_b, MIN),
            ("exponential_max", expo, expo_counts, MAX),
        ]

    def _op(self, r, c):
        label, pf, counts, kind = self.checks[c]
        config = sim.SimulationConfig(samples=self.samples, seed=_subseed(self.seed, r, c))

        def run():
            emp = sim.sample_extreme(pf, counts, kind, config)
            cdf = ext.cdf_min_random if kind is ExtremeKind.MIN else ext.cdf_max_random
            return sim.ks_distance(emp, lambda x: cdf(pf, counts, x))

        # cells the extreme depends on: J_i = 1 and i < N
        used = float(self.samples * np.dot(counts.weights, np.cumsum(pf.p)[counts.support - 1]))

        def check(ks):
            bound = sim.dkw_bound(self.samples, DKW_LEVEL)
            info = {"ks": ks, "dkw": bound, "used_cells": used}
            if not np.isfinite(ks) or ks > bound:
                return self.samples, f"{label}: KS {ks:.6g} exceeds DKW bound {bound:.6g}", info
            return self.samples, None, info

        return Op(label, run, check)

    def round(self, r):
        return [self._op(r, c) for c in range(len(self.checks))]

    def warmup(self):
        return self._op(0, len(self.checks) - 1)


# ---------------------------------------------------------------------------
# large_portfolio


# Count weights need only sum to 1 within 1e-12 (ClaimCountDistribution), so
# a mixture of probabilities may exceed 1 by that much and still be correct.
PROB_SLACK = 1e-12


class _Curve:
    """A curve callable that counts the points it evaluates and flags values
    that are non-finite, negative or, for probabilities, above 1."""

    def __init__(self, fn, probability):
        self.fn = fn
        self.probability = probability
        self.points = 0
        self.bad = 0

    def __call__(self, x):
        v = np.asarray(self.fn(x), dtype=float)
        self.points += v.size
        ok = np.isfinite(v) & (v >= 0.0)
        if self.probability:
            ok &= v <= 1.0 + PROB_SLACK
        self.bad += int(v.size - np.count_nonzero(ok))
        return v


class LargePortfolio:
    """Heterogeneous scale-gamma portfolios (shape 1.5) with n in {16, 48, 96}.

    Counts spread over 1..n on n/8 evenly spaced support points, either
    explicit uniform or a wide truncated Poisson, so the mixture work grows as
    n^2.  A comparison is, for MIN and MAX, a 1000-point auto grid,
    ``verify_st`` on survivals and ``verify_rh`` on CDFs with reversed-hazard
    callables.  One operation compares one pair at each n, so that the
    latency median does not depend on which n sits in the middle.
    """

    name = "large_portfolio"
    trace_rounds = 2
    points = 1000

    def __init__(self, seed, smoke, workdir, src):
        self.seed = seed
        self.sizes = (4, 8, 12) if smoke else (16, 48, 96)
        if smoke:
            self.points = 100

    def portfolios(self, r, n):
        """Portfolio A with heterogeneous (p_i, alpha_i); B takes larger rates
        and smaller probabilities, so A >=_st B for MIN and MAX and the
        verifiers do the same work on every comparison (no witness search)."""
        rng = np.random.default_rng([self.seed, 3, r, n])
        family = Scale(gamma_baseline(1.5))
        support = np.unique(np.round(np.linspace(1, n, max(2, n // 8))).astype(int))
        if rng.random() < 0.5:
            counts = ClaimCountDistribution(support, np.full(support.size, 1.0 / support.size))
        else:
            counts = ext.poisson_counts(float(rng.uniform(n / 4, 3 * n / 4)), support)
        p = rng.uniform(0.1, 0.6, n)
        alpha = rng.uniform(1.0, 5.0, n)
        pa = Portfolio(family, neg_log(), p, alpha)
        pb = Portfolio(family, neg_log(), p * rng.uniform(0.7, 0.95, n),
                       alpha * rng.uniform(1.05, 1.5, n))
        return (pa, counts), (pb, counts)

    def _comparison(self, r, n, curves):
        """One full comparison of a portfolio pair; returns the verdicts."""
        (pa, ca), (pb, cb) = self.portfolios(r, n)

        def curve(fn, probability=True):
            c = _Curve(fn, probability)
            curves.append(c)
            return c

        out = {}
        for kind in (ExtremeKind.MIN, ExtremeKind.MAX):
            grid = ext.auto_x_grid([pa, pb], [ca, cb], kind, points=self.points)
            if kind is ExtremeKind.MIN:
                surv = lambda pf, c: curve(lambda x: ext.survival_min_random(pf, c, x))
                cdf = lambda pf, c: curve(lambda x: ext.cdf_min_random(pf, c, x))
            else:
                surv = lambda pf, c: curve(lambda x: ext.survival_max_random(pf, c, x))
                cdf = lambda pf, c: curve(lambda x: ext.cdf_max_random(pf, c, x))
            rh = lambda pf, c, kind=kind: curve(
                lambda x: ext.reversed_hazard_random(pf, c, kind, x), probability=False)
            st = oc.verify_st(surv(pa, ca), surv(pb, cb), grid)
            rhv = oc.verify_rh(cdf(pa, ca), cdf(pb, cb), grid, rh_a=rh(pa, ca), rh_b=rh(pb, cb))
            out[kind] = (grid, st, rhv)
        return (pa, pb), out

    def _op(self, r, sizes=None):
        curves = []

        def run():
            results = {}
            for n in sizes or self.sizes:
                t = time.perf_counter()
                results[n] = self._comparison(r, n, curves) + (time.perf_counter() - t,)
            return results

        def check(results):
            work = sum(c.points for c in curves)
            bad = sum(c.bad for c in curves)
            info = {f"compare_n{n}_s": res[2] for n, res in results.items()}
            if bad:
                return work, f"{bad} curve values non-finite or outside [0, 1]", info
            for n, ((pa, pb), verdicts, _) in results.items():
                for kind, (grid, st, rhv) in verdicts.items():
                    if not (np.isfinite(st.margin) and np.isfinite(rhv.margin)):
                        return work, f"n={n} {kind.value}: non-finite verdict margin", info
                    err = (self.fixed_product_error(pa, kind, grid)
                           or self.fixed_product_error(pb, kind, grid))
                    if err:
                        return work, f"n={n} {kind.value}: {err}", info
            return work, None, info

        return Op(f"round{r}", run, check)

    @staticmethod
    def fixed_product_error(pf, kind, grid, rtol=1e-12):
        """The fixed m = n curve against a product built from family.survival."""
        xs = grid[:: max(1, grid.size // 10)]
        s = np.array([pf.family.survival(xs, a) for a in pf.alpha])  # [n, x]
        if kind is ExtremeKind.MIN:
            ref = np.prod(pf.p[:, None] * s, axis=0)
            got = ext.survival_min_fixed(pf, pf.n, xs)
        else:
            ref = np.prod(1.0 - pf.p[:, None] * s, axis=0)
            got = ext.cdf_max_fixed(pf, pf.n, xs)
        # below ~1e-290 the reference product loses digits to subnormals
        keep = ref > 1e-290
        rel = np.abs(np.asarray(got)[keep] - ref[keep]) / ref[keep]
        if rel.size and not np.all(rel <= rtol):
            return f"fixed m=n curve differs from the product by {rel.max():.3g} relative"
        return None

    def round(self, r):
        return [self._op(r)]

    def warmup(self):
        return self._op(0, sizes=self.sizes[:1])


# ---------------------------------------------------------------------------
# cli_cold

CSV_HEADER = ["x", "value_a", "value_b", "delta"]


def cli_env(src):
    env = {k: v for k, v in os.environ.items() if k != "CLAIMORDER_THREADS"}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def instance_yaml(rng):
    """A seeded scale-gamma instance (n = 5, shape 1.5) in the CLI's schema,
    and E[sum_{i<N} p_i] summed over its two portfolios."""
    ps = []

    def side():
        p = np.sort(rng.uniform(0.05, 0.6, 5))[::-1]
        alpha = np.sort(rng.uniform(1.5, 10.0, 5))
        ps.append(p)
        return (
            "  family: {kind: scale, baseline: {kind: gamma, shape: 1.5}}\n"
            "  psi: {kind: neg_log}\n"
            f"  p: [{', '.join(repr(float(v)) for v in p)}]\n"
            f"  alpha: [{', '.join(repr(float(v)) for v in alpha)}]\n"
        )

    text = "portfolio_a:\n" + side() + "portfolio_b:\n" + side()
    used = 0.0
    for label, p in zip("ab", ps):
        lam = float(rng.uniform(0.5, 3.0))
        counts = ext.poisson_counts(lam, [3, 4, 5])
        used += float(np.dot(counts.weights, np.cumsum(p)[counts.support - 1]))
        text += f"counts_{label}: {{kind: poisson, lam: {lam!r}, support: [3, 4, 5]}}\n"
    return text + "kind: max\ngrid: {points: 800}\n", used


class CliCold:
    """Fresh ``python -m claimorder.cli`` processes, one at a time.

    One operation is a round of the four subcommands on a freshly seeded
    instance: ``reproduce ex3_1 --out``, ``audit --out``, ``majorize`` and
    ``simulate`` with 1e5 samples.
    """

    name = "cli_cold"
    trace_rounds = 2
    SUBCOMMANDS = ("reproduce", "audit", "majorize", "simulate")

    def __init__(self, seed, smoke, workdir, src):
        self.seed = seed
        self.workdir = workdir
        self.env = cli_env(src)
        # launcher(tag) -> argv prefix of one CLI process; the traced pass swaps it
        self.launcher = lambda tag: [sys.executable, "-m", "claimorder.cli"]
        self.points = 200 if smoke else 2000
        self.samples = 1000 if smoke else 100000

    def commands(self, r):
        d = os.path.join(self.workdir, f"r{r}")
        os.makedirs(d, exist_ok=True)
        spec = os.path.join(d, "instance.yaml")
        text, used = instance_yaml(np.random.default_rng([self.seed, 4, r]))
        with open(spec, "w") as fh:
            fh.write(text)
        return d, used * self.samples, {
            "reproduce": ["reproduce", "ex3_1", "--points", str(self.points),
                          "--out", os.path.join(d, "curves.csv")],
            "audit": ["audit", spec, "--out", os.path.join(d, "report.json")],
            "majorize": ["majorize", spec],
            "simulate": ["simulate", spec, "--samples", str(self.samples),
                         "--seed", str(_subseed(self.seed, 4, r) % (1 << 31))],
        }

    def _spawn(self, args, tag):
        return subprocess.run(self.launcher(tag) + args, env=self.env, cwd=self.workdir,
                              capture_output=True, text=True, timeout=120)

    def _op(self, r, subs=SUBCOMMANDS):
        d, used_cells, cmds = self.commands(r)

        def run():
            out = {}
            for sub in subs:
                t = time.perf_counter()
                proc = self._spawn(cmds[sub], f"r{r}-{sub}")
                out[sub] = (time.perf_counter() - t, proc)
            return out

        def check(out):
            info = {f"{sub}_s": t for sub, (t, _) in out.items()}
            if "simulate" in out:
                info["used_cells"] = used_cells
            for sub, (_, proc) in out.items():
                if proc.returncode not in (0, 2):
                    tail = (proc.stderr or "").strip().splitlines()[-1:] or [""]
                    return len(out), f"{sub}: exit code {proc.returncode} {tail[0]}", info
                if not proc.stdout.strip():
                    return len(out), f"{sub}: empty stdout", info
            err = self.check_files(d, subs, info)
            return len(out), err, info

        return Op(f"round{r}", run, check)

    def check_files(self, d, subs, info):
        """Check the CSV and JSON outputs; note the audit classifications."""
        if "reproduce" in subs:
            with open(os.path.join(d, "curves.csv"), newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[:1] != [CSV_HEADER]:
                return f"reproduce: CSV header {rows[:1]!r}"
            if len(rows) - 1 != self.points:
                return f"reproduce: {len(rows) - 1} CSV rows, expected {self.points}"
        if "audit" in subs:
            try:
                with open(os.path.join(d, "report.json")) as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                return f"audit: JSON report unreadable: {exc}"
            if not isinstance(report, list) or not report:
                return "audit: JSON report is not a non-empty list"
            info["classes"] = [r["classification"] for r in report]
            info["rechecks"] = sum(
                r["conclusion"]["grid_spec"].startswith(f"{2 * AUDIT_POINTS - 1} points")
                for r in report)
            if not set(info["classes"]) <= set(CLASSES):
                return f"audit: unknown classification in {sorted(set(info['classes']))}"
        return None

    def round(self, r):
        return [self._op(r)]

    def warmup(self):
        return self._op(0, subs=("majorize",))


WORKLOADS = {w.name: w for w in (AuditSweep, McCrosscheck, LargePortfolio, CliCold)}


def run_op(op: Op, clock, tracer=None) -> Record:
    """Time ``op.run``; classify its outcome with ``op.check``.

    With a tracer, spans are recorded during ``run`` only, never during the
    benchmark's own checks.
    """
    t0 = clock()
    try:
        if tracer is not None:
            tracer.enabled = True
        try:
            result = op.run()
        finally:
            if tracer is not None:
                tracer.enabled = False
    except DomainError as exc:
        return Record(op.label, clock() - t0, 0, "skip", str(exc))
    except Exception as exc:  # any other exception is a failed operation
        return Record(op.label, clock() - t0, 0, "fail", f"{type(exc).__name__}: {exc}")
    latency = clock() - t0
    try:
        work, error, info = op.check(result)
    except Exception as exc:  # a check that cannot read the output fails it
        return Record(op.label, latency, 0, "fail", f"check raised {type(exc).__name__}: {exc}")
    return Record(op.label, latency, work, "fail" if error else "ok", error, info)
