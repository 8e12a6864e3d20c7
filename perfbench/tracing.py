"""In-memory span tracer that wraps claimorder's public functions from outside.

A span is (name, start, end, parent, op): ``parent`` is the index of the span
that was open when this one started (-1 at the root) and ``op`` is the
benchmark operation (one request of the workload) it belongs to.  Spans stay
in memory until :meth:`Tracer.dump` writes them out.  A layer's self time is
its spans' durations minus the time covered by their direct child spans.

Nothing inside the program is changed: :func:`install` replaces module and
class attributes with timing wrappers and :func:`uninstall` puts the
originals back.  A name that a later version of the program no longer has is
skipped, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

_MODULES = ("severity", "majorization", "extremes", "ordercheck", "simulate", "cases", "cli")

_SEVERITY_CLASSES = (
    "SeverityFamily", "Exponential", "WeibullRate", "Gamma", "PowerGeneralizedWeibull",
    "Scale", "ProportionalHazard", "KumaraswamyG",
)

# (module, attribute) -> span name; extremes' *_fixed / *_random functions are
# added by name pattern in :func:`install`.
_FUNCTIONS = {
    ("severity", "check_regularity"): "severity.check_regularity",
    ("majorization", "chain_majorizes_doubly_stochastic"): "majorization.lp",
    ("majorization", "birkhoff_vertex_feasible"): "majorization.lp",
    ("majorization", "majorizes"): "majorization.predicates",
    ("majorization", "weakly_supermajorizes"): "majorization.predicates",
    ("majorization", "row_majorizes"): "majorization.predicates",
    ("majorization", "row_weakly_majorizes"): "majorization.predicates",
    ("majorization", "in_Mn"): "majorization.predicates",
    ("extremes", "auto_x_grid"): "extremes.auto_x_grid",
    ("ordercheck", "audit"): "ordercheck.audit",
    ("ordercheck", "verify_st"): "ordercheck.verify",
    ("ordercheck", "verify_rh"): "ordercheck.verify",
    ("simulate", "sample_extreme"): "simulate.sample_extreme",
    ("simulate", "ks_distance"): "simulate.ks_distance",
    ("cli", "load_instance_spec"): "cli.load_instance_spec",
    ("cli", "write_curve_csv"): "cli.write_curve_csv",
}


def _support_size(args, kwargs):
    counts = args[1] if len(args) > 1 else kwargs.get("counts")
    return int(np.size(counts.support))


def _cells(args, kwargs):
    u = args[1] if len(args) > 1 else kwargs.get("u")  # args[0] is self
    return int(np.size(u))


class Tracer:
    """Collects spans and per-span integer attributes in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attr: dict[int, int] = {}
        self.current_op = -1
        self.enabled = True
        self._stack: list[int] = []
        self._clock = time.perf_counter_ns

    def wrap(self, name, fn, attr_fn=None):
        names, start, end, parent, op, stack = (
            self.names, self.start, self.end, self.parent, self.op, self._stack)
        clock = self._clock
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            end.append(0)
            if attr_fn is not None:
                tracer.attr[idx] = attr_fn(args, kwargs)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- analysis --------------------------------------------------------

    def arrays(self):
        names = np.array(self.names, dtype=object)
        dur = (np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)) / 1e9
        parent = np.array(self.parent, dtype=np.int64)
        return names, dur, parent

    def self_times(self):
        """Total self time in seconds per span name, and call counts."""
        names, dur, parent = self.arrays()
        if not names.size:
            return {}, {}
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=names.size)
        own = dur - covered
        totals, calls = defaultdict(float), defaultdict(int)
        for n, s in zip(names, own):
            totals[n] += float(s)
            calls[n] += 1
        return dict(totals), dict(calls)

    def attr_sum(self, name):
        return sum(v for i, v in self.attr.items() if self.names[i] == name)

    def fixed_call_check(self):
        """(fixed-m evaluations made by the mixtures, the analytic count).

        A mixture over a count support S evaluates one fixed-m curve per
        support point, so the analytic count is the sum of |S| over the
        random-N spans that did not delegate to another random-N span.
        """
        names, _, parent = self.arrays()
        is_random = names == "extremes.random"
        delegated = np.zeros(names.size, dtype=bool)
        child_of_random = np.zeros(names.size, dtype=bool)
        has = parent >= 0
        idx = np.nonzero(has)[0]
        child_of_random[idx] = is_random[parent[idx]]
        delegated[parent[idx[is_random[idx] & is_random[parent[idx]]]]] = True
        measured = int(np.count_nonzero(child_of_random & (names == "extremes.fixed")))
        analytic = int(sum(self.attr[i] for i in np.nonzero(is_random & ~delegated)[0]))
        return measured, analytic

    def merge(self, doc, op):
        """Append spans dumped by another process, as part of operation ``op``."""
        offset = len(self.names)
        for name, start, end, parent, _ in doc["spans"]:
            self.names.append(doc["names"][name])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op.append(op)
        for i, v in doc.get("attr", {}).items():
            self.attr[int(i) + offset] = v

    def dump(self, path):
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [
                [ids[n], s, e, p, o]
                for n, s, e, p, o in zip(self.names, self.start, self.end, self.parent, self.op)
            ],
            "attr": {str(k): v for k, v in self.attr.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer):
    """Wrap the layer boundaries; return the list of undo records."""
    mods = {}
    for m in _MODULES:
        try:
            mods[m] = importlib.import_module(f"claimorder.{m}")
        except ImportError:
            continue
    undo = []

    def rebind(original, wrapped):
        # follow `from .x import name` copies into every package module
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    targets = dict(_FUNCTIONS)
    ext = mods.get("extremes")
    if ext is not None:
        for attr, value in vars(ext).items():
            if callable(value) and not attr.startswith("_"):
                if attr.endswith("_fixed"):
                    targets[("extremes", attr)] = "extremes.fixed"
                elif attr.endswith("_random"):
                    targets[("extremes", attr)] = "extremes.random"
    for (m, attr), name in targets.items():
        fn = getattr(mods.get(m), attr, None)
        if fn is None:
            continue
        attr_fn = _support_size if name == "extremes.random" else None
        rebind(fn, tracer.wrap(name, fn, attr_fn))

    sev = mods.get("severity")
    for cls_name in _SEVERITY_CLASSES:
        cls = getattr(sev, cls_name, None)
        if cls is None:
            continue
        for meth in ("log_survival", "hazard", "inverse_survival"):
            fn = cls.__dict__.get(meth)
            if fn is None:
                continue
            attr_fn = _cells if meth == "inverse_survival" else None
            undo.append((cls, meth, fn))
            setattr(cls, meth, tracer.wrap(f"severity.{meth}", fn, attr_fn))
    return undo


def uninstall(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
