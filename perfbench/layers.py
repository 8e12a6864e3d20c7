"""The traced pass and the per-layer metrics computed from its spans.

Which end-to-end metric each layer metric should move, and on which workload:

* ``severity.log_survival.*`` and ``severity.hazard.self_s`` - ``work_per_s``
  on large_portfolio (curve points), less on audit_sweep.
  ``severity.inverse_survival.*`` - ``work_per_s`` on mc_crosscheck only.
  ``severity.check_regularity.self_s`` - ``op_p50_ms`` on audit_sweep.
* ``majorization.lp.*`` - the audit tail (``audit_p95_ms``, the chain
  theorems) and the majorize subcommand of cli_cold;
  ``majorization.predicates.self_s`` - ``work_per_s`` on audit_sweep.
* ``extremes.fixed.calls`` (the O(n * |support|) signature),
  ``extremes.fixed.self_s`` and ``extremes.random.self_s`` -
  ``work_per_s`` on large_portfolio and, through the MAX KS curve, on
  mc_crosscheck.  ``extremes.auto_x_grid.self_s`` - audit_sweep.
* ``ordercheck.*`` - ``work_per_s`` and the tail on audit_sweep.
* ``simulate.*`` - ``work_per_s`` on mc_crosscheck.
* ``cli.import_s`` - ``op_p50_ms`` on cli_cold and ``setup_s`` everywhere;
  ``cli.load_instance_spec.self_s`` and ``cli.write_curve_csv.self_s`` -
  the reproduce and audit subcommands of cli_cold.

A layer a workload never calls reads 0 on it, which is the prediction.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SELF_TIMES = (
    "severity.log_survival", "severity.hazard", "severity.inverse_survival",
    "severity.check_regularity", "majorization.lp", "majorization.predicates",
    "extremes.fixed", "extremes.random", "extremes.auto_x_grid", "ordercheck.audit",
    "ordercheck.verify", "simulate.sample_extreme", "simulate.ks_distance",
    "cli.load_instance_spec", "cli.write_curve_csv",
)
CALLS = ("severity.log_survival", "majorization.lp", "ordercheck.verify")


def traced_pass(wl, args, tracer, run_rounds, rounds):
    """Run the same batch as the untraced pass with the tracer recording."""
    if isinstance(wl, workloads.CliCold):
        # each CLI process traces itself and writes its spans to a file
        spans = lambda tag: os.path.join(args.workdir, f"spans-{tag}.json")
        wl.launcher = lambda tag: [sys.executable, os.path.join(HERE, "cli_traced.py"), spans(tag)]
        records = run_rounds(wl, workloads.run_op, rounds=rounds)
        for r in range(rounds):
            for sub in wl.SUBCOMMANDS:
                path = spans(f"r{r}-{sub}")
                if os.path.exists(path):
                    with open(path) as fh:
                        tracer.merge(json.load(fh), op=r)
        return records
    tracer.enabled = False
    traced_op = lambda op, clock: workloads.run_op(op, clock, tracer)
    return run_rounds(wl, traced_op, rounds=rounds, tracer=tracer)


def import_seconds(src, repeats):
    """Fresh `import claimorder.cli` minus a bare interpreter start (medians)."""
    env = workloads.cli_env(src)

    def wall(code):
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append(time.perf_counter() - t)
        return statistics.median(times)

    bare = wall("pass")
    return wall("import claimorder.cli") - bare


def _strip_timings(info):
    return {k: v for k, v in info.items() if not k.endswith("_s")}


def layer_metrics(tracer, plain, traced, args, src):
    own, calls = tracer.self_times()
    m = {f"{name}.self_s": own.get(name, 0.0) for name in SELF_TIMES}
    m.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    m["severity.inverse_survival.cells"] = tracer.attr_sum("severity.inverse_survival")

    names, _, parent = tracer.arrays()
    fixed = names == "extremes.fixed"
    entry = fixed.copy()
    has = parent >= 0
    entry[has] &= ~fixed[parent[has]]
    m["extremes.fixed.calls"] = int(entry.sum())

    # audit_sweep notes one classification per operation, cli_cold a list per
    # audit report
    classes = [c for r in traced for c in ([r.info["class"]] if "class" in r.info
                                            else r.info.get("classes", []))]
    m["ordercheck.recheck.count"] = sum(
        int(r.info.get("recheck", 0)) + r.info.get("rechecks", 0) for r in traced)
    for cls in workloads.CLASSES:
        m[f"ordercheck.class.{cls}"] = classes.count(cls)
    cells = m["severity.inverse_survival.cells"]
    used = sum(r.info.get("used_cells", 0.0) for r in traced)
    m["simulate.used_cell_ratio"] = used / cells if cells else 0.0
    m["cli.import_s"] = import_seconds(src, 1 if args.smoke else 3)
    plain_s = sum(r.latency_s for r in plain)
    traced_s = sum(r.latency_s for r in traced)
    m["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)

    measured, analytic = tracer.fixed_call_check()
    same = [
        (a.label, a.status, _strip_timings(a.info)) == (b.label, b.status, _strip_timings(b.info))
        for a, b in zip(plain, traced)
    ]
    checks = {
        # the mixture evaluates one fixed-m curve per support point; a kernel
        # that no longer calls the public fixed-m functions cannot be counted
        # from outside, so the check is reported and never fails the run
        "extremes.fixed.calls": {
            "ok": measured in (analytic, 0), "hard": False,
            "detail": f"fixed-m calls made by mixtures {measured}, "
                      f"analytic sum of |support| {analytic}"
                      + (" (not applicable: no fixed-m calls seen)" if measured == 0 else ""),
        },
        "outputs_repeat": {
            "ok": len(plain) == len(traced) and all(same), "hard": True,
            "detail": f"{sum(same)} of {len(plain)} operations gave the same outputs "
                      "(classifications, KS values, statuses) untraced and traced",
        },
    }
    return m, checks
