"""claimorder benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off for
``--seconds`` and prints them as the last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` runs a
fixed, seed-determined batch twice, untraced and then traced, and prints the
per-layer metrics instead, including the tracing overhead; ``--seconds`` does
not apply to it.  Lines before the last one name the workload's own metrics
(``audits_per_s``, ``mc_check_p50_s``, ``cli_audit_s``, ...), the
environment and any failures.  A record of each run is written to
``.perfbench_out/``.

End-to-end metrics, the same three on every workload:

* ``setup_s`` - import ``claimorder``, generate inputs, one warm-up
  operation; the median of four set-ups, three of them in fresh processes.
* ``op_p50_rel`` - median latency of one operation, divided by the time of
  a fixed reference timed around it (about once a second): ``workloads.reference_kernel``, NumPy and SciPy work that shares
  no code with claimorder.  An operation is one ``audit()`` call (audit_sweep),
  one (portfolio, kind) Monte Carlo check (mc_crosscheck), one full st + rh
  comparison at each of n = 16, 48, 96 (large_portfolio), one round of the
  four CLI subcommands in fresh processes (cli_cold).
* ``work_per_ref`` - work done per reference-kernel time, the median over
  the run's rounds: audits, samples (through ``sample_extreme`` plus
  ``ks_distance``), curve points (grid points times mixture curves), CLI
  processes.

On a shared 2-vCPU Xeon virtual machine (2.1 GHz) everything slowed by up
to 1.9x for seconds to minutes; raw wall times spread 10-35 % between runs
of ten seeds, their ratios to the reference kernel 5-12 %.
The raw figures (``op_p50_ms``, ``work_per_s`` and the workload's own, such
as ``audits_per_s``, ``audit_p95_ms`` or ``cli_audit_s``) are printed on the
lines before the result and kept in the run record.

``attempted`` counts operations and ``failed`` those whose output check
failed, that exited with a code outside {0, 2}, or that raised anything but
the ``DomainError`` an inapplicable theorem raises.

The program is imported from ``src/`` of the checkout that holds this
directory; without it the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("audit_sweep", "mc_crosscheck", "large_portfolio", "cli_cold")
SETUPS = 4
REF_EVERY_S = 1.0
THREAD_VARS = ("CLAIMORDER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_program():
    """Put the checkout's src/ first on sys.path; fail if it holds no claimorder."""
    if not os.path.isfile(os.path.join(SRC, "claimorder", "__init__.py")):
        raise SystemExit(f"perfbench: no claimorder package under {SRC}")
    sys.path.insert(0, SRC)


def setup(workload, seed, smoke, workdir):
    """Import the program, build the workload's inputs and run one warm-up op."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, smoke, workdir, SRC)
    record = workloads.run_op(wl.warmup(), time.perf_counter)
    return wl, record, time.perf_counter() - t0


def child_setups(args, count):
    """Set-up times measured in fresh processes."""
    times = []
    for i in range(count):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", f"{args.workdir}-setup{i}"]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                              env=child_env())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def child_env():
    return {k: v for k, v in os.environ.items() if k != "CLAIMORDER_THREADS"}


def run_rounds(wl, run_op, seconds=None, rounds=None, tracer=None):
    """Closed loop: whole rounds until ``seconds`` have passed or ``rounds`` ran.

    The reference kernel is timed before an operation whenever ``REF_EVERY_S``
    have passed since it last ran, and once more at the end.  Each record
    notes its round in ``info["round"]`` and, in ``info["ref_s"]``, the mean of
    the two reference times that bracket it.
    """
    import workloads

    records, refs, r, op_id = [], [], 0, 0
    start = last_ref = time.perf_counter()
    while True:
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and r > 0 and time.perf_counter() - start >= seconds:
            break
        for op in wl.round(r):
            if not refs or time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(workloads.reference_kernel())
                last_ref = time.perf_counter()
            if tracer is not None:
                tracer.current_op = op_id
            rec = run_op(op, time.perf_counter)
            rec.info["round"] = r
            rec.info["ref_s"] = len(refs) - 1
            records.append(rec)
            op_id += 1
        r += 1
    refs.append(workloads.reference_kernel())
    for rec in records:
        i = rec.info["ref_s"]
        rec.info["ref_s"] = 0.5 * (refs[i] + refs[i + 1])
    return records


def e2e_metrics(records):
    """Operation latency and round throughput in units of the reference kernel.

    Each operation is timed against the reference runs that bracket it, so a
    shared host that slows everything by the same factor for a while moves
    neither figure.  Medians keep the rest of the noise out.
    """
    rounds = {}
    for r in records:
        work, secs = rounds.get(r.info["round"], (0.0, 0.0))
        rounds[r.info["round"]] = (work + r.work, secs + r.latency_s / r.info["ref_s"])
    return {
        "op_p50_rel": statistics.median(r.latency_s / r.info["ref_s"] for r in records),
        "work_per_ref": statistics.median(w / s for w, s in rounds.values()),
    }


def workload_metrics(workload, records):
    """The workload's own end-to-end metrics, under their own names."""
    lat = [r.latency_s for r in records]
    work = sum(r.work for r in records)
    out = {
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "work_per_s": (work / sum(lat), "1/s"),
        "reference_kernel_ms": (1e3 * statistics.median({r.info["ref_s"] for r in records}), "ms"),
    }
    if workload == "audit_sweep":
        out["audits_per_s"] = (work / sum(lat), "audits/s")
        out["audit_p50_ms"] = (1e3 * statistics.median(lat), "ms")
        out["audit_p95_ms"] = (1e3 * statistics.quantiles(lat, n=20, method="inclusive")[18], "ms")
        out["audit_samples_beyond_p95"] = (int(len(lat) * 0.05), "count")
    elif workload == "mc_crosscheck":
        out["mc_samples_per_s"] = (work / sum(lat), "samples/s")
        out["mc_check_p50_s"] = (statistics.median(lat), "s")
    elif workload == "large_portfolio":
        out["curve_points_per_s"] = (work / sum(lat), "points/s")
        compares = [v for r in records for k, v in r.info.items() if k.startswith("compare_n")]
        out["compare_p50_s"] = (statistics.median(compares), "s")
        sizes = {k for r in records for k in r.info if k.startswith("compare_n")}
        for n in sorted(sizes, key=lambda k: int(k[len("compare_n"):-len("_s")])):
            out[f"{n.replace('compare_', 'compare_p50_')}"] = (
                statistics.median(r.info[n] for r in records if n in r.info), "s")
    else:
        for sub in ("reproduce", "audit", "majorize", "simulate"):
            vals = [r.info[f"{sub}_s"] for r in records if f"{sub}_s" in r.info]
            if vals:
                out[f"cli_{sub}_s"] = (statistics.median(vals), "s")
    failed = sum(r.status == "fail" for r in records)
    out["failed_ratio"] = (failed / max(1, len(records)), "failed/attempted")
    out["samples"] = (len(records), "count")
    return out


def environment(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure(args, spec):
    os.makedirs(args.workdir, exist_ok=True)
    setups = [] if args.trace else child_setups(args, 1 if args.smoke else SETUPS - 1)
    wl, warm, own_setup = setup(args.workload, args.seed, args.smoke, args.workdir)
    setups.append(own_setup)
    import workloads

    result = {}
    if args.trace == 0:
        records = run_rounds(wl, workloads.run_op, seconds=args.seconds)
        metrics = dict(e2e_metrics(records))
        metrics["setup_s"] = statistics.median(setups)
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        named = workload_metrics(args.workload, records)
        named["setup_s"] = (metrics["setup_s"], "s")
        result["selfchecks"] = {}
    else:
        import layers
        import tracing

        rounds = 1 if args.smoke else wl.trace_rounds
        plain = run_rounds(wl, workloads.run_op, rounds=rounds)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced = layers.traced_pass(wl, args, tracer, run_rounds, rounds)
        finally:
            tracing.uninstall(undo)
        tracer.dump(os.path.join(args.outdir, f"trace-{args.tag}.json"))
        metrics, selfchecks = layers.layer_metrics(tracer, plain, traced, args, SRC)
        records = plain + traced
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        named = {
            "traced_" + k: v for k, v in workload_metrics(args.workload, traced).items()
        }
        named.update(workload_metrics(args.workload, plain))
        result["selfchecks"] = selfchecks
    result["records"] = records
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in names}
    result["named"] = named
    result["warmup"] = warm
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    import_program()
    os.environ.pop("CLAIMORDER_THREADS", None)
    if args.setup_only:
        os.makedirs(args.setup_only, exist_ok=True)
        try:
            *_, seconds = setup(args.workload, args.seed, args.smoke, args.setup_only)
        finally:
            shutil.rmtree(args.setup_only, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    args.outdir = OUT
    args.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.workdir = os.path.join(OUT, f"work-{args.tag}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        result = measure(args, spec)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    records = result["records"]
    failures = [r for r in records if r.status == "fail"]
    skips = [r for r in records if r.status == "skip"]
    checks_ok = all(c["ok"] for c in result["selfchecks"].values() if c.get("hard"))
    env = environment(args)
    print(f"env {json.dumps(env, sort_keys=True)}")
    if result["warmup"].status == "fail":
        failures.append(result["warmup"])
    for r in failures[:20]:
        print(f"FAILED {r.label}: {r.error}")
    for r in skips[:5]:
        print(f"skipped {r.label}: {r.error}")
    for name, check in result["selfchecks"].items():
        print(f"self-check {name}: {check['detail']} -> {'ok' if check['ok'] else 'MISMATCH'}")
    for name, (value, unit) in result["named"].items():
        print(f"{name} {value:.6g} {unit}")
    attempted = len(records) + 1
    out = {
        "correct": not failures and checks_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }
    with open(os.path.join(OUT, f"run-{args.tag}.json"), "w") as fh:
        json.dump({
            "env": env,
            "result": out,
            "named": {k: {"value": v, "unit": u} for k, (v, u) in result["named"].items()},
            "selfchecks": result["selfchecks"],
            "skipped": len(skips),
            "failures": [f"{r.label}: {r.error}" for r in failures],
            "latencies_s": [[r.label, r.latency_s, r.info.get("ref_s"), r.info.get("round")] for r in records],
        }, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
