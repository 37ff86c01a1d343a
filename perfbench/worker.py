"""Workload process: builds one workload's inputs from the seed, runs its ops
in a closed loop with one client, checks every op, and writes a result file.

Started by run.py with the BLAS thread count pinned in its environment and
PYTHONPATH pointing at the checkout's src/, so each run is a fresh process
and peak_rss_mb means the same thing on every commit.

Modes:
  timed (--trace 0)  whole passes over the pool until --seconds of op time
                     have passed and at least MIN_OPS ops have run, each op
                     timed between two calibrations; end-to-end metrics,
                     with times scaled to the reference machine speed of
                     calibration.py, then set-up time.
  traced (--trace 1) a fixed, seed-determined list of ops run twice, first
                     untraced, then traced; per-layer metrics and the
                     tracing overhead. The list's length depends only on
                     --seconds, so every count repeats exactly.
  gates (--gates)    runs one op per workload at tiny sizes and asserts that
                     every gate rejects its deliberately wrong answer.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
from scipy.special import betainc

import calibration
from run import THREAD_VARS
from workloads import WORKLOADS

SPAN_LAYERS = (
    "dynamics.run_trials", "dynamics.trial_rng", "graphs.build_perron",
    "graphs.is_connected", "graphs.algebraic_connectivity",
    "graphs.kemeny_constant", "graphs.laplacian", "bounds.exact_ess_oracle",
    "bounds.lemma7_sandwich", "bounds.theorem1_bound", "bounds.bound_report",
    "bounds.epsilon_threshold_numeric", "bounds.bound_surface",
    "bounds.corollary1_bound", "bounds.reproduce_table1", "privacy.q_inverse",
    "privacy.kappa", "sensitivity.sensitivity_compare")
SELF_ONLY = ("dynamics.estimate_ess", "dynamics.default_horizon",
             "config.load", "cli.main")
COMPUTED = ("trial_steps", "rng_draws", "noise_bytes", "recursion_flops")
# enough ops that the tail percentile with ten samples beyond it is p67 or
# higher; on a slow machine this makes a run longer than --seconds
MIN_OPS = 30
SETUP_REPS = 5


def environment(root: str, wl, args) -> dict:
    import scipy
    import yaml
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return dict(
        nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count(),
        machine=platform.machine(), python=platform.python_version(),
        numpy=np.__version__, scipy=scipy.__version__, pyyaml=yaml.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        thread_env={v: os.environ.get(v) for v in THREAD_VARS},
        git_commit=commit, workload=wl.name, seed=args.seed,
        seconds=args.seconds, trace=args.trace, tiny=args.tiny,
        inputs=wl.inputs)


def run_op(wl, op, index) -> dict:
    """One op: timed call, then untimed read-back and checks."""
    t0 = time.perf_counter()
    try:
        raw = wl.run(op)
    except Exception:
        return dict(op=index, latency_s=time.perf_counter() - t0,
                    hard=[traceback.format_exc()], soft=[], values={},
                    counts={}, bytes_out=0, rows_out=0)
    latency = time.perf_counter() - t0
    out = wl.collect(op, raw)
    verdict = wl.check(op, out)
    bytes_out, rows_out = wl.io(op, out)
    return dict(op=index, latency_s=latency, hard=verdict.hard,
                soft=verdict.soft, values=verdict.values,
                counts=wl.counts(op, out), bytes_out=bytes_out,
                rows_out=rows_out)


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a beta density peaked at q. Where a pool's inputs
    differ in cost (mc_ess's graphs span 18-fold), the nearest sample jumps
    between inputs as op times jitter; this estimate moves smoothly, and
    halved the spread of mc_ess's op_p50_s and op_tail_s over ten runs on
    a 2-vCPU virtual machine."""
    x = np.sort(values)
    n = len(x)
    w = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def tail(latencies) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond
    it, that percentile, and the count beyond (the largest latency and all
    samples if n <= 10)."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0, 0
    return quantile(latencies, (n - 10) / n), 100.0 * (n - 10) / n, 10


def check_summary(records) -> dict:
    failed = [r for r in records if r["hard"] or r["soft"]]
    errs = [r["values"]["ess_rel_err"] for r in records
            if "ess_rel_err" in r["values"]]
    return dict(attempted=len(records), failed=len(failed),
                fail_ratio=len(failed) / len(records),
                ess_rel_err=statistics.median(errs) if errs else 0.0)


def timed(wl, seconds: float, min_ops: int, cal) -> tuple:
    """Closed loop over the pool, in whole passes, until the op time reaches
    `seconds` and at least `min_ops` ops have run. Whole passes give every
    run of a workload the same mix of inputs. A calibration runs between
    ops, outside their timing, and each op is scaled to the reference speed
    by the geometric mean of the calibrations before and after it."""
    pool = wl.pool
    run_op(wl, pool[0], -1)  # warm-up, not counted
    records, busy = [], 0.0
    cals = [cal()]
    while busy < seconds or len(records) < min_ops or len(records) % len(pool):
        rec = run_op(wl, pool[len(records) % len(pool)], len(records))
        cals.append(cal())
        rec["calibration_parts"] = cals[-2:]
        rec["calibration_s"] = math.sqrt(calibration.combined(cals[-2])
                                         * calibration.combined(cals[-1]))
        records.append(rec)
        busy += rec["latency_s"]
    raw = [r["latency_s"] for r in records]
    lat = [calibration.scaled(r["latency_s"], r["calibration_s"])
           for r in records]
    tail_s, pct, beyond = tail(lat)
    metrics = dict(ops_per_s=len(lat) / sum(lat),
                   op_p50_s=quantile(lat, 0.5), op_tail_s=tail_s,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024)
    cal_p50 = statistics.median(r["calibration_s"] for r in records)
    notes = dict(ops_per_s=f"measured {len(raw) / busy:.6g} op/s; "
                           f"calibration median {cal_p50:.6g} s",
                 op_p50_s=f"measured {quantile(raw, 0.5):.6g} s",
                 op_tail_s=f"p{pct:.1f}, {beyond} samples beyond, "
                           f"n={len(lat)}; measured {tail(raw)[0]:.6g} s")
    return records, metrics, notes


def setup_seconds(cal) -> tuple:
    """Median wall time of fresh interpreters importing the CLI and its
    dependencies, each scaled by calibrations just before and after it; and
    the measured times. The workload has already imported what it uses, so
    the files are in the page cache and compiled."""
    cmd = [sys.executable, "-c", "import dpformation.cli, numpy, scipy, yaml"]
    times, measured = [], []
    for _ in range(SETUP_REPS):
        before = calibration.combined(cal())
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60)
        measured.append(time.perf_counter() - t0)
        c = math.sqrt(before * calibration.combined(cal()))
        times.append(calibration.scaled(measured[-1], c))
    return statistics.median(times), measured


def traced(wl, seconds: float, tiny: bool) -> tuple:
    import tracing
    k = len(wl.pool) if tiny else max(3, math.ceil(seconds * wl.nominal_rate
                                                   / 2))
    ops = [wl.pool[i % len(wl.pool)] for i in range(k)]
    run_op(wl, ops[0], -1)  # warm-up, not counted
    plain = [run_op(wl, op, i) for i, op in enumerate(ops)]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    records = []
    for i, op in enumerate(ops):
        tracer.op_id = i
        records.append(run_op(wl, op, i))
    tracer.op_id = None
    metrics = layer_metrics(tracer, records, k)
    rate = [k / sum(r["latency_s"] for r in recs) for recs in (plain, records)]
    metrics.update({"trace.ops_per_s_untraced": rate[0],
                    "trace.ops_per_s_traced": rate[1],
                    "trace.overhead_pct": 100.0 * (rate[0] / rate[1] - 1.0)})
    return plain, records, metrics, tracer


def layer_metrics(tracer, records, k: int) -> dict:
    s = tracer.summary()
    zero = dict(calls=0, total_s=0.0, self_s=0.0, cpu_s=0.0, peak_mb=0.0)
    m = {}
    for name in SPAN_LAYERS:
        m[f"{name}.calls"] = s.get(name, zero)["calls"]
        m[f"{name}.self_s"] = s.get(name, zero)["self_s"] / k
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = s.get(name, zero)["self_s"] / k
    rt = s.get("dynamics.run_trials", zero)
    m["dynamics.run_trials.cpu_util"] = (rt["cpu_s"] / rt["total_s"]
                                         if rt["total_s"] else 0.0)
    m["dynamics.run_trials.peak_mb"] = rt["peak_mb"]
    for c in COMPUTED:
        m[f"dynamics.{c}"] = sum(r["counts"].get(c, 0) for r in records)
    m["dynamics.gflops"] = (m["dynamics.recursion_flops"] / rt["total_s"] / 1e9
                            if rt["total_s"] else 0.0)
    m["graphs.adjacency_builds"] = s.get("graphs.adjacency_matrix",
                                         zero)["calls"]
    eig = [s.get(f"linalg.{a}", zero) for a in ("eigh", "eigvalsh", "eig",
                                                "eigvals")]
    m["linalg.eigensolves"] = sum(e["calls"] for e in eig)
    m["linalg.eig_s"] = sum(e["total_s"] for e in eig) / k
    m["config.load.bytes_in"] = tracer.counters["config.load.bytes_in"]
    m["cli.bytes_out"] = sum(r["bytes_out"] for r in records)
    m["cli.rows_out"] = sum(r["rows_out"] for r in records)
    summary = check_summary(records)
    m["checks.fail_ratio"] = summary["fail_ratio"]
    m["checks.ess_rel_err"] = summary["ess_rel_err"]
    return m


def gates(work: str) -> int:
    """Every gate accepts the real answer and rejects each wrong one."""
    bad = 0
    for cls in WORKLOADS.values():
        wl = cls(0, work, tiny=True)
        op = wl.pool[0]
        out = wl.collect(op, wl.run(op))
        for label, candidate, expect in wl.perturbations(op, out):
            v = wl.check(op, candidate)
            found = v.hard + v.soft
            hits = [f for f in found if expect is not None and expect in f]
            ok = not found if expect is None else bool(hits)
            bad += not ok
            why = (hits or found)[0].splitlines()[0] if found else ""
            print(f"[{'ok' if ok else 'FAIL'}] {wl.name}: {label}: "
                  f"{'rejected' if found else 'accepted'} {why}")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--gates", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--result")
    args = ap.parse_args()

    import dpformation
    src = os.path.join(args.root, "src")
    if os.path.commonpath([src, os.path.abspath(dpformation.__file__)]) != src:
        print(f"dpformation imported from {dpformation.__file__}, not {src}",
              file=sys.stderr)
        return 2
    work = os.path.join(args.root, ".perfbench_out", "work")
    os.makedirs(work, exist_ok=True)
    if args.gates:
        return 1 if gates(work) else 0

    wl = WORKLOADS[args.workload](args.seed, work, tiny=args.tiny)
    result = dict(environment=environment(args.root, wl, args))
    if args.trace:
        plain, records, metrics, tracer = traced(wl, args.seconds, args.tiny)
        result["untraced_latency_s"] = [r["latency_s"] for r in plain]
        result["notes"] = {}
        spans_path = args.result.replace(".json", "-spans.json")
        with open(spans_path, "w") as fh:
            json.dump(dict(fields=["name", "start", "end", "parent", "op",
                                   "cpu_s", "peak_mb"], spans=tracer.spans),
                      fh)
        result["spans_file"] = spans_path
    else:
        plain = []
        cal = calibration.Calibration()
        records, metrics, notes = timed(wl, args.seconds,
                                        3 if args.tiny else MIN_OPS, cal)
        metrics["setup_s"], measured = setup_seconds(cal)
        notes["setup_s"] = (f"median of {SETUP_REPS} fresh imports; "
                            "measured " + ", ".join(f"{t:.4f}"
                                                    for t in measured))
        result["notes"] = notes
    summary = check_summary(records)
    result.update(
        correct=not any(r["hard"] for r in plain + records),
        attempted=summary["attempted"], failed=summary["failed"],
        fail_ratio=summary["fail_ratio"], ess_rel_err=summary["ess_rel_err"],
        metrics=metrics, records=records)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
