"""Benchmark for dpformation: four workloads, end-to-end metrics, and a
traced run for per-layer metrics. Run from the repository root:

  python3 perfbench/run.py --workload mc_ess --seed 0 --seconds 16 --trace 0
  python3 perfbench/run.py --workload all          # every workload in turn
  python3 perfbench/run.py --selfcheck             # fast check at tiny sizes

Each run starts worker.py in a fresh process with one BLAS thread, which
runs the workload, measures set-up (the median of several fresh-process
imports of dpformation.cli with numpy, scipy and yaml) and writes
.perfbench_out/<workload>-s<seed>-t<trace>.json. Timings of a timed run are
scaled to a reference machine speed (see calibration.py); the measured ones
are printed beside them. This script prints every
metric by name with its unit and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics. Metric names and units come
from BENCHMARK.json; a metric the worker does not produce is an error.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("mc_ess", "simulate_cli", "spectral_bounds", "design_sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
DEADLINE_S = 160.0      # for the worker, set-up timing included


def child_env() -> dict:
    """The workload process's environment: the checkout's src/ on the path
    and one BLAS thread, so run_trials' jobs threads are the only
    parallelism."""
    return dict(os.environ, PYTHONPATH=SRC, **{v: "1" for v in THREAD_VARS})


def run_workload(spec, name, seed, seconds, trace, tiny=False,
                 deadline=None) -> dict:
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    result_path = os.path.join(
        OUT, f"{name}-s{seed}-t{trace}{'-tiny' if tiny else ''}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--result", result_path]
    timeout = None if deadline is None else max(deadline - time.monotonic(),
                                                1.0)
    subprocess.run(cmd + (["--tiny"] if tiny else []), env=env, check=True,
                   timeout=timeout)
    with open(result_path) as fh:
        result = json.load(fh)
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    produced = dict(result["metrics"])
    if sorted(produced) != sorted(listed):
        raise SystemExit(f"{name}: metrics {sorted(set(produced) ^ set(listed))}"
                         " are not both produced and listed in BENCHMARK.json")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {k: dict(value=produced[k], unit=units[k])
                         for k in listed}
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(name, result) -> None:
    env = result["environment"]
    print(f"== {name}  seed {env['seed']}  trace {env['trace']}  "
          f"nproc {env['nproc']}  {env['blas']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}")
    notes = result["notes"]
    for k, m in result["metrics"].items():
        note = f"  ({notes[k]})" if k in notes else ""
        computed = "  (computed)" if k.split(".")[-1] in (
            "trial_steps", "rng_draws", "noise_bytes", "recursion_flops",
            "gflops") else ""
        print(f"  {k:<40} {m['value']:>16.6g} {m['unit']}{note}{computed}")
    hard = sum(1 for r in result["records"] if r["hard"])
    print(f"  {'fail_ratio':<40} {result['fail_ratio']:>16.6g} 1  "
          f"({result['failed']} of {result['attempted']} ops; {hard} hard)")
    if name == "mc_ess":
        print(f"  {'ess_rel_err':<40} {result['ess_rel_err']:>16.6g} 1  "
              "(median |estimate - exact| / exact)")
    for r in result["records"]:
        for msg in r["hard"] + r["soft"]:
            print(f"  op {r['op']}: {msg.strip().splitlines()[-1]}")


def last_line(result) -> str:
    return json.dumps(dict(correct=result["correct"],
                           attempted=result["attempted"],
                           failed=result["failed"],
                           metrics=result["metrics"]))


def selfcheck(spec) -> int:
    """Tiny sizes: every gate rejects a wrong answer, every listed metric is
    produced, and two traced runs give identical counts."""
    problems = []
    gates = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                            "--root", ROOT, "--gates"], env=child_env(),
                           timeout=DEADLINE_S)
    if gates.returncode:
        problems.append("a gate accepted a wrong answer")
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(spec, name, 0, 1.0, trace, tiny=True)
            report(name, result)
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: incorrect output")
        again = run_workload(spec, name, 0, 1.0, 1, tiny=True)
        counts = {k: v["value"] for k, v in again["metrics"].items()
                  if k.endswith((".calls", "_builds", "eigensolves", "_steps",
                                 "_draws", "_bytes", "_flops", "bytes_in",
                                 "bytes_out", "rows_out"))}
        first = {k: result["metrics"][k]["value"] for k in counts}
        if counts != first:
            problems.append(f"{name}: counts differ between two traced runs")
        print(f"   {name}: {len(counts)} counters repeat "
              f"{'exactly' if counts == first else 'WITH DIFFERENCES'}")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dpformation", "__init__.py")):
        print(f"no dpformation sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.selfcheck:
        return selfcheck(spec)
    if args.workload is None:
        ap.error("--workload or --selfcheck is required")
    seconds = args.seconds or spec["run_seconds"]
    if args.workload != "all":
        result = run_workload(spec, args.workload, args.seed, seconds,
                              args.trace,
                              deadline=time.monotonic() + DEADLINE_S)
        report(args.workload, result)
        print(last_line(result))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(spec, name, args.seed, seconds,
                                     args.trace)
        report(name, results[name])
    print(json.dumps({name: json.loads(last_line(r))
                      for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
