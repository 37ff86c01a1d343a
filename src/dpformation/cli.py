"""Command-line front end.

Subcommands: simulate, design, sweep, sensitivity, bounds. All outputs are
CSV (full round-trip float precision) plus console text (9 significant
digits). Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import bounds, config, dynamics, graphs, sensitivity


def _fmt(x: float) -> str:
    return f"{x:.9g}"


CSV_CHUNK_ROWS = 1024
_QUOTED = re.compile(r'[,"\r\n]')


def _unquoted(cells, one_field: bool):
    """The cells, checked to be ones csv.writer would write unquoted."""
    for s in cells:
        if _QUOTED.search(s) or (one_field and not s):
            raise ValueError(f"CSV cell {s!r} would need quoting")
    return cells


def _column_text(c: np.ndarray, one_field: bool) -> list:
    """str of each cell, formatting each distinct value once. Floats are
    told apart by bit pattern, so 0.0 and -0.0 stay distinct."""
    if c.dtype.kind not in "biufU":
        raise TypeError(f"unsupported CSV column dtype {c.dtype}")
    key = c.view(f"i{c.itemsize}") if c.dtype.kind == "f" else c
    uniq, inv = np.unique(key, return_inverse=True)
    text = list(map(str, uniq.view(c.dtype).tolist()))
    if c.dtype.kind == "U":
        _unquoted(text, one_field)
    return np.array(text, dtype=object)[inv].tolist()


def _write_csv(path, header, columns) -> None:
    """One row per index of the equal-length 1-D columns, in the bytes
    csv.writer writes: str of each cell (floats round-trip exactly), comma
    separated, CRLF line ends. Rows go out in chunks of CSV_CHUNK_ROWS, and
    within a chunk each distinct value of a column is formatted once. No
    cell is ever quoted: a str cell that csv.writer would quote raises
    ValueError."""
    cols = [np.asarray(c) for c in columns]
    n_rows = len(cols[0]) if cols else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in cols):
        raise ValueError("CSV columns must be 1-D and of equal length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_unquoted(header, len(header) == 1)) + "\r\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            cells = [_column_text(c[start:start + CSV_CHUNK_ROWS],
                                  len(cols) == 1) for c in cols]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _per_dimension_runs(cfg: config.RunConfig, p, sigmas, jobs):
    """One scalar Monte Carlo run per formation dimension.

    Dimension l uses master key (seed, l); trial t within it uses
    (seed, l, t). A scalar run seeded with (seed, l) therefore reproduces
    dimension l of the full run exactly.
    """
    runs = []
    for l in range(cfg.formation.dimensions):
        q = cfg.formation.component(l)
        ens = dynamics.run_trials(p, sigmas, cfg.horizon, cfg.trials,
                                  (cfg.master_seed, l), xbar0=-q, jobs=jobs)
        runs.append((q, ens))
    return runs


def cmd_simulate(args) -> int:
    cfg = config.load(args.config) if args.config else config.demo_config()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides)
    p = cfg.validate_step_size()
    sigmas = np.zeros(cfg.graph.n) if args.noiseless else cfg.sigmas
    jobs = args.jobs or os.cpu_count() or 1

    bound = bounds.theorem1_bound(cfg.graph, cfg.gamma, cfg.privacy_params)
    # the simulated protocol noise z = G v has Cov[z] = G diag(sigma^2) G
    gain = dynamics.noise_gain(p)
    exact = bounds.exact_ess_oracle(p, gain @ np.diag(sigmas**2) @ gain)
    print(f"per-dimension e_ss upper bound: {_fmt(bound)}")
    print(f"exact per-dimension e_ss:       {_fmt(exact)}")

    runs = _per_dimension_runs(cfg, p, sigmas, jobs)
    os.makedirs(args.out, exist_ok=True)

    h, n, d = cfg.horizon + 1, cfg.graph.n, len(runs)
    dims = np.arange(1, d + 1)
    trajs = [ens.first_trajectory for _, ens in runs]  # xbar of trial 0
    _write_csv(os.path.join(args.out, "trajectory.csv"),
               ["step", "agent", "dimension", "state", "error"],
               [np.tile(np.repeat(np.arange(h), n), d),
                np.tile(np.arange(1, n + 1), h * d),
                np.repeat(dims, h * n),
                np.concatenate([(t + q).ravel()
                                for t, (q, _) in zip(trajs, runs)]),
                np.concatenate([(t - t.mean(axis=1, keepdims=True)).ravel()
                                for t in trajs])])
    _write_csv(os.path.join(args.out, "summary.csv"),
               ["step", "dimension", "e_agg_mean", "e_agg_ci"],
               [np.tile(np.arange(h), d), np.repeat(dims, h),
                np.concatenate([ens.e_agg_mean for _, ens in runs]),
                np.concatenate([1.96 * ens.e_agg_sem for _, ens in runs])])

    tail_start = cfg.horizon + 1 - max((cfg.horizon + 1) // 4, 1)
    for l, (_, ens) in enumerate(runs):
        tail_max = float(ens.e_agg_mean[tail_start:].max())
        status = "<=" if tail_max <= bound else ">"
        print(f"dimension {l + 1}: tail e_agg max {_fmt(tail_max)} "
              f"{status} bound {_fmt(bound)}")
    print(f"wrote {args.out}/trajectory.csv and {args.out}/summary.csv")
    return 0


def cmd_design(args) -> int:
    prm = dict(delta=args.delta, b=args.b, w=args.w, gamma=args.gamma,
               e_r=args.e_r)
    if args.table1:
        cells = bounds.reproduce_table1(**prm)
        print(f"{'graph':>10} {'N':>7} {'numeric':>14} {'closed form':>14} "
              f"{'deviation':>10}")
        discrepancies = []
        for c in cells:
            print(f"{c.kind:>10} {c.n:>7} {_fmt(c.numeric):>14} "
                  f"{_fmt(c.closed_form):>14} "
                  f"{c.relative_deviation:>10.2%}")
            if c.relative_deviation > 0.02:
                discrepancies.append(c)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_csv(os.path.join(args.out, "thresholds.csv"),
                       ["graph", "n", "epsilon_numeric",
                        "epsilon_closed_form"],
                       [[c.kind for c in cells], [c.n for c in cells],
                        [c.numeric for c in cells],
                        [c.closed_form for c in cells]])
            print(f"wrote {args.out}/thresholds.csv")
        if discrepancies:
            print(f"discrepancy report: {len(discrepancies)} closed-form "
                  "entries deviate from the numeric threshold by > 2%")
        return 0

    lam2 = graphs.topology_lambda2(args.kind, args.n, args.w)
    numeric = bounds.epsilon_threshold_numeric(
        lam2, gamma=args.gamma, delta=args.delta, b=args.b,
        n_agents=args.n, e_r=args.e_r)
    closed = bounds.epsilon_threshold_closed_form(
        args.kind, args.n, gamma=args.gamma, delta=args.delta, b=args.b,
        w=args.w, e_r=args.e_r)
    dev = abs(closed - numeric) / numeric
    print(f"{args.kind} graph, N={args.n}, lambda2={_fmt(lam2)}")
    print(f"minimum epsilon (numeric, authoritative): {_fmt(numeric)}")
    print(f"published closed form:                    {_fmt(closed)}")
    print(f"relative deviation:                       {dev:.2%}")
    return 0


def cmd_sweep(args) -> int:
    if args.eps_steps < 1 or args.lam2_steps < 1:
        raise ValueError("--eps-steps and --lam2-steps must be >= 1")
    eps = np.linspace(args.eps_min, args.eps_max, args.eps_steps)
    lam2 = np.linspace(args.lam2_min, args.lam2_max, args.lam2_steps)
    grid = bounds.bound_surface(eps, lam2, n_agents=args.n,
                                delta=args.delta, b=args.b, gamma=args.gamma)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "surface.csv")
    _write_csv(path, ["epsilon", "lambda2", "bound"],
               [np.repeat(eps, len(lam2)), np.tile(lam2, len(eps)),
                grid.ravel()])
    print(f"wrote {path} ({len(eps)}x{len(lam2)} grid)")
    return 0


def cmd_sensitivity(args) -> int:
    pt = sensitivity.SensitivityPoint(
        epsilon=args.epsilon, delta=args.delta, b=args.b, gamma=args.gamma,
        n_agents=args.n, lambda2=args.lambda2)
    rep = sensitivity.sensitivity_compare(pt)
    print(f"d(bound)/d(epsilon) = {_fmt(rep.d_epsilon)}")
    print(f"d(bound)/d(lambda2) = {_fmt(rep.d_lambda2)}")
    print(f"verdict: {rep.verdict}")
    if not rep.in_valid_region:
        print(f"note: lambda2={_fmt(args.lambda2)} is outside (0, 1/gamma) "
              f"= (0, {_fmt(1.0 / args.gamma)}); both-partials-negative "
              "reasoning does not apply there")
    print(f"quadratic diagnostic: {_fmt(rep.quadratic)} "
          f"(agrees with verdict: {rep.quadratic_agrees})")
    c = rep.cutoffs
    print(f"closed-form cutoffs: lambda2 > {_fmt(c.upper_cut)} or "
          f"lambda2 < {_fmt(c.lower_cut)} "
          f"(alpha={_fmt(c.alpha)}, eta1={_fmt(c.eta1)}, "
          f"eta2={_fmt(c.eta2)})")
    return 0


def cmd_bounds(args) -> int:
    cfg = config.load(args.config) if args.config else config.demo_config()
    rep = bounds.bound_report(cfg.graph, cfg.gamma, list(cfg.privacy_params))
    print(f"exact e_ss (oracle):      {_fmt(rep.exact_ess)}")
    print(f"sandwich lower bound:     {_fmt(rep.lemma7_lower)}")
    print(f"sandwich upper bound:     {_fmt(rep.lemma7_upper)}")
    print(f"closed-form upper bound:  {_fmt(rep.theorem1_upper)}")
    if rep.corollary1_upper is not None:
        print(f"homogeneous upper bound:  {_fmt(rep.corollary1_upper)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dpformation",
        description="Differentially private formation control: simulation, "
                    "performance bounds, and privacy design tools.")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo formation run")
    sim.add_argument("--config", help="YAML run config (default: built-in "
                     "5-agent star demo)")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--horizon", type=int)
    sim.add_argument("--jobs", type=int, default=0,
                     help="worker threads (default: all cores)")
    sim.add_argument("--noiseless", action="store_true",
                     help="disable privacy noise")
    sim.add_argument("--out", default="out")
    sim.set_defaults(func=cmd_simulate)

    des = sub.add_parser("design", help="minimum-epsilon thresholds")
    des.add_argument("--kind", choices=["complete", "cycle", "line", "star"],
                     default="complete")
    des.add_argument("--n", type=int, default=10)
    des.add_argument("--delta", type=float, default=0.01)
    des.add_argument("--b", type=float, default=5.0)
    des.add_argument("--w", type=float, default=1.0)
    des.add_argument("--gamma", type=float, default=1e-4)
    des.add_argument("--e-r", dest="e_r", type=float, default=100.0)
    des.add_argument("--table1", action="store_true",
                     help="full 4-topology x 4-size threshold table")
    des.add_argument("--out")
    des.set_defaults(func=cmd_design)

    sw = sub.add_parser("sweep", help="bound surface over (epsilon, lambda2)")
    sw.add_argument("--n", type=int, default=50)
    sw.add_argument("--delta", type=float, default=0.01)
    sw.add_argument("--b", type=float, default=5.0)
    sw.add_argument("--gamma", type=float, default=0.02)
    sw.add_argument("--eps-min", type=float, default=0.1)
    sw.add_argument("--eps-max", type=float, default=1.0)
    sw.add_argument("--eps-steps", type=int, default=50)
    sw.add_argument("--lam2-min", type=float, default=1.0)
    sw.add_argument("--lam2-max", type=float, default=50.0)
    sw.add_argument("--lam2-steps", type=int, default=50)
    sw.add_argument("--out", default="out")
    sw.set_defaults(func=cmd_sweep)

    sens = sub.add_parser("sensitivity", help="bound sensitivity report")
    sens.add_argument("--epsilon", type=float, required=True)
    sens.add_argument("--delta", type=float, default=0.00135)
    sens.add_argument("--b", type=float, default=1.0)
    sens.add_argument("--gamma", type=float, default=0.1)
    sens.add_argument("--n", type=int, default=10)
    sens.add_argument("--lambda2", type=float, required=True)
    sens.set_defaults(func=cmd_sensitivity)

    bnd = sub.add_parser("bounds", help="bound report for a config")
    bnd.add_argument("--config")
    bnd.set_defaults(func=cmd_bounds)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (config.ConfigError, graphs.StepSizeTooLarge, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except graphs.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
