"""Command-line front end.

Subcommands: simulate, design, sweep, sensitivity, bounds. All outputs are
CSV (full round-trip float precision) plus console text (9 significant
digits). Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import bounds, config, dynamics, graphs, sensitivity


def _fmt(x: float) -> str:
    return f"{x:.9g}"


CSV_CHUNK_ROWS = 1024
_QUOTED = re.compile(r'[,"\r\n]')


def _unquoted(cells):
    """The str cells, checked to be non-empty and unquoted by csv.writer."""
    for s in cells:
        if not s or _QUOTED.search(s):
            raise ValueError(f"CSV cell {s!r} is empty or needs quoting")
    return cells


# numeric columns reach orjson in these native-order dtypes: orjson reads a
# byte-swapped array's bytes as native numbers, and a float32 cell must
# read as repr of its double, as tolist() gives it
_WIDE = {"i": np.int64, "u": np.uint64, "f": np.float64}


def _orjson_text(c: np.ndarray) -> bytes:
    """The cells of the numeric column c as orjson writes them, comma
    separated."""
    import orjson  # not at the top: most commands write no CSV
    return orjson.dumps(c, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]


def _exponent_text(x: np.ndarray) -> list:
    """repr of each cell of the float64 array x, cells that repr writes in
    exponent form or as nan or ±inf, those with 1e-5 <= |x| < 1e-4 first.

    orjson writes the same shortest digits: (-)0.0000D… from 1e-5 up to
    1e-4, which becomes D.…e-05, and (-)D[.D…]e[-]N elsewhere, whose
    exponent takes repr's sign and two-digit padding. One full match
    checks that every cell is spelt one of these two ways, in that order;
    if any is not, every cell is written by repr, so the text never
    depends on one orjson release's spelling; orjson's null for nan and
    ±inf takes this path too. Each pass runs in C."""
    # (?<=[1-9]): digits with no trailing zero. Each cell ends at a
    # literal comma and the two forms start with different digits, so
    # backtracking stays within a cell
    m = re.fullmatch(rb"((?:-?0\.0000[1-9]\d*(?<=[1-9]),)*)"
                     rb"((?:-?[1-9](?:\.\d+(?<=[1-9]))?e-?[1-9]\d*,)*)",
                     _orjson_text(x) + b",")
    if m is None:
        return list(map(repr, x.tolist()))
    fifth, other = m.groups()
    # 0.0000D… to .D… to D.…
    b = np.frombuffer(fifth.replace(b"0.0000", b"."), np.uint8).copy()
    point = np.flatnonzero(b == ord("."))
    b[point], b[point + 1] = b[point + 1], ord(".")
    fifth = b.tobytes().replace(b",", b"e-05,").replace(b".e", b"e")
    other = re.sub(rb"e-(?=\d,)", b"e-0",
                   other.replace(b"e", b"e+").replace(b"+-", b"-"))
    return (fifth + other).decode().split(",")[:-1]


def _column_text(c: np.ndarray) -> list:
    """str of each cell. Numbers go through one orjson call, whose shortest
    round-trip digits equal repr's wherever repr writes a float
    positionally. Every other float (0 < |x| < 1e-4, |x| >= 1e16, nan
    and ±inf) takes its text from _exponent_text, which rewrites orjson's
    and falls back to repr for a chunk whose orjson text it does not
    recognise, nan's and inf's null included."""
    kind = c.dtype.kind
    if kind not in "biufU":
        raise TypeError(f"unsupported CSV column dtype {c.dtype}")
    if kind in "bU":
        return _unquoted(list(map(str, c.tolist())))
    c = np.ascontiguousarray(c, dtype=_WIDE[kind])
    text = _orjson_text(c).decode().split(",")
    if kind == "f":
        a = np.abs(c)
        odd = np.flatnonzero(~((a >= 1e-4) & (a < 1e16) | (c == 0)))
        if len(odd):
            a = a[odd]
            fifth = (a >= 1e-5) & (a < 1e-4)
            odd = np.concatenate([odd[fifth], odd[~fifth]])
            cells = np.array(text, dtype=object)
            cells[odd] = _exponent_text(c[odd])
            text = cells.tolist()
    return text


def _write_csv(path, header, columns) -> None:
    """One row per index of the equal-length 1-D columns, in the bytes
    csv.writer writes: str of each cell (floats round-trip exactly), comma
    separated, CRLF line ends. Rows go out in chunks of CSV_CHUNK_ROWS, and
    each numeric column of a chunk is formatted by _column_text. No
    cell is ever quoted or empty: a str cell or header name that is empty
    or that csv.writer would quote raises ValueError, and so does a path
    that cannot be opened or written, naming it."""
    cols = [np.asarray(c) for c in columns]
    n_rows = len(cols[0]) if cols else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in cols):
        raise ValueError("CSV columns must be 1-D and of equal length")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(_unquoted(header)) + "\r\n")
            for start in range(0, n_rows, CSV_CHUNK_ROWS):
                cells = [_column_text(c[start:start + CSV_CHUNK_ROWS])
                         for c in cols]
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _make_out_dir(path) -> None:
    """Create the output directory before any output, so that a path that
    cannot be one fails first, as a validation error naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {path}: "
                         f"{exc.strerror}") from None


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
    p = graphs.build_perron(cfg.graph, cfg.gamma)
    sigmas = np.zeros(cfg.graph.n) if args.noiseless else cfg.sigmas
    jobs = args.jobs or os.cpu_count() or 1
    if jobs < 1:  # run_trials' check, before the output directory is made
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    bound = bounds.theorem1_bound(p, cfg.privacy_params)
    exact = bounds.exact_ess_oracle(
        p, dynamics.noise_covariance(p, sigmas, "protocol"))
    _make_out_dir(args.out)
    # one scalar run per formation dimension: dimension l starts from -q_l
    # and uses master key (seed, l); run_trials' tile i within it draws
    # from key (seed, l, i). A scalar run seeded with (seed, l) therefore
    # reproduces dimension l of the full run exactly.
    anchors = cfg.anchors.T  # (d, n): row l is q_l
    runs = [dynamics.run_trials(p, sigmas, cfg.horizon, cfg.trials,
                                (cfg.master_seed, l), xbar0=-q, jobs=jobs)
            for l, q in enumerate(anchors)]
    # trial 0's (d, h, n) states and errors, and the (d, h) mean squared
    # error and 95% half-width, 1.96 sample std / sqrt(trials), 0 for one
    # trial; a value that overflows is reported below, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.stack([path for _, path in runs])  # trial 0 xbar
        states = t + anchors[:, None, :]
        errors = t - t.mean(axis=2, keepdims=True)
        means = np.stack([e.mean(axis=1) for e, _ in runs])
        cis = np.stack([
            1.96 * (e.std(axis=1, ddof=1) / math.sqrt(cfg.trials))
            if cfg.trials > 1 else np.zeros(len(e)) for e, _ in runs])
    d, h, n = states.shape
    for l in range(d):
        for what, v in (("state", states), ("error", errors),
                        ("e_agg_mean", means), ("e_agg_ci", cis)):
            graphs.check_finite(v[l].reshape(h, -1), what, dimension=l + 1,
                                step=np.arange(h)[:, None])
    print(f"per-dimension e_ss upper bound: {_fmt(bound)}")
    print(f"exact per-dimension e_ss:       {_fmt(exact)} "
          "(protocol noise model)")

    dim, step, agent = np.indices(states.shape)
    _write_csv(os.path.join(args.out, "trajectory.csv"),
               ["step", "agent", "dimension", "state", "error"],
               [step.ravel(), agent.ravel() + 1, dim.ravel() + 1,
                states.ravel(), errors.ravel()])
    dim, step = np.indices(means.shape)
    _write_csv(os.path.join(args.out, "summary.csv"),
               ["step", "dimension", "e_agg_mean", "e_agg_ci"],
               [step.ravel(), dim.ravel() + 1, means.ravel(), cis.ravel()])

    tail_start = h - max(h // 4, 1)
    for l, tail_max in enumerate(means[:, tail_start:].max(axis=1), 1):
        status = "<=" if tail_max <= bound else ">"
        print(f"dimension {l}: tail e_agg max {_fmt(tail_max)} "
              f"{status} bound {_fmt(bound)}")
    print(f"wrote {args.out}/trajectory.csv and {args.out}/summary.csv")
    return 0


def cmd_design(args) -> int:
    prm = {k: getattr(args, k) for k in bounds.TABLE1_PARAMS}
    cells = (bounds.reproduce_table1(**prm) if args.table1
             else [bounds.threshold_cell(args.kind, args.n, **prm)])
    if args.out:
        _make_out_dir(args.out)
    if args.table1:
        print(f"{'graph':>10} {'N':>7} {'numeric':>14} {'closed form':>14} "
              f"{'deviation':>10}")
        for c in cells:
            print(f"{c.kind:>10} {c.n:>7} {_fmt(c.numeric):>14} "
                  f"{_fmt(c.closed_form):>14} "
                  f"{c.relative_deviation:>10.2%}")
    else:
        c = cells[0]
        print(f"{c.kind} graph, N={c.n}, lambda2={_fmt(c.lambda2)}")
        print(f"minimum epsilon (numeric, authoritative): {_fmt(c.numeric)}")
        print(f"published closed form:                    "
              f"{_fmt(c.closed_form)}")
        print(f"relative deviation:                       "
              f"{c.relative_deviation:.2%}")
    if args.out:
        _write_csv(os.path.join(args.out, "thresholds.csv"),
                   ["graph", "n", "epsilon_numeric", "epsilon_closed_form"],
                   [[c.kind for c in cells], [c.n for c in cells],
                    [c.numeric for c in cells],
                    [c.closed_form for c in cells]])
        print(f"wrote {args.out}/thresholds.csv")
    deviating = sum(c.relative_deviation > 0.02 for c in cells)
    if args.table1 and deviating:
        print(f"discrepancy report: {deviating} closed-form "
              "entries deviate from the numeric threshold by > 2%")
    return 0


def cmd_sweep(args) -> int:
    if args.eps_steps < 1 or args.lam2_steps < 1:
        raise ValueError("--eps-steps and --lam2-steps must be >= 1")
    eps = np.linspace(args.eps_min, args.eps_max, args.eps_steps)
    lam2 = np.linspace(args.lam2_min, args.lam2_max, args.lam2_steps)
    grid = bounds.corollary1_bound(eps[:, None], lam2[None, :],
                                   n_agents=args.n, gamma=args.gamma,
                                   b=args.b, delta=args.delta)
    _make_out_dir(args.out)
    path = os.path.join(args.out, "surface.csv")
    _write_csv(path, ["epsilon", "lambda2", "bound"],
               [np.repeat(eps, len(lam2)), np.tile(lam2, len(eps)),
                grid.ravel()])
    print(f"wrote {path} ({len(eps)}x{len(lam2)} grid)")
    return 0


def cmd_sensitivity(args) -> int:
    lam2 = args.lambda2
    rep = sensitivity.sensitivity_compare(
        args.epsilon, lam2, n_agents=args.n, gamma=args.gamma, b=args.b,
        delta=args.delta)
    print(f"d(bound)/d(epsilon) = {_fmt(rep.d_epsilon)}")
    print(f"d(bound)/d(lambda2) = {_fmt(rep.d_lambda2)}")
    print(f"verdict: {rep.verdict}")
    if not rep.in_valid_region:
        print(f"note: lambda2={_fmt(lam2)} is outside (0, 1/gamma) "
              f"= (0, {_fmt(1.0 / args.gamma)}); both-partials-negative "
              "reasoning does not apply there")
    print(f"exact cutoff: topology_dominant for lambda2 < "
          f"{_fmt(rep.exact_cutoff)}")
    c = rep.cutoffs
    print(f"closed-form cutoffs: lambda2 > {_fmt(c.upper_cut)} or "
          f"lambda2 < {_fmt(c.lower_cut)} "
          f"(alpha={_fmt(c.alpha)}, eta1={_fmt(c.eta1)}, "
          f"eta2={_fmt(c.eta2)})")
    literal = lam2 > c.upper_cut or lam2 < c.lower_cut
    if literal != (lam2 < rep.exact_cutoff):
        print(f"note: the closed-form cutoffs call lambda2={_fmt(lam2)} "
              f"{'topology' if literal else 'epsilon'}_dominant and the "
              "exact cutoff does not")
    return 0


def cmd_bounds(args) -> int:
    cfg = config.load(args.config) if args.config else config.demo_config()
    rep = bounds.bound_report(graphs.build_perron(cfg.graph, cfg.gamma),
                              cfg.privacy_params)
    print(f"exact e_ss (oracle):      {_fmt(rep.exact_ess)} "
          "(network noise model)")
    print(f"sandwich lower bound:     {_fmt(rep.lemma7_lower)}")
    print(f"sandwich upper bound:     {_fmt(rep.lemma7_upper)}")
    print(f"closed-form upper bound:  {_fmt(rep.theorem1_upper)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every main call reuses it."""
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
    des.add_argument("--kind", choices=graphs.TOPOLOGY_KINDS,
                     default="complete")
    des.add_argument("--n", type=int, default=10)
    des.add_argument("--delta", type=float)
    des.add_argument("--b", type=float)
    des.add_argument("--w", type=float,
                     help="uniform edge weight (default: 1); the threshold "
                     "inverts Theorem 1, which assumes w <= 1")
    des.add_argument("--gamma", type=float)
    des.add_argument("--e-r", dest="e_r", type=float)
    des.add_argument("--table1", action="store_true",
                     help="full 4-topology x 4-size threshold table")
    des.add_argument("--out")
    des.set_defaults(func=cmd_design, **bounds.TABLE1_PARAMS)

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
    except ValueError as exc:  # ConfigError and StepSizeTooLarge included
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (graphs.NumericalError, ArithmeticError, MemoryError) as exc:
        # an exception with no text, such as a bare MemoryError, is named
        print(f"numerical failure: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
