"""The four workloads: seeded inputs, the op each one times, and the gates
that check every op against a reference computed in reference.py.

Each workload exposes:

* ``pool``: the op inputs, generated from the seed; runs cycle through it;
* ``run(op)``: the timed call into the library or CLI, in-process;
* ``collect(op, raw)``: untimed, reads back any files the op wrote;
* ``check(op, out)``: a Verdict. ``hard`` failures are wrong outputs (an
  exception, a non-zero exit code, a deterministic gate); ``soft`` failures
  are misses of a statistical gate (the Monte Carlo 5% gate). Both count as
  failed ops; only hard failures make a run incorrect;
* ``perturbations(op, out)``: (label, output, expected failure text or
  None); the self-check asserts each gate rejects its wrong answer;
* ``counts(op, out)``: the computed kernel counts of a Monte Carlo op;
* ``io(op, out)``: bytes and CSV rows the op wrote.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

import reference as ref

# run_trials worker threads for both Monte Carlo workloads. One, not nproc:
# on the shared 2-vCPU machine the benchmark was built on, the second vCPU
# comes and goes, so two-thread ops swung between two speeds (interquartile
# range 0.21 over 30-second windows, against 0.11 for one thread) and were
# no faster on average (3.66 s against 3.57 s for four mc_ess ops).
JOBS = 1


@dataclass
class Verdict:
    hard: list = field(default_factory=list)
    soft: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def call_cli(argv) -> tuple:
    """cli.main in-process; returns (exit code, stdout, stderr)."""
    from dpformation import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:   # argparse rejected the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def write_yaml(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, default_flow_style=None)


def graph_yaml(n: int, edges) -> dict:
    return dict(nodes=n, edges=[[i + 1, j + 1, float(w)] for i, j, w in edges])


def privacy_draw(rng) -> tuple:
    """(epsilon, delta, b) inside the library's customary ranges, so that no
    PrivacyRangeWarning fires."""
    return (float(rng.uniform(0.2, 1.0)), float(10 ** rng.uniform(-3, -2)),
            float(rng.uniform(0.5, 2.0)))


def printed(text: str, label: str) -> float:
    m = re.search(re.escape(label) + r"\s*(\S+)", text)
    if m is None:
        raise ValueError(f"no {label!r} line in output")
    return float(m.group(1))


def replace_printed(text: str, label: str, value: float) -> str:
    return re.sub(re.escape(label) + r"(\s*)\S+",
                  lambda m: f"{label}{m.group(1)}{value!r}", text, count=1)


def csv_rows(data: bytes) -> int:
    return data.count(b"\n") - 1


def spread_order(n: int) -> list:
    """0..n-1 in van der Corput (bit-reversed) order."""
    bits = max(1, (n - 1).bit_length())
    rev = (int(f"{i:0{bits}b}"[::-1], 2) for i in range(2**bits))
    return [r for r in rev if r < n]


def ring(n: int, w: float) -> list:
    return [(i, i + 1, w) for i in range(n - 1)] + [(0, n - 1, w)]


def path(n: int, w: float) -> list:
    return [(i, i + 1, w) for i in range(n - 1)]


class McEss:
    """estimate_ess at the criterion-6 setup on the contiguous graph seeds
    0-39; the run's seed sets the Monte Carlo master seeds (1000*seed + graph
    seed, so seed 0 is criterion 6's own setup)."""

    name = "mc_ess"
    nominal_rate = 1.1      # op/s on a 2-vCPU machine, sizes the traced run
    gate = 0.05             # criterion 6's own tolerance

    def __init__(self, seed: int, work: str, tiny: bool = False):
        from dpformation import graphs
        self.trials = 200 if tiny else 2000
        pool = []
        for gseed in range(3 if tiny else 40):
            rng = np.random.default_rng(gseed)
            n = int(rng.integers(3, 9))
            edges = ref.random_graph(n, rng)
            gamma = 0.5 / ref.max_degree(n, edges)
            sigmas = rng.uniform(0.5, 1.5, n)
            spec = ref.Spectrum(n, edges, gamma)
            pool.append(dict(
                graph_seed=gseed, n=n, sigmas=sigmas,
                master_seed=1000 * seed + gseed,
                p=graphs.build_perron(graphs.WeightedGraph(n, tuple(edges)),
                                      gamma),
                exact=spec.exact_ess(spec.network_noise(sigmas)),
                cost=n / (1.0 - spec.mu[1])))
        # Sort by cost (N / spectral gap, which the horizon follows) and
        # visit in van der Corput order, so that every prefix a time-limited
        # run reaches samples the whole cost range evenly, and the warm-up
        # op (pool[0]) allocates the largest noise tensor.
        pool.sort(key=lambda op: -op["cost"])
        self.pool = [pool[i] for i in spread_order(len(pool))]
        self.inputs = dict(graph_seeds=[0, len(self.pool) - 1],
                           master_seed=f"1000*{seed} + graph seed",
                           trials=self.trials, jobs=JOBS,
                           gamma="0.5/d_max", sigma="U(0.5, 1.5)",
                           horizon="default_horizon")

    def run(self, op):
        from dpformation import dynamics
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return dynamics.estimate_ess(op["p"], op["sigmas"],
                                         trials=self.trials,
                                         master_seed=op["master_seed"],
                                         jobs=JOBS)

    def collect(self, op, raw):
        return raw

    def check(self, op, out) -> Verdict:
        v = Verdict()
        if not (math.isfinite(out.value) and out.value > 0):
            v.hard.append(f"estimate {out.value!r} is not a positive number")
            return v
        err = ref.rel_err(out.value, op["exact"])
        v.values["ess_rel_err"] = err
        if err > self.gate:
            v.soft.append(f"graph seed {op['graph_seed']}: estimate "
                          f"{out.value:.6g} is {err:.2%} from the exact "
                          f"{op['exact']:.6g}")
        return v

    def perturbations(self, op, out):
        exact = dataclasses.replace(out, value=op["exact"])
        return [("exact value", exact, None),
                ("6% high", dataclasses.replace(out, value=op["exact"] * 1.06),
                 "from the exact"),
                ("not a number", dataclasses.replace(out, value=math.nan),
                 "not a positive number")]

    def counts(self, op, out) -> dict:
        h, t, n = out.horizon, self.trials, op["n"]
        return dict(trial_steps=h * t, rng_draws=h * t * n,
                    noise_bytes=8 * h * t * n, recursion_flops=2 * h * t * n * n)

    def io(self, op, out) -> tuple:
        return 0, 0


class SimulateCli:
    """dpformation simulate on 2-D ring formations with seeded weights,
    anchors, privacy and master seed; 4 configs, each revisited so that a
    repeated seed can be checked for byte-identical CSVs."""

    name = "simulate_cli"
    nominal_rate = 2.9
    dims = 2

    def __init__(self, seed: int, work: str, tiny: bool = False):
        self.n, self.horizon, self.trials = (6, 40, 20) if tiny else (20, 300,
                                                                      200)
        self.out_dir = os.path.join(work, "simulate")
        self.hashes = {}
        self.pool = []
        for k in range(2 if tiny else 4):
            rng = np.random.default_rng([seed, 0, k])
            w = float(rng.uniform(0.5, 2.0))
            gamma = 0.5 / (2.0 * w)
            eps, delta, b = privacy_draw(rng)
            angle = np.linspace(0.0, 2 * np.pi, self.n, endpoint=False)
            radius = float(rng.uniform(10.0, 30.0))
            anchors = (radius * np.column_stack([np.cos(angle), np.sin(angle)])
                       + rng.normal(0.0, 1.0, (self.n, 2)))
            cfg = os.path.join(work, f"simulate-{k}.yaml")
            write_yaml(cfg, dict(
                graph=graph_yaml(self.n, ring(self.n, w)), gamma=gamma,
                horizon=self.horizon, trials=self.trials,
                seed=int(rng.integers(0, 2**31)),
                privacy=dict(epsilon=eps, delta=delta, b=b),
                formation=dict(anchors=anchors.tolist())))
            spec = ref.Spectrum(self.n, ring(self.n, w), gamma)
            self.pool.append(dict(
                index=k, config=cfg,
                bound=spec.theorem1(float(ref.kappa(delta, eps) * b) ** 2)))
        self.inputs = dict(topology="ring", n=self.n, horizon=self.horizon,
                           trials=self.trials, configs=len(self.pool),
                           config_seeds=f"[{seed}, 0, k]", jobs=JOBS)

    def run(self, op):
        return call_cli(["simulate", "--config", op["config"],
                         "--jobs", str(JOBS), "--out", self.out_dir])

    def collect(self, op, raw):
        files = {}
        if raw[0] == 0:
            for f in ("trajectory.csv", "summary.csv"):
                with open(os.path.join(self.out_dir, f), "rb") as fh:
                    files[f] = fh.read()
        return dict(rc=raw[0], stdout=raw[1], stderr=raw[2], files=files)

    def check(self, op, out) -> Verdict:
        v = Verdict()
        if out["rc"] != 0:
            v.hard.append(f"exit code {out['rc']}: {out['stderr'].strip()}")
            return v
        h, n = self.horizon, self.n
        traj, summ = out["files"]["trajectory.csv"], out["files"]["summary.csv"]
        if csv_rows(traj) != (h + 1) * n * self.dims:
            v.hard.append(f"trajectory.csv has {csv_rows(traj)} rows")
        if csv_rows(summ) != (h + 1) * self.dims:
            v.hard.append(f"summary.csv has {csv_rows(summ)} rows")
            return v
        table = np.loadtxt(io.BytesIO(summ), delimiter=",", skiprows=1)
        tail_start = h + 1 - max((h + 1) // 4, 1)
        tail = table[table[:, 0] >= tail_start, 2].max()
        if not tail <= op["bound"]:
            v.hard.append(f"tail e_agg {tail:.6g} above the Theorem-1 bound "
                          f"{op['bound']:.6g}")
        digest = hashlib.sha256(traj + summ).hexdigest()
        if self.hashes.setdefault(op["index"], digest) != digest:
            v.hard.append(f"config {op['index']}: CSVs differ from an "
                          "earlier run with the same seed")
        return v

    def perturbations(self, op, out):
        traj, summ = out["files"]["trajectory.csv"], out["files"]["summary.csv"]
        last = summ.rstrip(b"\n").rsplit(b"\n", 1)
        step, dim, _, ci = last[1].split(b",")
        high = repr(op["bound"] * 2).encode()
        over = last[0] + b"\n" + b",".join([step, dim, high, ci]) + b"\n"
        flipped = traj.replace(b"1", b"2", 1)

        def files(t, s):
            return dict(out, files={"trajectory.csv": t, "summary.csv": s})
        return [("as written", out, None),
                ("row dropped", files(traj[:traj.rstrip(b"\n").rfind(b"\n")
                                           + 1], summ),
                 "trajectory.csv has"),
                ("tail above bound", files(traj, over),
                 "above the Theorem-1 bound"),
                ("byte changed", files(flipped, summ), "CSVs differ"),
                ("exit code 3", dict(out, rc=3), "exit code 3")]

    def counts(self, op, out) -> dict:
        h, t, n, d = self.horizon, self.trials, self.n, self.dims
        return dict(trial_steps=d * h * t, rng_draws=d * h * t * n,
                    noise_bytes=d * 8 * h * t * n,
                    recursion_flops=d * 2 * h * t * n * n)

    def io(self, op, out) -> tuple:
        files = out["files"].values()
        return (len(out["stdout"]) + sum(len(f) for f in files),
                sum(csv_rows(f) for f in files))


class SpectralBounds:
    """dpformation bounds on explicit edge-list YAMLs, cycling four kinds so
    every prefix of a run is balanced: random graphs at gamma = 0.5/d_max and
    0.1/d_max, a slow-mixing cycle and a slow-mixing line."""

    name = "spectral_bounds"
    nominal_rate = 3.2
    kinds = (("random", 0.5), ("random", 0.1), ("cycle", 0.5), ("line", 0.5))
    labels = dict(oracle="exact e_ss (oracle):", lower="sandwich lower bound:",
                  upper="sandwich upper bound:",
                  theorem1="closed-form upper bound:")
    tol = 1e-6      # the CLI prints 9 significant digits

    def __init__(self, seed: int, work: str, tiny: bool = False):
        sizes = dict(random=12, cycle=8, line=6) if tiny else dict(
            random=100, cycle=72, line=48)
        self.pool = []
        for k in range(4 if tiny else 16):
            kind, c = self.kinds[k % len(self.kinds)]
            rng = np.random.default_rng([seed, 1, k])
            n = sizes[kind]
            if kind == "random":
                edges = ref.random_graph(n, rng)
            else:
                w = float(rng.uniform(0.5, 2.0))
                edges = ring(n, w) if kind == "cycle" else path(n, w)
            gamma = c / ref.max_degree(n, edges)
            eps, delta, b = privacy_draw(rng)
            cfg = os.path.join(work, f"bounds-{k}.yaml")
            write_yaml(cfg, dict(graph=graph_yaml(n, edges), gamma=gamma,
                                 privacy=dict(epsilon=eps, delta=delta, b=b),
                                 formation=dict(anchors=[[0.0]] * n)))
            spec = ref.Spectrum(n, edges, gamma)
            kb = float(ref.kappa(delta, eps) * b)
            z = spec.network_noise(np.full(n, kb))
            lower, upper = spec.sandwich(z)
            self.pool.append(dict(
                config=cfg, kind=kind, n=n,
                ref=dict(oracle=spec.exact_ess(z), lower=lower, upper=upper,
                         theorem1=spec.theorem1(kb**2))))
        self.inputs = dict(
            sizes=sizes, gamma_over_dmax=[c for _, c in self.kinds],
            configs=len(self.pool), config_seeds=f"[{seed}, 1, k]",
            left_out="line N=200 (about 119 s per op): over the per-op "
                     "budget, left out for run time, not for correctness")

    def run(self, op):
        return call_cli(["bounds", "--config", op["config"]])

    def collect(self, op, raw):
        return dict(rc=raw[0], stdout=raw[1], stderr=raw[2])

    def check(self, op, out) -> Verdict:
        v = Verdict()
        if out["rc"] != 0:
            v.hard.append(f"exit code {out['rc']}: {out['stderr'].strip()}")
            return v
        try:
            got = {k: printed(out["stdout"], lab)
                   for k, lab in self.labels.items()}
        except ValueError as exc:
            v.hard.append(str(exc))
            return v
        for k, value in got.items():
            if not ref.rel_err(value, op["ref"][k]) <= self.tol:
                v.hard.append(f"{op['kind']} N={op['n']}: {k} {value!r} vs "
                              f"reference {op['ref'][k]!r}")
        slack = 1e-8
        if not (got["lower"] * (1 - slack) <= got["oracle"]
                <= got["upper"] * (1 + slack)):
            v.hard.append("oracle outside the Lemma-7 sandwich")
        if not got["oracle"] <= got["theorem1"] * (1 + slack):
            v.hard.append("oracle above the Theorem-1 bound")
        return v

    def perturbations(self, op, out):
        text = out["stdout"]
        r = op["ref"]

        def edit(label, value):
            return dict(out, stdout=replace_printed(text, self.labels[label],
                                                    value))
        return [("as printed", out, None),
                ("oracle 1e-5 off", edit("oracle", r["oracle"] * (1 + 1e-5)),
                 "vs reference"),
                ("oracle above sandwich", edit("oracle", r["upper"] * 1.01),
                 "outside the Lemma-7 sandwich"),
                ("bound below oracle", edit("theorem1", r["oracle"] * 0.99),
                 "above the Theorem-1 bound"),
                ("line missing", dict(out, stdout=text.splitlines()[0]),
                 "line in output"),
                ("exit code 3", dict(out, rc=3), "exit code 3")]

    def counts(self, op, out) -> dict:
        return {}

    def io(self, op, out) -> tuple:
        return len(out["stdout"]), 0


class DesignSweep:
    """One design study at seeded (delta, b, gamma, e_R) near Table I:
    design --table1 --out, sweep over an (epsilon, lambda2) grid, then
    sensitivity at three points."""

    name = "design_sweep"
    nominal_rate = 2.4
    n_agents = 50
    sens_points = 3

    def __init__(self, seed: int, work: str, tiny: bool = False):
        self.steps = 12 if tiny else 200
        self.out_dir = os.path.join(work, "design")
        self.pool = []
        for k in range(2 if tiny else 6):
            rng = np.random.default_rng([seed, 2, k])
            prm = dict(delta=0.01 * rng.uniform(0.7, 1.3),
                       b=5.0 * rng.uniform(0.8, 1.2),
                       gamma=1e-4 * rng.uniform(0.8, 1.2),
                       e_r=100.0 * rng.uniform(0.8, 1.2))
            points = [(float(rng.uniform(0.1, 1.0)),
                       float(rng.uniform(0.05, 0.9)) / prm["gamma"])
                      for _ in range(self.sens_points)]
            self.pool.append(dict(index=k, points=points,
                                  **{a: float(x) for a, x in prm.items()}))
        self.inputs = dict(grid=f"{self.steps}x{self.steps}",
                           n_agents=self.n_agents, studies=len(self.pool),
                           sensitivity_points=self.sens_points,
                           param_seeds=f"[{seed}, 2, k]",
                           near="Table I: delta 0.01, b 5, gamma 1e-4, e_R 100")

    def grid(self, op):
        return (np.linspace(0.05, 1.5, self.steps).tolist(),
                np.linspace(1.0, 0.95 / op["gamma"], self.steps).tolist())

    def run(self, op):
        common = ["--delta", repr(op["delta"]), "--b", repr(op["b"]),
                  "--gamma", repr(op["gamma"])]
        eps, lam2 = self.grid(op)
        calls = [["design", "--table1", "--e-r", repr(op["e_r"]),
                  "--out", self.out_dir, *common],
                 ["sweep", "--n", str(self.n_agents),
                  "--eps-min", repr(eps[0]), "--eps-max", repr(eps[-1]),
                  "--eps-steps", str(self.steps),
                  "--lam2-min", repr(lam2[0]), "--lam2-max", repr(lam2[-1]),
                  "--lam2-steps", str(self.steps), "--out", self.out_dir,
                  *common]]
        calls += [["sensitivity", "--epsilon", repr(e), "--lambda2", repr(l),
                   "--n", str(self.n_agents), *common]
                  for e, l in op["points"]]
        return [call_cli(argv) for argv in calls]

    def collect(self, op, raw):
        files = {}
        if all(rc == 0 for rc, _, _ in raw[:2]):
            for f in ("thresholds.csv", "surface.csv"):
                with open(os.path.join(self.out_dir, f), "rb") as fh:
                    files[f] = fh.read()
        return dict(results=raw, files=files)

    def bound(self, op, eps, lam2, n):
        return ref.bound(eps, lam2, n=n, gamma=op["gamma"], b=op["b"],
                         delta=op["delta"])

    def check(self, op, out) -> Verdict:
        v = Verdict()
        for rc, _, err in out["results"]:
            if rc != 0:
                v.hard.append(f"exit code {rc}: {err.strip()}")
        if v.hard:
            return v
        rows = out["files"]["thresholds.csv"].decode().splitlines()[1:]
        if len(rows) != 16:
            v.hard.append(f"thresholds.csv has {len(rows)} rows")
        for row in rows:
            kind, n, eps, _ = row.split(",")
            lam2 = ref.topology_lambda2(kind, int(n))
            err = ref.rel_err(self.bound(op, float(eps), lam2, int(n)),
                              op["e_r"])
            if not (float(eps) > 0 and err <= 1e-9):
                v.hard.append(f"{kind} N={n}: bound(eps*={eps}) misses e_R "
                              f"by {err:.3g}")
        body = out["files"]["surface.csv"].split(b"\n", 1)[1]
        table = np.array(body.replace(b"\n", b",").rstrip(b",").split(b","),
                         dtype=float).reshape(-1, 3)
        s = self.steps
        if table.shape[0] != s * s:
            v.hard.append(f"surface.csv has {table.shape[0]} rows")
            return v
        eps, lam2 = map(np.array, self.grid(op))
        grid = table[:, 2].reshape(s, s)
        expect = self.bound(op, eps[:, None], lam2[None, :], self.n_agents)
        if not (np.allclose(table[:, 0], np.repeat(eps, s), rtol=1e-12, atol=0)
                and np.allclose(table[:, 1], np.tile(lam2, s), rtol=1e-12,
                                atol=0)):
            v.hard.append("surface grid points differ from the request")
        elif not np.allclose(grid, expect, rtol=1e-10, atol=0):
            v.hard.append("surface values differ from the reference bound")
        if not (np.all(np.diff(grid, axis=0) < 0)
                and np.all(np.diff(grid, axis=1) < 0)):
            v.hard.append("surface not strictly decreasing in eps and lambda2")
        for (e, l), (_, text, _) in zip(op["points"], out["results"][2:]):
            v.hard += self.check_sensitivity(op, e, l, text)
        return v

    def check_sensitivity(self, op, e, l, text) -> list:
        try:
            de = printed(text, "d(bound)/d(epsilon) =")
            dl = printed(text, "d(bound)/d(lambda2) =")
            verdict = re.search(r"verdict: (\S+)", text).group(1)
        except (ValueError, AttributeError):
            return ["sensitivity output incomplete"]
        n, he, hl = self.n_agents, 1e-6 * e, 1e-6 * l
        fd_e = float(self.bound(op, e + he, l, n)
                     - self.bound(op, e - he, l, n)) / (2 * he)
        fd_l = float(self.bound(op, e, l + hl, n)
                     - self.bound(op, e, l - hl, n)) / (2 * hl)
        bad = []
        if not (ref.rel_err(de, fd_e) <= 1e-5 and ref.rel_err(dl, fd_l) <= 1e-5):
            bad.append(f"partials ({de!r}, {dl!r}) vs finite differences "
                       f"({fd_e!r}, {fd_l!r})")
        if verdict != ("topology_dominant" if dl < de else "epsilon_dominant"):
            bad.append(f"verdict {verdict} contradicts the printed partials")
        return bad

    def perturbations(self, op, out):
        thr = out["files"]["thresholds.csv"].decode().splitlines()
        kind, n, eps, cf = thr[1].split(",")
        thr[1] = ",".join([kind, n, repr(float(eps) * (1 + 1e-6)), cf])
        surf = out["files"]["surface.csv"].split(b"\n")
        a, b = surf[1].split(b","), surf[2].split(b",")
        a[2], b[2] = b[2], a[2]
        surf[1], surf[2] = b",".join(a), b",".join(b)
        sens = list(out["results"])
        rc, text, err = sens[2]
        sens[2] = (rc, replace_printed(
            text, "d(bound)/d(epsilon) =",
            printed(text, "d(bound)/d(epsilon) =") * 1.001), err)

        def files(name, data):
            return dict(out, files={**out["files"], name: data})
        return [("as written", out, None),
                ("threshold 1e-6 off",
                 files("thresholds.csv", "\n".join(thr).encode()),
                 "misses e_R"),
                ("surface values swapped",
                 files("surface.csv", b"\n".join(surf)),
                 "not strictly decreasing"),
                ("partial 0.1% off", dict(out, results=sens),
                 "finite differences"),
                ("exit code 2",
                 dict(out, results=[(2, "", "")] + out["results"][1:]),
                 "exit code 2")]

    def counts(self, op, out) -> dict:
        return {}

    def io(self, op, out) -> tuple:
        files = out["files"].values()
        return (sum(len(t) for _, t, _ in out["results"])
                + sum(len(f) for f in files), sum(csv_rows(f) for f in files))


WORKLOADS = {w.name: w for w in (McEss, SimulateCli, SpectralBounds,
                                 DesignSweep)}
