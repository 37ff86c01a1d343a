import argparse
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import yaml

from dpformation import bounds, config, corollary1_bound, graphs
from dpformation.cli import build_parser, main
from dpformation.privacy import PrivacyRangeWarning


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


DEMO_CONFIG = """\
graph: {kind: star, n: 5, w: 1.0}
gamma: 0.2
horizon: 100
trials: 50
seed: 7
privacy: {epsilon: 1.0986122886681098, delta: 0.00135, b: 2.0}
formation:
  anchors: [[0, 0], [-20, 20], [20, 20], [20, -20], [-20, -20]]
"""

EDGE_LIST_CONFIG = """\
graph:
  nodes: 3
  edges: [[1, 2, 1.0], [2, 3, 0.5]]
gamma: 0.2
horizon: 40
trials: 10
seed: 3
privacy:
  - {epsilon: 0.5, delta: 0.01, b: 1.0}
  - {epsilon: 0.4, delta: 0.01, b: 1.0}
  - {epsilon: 0.3, delta: 0.01, b: 2.0}
formation:
  anchors: [[0.0], [1.0], [2.0]]
"""

BAD_GAMMAS = ["0", "-1", "nan", "inf"]
# the same values as YAML reads them in a config file
BAD_CONFIG_GAMMAS = ["0", "-1", ".nan", ".inf"]


class TestSimulate:
    def test_demo_runs_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, text, _ = run(capsys, "simulate", "--trials", "20",
                            "--out", str(out))
        assert code == 0
        assert "upper bound: 11.8643399" in text
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "step,agent,dimension,state,error"
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "step,dimension,e_agg_mean,e_agg_ci"

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "simulate", "--trials", "20", "--seed", "5",
            "--out", str(a))
        run(capsys, "simulate", "--trials", "20", "--seed", "5",
            "--jobs", "3", "--out", str(b))
        for name in ("trajectory.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_noiseless_reaches_formation(self, tmp_path, capsys):
        code, text, _ = run(capsys, "simulate", "--noiseless", "--trials",
                            "1", "--out", str(tmp_path / "g"))
        assert code == 0
        for line in text.splitlines():
            if line.startswith("dimension"):
                assert float(line.split()[5]) < 1e-6

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(EDGE_LIST_CONFIG)
        code, text, _ = run(capsys, "simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "o"))
        assert code == 0
        assert "tail e_agg max" in text

    def test_invalid_gamma_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(DEMO_CONFIG.replace("gamma: 0.2", "gamma: 0.3"))
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert "node 0" in err  # the binding constraint is named

    @pytest.mark.parametrize("gamma", BAD_CONFIG_GAMMAS)
    def test_nonpositive_or_nonfinite_gamma_exits_2(self, tmp_path, capsys,
                                                    gamma):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(DEMO_CONFIG.replace("gamma: 0.2", f"gamma: {gamma}"))
        code, text, err = run(capsys, "simulate", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 2
        got = float(yaml.safe_load(gamma))
        assert f"gamma must be positive and finite, got {got}" in err
        assert text == ""
        assert not (tmp_path / "o").exists()

    def test_nan_epsilon_exits_2_without_range_warning(self, tmp_path,
                                                        capsys):
        # an infinite epsilon used to run and write NaN CSVs
        for eps in (".nan", ".inf", "-.inf"):
            cfg = tmp_path / "eps.yaml"
            cfg.write_text(DEMO_CONFIG.replace(
                "epsilon: 1.0986122886681098", f"epsilon: {eps}"))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, text, err = run(capsys, "simulate", "--config",
                                      str(cfg), "--out", str(tmp_path / "o"))
            assert code == 2, eps
            assert "epsilon must be positive and finite" in err
            assert text == ""
            assert not (tmp_path / "o").exists()
            assert not [w for w in caught
                        if issubclass(w.category, PrivacyRangeWarning)]

    @pytest.mark.parametrize("jobs", ["-3", "-1"])
    def test_negative_jobs_exits_2_before_output(self, tmp_path, capsys,
                                                 jobs):
        # --jobs 0 means all cores; below that used to run on one thread
        code, text, err = run(capsys, "simulate", "--trials", "5", "--jobs",
                              jobs, "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"jobs must be >= 1, got {jobs}" in err
        assert text == ""
        assert not (tmp_path / "o").exists()

    def test_jobs_zero_uses_all_cores(self, tmp_path, capsys, monkeypatch):
        from dpformation import dynamics
        seen = []
        run_trials = dynamics.run_trials

        def spy(*args, **kw):
            seen.append(kw["jobs"])
            return run_trials(*args, **kw)

        monkeypatch.setattr(dynamics, "run_trials", spy)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        code, _, _ = run(capsys, "simulate", "--trials", "20", "--jobs", "0",
                         "--out", str(tmp_path))
        assert code == 0
        assert seen == [3, 3]  # one run per formation dimension

    @pytest.mark.parametrize("d, trials, jobs", [
        (1, 257, 2), (2, 1, 2), (3, 257, 2), (3, 1, 1)])
    def test_each_dimension_is_its_scalar_run(self, tmp_path, capsys,
                                              monkeypatch, d, trials, jobs):
        # dimension l of a d-column formation is the scalar run from -q_l
        # keyed by (seed, l), and the CSVs hold exactly those runs' rows
        from csv_reference import reference_write_csv
        from dpformation import dynamics
        anchors = np.random.default_rng(d).uniform(-20, 20, (5, d)).round(3)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(DEMO_CONFIG.replace(
            "[[0, 0], [-20, 20], [20, 20], [20, -20], [-20, -20]]",
            str(anchors.tolist())))
        calls = []
        run_trials = dynamics.run_trials

        def spy(*args, **kw):
            calls.append((args, kw, run_trials(*args, **kw)))
            return calls[-1][2]

        monkeypatch.setattr(dynamics, "run_trials", spy)
        out = tmp_path / "o"
        code, _, _ = run(capsys, "simulate", "--config", str(cfg),
                         "--trials", str(trials), "--horizon", "20",
                         "--jobs", str(jobs), "--out", str(out))
        assert code == 0
        loaded = config.load(cfg)
        p = graphs.build_perron(loaded.graph, loaded.gamma)
        assert len(calls) == d
        trajectory, summary = [], []
        for l, (args, kw, (e_agg, t)) in enumerate(calls):
            q = anchors[:, l]
            assert np.array_equal(args[1], loaded.sigmas)
            assert args[2:] == (20, trials, (7, l))
            assert np.array_equal(kw["xbar0"], -q)
            assert kw["jobs"] == jobs
            scalar = run_trials(p, loaded.sigmas, 20, trials, (7, l), xbar0=-q)
            assert np.array_equal(e_agg, scalar[0])
            assert np.array_equal(t, scalar[1])
            err = t - t.mean(axis=1, keepdims=True)
            # the trial mean and 1.96 sample standard deviations over
            # sqrt(trials), 0 for one trial
            mean = e_agg.mean(axis=1)
            ci = (1.96 * (e_agg.std(axis=1, ddof=1) / np.sqrt(trials))
                  if trials > 1 else np.zeros(21))
            for step in range(21):
                summary.append((step, l + 1, mean[step], ci[step]))
                trajectory.extend((step, agent + 1, l + 1,
                                   t[step, agent] + q[agent], err[step, agent])
                                  for agent in range(5))
        for name, header, rows in [
                ("trajectory.csv",
                 ["step", "agent", "dimension", "state", "error"], trajectory),
                ("summary.csv",
                 ["step", "dimension", "e_agg_mean", "e_agg_ci"], summary)]:
            reference_write_csv(tmp_path / name, header, zip(*rows))
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_single_trial_ci_is_zero(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, _, _ = run(capsys, "simulate", "--trials", "1", "--horizon",
                         "30", "--out", str(out))
        assert code == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["0.0"] * 62

    def test_two_trial_ci_is_the_sample_half_width(self, tmp_path, capsys,
                                                   monkeypatch):
        # e_agg_ci is 1.96 sample standard deviations of the two per-trial
        # series over sqrt(2), at every step of each dimension
        from dpformation import dynamics
        runs = []
        run_trials = dynamics.run_trials

        def spy(*args, **kw):
            runs.append(run_trials(*args, **kw))
            return runs[-1]

        monkeypatch.setattr(dynamics, "run_trials", spy)
        out = tmp_path / "o"
        code, _, _ = run(capsys, "simulate", "--trials", "2", "--horizon",
                         "30", "--out", str(out))
        assert code == 0
        table = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)
        want = [1.96 * (np.std(e, axis=1, ddof=1) / np.sqrt(2))
                for e, _ in runs]
        assert np.array_equal(table[:, 3], np.concatenate(want))
        # both trials start at -q, so only step 0 has no spread
        assert np.array_equal(table[:, 3] > 0, table[:, 0] > 0)

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_2_before_output(self, tmp_path, capsys,
                                                  where):
        cfg = tmp_path / "run.yaml"
        if where == "config":
            cfg.write_text(DEMO_CONFIG.replace("seed: 7", "seed: -1"))
            argv = ["--config", str(cfg)]
        else:
            cfg.write_text(DEMO_CONFIG)
            argv = ["--config", str(cfg), "--seed", "-1"]
        code, text, err = run(capsys, "simulate", *argv,
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert "seed must be non-negative, got -1" in err
        assert text == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config,edits,what", [
        (DEMO_CONFIG, [("seed: 7", "seed: 7.9")], "seed"),
        (DEMO_CONFIG, [("horizon: 100", "horizon: 2.5"),
                       ("seed: 7", "seed: 7.9")], "horizon"),
        (DEMO_CONFIG, [("trials: 50", "trials: 50.0")], "trials"),
        (DEMO_CONFIG, [("seed: 7", "seed: true")], "seed"),
        (DEMO_CONFIG, [("horizon: 100", "horizon: '100'")], "horizon"),
        (DEMO_CONFIG, [("n: 5", "n: 5.0")], "graph n"),
        (EDGE_LIST_CONFIG, [("nodes: 3", "nodes: 3.5")], "graph nodes"),
        (EDGE_LIST_CONFIG, [("[2, 3, 0.5]", "[2, 3.9, 0.5]")],
         "edge endpoint")],
        ids=["seed", "horizon-and-seed", "trials", "bool-seed",
             "string-horizon", "graph-n", "graph-nodes", "edge-endpoint"])
    def test_non_integer_exits_2_before_output(self, tmp_path, capsys,
                                               config, edits, what):
        # a float, bool or string used to be truncated or parsed by int()
        for old, new in edits:
            config = config.replace(old, new)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(config)
        code, text, err = run(capsys, "simulate", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{what} must be an integer, got" in err
        assert text == ""
        assert not (tmp_path / "o").exists()

    def test_anchors_are_one_float_matrix(self, tmp_path, capsys):
        cfg = tmp_path / "demo.yaml"
        cfg.write_text(DEMO_CONFIG)
        anchors = config.load(cfg).anchors
        assert anchors.dtype == float and anchors.shape == (5, 2)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(DEMO_CONFIG.replace(", [-20, -20]]", "]"))
        code, text, err = run(capsys, "simulate", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert "formation has 4 anchor rows for 5 agents" in err
        assert text == ""

    @pytest.mark.parametrize("anchors,message", [
        ("[[0, 0], [-20, 20], [20, 20], [20, -20], [-20, .nan]]",
         "formation anchors must be finite"),
        ("[[0, 0], [-20, 20], [20, 20], [20, -20], [-20, .inf]]",
         "formation anchors must be finite"),
        ("[[], [], [], [], []]", "with n >= 1, got shape (5, 0)"),
        ("[[[0, 0]], [[-20, 20]], [[20, 20]], [[20, -20]], [[-20, -20]]]",
         "with n >= 1, got shape (5, 1, 2)")],
        ids=["nan", "inf", "empty", "3-d"])
    def test_bad_anchors_exit_2_before_output(self, tmp_path, capsys,
                                              anchors, message):
        # NaN and inf used to run, with NaN rows in summary.csv; no columns
        # and a third axis failed inside numpy, the first after the bounds
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(DEMO_CONFIG.replace(
            "[[0, 0], [-20, 20], [20, 20], [20, -20], [-20, -20]]", anchors))
        code, text, err = run(capsys, "simulate", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert message in err
        assert text == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config,old,new,what", [
        (DEMO_CONFIG, "gamma: 0.2", "gamma: true", "gamma"),
        (DEMO_CONFIG, "w: 1.0", "w: yes", "graph w"),
        (EDGE_LIST_CONFIG, "[2, 3, 0.5]", "[2, 3, on]", "edge weight"),
        (DEMO_CONFIG, "epsilon: 1.0986122886681098", "epsilon: true",
         "epsilon"),
        (DEMO_CONFIG, "delta: 0.00135", "delta: false", "delta"),
        (DEMO_CONFIG, "b: 2.0", "b: on", "b")],
        ids=["gamma", "w", "edge-weight", "epsilon", "delta", "b"])
    def test_boolean_real_exits_2_before_output(self, tmp_path, capsys,
                                                config, old, new, what):
        # YAML true, yes and on used to pass float() as 1.0
        cfg = tmp_path / "run.yaml"
        cfg.write_text(config.replace(old, new))
        code, text, err = run(capsys, "simulate", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{what} must be a number, got" in err
        assert text == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entry,shown", [("true", "True"),
                                             ("null", "None")])
    def test_non_numeric_anchor_exits_2_before_output(self, tmp_path, capsys,
                                                      entry, shown):
        # a YAML true used to run as the anchor 1.0, and null was blamed on
        # finiteness; a numeric string is still read as a number
        cfg = tmp_path / "run.yaml"
        cfg.write_text(DEMO_CONFIG.replace("[[0, 0]", f"[[{entry}, 0]"))
        code, text, err = run(capsys, "simulate", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"formation anchor must be a number, got {shown}" in err
        assert text == ""
        assert not (tmp_path / "o").exists()
        cfg.write_text(DEMO_CONFIG.replace("[[0, 0]", "[['1e-3', 0]"))
        code, _, _ = run(capsys, "bounds", "--config", str(cfg))
        assert code == 0

    @pytest.mark.parametrize("graph,stray", [
        ("{kind: line, n: 3, edges: [[1, 2, 5.0]]}", "edges"),
        ("{nodes: 3, edges: [[1, 2, 1.0], [2, 3, 0.5]], w: 9.0}", "w")],
        ids=["kind-with-edges", "nodes-with-w"])
    def test_mixed_graph_forms_exit_2_before_output(self, tmp_path, capsys,
                                                    graph, stray):
        # the key of the form not picked used to be dropped: the first ran
        # a uniform line without the weight 5.0, the second ignored w
        cfg = tmp_path / "run.yaml"
        cfg.write_text(EDGE_LIST_CONFIG.replace(
            "graph:\n  nodes: 3\n  edges: [[1, 2, 1.0], [2, 3, 0.5]]",
            f"graph: {graph}"))
        code, text, err = run(capsys, "simulate", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"unknown config key {stray!r} in a graph with" in err
        assert text == ""
        assert not (tmp_path / "o").exists()

    def test_exponent_without_dot_is_a_number(self, tmp_path, capsys):
        # PyYAML reads 1e-3 as the string '1e-3'; it must still mean 0.001
        assert yaml.safe_load("delta: 1e-3") == {"delta": "1e-3"}
        texts = []
        for delta in ("1e-3", "0.001"):
            cfg = tmp_path / "run.yaml"
            cfg.write_text(DEMO_CONFIG.replace("delta: 0.00135",
                                               f"delta: {delta}"))
            code, text, _ = run(capsys, "bounds", "--config", str(cfg))
            assert code == 0
            texts.append(text)
        assert texts[0] == texts[1]

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("graph: {kind: star, n: 5}\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert "missing config key" in err

    def test_prints_protocol_model_oracle(self, tmp_path, capsys):
        code, text, _ = run(capsys, "simulate", "--trials", "20",
                            "--out", str(tmp_path))
        assert code == 0
        assert ("exact per-dimension e_ss:       1.06779059 (protocol "
                "noise model)") in text

    @pytest.mark.parametrize("line", ["trails: 5", "jobs: 2"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(DEMO_CONFIG + line + "\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"unknown config key '{line.split(':')[0]}'" in err

    @pytest.mark.parametrize("section,value", [
        ("graph", 5), ("privacy", [1, 2]), ("privacy", 5), ("formation", 7)])
    def test_non_mapping_section_exits_2(self, tmp_path, capsys, section,
                                         value):
        data = yaml.safe_load(DEMO_CONFIG)
        data[section] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(data))
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"config section {section} must be a mapping" in err


class TestDesign:
    def test_kinds_are_the_named_topologies(self):
        # spelled out once, in graphs; Table I and --kind read them there
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        kind = next(a for a in sub.choices["design"]._actions
                    if a.dest == "kind")
        assert tuple(dict.fromkeys(
            cell.kind for cell in bounds.reproduce_table1())) == \
            graphs.TOPOLOGY_KINDS
        assert tuple(kind.choices) == graphs.TOPOLOGY_KINDS

    def test_defaults_are_the_table1_parameters(self):
        args = vars(build_parser().parse_args(["design"]))
        assert {k: args[k] for k in bounds.TABLE1_PARAMS} == \
            bounds.TABLE1_PARAMS

    def test_single_threshold(self, capsys):
        code, text, _ = run(capsys, "design", "--kind", "complete",
                            "--n", "10")
        assert code == 0
        assert "0.00740930993" in text

    def test_table1(self, tmp_path, capsys):
        code, text, _ = run(capsys, "design", "--table1",
                            "--out", str(tmp_path))
        assert code == 0
        assert "159591" in text
        assert "discrepancy report" in text
        rows = (tmp_path / "thresholds.csv").read_text().splitlines()
        assert len(rows) == 17
        # the file is written between the table and the report
        lines = text.splitlines()
        assert lines[-2] == f"wrote {tmp_path}/thresholds.csv"
        assert lines[-1].startswith("discrepancy report: 16 ")

    def test_single_cell_out_writes_its_row(self, tmp_path, capsys):
        code, text, _ = run(capsys, "design", "--kind", "line", "--n", "10",
                            "--out", str(tmp_path))
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "line graph, N=10, lambda2=0.0978869674"
        assert lines[-1] == f"wrote {tmp_path}/thresholds.csv"
        assert "discrepancy report" not in text
        rows = (tmp_path / "thresholds.csv").read_text().splitlines()
        assert rows[0] == "graph,n,epsilon_numeric,epsilon_closed_form"
        assert len(rows) == 2
        kind, n, numeric, closed = rows[1].split(",")
        assert (kind, n) == ("line", "10")
        assert f"{float(numeric):.9g}" == "0.0753359913"
        assert f"{float(closed):.9g}" == "3.69515174"

    def test_huge_target_gives_positive_threshold(self, capsys):
        code, text, _ = run(capsys, "design", "--kind", "star", "--n", "10",
                            "--e-r", "1e30")
        assert code == 0
        assert "numeric, authoritative): 2.34090092e-16" in text
        assert "relative deviation:                       100.00%" in text

    @pytest.mark.parametrize("b", ["-5", "0", "nan", "inf"])
    @pytest.mark.parametrize("table1", [[], ["--table1"]])
    def test_invalid_radius_exits_2(self, capsys, b, table1):
        code, text, err = run(capsys, "design", "--b", b, *table1)
        assert code == 2
        assert "adjacency radius b must be positive and finite" in err
        assert "closed form" not in text

    @pytest.mark.parametrize("gamma", BAD_GAMMAS)
    @pytest.mark.parametrize("table1", [[], ["--table1"]],
                             ids=["single", "table1"])
    def test_invalid_gamma_exits_2(self, capsys, gamma, table1):
        code, text, err = run(capsys, "design", "--gamma", gamma, *table1)
        assert code == 2
        assert f"gamma must be positive and finite, got {float(gamma)}" in err
        assert "closed form" not in text

    @pytest.mark.parametrize("e_r", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("table1", [[], ["--table1"]],
                             ids=["single", "table1"])
    def test_invalid_target_exits_2(self, capsys, e_r, table1):
        code, text, err = run(capsys, "design", "--e-r", e_r, *table1)
        assert code == 2
        assert f"e_r must be positive and finite, got {float(e_r)}" in err
        assert text == ""

    @pytest.mark.parametrize("w", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("table1", [[], ["--table1"]],
                             ids=["single", "table1"])
    def test_invalid_weight_exits_2(self, capsys, w, table1):
        # the weight used to pass unchecked into lambda2 and fail there as
        # "lambda2 must lie in (0, 2/gamma)"
        code, text, err = run(capsys, "design", "--w", w, *table1)
        assert code == 2
        assert f"w must be positive and finite, got {float(w)}" in err
        assert text == ""

    @pytest.mark.parametrize("n, kind", [
        (n, kind) for n in ("0", "1")
        for kind in ("complete", "cycle", "line", "star")] + [("2", "cycle")])
    def test_too_few_agents_exits_2(self, capsys, n, kind):
        code, text, err = run(capsys, "design", "--kind", kind, "--n", n)
        least = 3 if kind == "cycle" else 2
        assert code == 2
        assert f"needs n >= {least} agents, got {n}" in err
        assert text == ""


class TestSweep:
    def test_single_cell_equals_bound(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--eps-min", "0.3", "--eps-max",
                         "0.3", "--eps-steps", "1", "--lam2-min", "4",
                         "--lam2-max", "4", "--lam2-steps", "1",
                         "--out", str(tmp_path))
        assert code == 0
        row = (tmp_path / "surface.csv").read_text().splitlines()[1]
        value = float(row.split(",")[2])
        assert value == corollary1_bound(0.3, 4.0, n_agents=50, gamma=0.02,
                                         b=5.0, delta=0.01)

    def test_row_decreasing_in_epsilon(self, tmp_path, capsys):
        run(capsys, "sweep", "--eps-steps", "10", "--lam2-min", "10",
            "--lam2-max", "10", "--lam2-steps", "1", "--out", str(tmp_path))
        rows = (tmp_path / "surface.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[2]) for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("eps_min", ["0", "-0.5"])
    def test_nonpositive_epsilon_exits_2(self, tmp_path, capsys, eps_min):
        code, _, err = run(capsys, "sweep", "--eps-min", eps_min,
                           "--out", str(tmp_path))
        assert code == 2
        assert "epsilon must be positive" in err
        assert not (tmp_path / "surface.csv").exists()

    @pytest.mark.parametrize("b", ["-5", "0", "nan", "inf"])
    def test_invalid_radius_exits_2(self, tmp_path, capsys, b):
        code, _, err = run(capsys, "sweep", "--b", b, "--out", str(tmp_path))
        assert code == 2
        assert "adjacency radius b must be positive and finite" in err
        assert not (tmp_path / "surface.csv").exists()

    @pytest.mark.parametrize("steps", [["--eps-steps", "0"],
                                       ["--lam2-steps", "0"],
                                       ["--eps-steps", "-3"]])
    def test_empty_grid_exits_2(self, tmp_path, capsys, steps):
        code, _, err = run(capsys, "sweep", *steps, "--out", str(tmp_path))
        assert code == 2
        assert "validation error" in err
        assert not (tmp_path / "surface.csv").exists()

    @pytest.mark.parametrize("gamma", BAD_GAMMAS)
    def test_invalid_gamma_exits_2(self, tmp_path, capsys, gamma):
        code, _, err = run(capsys, "sweep", "--gamma", gamma,
                           "--out", str(tmp_path))
        assert code == 2
        assert f"gamma must be positive and finite, got {float(gamma)}" in err
        assert not (tmp_path / "surface.csv").exists()

    def test_lambda2_out_of_range_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--lam2-max", "200",
                           "--out", str(tmp_path))
        assert code == 2
        assert "2/gamma" in err


class TestSensitivityCommand:
    def test_star_case(self, capsys):
        code, text, _ = run(capsys, "sensitivity", "--epsilon", "0.01",
                            "--lambda2", "1", "--gamma", "0.1")
        assert code == 0
        assert "verdict: epsilon_dominant" in text
        assert "lambda2 > 5.5512" in text
        assert "exact cutoff: topology_dominant for lambda2 < 0.00500152335" \
            in text
        assert "note: the closed-form cutoffs" not in text

    def test_literal_upper_cutoff_disagreement_is_noted(self, capsys):
        # 7 lies above the literal upper cutoff 5.55129034 inside the valid
        # region (0, 10), where the partials say epsilon dominates
        code, text, _ = run(capsys, "sensitivity", "--epsilon", "0.01",
                            "--lambda2", "7")
        assert code == 0
        assert text.splitlines()[2:] == [
            "verdict: epsilon_dominant",
            "exact cutoff: topology_dominant for lambda2 < 0.00500152335",
            "closed-form cutoffs: lambda2 > 5.55129034 or lambda2 < "
            "0.00500152335 (alpha=140.633856, eta1=19.0148592, "
            "eta2=10.0050028)",
            "note: the closed-form cutoffs call lambda2=7 topology_dominant "
            "and the exact cutoff does not"]

    def test_minimizer_reports_zero_partial(self, capsys):
        code, text, _ = run(capsys, "sensitivity", "--epsilon", "0.01",
                            "--lambda2", "10", "--gamma", "0.1")
        assert code == 0
        assert "d(bound)/d(lambda2) = 0" in text
        assert "outside (0, 1/gamma)" in text

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_invalid_epsilon_exits_2(self, capsys, eps):
        # an infinite epsilon used to print NaN partials and a verdict
        code, text, err = run(capsys, "sensitivity", "--epsilon", eps,
                              "--lambda2", "1")
        assert code == 2
        assert "epsilon must be positive and finite" in err
        assert text == ""

    @pytest.mark.parametrize("b", ["-1", "0", "nan", "inf"])
    def test_invalid_radius_exits_2(self, capsys, b):
        code, text, err = run(capsys, "sensitivity", "--epsilon", "0.5",
                              "--lambda2", "1", "--b", b)
        assert code == 2
        assert "adjacency radius b must be positive and finite" in err
        assert text == ""

    @pytest.mark.parametrize("gamma", BAD_GAMMAS)
    def test_invalid_gamma_exits_2(self, capsys, gamma):
        code, text, err = run(capsys, "sensitivity", "--epsilon", "0.5",
                              "--lambda2", "1", "--gamma", gamma)
        assert code == 2
        assert f"gamma must be positive and finite, got {float(gamma)}" in err
        assert text == ""


@pytest.mark.parametrize("argv, limit, value", [
    (["design", "--kind", "complete", "--n", "100000000"], 20000.0, 1e8),
    (["sensitivity", "--epsilon", "0.5", "--lambda2", "nan"], 20.0, "nan"),
    (["sweep", "--lam2-min", "nan"], 100.0, "nan"),
    (["sweep", "--lam2-max", "200"], 100.0, 102.53061224489797),
], ids=["design", "sensitivity", "sweep-nan", "sweep-max"])
def test_lambda2_error_names_value_and_limit(tmp_path, capsys, argv, limit,
                                             value):
    # the message used to be "lambda2 must lie in (0, 2/gamma)" alone;
    # the design lambda2 is N*w = 1e8, and the sweep's first bad one the
    # first point of linspace(1, 200, 50) at or above 2/gamma = 100
    out = ["--out", str(tmp_path)] if argv[0] == "sweep" else []
    code, text, err = run(capsys, *argv, *out)
    assert code == 2
    assert f"(0, 2/gamma) = (0, {limit}), got {float(value)}" in err
    assert text == ""
    assert not (tmp_path / "surface.csv").exists()

OVERFLOW_N = "1" + "0" * 400


@pytest.mark.parametrize("argv, named", [
    (["sensitivity", "--epsilon", "1e200", "--lambda2", "2"],
     "epsilon=1e+200"),
    (["design", "--n", OVERFLOW_N], f"n = {OVERFLOW_N} agents"),
    (["sweep", "--n", OVERFLOW_N], f"n = {OVERFLOW_N} agents"),
    (["sensitivity", "--epsilon", "0.5", "--lambda2", "2", "--n", OVERFLOW_N],
     f"n = {OVERFLOW_N} agents"),
    (["design", "--b", "1e200"], "b=1e+200"),
    (["design", "--e-r", "1e-320"], "e_r=1e-320"),
    (["sensitivity", "--epsilon", "0.5", "--lambda2", "2", "--gamma",
      "1e-320"], "gamma=1e-320"),
], ids=["sensitivity-epsilon", "design-n", "sweep-n", "sensitivity-n",
        "design-b", "design-e-r", "sensitivity-gamma"])
def test_overflow_exits_3(tmp_path, capsys, argv, named):
    # an ArithmeticError (epsilon**2 or 1/gamma**2 in the literal cutoffs,
    # a division by kappa*^2 = 0, or an integer too large for a float)
    # used to escape as a traceback with exit 1, or to exit 3 with Python's
    # message alone, which names no input
    out = ["--out", str(tmp_path)] if argv[0] != "sensitivity" else []
    code, text, err = run(capsys, *argv, *out)
    assert code == 3
    assert err.startswith("numerical failure: ")
    assert named in err
    assert text == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["design", "--gamma", "1e-320"], "the minimum epsilon at"),
    (["design", "--gamma", "1e-320", "--table1"], "the minimum epsilon at"),
    (["design", "--gamma", "1e-300", "--e-r", "1e-30"],
     "the published complete threshold at"),
    (["sensitivity", "--epsilon", "1e-300", "--lambda2", "2"],
     "the bound at epsilon=1e-300"),
    (["sweep", "--eps-min", "1e-300"], "the bound at epsilon=1e-300"),
    (["sweep", "--eps-min", "1e-320"], "the bound at epsilon=1e-320"),
], ids=["design", "design-table1", "design-closed-form", "sensitivity",
        "sweep", "sweep-subnormal"])
def test_non_finite_result_exits_3(tmp_path, capsys, argv, named):
    # design used to print nan thresholds (all 16 with --table1) and exit
    # 0, or fail on a ZeroDivisionError in the published form; sensitivity
    # printed two -inf partials and a verdict; sweep wrote inf bounds, and
    # at a subnormal epsilon first warned of an overflow in kappa
    out = ["--out", str(tmp_path)] if argv[0] != "sensitivity" else []
    code, text, err = run(capsys, *argv, *out)
    assert code == 3
    assert err.startswith(f"numerical failure: no finite value of {named}")
    assert text == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_config_bound_overflow_exits_3(tmp_path, capsys, command):
    # kappa^2 overflows at epsilon = 1e-300: bounds used to print a nan
    # oracle and sandwich and an inf bound, and simulate to write inf and
    # nan rows, both exiting 0
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(DEMO_CONFIG.replace("1.0986122886681098", "1.0e-300"))
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    with pytest.warns(PrivacyRangeWarning):
        code, text, err = run(capsys, command, "--config", str(cfg), *out)
    assert code == 3
    assert err.startswith("numerical failure: no finite value of the bound "
                          "at epsilon=1e-300, lambda2=1.0, n_agents=5")
    assert text == ""
    assert not (tmp_path / "o").exists()


def test_simulate_overflow_exits_3(tmp_path, capsys):
    # at b = 1e152 the bound and the oracle are finite, but the per-trial
    # errors near 1e303 overflow the standard error: simulate used to warn
    # of an overflow in numpy's square, write inf in every e_agg_ci cell
    # after step 0 and exit 0
    cfg = tmp_path / "huge-b.yaml"
    cfg.write_text(DEMO_CONFIG.replace("b: 2.0", "b: 1.0e+152"))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text, err = run(capsys, "simulate", "--config", str(cfg),
                              "--horizon", "10", "--out", str(out))
    assert code == 3
    assert err == ("numerical failure: no finite value of e_agg_ci at "
                   "dimension=1, step=1\n")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
        == []
    assert text == ""
    assert list(out.iterdir()) == []  # no summary.csv, no trajectory.csv


TOO_LARGE = "Unable to allocate 7.28 TiB for an array"


@pytest.mark.parametrize("target, argv, exc, shown", [
    ("dpformation.dynamics.run_trials",
     ["simulate", "--horizon", "1000000000"], MemoryError(TOO_LARGE),
     TOO_LARGE),
    ("dpformation.bounds.corollary1_bound",
     ["sweep", "--eps-steps", "100000", "--lam2-steps", "100000"],
     MemoryError(TOO_LARGE), TOO_LARGE),
    # an error with no text used to print "numerical failure: " alone
    ("dpformation.dynamics.run_trials",
     ["simulate", "--horizon", "1000000000"], MemoryError(), "MemoryError"),
], ids=["simulate", "sweep", "no-text"])
def test_allocation_failure_exits_3(tmp_path, capsys, monkeypatch, target,
                                    argv, exc, shown):
    # an array too large to allocate used to escape as numpy's
    # _ArrayMemoryError traceback with exit 1; the allocation is faked
    def refuse(*args, **kwargs):
        raise exc
    monkeypatch.setattr(target, refuse)
    code, text, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 3
    assert err == f"numerical failure: {shown}\n"
    assert text == ""
    assert list((tmp_path / "o").glob("*")) == []  # no CSV


HUGE = "99999999999999999999"


@pytest.mark.parametrize("command", ["simulate", "bounds"])
@pytest.mark.parametrize("graph", [
    f"{{kind: star, n: {HUGE}, w: 1.0}}",
    f"{{nodes: {HUGE}, edges: [[1, 2, 1.0]]}}",
], ids=["kind", "nodes"])
def test_agent_count_is_checked_before_the_graph(tmp_path, capsys,
                                                 monkeypatch, command,
                                                 graph):
    # n was read before the anchors: the star built n - 1 edges until
    # memory ran out, and the edge list ended in exit 3 naming no key. No
    # graph may be built, so a regression fails here without the memory
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "build_standard_topology", no_graph)
    monkeypatch.setattr(config, "WeightedGraph", no_graph)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"graph: {graph}\ngamma: 0.2\n"
                   "privacy: {epsilon: 1.0, delta: 0.001, b: 2.0}\n"
                   "formation: {anchors: [[0.0], [1.0]]}\n")
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    start = time.monotonic()
    code, text, err = run(capsys, command, "--config", str(cfg), *out)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert err == (f"validation error: formation has 2 anchor rows for "
                   f"{HUGE} agents\n")
    assert text == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "bounds"])
@pytest.mark.parametrize("case", ["missing", "directory", "yaml-syntax"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, case):
    # each used to end in a traceback with exit 1
    (tmp_path / "dir").mkdir()
    (tmp_path / "bad.yaml").write_text("graph: {kind: star, n: 5\n")
    cfg = tmp_path / {"missing": "none.yaml", "directory": "dir",
                      "yaml-syntax": "bad.yaml"}[case]
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    code, text, err = run(capsys, command, "--config", str(cfg), *out)
    assert code == 2
    assert err.startswith("validation error: ")
    assert f"config file {cfg}" in err
    assert text == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["bounds", "simulate"])
@pytest.mark.parametrize("edges", ["5", "[1, 2]", "null", "[[1, 2]]", '"12"',
                                   "[[1, 2, 1.0, 4]]"])
def test_malformed_edge_list_exits_2(tmp_path, capsys, command, edges):
    # the first three used to end in a TypeError traceback with exit 1, the
    # others in a validation error that named no config key
    cfg = tmp_path / "run.yaml"
    cfg.write_text(EDGE_LIST_CONFIG.replace("[[1, 2, 1.0], [2, 3, 0.5]]",
                                            edges))
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    code, text, err = run(capsys, command, "--config", str(cfg), *out)
    assert code == 2
    assert err.startswith("validation error: graph edges")
    assert len(err.splitlines()) == 1
    assert text == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["bounds", "simulate"])
@pytest.mark.parametrize("edges, message", [
    ("[[1, 1, 1.0], [2, 3, 0.5]]", "self-loop on node 1"),
    ("[[1, 9, 1.0], [2, 3, 0.5]]", "edge (1,9) out of range"),
    ("[[0, 1, 1.0], [2, 3, 0.5]]", "edge (0,1) out of range"),
    ("[[1, 2, 1.0], [2, 1, 0.5]]", "duplicate edge (1, 2)"),
    ("[[1, 2, 1.0], [2, 3, -0.5]]",
     "edge (2,3) has weight -0.5; weights must be finite and positive")],
    ids=["self-loop", "out-of-range", "node-0", "duplicate", "weight"])
def test_graph_errors_name_nodes_as_the_file_does(tmp_path, capsys, command,
                                                  edges, message):
    # each used to name the nodes one lower than the file wrote them
    cfg = tmp_path / "run.yaml"
    cfg.write_text(EDGE_LIST_CONFIG.replace("[[1, 2, 1.0], [2, 3, 0.5]]",
                                            edges))
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    code, text, err = run(capsys, command, "--config", str(cfg), *out)
    assert code == 2
    assert err == f"validation error: {message}\n"
    assert text == ""
    assert not (tmp_path / "o").exists()


BIG_COUNT = "99999999999999999999999999999"


@pytest.mark.parametrize("key", ["trials", "horizon"])
@pytest.mark.parametrize("command, source", [
    ("simulate", "config"), ("bounds", "config"), ("simulate", "flag")])
def test_count_above_maxsize_exits_2(tmp_path, capsys, key, command, source):
    # simulate used to fail with a numerical failure that named no key,
    # and bounds to accept the count
    cfg = tmp_path / "run.yaml"
    if source == "config":
        cfg.write_text(DEMO_CONFIG.replace(
            {"trials": "trials: 50", "horizon": "horizon: 100"}[key],
            f"{key}: {BIG_COUNT}"))
        flag = []
    else:
        cfg.write_text(DEMO_CONFIG)
        flag = [f"--{key}", BIG_COUNT]
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    code, text, err = run(capsys, command, "--config", str(cfg), *flag, *out)
    assert code == 2
    assert err == (f"validation error: {key} must be at most {sys.maxsize}, "
                   f"got {BIG_COUNT}\n")
    assert text == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--trials", "5"], "trajectory.csv"),
    (["simulate", "--trials", "5"], "summary.csv"),
    (["design", "--table1"], "thresholds.csv"),
    (["sweep"], "surface.csv")],
    ids=["simulate-trajectory", "simulate-summary", "design", "sweep"])
def test_unwritable_csv_exits_2(tmp_path, capsys, argv, name):
    # a directory where the CSV goes used to end in an IsADirectoryError
    # traceback with exit 1
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == f"validation error: cannot write {out / name}: " \
                  "Is a directory\n"


@pytest.mark.parametrize("argv", [["simulate", "--trials", "5"], ["design"],
                                  ["design", "--table1"], ["sweep"]],
                         ids=["simulate", "design", "design-table1", "sweep"])
def test_uncreatable_out_exits_2_before_any_work(tmp_path, capsys,
                                                 monkeypatch, argv):
    # simulate used to run the whole Monte Carlo and print its results,
    # and design its thresholds, before failing with NotADirectoryError
    # (exit 1); sweep failed the same way
    from dpformation import dynamics

    def no_monte_carlo(*args, **kw):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr(dynamics, "run_trials", no_monte_carlo)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    code, text, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert f"cannot create output directory {out}: " in err
    assert text == ""


class TestBoundsCommand:
    def test_demo_report(self, capsys):
        code, text, _ = run(capsys, "bounds")
        assert code == 0
        assert ("exact e_ss (oracle):      3.13218574 (network noise "
                "model)") in text
        assert "closed-form upper bound:  11.8643399\n" in text

    def test_heterogeneous_config_omits_homogeneous_bound(self, tmp_path,
                                                          capsys):
        # the bound is printed once, for shared and per-agent privacy alike
        cfg = tmp_path / "run.yaml"
        cfg.write_text(EDGE_LIST_CONFIG)
        for argv in ([], ["--config", str(cfg)]):
            code, text, _ = run(capsys, "bounds", *argv)
            assert code == 0
            assert "homogeneous" not in text
            assert text.count("upper bound:") == 2  # sandwich, Theorem 1

    def test_nan_weight_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nan.yaml"
        cfg.write_text(EDGE_LIST_CONFIG.replace("[2, 3, 0.5]", "[2, 3, .nan]"))
        code, _, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        assert "finite and positive" in err

    @pytest.mark.parametrize("b", [".nan", ".inf", "-2.0"])
    def test_invalid_radius_exits_2(self, tmp_path, capsys, b):
        cfg = tmp_path / "b.yaml"
        cfg.write_text(DEMO_CONFIG.replace("b: 2.0", f"b: {b}"))
        code, text, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        assert "adjacency radius b must be positive and finite" in err
        assert text == ""

    @pytest.mark.parametrize("eps", [".inf", ".nan"])
    def test_invalid_epsilon_exits_2(self, tmp_path, capsys, eps):
        # an infinite epsilon used to print NaN for every bound
        cfg = tmp_path / "eps.yaml"
        cfg.write_text(EDGE_LIST_CONFIG.replace("epsilon: 0.4",
                                                f"epsilon: {eps}"))
        code, text, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        assert "epsilon must be positive and finite" in err
        assert text == ""

    def test_ragged_anchors_exit_2(self, tmp_path, capsys):
        # numpy's "inhomogeneous shape" message used to name neither the
        # formation nor its anchors
        cfg = tmp_path / "ragged.yaml"
        cfg.write_text(DEMO_CONFIG
                       .replace("kind: star, n: 5", "kind: line, n: 3")
                       .replace("[[0, 0], [-20, 20], [20, 20], [20, -20], "
                                "[-20, -20]]", "[[0, 1], [1], [2, 3]]"))
        code, text, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        assert ("formation anchors must be an (N, n) matrix, got rows of "
                "lengths [2, 1, 2]") in err
        assert text == ""

    @pytest.mark.parametrize("gamma", BAD_CONFIG_GAMMAS)
    def test_invalid_gamma_exits_2(self, tmp_path, capsys, gamma):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(DEMO_CONFIG.replace("gamma: 0.2", f"gamma: {gamma}"))
        code, text, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        got = float(yaml.safe_load(gamma))
        assert f"gamma must be positive and finite, got {got}" in err
        assert text == ""

    @pytest.mark.parametrize("text, expected", [
        ("graph: {kind: star, n: 3, w: 1.0}\n"
         "gamma: 0.2\n"
         "formation: {anchors: [[0], [1], [2]]}\n"
         "privacy:\n"
         "  - {epsilon: 1.0, delta: 0.00135, b: 2.0}\n"
         "  - {epsilon: 5.0, delta: 0.00135, b: 2.0}\n"
         "  - {epsilon: 1.0, delta: 0.05, b: 2.0}\n",
         "{path}:4: PrivacyRangeWarning: agent 2: epsilon=5 outside the "
         "customary range [0.1, ln 3]\n"
         "  privacy:\n"
         "{path}:4: PrivacyRangeWarning: agent 3: delta=0.05 above the "
         "customary maximum 0.01\n"
         "  privacy:\n"),
        ("<<: {privacy: {epsilon: 5.0, delta: 0.00135, b: 2.0}}\n"
         "graph: {kind: star, n: 3, w: 1.0}\n"
         "gamma: 0.2\n"
         "formation: {anchors: [[0], [1], [2]]}\n",
         "{path}:1: PrivacyRangeWarning: epsilon=5 outside the customary "
         "range [0.1, ln 3]\n"
         "  <<: {privacy: {epsilon: 5.0, delta: 0.00135, b: 2.0}}\n"),
    ], ids=["per-agent", "merged"])
    def test_range_warnings_on_stderr(self, tmp_path, text, expected):
        # the whole of stderr under the default filters of a fresh
        # interpreter, with the source line the warnings module prints
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "dpformation.cli", "bounds", "--config",
             str(cfg)], env=env, capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stderr == expected.replace("{path}", str(cfg))


class TestRepeatedMain:
    def test_repeated_calls_match_the_first(self, tmp_path, capsys):
        # main reuses one parser per process; every later call of a
        # command, a validation error or a parse error prints what the
        # first did and exits with the same code
        commands = [
            ["design", "--table1"],
            ["design", "--kind", "line", "--n", "12", "--w", "0.5"],
            ["sensitivity", "--epsilon", "0.5", "--lambda2", "2"],
            ["sweep", "--eps-steps", "3", "--lam2-steps", "2",
             "--out", str(tmp_path)],
            ["bounds"],
            ["design", "--w", "nan"],
            ["design", "--n", "ten"],
            ["sensitivity", "--epsilon", "0.5"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit
                code = ("exit", exc.code)
            out = capsys.readouterr()
            return code, out.out, out.err

        assert build_parser() is build_parser()
        first = [outcome(argv) for argv in commands]
        assert [r[0] for r in first] == [0, 0, 0, 0, 0, 2, ("exit", 2),
                                         ("exit", 2)]
        for _ in range(2):
            assert [outcome(argv) for argv in commands] == first
