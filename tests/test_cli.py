import numpy as np
import pytest
import yaml

from dpformation import corollary1_bound
from dpformation.cli import main


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
        assert "exact per-dimension e_ss:       1.06779059" in text

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

    @pytest.mark.parametrize("kind", ["complete", "cycle", "line", "star"])
    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_few_agents_exits_2(self, capsys, kind, n):
        code, text, err = run(capsys, "design", "--kind", kind, "--n", n)
        assert code == 2
        assert f"needs n >= 2 agents, got {n}" in err
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

    def test_minimizer_reports_zero_partial(self, capsys):
        code, text, _ = run(capsys, "sensitivity", "--epsilon", "0.01",
                            "--lambda2", "10", "--gamma", "0.1")
        assert code == 0
        assert "d(bound)/d(lambda2) = 0" in text
        assert "outside (0, 1/gamma)" in text

    @pytest.mark.parametrize("b", ["-1", "0", "nan", "inf"])
    def test_invalid_radius_exits_2(self, capsys, b):
        code, text, err = run(capsys, "sensitivity", "--epsilon", "0.5",
                              "--lambda2", "1", "--b", b)
        assert code == 2
        assert "adjacency radius b must be positive and finite" in err
        assert text == ""


class TestBoundsCommand:
    def test_demo_report(self, capsys):
        code, text, _ = run(capsys, "bounds")
        assert code == 0
        assert "exact e_ss (oracle)" in text
        assert "11.8643399" in text

    def test_demo_prints_homogeneous_bound(self, capsys):
        code, text, _ = run(capsys, "bounds")
        assert code == 0
        assert "homogeneous upper bound:  11.8643399" in text

    def test_heterogeneous_config_omits_homogeneous_bound(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(EDGE_LIST_CONFIG)
        code, text, _ = run(capsys, "bounds", "--config", str(cfg))
        assert code == 0
        assert "homogeneous" not in text

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

    def test_nan_gamma_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nan.yaml"
        cfg.write_text(DEMO_CONFIG.replace("gamma: 0.2", "gamma: .nan"))
        code, _, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        assert "gamma must be positive, got nan" in err
