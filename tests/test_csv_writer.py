"""The CLI's CSV writer against csv.writer, and the CLI outputs end to end.

cli._write_csv must write the bytes that csv_reference.reference_write_csv
(one csv.writer call per row) writes, for every column it accepts.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_reference import reference_write_csv
from dpformation import cli

CHUNK = cli.CSV_CHUNK_ROWS
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def written(write, path, header, columns) -> bytes:
    write(path, header, columns)
    return path.read_bytes()


def assert_same_bytes(tmp_path, header, columns):
    new = written(cli._write_csv, tmp_path / "new.csv", header, columns)
    ref = written(reference_write_csv, tmp_path / "ref.csv", header, columns)
    assert new == ref


class TestMatchesCsvWriter:
    def test_signed_zeros_in_one_column(self, tmp_path):
        x = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
        assert_same_bytes(tmp_path, ["x", "y"], [x, -x])
        text = (tmp_path / "new.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in text[1:3]] == ["0.0", "-0.0"]

    def test_special_floats(self, tmp_path):
        x = np.array([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16,
                      1e-5, 0.1 + 0.2, 0.3, np.nan, 1e16, -np.nan])
        assert_same_bytes(tmp_path, ["a", "b"], [x, x[::-1]])

    def test_ints_and_topology_names(self, tmp_path):
        kinds = ["complete", "cycle", "line", "star"] * 3
        n = np.array([-2**63, -1, 0, 1, 2**63 - 1, -7] * 2, dtype=np.int64)
        assert_same_bytes(tmp_path, ["graph", "n", "flag"],
                          [kinds, n, n > 0])

    def test_zero_rows(self, tmp_path):
        assert_same_bytes(tmp_path, ["epsilon", "lambda2", "bound"],
                          [np.zeros(0), np.zeros(0), np.zeros(0)])

    def test_no_columns(self, tmp_path):
        assert_same_bytes(tmp_path, [], [])

    @pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1,
                                      3 * CHUNK + 7])
    def test_chunk_boundaries_with_repeats(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        pool = rng.standard_normal(5)
        step = np.arange(rows) // 7  # runs of 7 that straddle the chunks
        assert_same_bytes(tmp_path, ["step", "value", "pool", "name"],
                          [step, rng.standard_normal(rows),
                           pool[rng.integers(0, 5, rows)],
                           np.array(["cycle", "star"])[step % 2]])

    @SETTINGS
    @given(bits=st.lists(st.integers(-2**63, 2**63 - 1), max_size=2 * CHUNK
                         + 3),
           repeat=st.integers(1, 4))
    def test_random_bit_patterns(self, tmp_path_factory, bits, repeat):
        x = np.repeat(np.array(bits, dtype=np.int64).view(np.float64),
                      repeat)
        assert_same_bytes(tmp_path_factory.mktemp("bits"), ["x", "y"],
                          [x, x[::-1]])


class TestRejects:
    @pytest.mark.parametrize("cell", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_cell_that_needs_quoting(self, tmp_path, cell):
        with pytest.raises(ValueError, match="quoting"):
            cli._write_csv(tmp_path / "x.csv", ["graph", "n"],
                           [["star", cell], [1, 2]])

    def test_header_that_needs_quoting(self, tmp_path):
        with pytest.raises(ValueError, match="quoting"):
            cli._write_csv(tmp_path / "x.csv", ["a,b"], [[1.0]])

    def test_lone_empty_field(self, tmp_path):
        # csv.writer writes "" for a row whose only field is empty
        with pytest.raises(ValueError, match="quoting"):
            cli._write_csv(tmp_path / "x.csv", ["name"], [["a", ""]])

    def test_unequal_columns(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            cli._write_csv(tmp_path / "x.csv", ["a", "b"],
                           [[1.0, 2.0], [1.0]])

    def test_object_column(self, tmp_path):
        with pytest.raises(TypeError, match="dtype"):
            cli._write_csv(tmp_path / "x.csv", ["a"], [[None, 1.0]])


def cli_outputs(tmp_path, capsys) -> dict:
    """Every file that simulate, design --table1 and sweep write."""
    calls = {  # trajectory.csv and surface.csv span two chunks
        "simulate": ["simulate", "--seed", "5", "--trials", "20",
                     "--horizon", "120", "--jobs", "1"],
        "table1": ["design", "--table1"],
        "sweep": ["sweep", "--eps-steps", "37", "--lam2-steps", "41"],
    }
    files = {}
    for name, argv in calls.items():
        out = tmp_path / name
        assert cli.main([*argv, "--out", str(out)]) == 0
        files.update({f"{name}/{p.name}": p.read_bytes()
                      for p in sorted(out.iterdir())})
    capsys.readouterr()
    return files


def test_cli_outputs_match_csv_writer(tmp_path, capsys, monkeypatch):
    new = cli_outputs(tmp_path / "new", capsys)
    monkeypatch.setattr(cli, "_write_csv", reference_write_csv)
    ref = cli_outputs(tmp_path / "ref", capsys)
    assert sorted(new) == ["simulate/summary.csv", "simulate/trajectory.csv",
                           "sweep/surface.csv", "table1/thresholds.csv"]
    assert new == ref
