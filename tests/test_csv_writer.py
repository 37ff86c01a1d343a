"""The CLI's CSV writer against csv.writer, and the CLI outputs end to end.

cli._write_csv must write the bytes that csv_reference.reference_write_csv
(one csv.writer call per row) writes, for every column it accepts.
"""
import re

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


def both_signs(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, -x])


class TestShortestReprFormatter:
    """Numbers go through orjson; floats outside [1e-4, 1e16) get orjson's
    text rewritten into repr's spelling, or repr itself: they must meet
    without a seam."""

    @SETTINGS
    @given(exps=st.lists(st.floats(-4.0, 16.0, exclude_max=True),
                         min_size=1, max_size=2 * CHUNK + 3),
           signs=st.lists(st.booleans(), min_size=1))
    def test_log_uniform_positional_range(self, tmp_path_factory, exps,
                                          signs):
        x = np.minimum(10.0 ** np.array(exps), np.nextafter(1e16, 0))
        x[np.resize(signs, len(x))] *= -1
        assert_same_bytes(tmp_path_factory.mktemp("log"), ["x", "y"],
                          [x, x[::-1]])

    def test_both_sides_of_the_range_ends(self, tmp_path):
        ends = np.array([1e-4, 1e16])
        x = both_signs([*np.nextafter(ends, 0), *ends,
                        *np.nextafter(ends, np.inf)])
        assert_same_bytes(tmp_path, ["x"], [x])
        text = (tmp_path / "new.csv").read_text().splitlines()[1:]
        assert text[:6] == ["9.999999999999999e-05", "9999999999999998.0",
                            "0.0001", "1e+16", "0.00010000000000000002",
                            "1.0000000000000002e+16"]

    def test_both_sides_of_where_orjson_changes_spelling(self, tmp_path):
        # orjson writes 0.00001 at 1e-5 and 9.999999999999999e-6 below it
        x = both_signs([np.nextafter(1e-5, 0), 1e-5,
                        np.nextafter(1e-5, np.inf)])
        assert_same_bytes(tmp_path, ["x"], [x])
        text = (tmp_path / "new.csv").read_text().splitlines()[1:]
        assert text[:3] == ["9.999999999999999e-06", "1e-05",
                            "1.0000000000000003e-05"]

    @SETTINGS
    @given(cells=st.lists(st.tuples(st.sampled_from([
                              (5e-324, np.nextafter(1e-4, 0)),
                              (1e-4, np.nextafter(1e16, 0)),
                              (1e16, np.finfo(float).max)]),
                          st.floats(0, 1), st.booleans()),
                          min_size=1, max_size=2 * CHUNK + 3))
    def test_log_uniform_exponent_ranges(self, tmp_path_factory, cells):
        # magnitudes log-uniform over [5e-324, 1e-4) and [1e16, max],
        # where repr writes exponent form, mixed in one chunk with
        # positional ones
        ends, u, neg = (np.array(v) for v in zip(*cells))
        lo, hi = np.log(ends.T)
        with np.errstate(over="ignore"):
            x = np.clip(np.exp(lo + u * (hi - lo)), *ends.T)
        x[neg] *= -1
        assert_same_bytes(tmp_path_factory.mktemp("exp"), ["x", "y"],
                          [x, x[::-1]])

    def test_exponent_form_without_repr(self, tmp_path, monkeypatch):
        # the rewrite recognises this orjson's spelling of every
        # exponent-form cell; only nan and inf reach repr
        x = both_signs([1e-5, 3.2e-5, np.nextafter(1e-4, 0), 1e-7, 5e-324,
                        1e16, 1.5e300, np.finfo(float).max, 0.5])
        monkeypatch.setattr(cli, "repr", None, raising=False)
        assert_same_bytes(tmp_path, ["x", "y"], [x, x[::-1]])

    @pytest.mark.parametrize("spelling", [
        lambda t: t.replace(b"e", b"E"),
        lambda t: re.sub(rb"e(?=\d)", b"e+", t),
        lambda t: re.sub(rb"(?<![.\d])(\d)e", rb"\1.0e", t),
        lambda t: re.sub(rb"(0\.0000\d+)", rb"\g<1>0", t),
        lambda t: re.sub(rb"(\.\d+)e", rb"\g<1>0e", t),
        lambda t: t.replace(b"0.0000", b"0.00000"),
    ], ids=["upper-case", "plus", "point-zero", "zero-after-fifth",
            "zero-before-e", "extra-zero"])
    def test_unrecognised_spelling_goes_to_repr(self, tmp_path,
                                                monkeypatch, spelling):
        # the text must not depend on one orjson release's spelling: an
        # exponent-form cell spelt otherwise is written by repr
        x = both_signs([1e-5, 3.2e-5, 1e-7, 1.5e-300, 1e16, 2.5e200])
        orjson_text = cli._orjson_text
        monkeypatch.setattr(cli, "_orjson_text",
                            lambda c: spelling(orjson_text(c)))
        assert_same_bytes(tmp_path, ["x", "y"], [x, x[::-1]])

    def test_powers_of_two_and_their_neighbours(self, tmp_path):
        p = 2.0 ** np.arange(-13, 54)
        x = both_signs([*p, *np.nextafter(p, 0), *np.nextafter(p, np.inf)])
        assert_same_bytes(tmp_path, ["x", "y"], [x, x[::-1]])

    def test_integral_floats(self, tmp_path):
        rng = np.random.default_rng(53)
        x = both_signs([*range(2000), *10.0 ** np.arange(16),
                        2.0 ** 53 - 1, 2.0 ** 53,
                        *rng.integers(0, 2 ** 53, 2000).astype(float)])
        assert_same_bytes(tmp_path, ["x"], [x])

    def test_sum_with_a_long_repr(self, tmp_path):
        assert_same_bytes(tmp_path, ["x"], [[0.1 + 0.2]])
        assert (tmp_path / "new.csv").read_text() == "x\n0.30000000000000004\n"

    def test_float32_and_integer_columns(self, tmp_path):
        rng = np.random.default_rng(32)
        rows = 3000
        f32 = (10.0 ** rng.uniform(-6, 18, rows)).astype(np.float32)
        i32 = rng.integers(-2**31, 2**31, rows, dtype=np.int32)
        u64 = np.uint64(2**63) + rng.integers(0, 2**63, rows, np.uint64)
        f32[:7] = [0.1, -0.0, np.nan, np.inf, 1e-5, 3e38, 1.5]
        i32[:2], u64[:2] = [-2**31, 2**31 - 1], [2**63, 2**64 - 1]
        assert_same_bytes(tmp_path, ["f32", "i32", "u64"], [f32, i32, u64])

    def test_byte_swapped_columns(self, tmp_path):
        # orjson reads a big-endian array's bytes as native-order numbers
        x = np.array([0.5, -3.25, 1e-7, 12345.678], dtype=">f8")
        assert_same_bytes(tmp_path, ["x", "n"],
                          [x, np.array([1, -2, 3, 2**40], dtype=">i8")])


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

    def test_empty_cell_in_a_wider_row(self, tmp_path):
        # csv.writer would write it unquoted; the writer refuses every
        # empty str cell, as no output the CLI writes has one
        with pytest.raises(ValueError, match="empty"):
            cli._write_csv(tmp_path / "x.csv", ["graph", "n"],
                           [["star", ""], [1, 2]])

    def test_empty_header_name(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            cli._write_csv(tmp_path / "x.csv", ["a", ""], [[1.0], [2.0]])

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
        # near Table I: bounds in [1e-5, 1e-4), written in exponent form
        "table1_sweep": ["sweep", "--gamma", "1e-4", "--lam2-max", "9500",
                         "--eps-min", "0.05", "--eps-max", "1.5"],
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
                           "sweep/surface.csv", "table1/thresholds.csv",
                           "table1_sweep/surface.csv"]
    assert b"e-05\r\n" in new["table1_sweep/surface.csv"]
    assert new == ref
