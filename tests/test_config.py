"""config's YAML reading: the same data as yaml.safe_load, the collector
left as the caller had it, and range warnings that name the config file."""
import gc
import io
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from yaml.constructor import SafeConstructor

from dpformation import config
from dpformation.privacy import PrivacyRangeWarning

# the fast scalar path on each parser PyYAML offers here, so the
# pure-Python fallback is covered on a machine that has libyaml
LOADERS = [config._LOADER,
           type("PurePython", (config._DirectScalars, yaml.SafeLoader), {})]
if hasattr(yaml, "CSafeLoader"):
    LOADERS.append(type("LibYaml", (config._DirectScalars, yaml.CSafeLoader),
                        {}))

CORPUS = """\
anchored: &list [1, 2]
aliased: *list
nested: {inner: *list}
base: &base {a: 1, b: two}
merged:
  <<: *base
  b: three
tags: [!!float 1, !!str 12, !!int "7"]
yaml11: [0x1F, 0o17, 017, 0b101, 1_000, 1:30, .inf, -.Inf, .nan, 1e-3,
         yes, Off, ~]
empty:
yes: key read as a bool
3: key read as an int
when: 2001-12-14t21:59:43.10-05:00
day: 2002-12-14
blob: !!binary aGVsbG8=
names: !!set {a, b}
"""


def shape(x):
    """x with every leaf as (type name, repr): 1, 1.0 and True differ, and
    a nan equals a nan."""
    if isinstance(x, dict):
        return [(shape(k), shape(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [shape(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(repr(v) for v in x)
    return type(x).__name__, repr(x)


def safe(text):
    return yaml.load(text, Loader=yaml.SafeLoader)


def read(loader, text):
    return yaml.load(text, Loader=loader)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
class TestLoaderMatchesSafeLoader:
    def test_corpus(self, loader):
        got, want = read(loader, CORPUS), safe(CORPUS)
        assert shape(got) == shape(want)
        assert got["tags"] == [1.0, "12", 7]
        assert got["yaml11"][:6] == [31, "0o17", 15, 5, 1000, 90]
        assert got["yaml11"][-4:] == ["1e-3", True, False, None]
        assert math.isnan(got["yaml11"][8])
        assert got["merged"] == {"a": 1, "b": "three"}
        assert got["empty"] is None

    def test_aliased_lists_stay_one_object(self, loader):
        got, want = read(loader, CORPUS), safe(CORPUS)
        assert want["aliased"] is want["anchored"]
        assert got["aliased"] is got["anchored"]
        assert got["nested"]["inner"] is got["anchored"]

    def test_recursive_anchor(self, loader):
        got = read(loader, "&r [1, *r]")
        assert got[0] == 1
        assert got[1] is got

    def test_config_reader(self, loader):
        # _read, collector pause included, reads what safe_load reads
        data, _ = config._read(io.StringIO(CORPUS))
        assert shape(data) == shape(safe(CORPUS))
        assert data["aliased"] is data["anchored"]


leaves = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.text())
documents = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_safe_dump_round_trip(doc):
    text = yaml.safe_dump(doc, sort_keys=False)
    for loader in LOADERS:
        assert shape(read(loader, text)) == shape(doc), loader.__name__
    assert shape(config._read(io.StringIO(text))[0]) == shape(doc)


# the YAML 1.1 number spellings next to the plain decimal ones that the
# loaders read directly: each must read as yaml.SafeLoader reads it
SPELLINGS = ("-0", "-0.0", "017", "00", "1_000", "0x1F", "0b101", "+1",
             "1:30", ".5", "0.", "1.0e+5", "1.0E+5", "1e3", ".inf", "-.Inf",
             ".nan")
spellings = (st.sampled_from(SPELLINGS) | st.integers().map(str)
             | st.floats(allow_nan=False, allow_infinity=False).map(repr))
# an entry written plain, quoted or with an explicit tag: shorthand, local
# or verbatim, none of which reaches the loaders' int() and float() path
WRITINGS = ("{}", '"{}"', "'{}'", "!!int {}", "!!float {}", "!!str {}",
            "!int {}", "!float {}", "!<tag:yaml.org,2002:int> {}")


@st.composite
def flow_lists(draw):
    """A YAML flow list of flat flow lists of those spellings, some
    scalars and rows anchored and aliased later."""
    scalars, lists, rows = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        if lists and draw(st.booleans()):
            rows.append("*" + draw(st.sampled_from(lists)))
            continue
        items = []
        for _ in range(draw(st.integers(0, 5))):
            if scalars and draw(st.integers(0, 4)) == 0:
                items.append("*" + draw(st.sampled_from(scalars)))
                continue
            item = draw(st.sampled_from(WRITINGS)).format(draw(spellings))
            if draw(st.integers(0, 4)) == 0:
                scalars.append(f"s{len(scalars)}")
                item = f"&{scalars[-1]} {item}"
            items.append(item)
        row = "[" + ", ".join(items) + "]"
        if draw(st.booleans()):
            lists.append(f"l{len(lists)}")
            row = f"&{lists[-1]} {row}"
        rows.append(row)
    return "[" + ", ".join(rows) + "]"


def outcome(load, text):
    """shape() of the rows that load reads from text, with each row's
    first position among rows that are the same list; or the type and
    message of the error it raises (an explicit !!int .5, say). A marked
    error (a local !int 5) is compared by its mark's line and column, not
    its text, which names a str and a stream differently."""
    try:
        rows = load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        return (type(exc).__name__, exc.context, exc.problem, mark.line,
                mark.column)
    except (ValueError, yaml.YAMLError) as exc:
        return type(exc).__name__, str(exc)
    first = {}
    return shape(rows), [first.setdefault(id(row), k)
                         for k, row in enumerate(rows)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flow_lists())
def test_number_spellings_read_as_safe_loader_reads_them(text):
    want = outcome(safe, text)
    for loader in LOADERS:
        assert outcome(lambda t: read(loader, t), text) == want, \
            loader.__name__
    assert outcome(lambda t: config._read(io.StringIO(t))[0], text) == want


def big_config(path, n=100, edges=1000):
    """A config shaped like a random edge list the benchmark scores: about
    `edges` weighted edges and one aliased anchor row per agent."""
    rng = np.random.default_rng(0)
    pairs = set((i, i + 1) for i in range(1, n))
    while len(pairs) < edges:
        i, j = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))
        pairs.add((int(i), int(j)))
    data = dict(graph=dict(nodes=n, edges=[[i, j, float(rng.uniform(0.1, 1))]
                                           for i, j in sorted(pairs)]),
                gamma=0.01,
                privacy=dict(epsilon=0.5, delta=0.001, b=1.0),
                formation=dict(anchors=[[0.0]] * n))
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, default_flow_style=None)
    return path


class TestCollectorState:
    @pytest.fixture
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_left_as_found_after_a_load(self, tmp_path, restore_gc,
                                        enabled):
        path = big_config(tmp_path / "big.yaml", edges=200)
        (gc.enable if enabled else gc.disable)()
        config.load(path)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_left_as_found_after_invalid_yaml(self, tmp_path, restore_gc,
                                              enabled):
        path = tmp_path / "bad.yaml"
        path.write_text("graph: {kind: star\ngamma: [0.2\n")
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(config.ConfigError, match="not valid YAML"):
            config.load(path)
        assert gc.isenabled() is enabled

    def test_a_load_leaves_no_cyclic_garbage(self, tmp_path):
        # the premise of pausing the collector: a collection during the
        # load would have freed nothing
        path = big_config(tmp_path / "big.yaml")
        cfg = config.load(path)
        assert len(cfg.graph.edges) == 1000
        gc.collect()
        config.load(path)
        assert gc.collect() == 0


def functions_run(functions, action) -> set:
    """The names of those functions whose code runs during action()."""
    codes = {f.__code__ for f in functions}
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            ran.add(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return ran


def test_big_config_numbers_skip_pyyaml_number_constructors(tmp_path):
    # the config's numbers are plain decimals in flat lists, which the
    # loaders build with int() and float(); yaml.SafeLoader shows that the
    # spy sees these constructors when they run
    path = big_config(tmp_path / "big.yaml")
    numbers = (SafeConstructor.construct_yaml_int,
               SafeConstructor.construct_yaml_float)
    assert functions_run(numbers, lambda: safe(path.read_text())) == {
        "construct_yaml_int", "construct_yaml_float"}
    for loader in LOADERS:
        assert functions_run(numbers,
                             lambda: read(loader, path.read_text())) == set()
    assert functions_run(numbers, lambda: config.load(path)) == set()


# int()'s digit limit, 0 where the interpreter has none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("seed, problem", [
    ("2001-02-30", "day is out of range for month"),
    pytest.param("9" * 5000, "Exceeds the limit", marks=pytest.mark.skipif(
        not 0 < DIGIT_LIMIT < 5000, reason="int() reads 5000 digits")),
], ids=["date", "digits"])
def test_scalar_that_cannot_be_built_names_the_file(tmp_path, seed, problem):
    # yaml.safe_load parses these scalars but raises ValueError building
    # them, a date or an int
    path = tmp_path / "seed.yaml"
    path.write_text(f"seed: {seed}\n")
    with pytest.raises(ValueError, match=problem):
        safe(path.read_text())
    with pytest.raises(config.ConfigError) as info:
        config.load(path)
    assert str(info.value).startswith(
        f"config file {path} is not valid YAML: ")
    assert problem in str(info.value)


SHARED = """\
graph: {kind: star, n: 3, w: 1.0}
gamma: 0.2
privacy: {epsilon: 5.0, delta: 0.00135, b: 2.0}
formation: {anchors: [[0], [1], [2]]}
"""

PER_AGENT = """\
graph: {kind: star, n: 3, w: 1.0}
gamma: 0.2
formation: {anchors: [[0], [1], [2]]}
privacy:
  - {epsilon: 1.0, delta: 0.00135, b: 2.0}
  - {epsilon: 5.0, delta: 0.00135, b: 2.0}
  - {epsilon: 1.0, delta: 0.05, b: 2.0}
"""


class TestRangeWarnings:
    def test_shared_entry_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "shared.yaml"
        path.write_text(SHARED)
        with pytest.warns(PrivacyRangeWarning) as record:
            config.load(path)
        assert [(w.filename, w.lineno) for w in record] == [(str(path), 3)]
        assert str(record[0].message).startswith("epsilon=5 outside")

    def test_list_entry_names_the_agent(self, tmp_path):
        path = tmp_path / "agents.yaml"
        path.write_text(PER_AGENT)
        with pytest.warns(PrivacyRangeWarning) as record:
            config.load(str(path))
        assert [(w.filename, w.lineno) for w in record] == [(str(path), 4)] * 2
        assert [str(w.message).split("=")[0] for w in record] == [
            "agent 2: epsilon", "agent 3: delta"]

    def test_merged_privacy_names_its_line(self, tmp_path):
        path = tmp_path / "merged.yaml"
        path.write_text("<<: {privacy: {epsilon: 5.0, delta: 0.00135, "
                        "b: 2.0}}\n" + SHARED.replace("privacy", "#"))
        with pytest.warns(PrivacyRangeWarning) as record:
            config.load(path)
        assert [(w.filename, w.lineno) for w in record] == [(str(path), 1)]

    def test_warnings_come_before_a_later_error(self, tmp_path):
        path = tmp_path / "short.yaml"
        path.write_text(PER_AGENT.replace("n: 3", "n: 4").replace(
            "[[0], [1], [2]]", "[[0], [1], [2], [3]]"))
        with pytest.warns(PrivacyRangeWarning) as record:
            with pytest.raises(config.ConfigError,
                               match="3 privacy entries for 4 agents"):
                config.load(path)
        assert [w.filename for w in record] == [str(path)] * 2
        # and before an invalid entry's ValueError
        path = tmp_path / "invalid.yaml"
        path.write_text(PER_AGENT.replace("delta: 0.05", "delta: 0.7"))
        with pytest.warns(PrivacyRangeWarning) as record:
            with pytest.raises(ValueError, match="got 0.7"):
                config.load(path)
        assert [(w.filename, str(w.message).split("=")[0])
                for w in record] == [(str(path), "agent 2: epsilon")]

    def test_short_list_is_the_agent_count_rule(self, tmp_path):
        # RunConfig holds the one agent-count rule; the entries are parsed,
        # and their warnings issued, before it runs
        path = tmp_path / "short.yaml"
        path.write_text(PER_AGENT.replace("n: 3", "n: 4").replace(
            "[[0], [1], [2]]", "[[0], [1], [2], [3]]"))
        with pytest.warns(PrivacyRangeWarning) as record:
            with pytest.raises(config.ConfigError,
                               match=r"^3 privacy entries for 4 agents$"):
                config.load(path)
        assert [str(w.message).split("=")[0] for w in record] == [
            "agent 2: epsilon", "agent 3: delta"]

    def test_a_repeated_call_warns_once(self, tmp_path):
        # the default filter's once-per-location rule holds
        path = tmp_path / "agents.yaml"
        path.write_text(PER_AGENT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(3):
                config.load(path)
        got = [(pathlib.Path(w.filename).name, str(w.message).split("=")[0])
               for w in caught]
        assert got == [("agents.yaml", "agent 2: epsilon"),
                       ("agents.yaml", "agent 3: delta")]

    def test_each_file_warns_once(self, tmp_path):
        # two files with the same privacy line and text warn once each
        paths = [tmp_path / "a.yaml", tmp_path / "b.yaml"]
        for path in paths:
            path.write_text(SHARED)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for path in paths * 3:
                config.load(path)
        assert [(w.filename, w.lineno) for w in caught] == [
            (str(path), 3) for path in paths]

    def test_filters_still_apply(self, tmp_path):
        path = tmp_path / "shared.yaml"
        path.write_text(SHARED)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrivacyRangeWarning)
            with pytest.raises(PrivacyRangeWarning, match="epsilon=5"):
                config.load(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", category=PrivacyRangeWarning,
                                    module="dpformation.config")
            config.load(path)
        assert caught == []
