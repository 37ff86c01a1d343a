"""Run configuration: YAML parsing, validation, and the built-in demo.

Schema::

    graph: {kind: star, n: 5, w: 1.0}          # named topology, or
    graph: {nodes: 3, edges: [[1, 2, 1.0], [2, 3, 0.5]]}   # 1-indexed
    gamma: 0.2
    horizon: 100
    trials: 1000
    seed: 1
    privacy: {epsilon: 1.0986, delta: 0.00135, b: 2.0}     # or per-agent list
    formation:
      anchors: [[0, 0], [-20, 20], [20, 20], [20, -20], [-20, -20]]
"""
from __future__ import annotations

import gc
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from . import graphs, privacy
from .graphs import WeightedGraph


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    graph: WeightedGraph
    gamma: float
    horizon: int
    trials: int
    master_seed: int
    privacy_params: tuple       # one PrivacyParams per agent
    anchors: np.ndarray         # (N, n) formation: row i is agent i's anchor

    def __post_init__(self):
        if len(self.privacy_params) != self.graph.n:
            raise ConfigError(
                f"{len(self.privacy_params)} privacy entries for "
                f"{self.graph.n} agents")
        anchors = _anchor_matrix(self.anchors)
        object.__setattr__(self, "anchors", anchors)
        _check_agents(len(anchors), self.graph.n)
        if not np.all(np.isfinite(anchors)):
            raise ConfigError("formation anchors must be finite")
        if self.horizon < 1 or self.trials < 1:
            raise ConfigError("horizon and trials must be >= 1")
        # the largest count a C ssize_t, so an array shape, can hold
        for key, count in (("horizon", self.horizon), ("trials", self.trials)):
            if count > sys.maxsize:
                raise ConfigError(f"{key} must be at most {sys.maxsize}, "
                                  f"got {count}")
        if self.master_seed < 0:
            raise ConfigError(
                f"seed must be non-negative, got {self.master_seed}")

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([privacy.noise_scale(p) for p in self.privacy_params])


def _anchor_matrix(anchors) -> np.ndarray:
    """anchors as a float matrix with at least one column; ragged rows or
    another shape are a ConfigError."""
    try:
        matrix = np.atleast_2d(np.asarray(anchors, dtype=float))
    except ValueError:  # ragged rows
        lengths = [len(r) if isinstance(r, (list, tuple)) else 1
                   for r in anchors]
        raise ConfigError("formation anchors must be an (N, n) matrix, "
                          f"got rows of lengths {lengths}") from None
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise ConfigError("formation anchors must be an (N, n) matrix "
                          f"with n >= 1, got shape {matrix.shape}")
    return matrix


def _check_agents(rows: int, agents: int) -> None:
    """A formation has one anchor row per agent."""
    if rows != agents:
        raise ConfigError(
            f"formation has {rows} anchor rows for {agents} agents")


_TAG = "tag:yaml.org,2002:"
_INT, _FLOAT, _SEQ = _TAG + "int", _TAG + "float", _TAG + "seq"
_SCALARS = {_TAG + name:
            yaml.constructor.SafeConstructor.yaml_constructors[_TAG + name]
            for name in ("null", "bool", "int", "float", "str")}
# the plain decimal spellings for which PyYAML's resolver gives the int or
# float tag and its constructor the value int() or float() gives; group 1
# is a float's fraction and exponent. 017 (octal), 1_000, 0x1F, +1, 1:30,
# .5, 1.0E+1 and 1e1 (a str) are not among them.
_DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]+(?:e[-+][0-9]+)?)?")


class _DirectScalars:
    """Loader mixin for what fills a config, flat lists of plain decimal
    numbers. Such a number is tagged without PyYAML's implicit-resolver
    table and built by int() or float(); another scalar tagged null, bool,
    int, float or str is built by its SafeConstructor function. A scalar
    is an immutable leaf, so the inherited construct_object's alias and
    recursion tables and its generator draining do nothing for it. A list
    of scalars alone is built at once and recorded, so an aliased one
    stays one object; every other node goes through the inherited
    construct_object."""

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0]:
            decimal = _DECIMAL.fullmatch(value)
            if decimal:
                return _FLOAT if decimal[1] else _INT
        return super().resolve(kind, value, implicit)

    def construct_object(self, node, deep=False):
        kind = type(node)
        if kind is yaml.ScalarNode:
            tag = node.tag
            if tag == _INT or tag == _FLOAT:
                decimal = _DECIMAL.fullmatch(node.value)
                if decimal and tag == (_FLOAT if decimal[1] else _INT):
                    return (float if decimal[1] else int)(node.value)
            build = _SCALARS.get(tag)
            if build is not None:
                return build(self, node)
        elif (kind is yaml.SequenceNode and node.tag == _SEQ
                and node not in self.constructed_objects
                and all(type(item) is yaml.ScalarNode for item in node.value)):
            data = self.constructed_objects[node] = [
                self.construct_object(item) for item in node.value]
            return data
        return super().construct_object(node, deep)


class _LOADER(_DirectScalars, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """yaml.safe_load's reading, with libyaml's C parser when PyYAML was
    built with it, else the pure-Python one."""


def _check_keys(spec: dict, allowed: tuple, where: str) -> None:
    if not isinstance(spec, dict):
        raise ConfigError(f"config section {where} must be a mapping, got "
                          f"{type(spec).__name__}")
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where} "
                              f"(allowed: {', '.join(allowed)})")


def _integer(value, what: str) -> int:
    """value itself if it is an integer; a float, bool or string is
    refused, not truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _real(value, what: str) -> float:
    """float(value) for a number or a numeric string (PyYAML reads 1e-3,
    an exponent without a dot, as a string); a bool is refused, not read
    as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _reals(value, what: str):
    """value with _real applied to every entry of its nested lists."""
    if isinstance(value, list):
        return [_reals(v, what) for v in value]
    return _real(value, what)


def _edge(entry) -> tuple:
    """The 0-based (i, j, w) of a 1-based [i, j, w] graph edges entry."""
    if not isinstance(entry, list) or len(entry) != 3:
        raise ConfigError("graph edges entries must be [i, j, w] triples, "
                          f"got {entry!r}")
    i, j, w = entry
    return (_integer(i, "edge endpoint") - 1, _integer(j, "edge endpoint") - 1,
            _real(w, "edge weight"))


def parse_graph(spec: dict, rows: int) -> WeightedGraph:
    """A named topology (kind, n, w) or an edge list (nodes, edges); a
    key of the other form is refused, not ignored. Its n or nodes must be
    rows, the formation's anchor row count, and is checked before anything
    of that size is built."""
    _check_keys(spec, ("kind", "n", "w", "nodes", "edges"), "graph")
    if "kind" in spec:
        _check_keys(spec, ("kind", "n", "w"), "a graph with 'kind'")
        n = _integer(spec["n"], "graph n")
        _check_agents(rows, n)
        return graphs.build_standard_topology(
            spec["kind"], n, _real(spec.get("w", 1.0), "graph w"))
    if "nodes" in spec:
        _check_keys(spec, ("nodes", "edges"), "a graph with 'nodes'")
        edges = spec.get("edges", [])
        if not isinstance(edges, list):
            raise ConfigError("graph edges must be a list of [i, j, w] "
                              f"triples, got {edges!r}")
        edges = tuple(map(_edge, edges))
        nodes = _integer(spec["nodes"], "graph nodes")
        _check_agents(rows, nodes)
        try:
            return WeightedGraph(nodes, edges)
        except ValueError as exc:
            if not hasattr(exc, "template"):
                raise
            # name the nodes as the file counts them, from 1
            i, j, *rest = exc.values
            text = exc.template.format(i + 1, j + 1, *rest)
            raise ConfigError(text) from None
    raise ConfigError("graph spec needs either 'kind' or 'nodes'")


def parse_privacy(spec, n: int, notes: list) -> tuple:
    """One PrivacyParams per agent: a mapping shared by all n, or a list
    with one mapping per agent, whose count RunConfig checks. Each entry's
    privacy.range_notes go on to notes as it is read, a list entry's
    prefixed with its agent, counted from 1."""
    def one(d, prefix=""):
        _check_keys(d, ("epsilon", "delta", "b"), "privacy")
        p = privacy.PrivacyParams(*(_real(d[k], k)
                                    for k in ("epsilon", "delta", "b")))
        notes.extend(prefix + text
                     for text in privacy.range_notes(p.epsilon, p.delta))
        return p
    if not isinstance(spec, list):
        return (one(spec),) * n
    return tuple(one(d, f"agent {agent}: ")
                 for agent, d in enumerate(spec, 1))


def _parse(data: dict, notes: list) -> RunConfig:
    """The RunConfig that data describes; the range notes of its privacy
    entries go on to notes, for load to issue also when a later
    entry or check raises."""
    _check_keys(data, ("graph", "gamma", "horizon", "trials", "seed",
                       "privacy", "formation"), "the config")
    try:
        _check_keys(data["formation"], ("anchors",), "formation")
        anchors = _anchor_matrix(_reals(data["formation"]["anchors"],
                                        "formation anchor"))
        g = parse_graph(data["graph"], len(anchors))
        return RunConfig(
            graph=g,
            gamma=_real(data["gamma"], "gamma"),
            horizon=_integer(data.get("horizon", 100), "horizon"),
            trials=_integer(data.get("trials", 1000), "trials"),
            master_seed=_integer(data.get("seed", 0), "seed"),
            privacy_params=parse_privacy(data["privacy"], g.n, notes),
            anchors=anchors,
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from None


def _read(fh):
    """The document in the YAML stream fh, as yaml.safe_load reads it, and
    the 1-based line of its top-level privacy key (0 if it has none).

    The cyclic garbage collector is paused while the document is built:
    every node and list the load makes stays alive until the end, and the
    load leaves no cyclic garbage, so a collection here would free nothing
    and only walk the growing tree and the caller's heap again."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        loader = _LOADER(fh)
        try:
            root = loader.get_single_node()
            data = None if root is None else loader.construct_document(root)
        finally:
            loader.dispose()
    finally:
        if collecting:
            gc.enable()
    line = 0
    if type(root) is yaml.MappingNode:
        # construct_document has merged any << keys into root.value; the
        # last privacy key is the one that counts
        for key, _ in root.value:
            if type(key) is yaml.ScalarNode and key.value == "privacy":
                line = key.start_mark.line + 1
    return data, line


# one warnings registry per config file that has issued a range warning,
# kept for the life of the process as warnings.warn keeps one per module,
# so that the default filter shows such a warning once per file, line and
# text
_REGISTRIES: dict = {}


def load(path) -> RunConfig:
    """The RunConfig in the YAML file at path; a file that cannot be read
    or parsed is a ConfigError naming the path. A privacy range warning
    names the file and the line of its privacy key."""
    try:
        with open(path) as fh:
            data, privacy_line = _read(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror}") from None
    except (UnicodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {path} is not valid YAML: "
                          f"{exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    notes = []
    try:
        return _parse(data, notes)
    finally:
        where = os.fspath(path)
        for text in notes:
            warnings.warn_explicit(
                text, privacy.PrivacyRangeWarning, where, privacy_line,
                module=__name__, registry=_REGISTRIES.setdefault(where, {}))


def demo_config() -> RunConfig:
    """Five agents on a star: four corners of a square plus the hub at the
    center, homogeneous privacy (epsilon = ln 3, delta = 0.00135, b = 2)."""
    anchors = np.array([[0.0, 0.0], [-20.0, 20.0], [20.0, 20.0],
                        [20.0, -20.0], [-20.0, -20.0]])
    return RunConfig(
        graph=graphs.build_standard_topology("star", 5, 1.0),
        gamma=0.2,
        horizon=100,
        trials=1000,
        master_seed=1,
        privacy_params=(privacy.PrivacyParams(math.log(3.0), 0.00135, 2.0),)
        * 5,
        anchors=anchors,
    )
