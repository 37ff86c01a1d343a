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
        try:
            anchors = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        except ValueError:  # ragged rows
            lengths = [len(r) if isinstance(r, (list, tuple)) else 1
                       for r in self.anchors]
            raise ConfigError("formation anchors must be an (N, n) matrix, "
                              f"got rows of lengths {lengths}") from None
        object.__setattr__(self, "anchors", anchors)
        if anchors.ndim != 2 or anchors.shape[1] < 1:
            raise ConfigError("formation anchors must be an (N, n) matrix "
                              f"with n >= 1, got shape {anchors.shape}")
        if anchors.shape[0] != self.graph.n:
            raise ConfigError(
                f"formation has {anchors.shape[0]} anchor rows "
                f"for {self.graph.n} agents")
        if not np.all(np.isfinite(anchors)):
            raise ConfigError("formation anchors must be finite")
        if self.horizon < 1 or self.trials < 1:
            raise ConfigError("horizon and trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(
                f"seed must be non-negative, got {self.master_seed}")

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([privacy.noise_scale(p) for p in self.privacy_params])


_SCALARS = {tag: yaml.constructor.SafeConstructor.yaml_constructors[tag]
            for tag in (f"tag:yaml.org,2002:{name}"
                        for name in ("null", "bool", "int", "float", "str"))}


class _DirectScalars:
    """Loader mixin: a scalar tagged null, bool, int, float or str is built
    by its SafeConstructor function directly. It is an immutable leaf, so
    the inherited construct_object's alias and recursion tables and its
    generator draining do nothing for it; every other node still goes
    there, so aliased collections stay one object."""

    def construct_object(self, node, deep=False):
        if type(node) is yaml.ScalarNode:
            build = _SCALARS.get(node.tag)
            if build is not None:
                return build(self, node)
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


def parse_graph(spec: dict) -> WeightedGraph:
    """A named topology (kind, n, w) or an edge list (nodes, edges); a
    key of the other form is refused, not ignored."""
    _check_keys(spec, ("kind", "n", "w", "nodes", "edges"), "graph")
    if "kind" in spec:
        _check_keys(spec, ("kind", "n", "w"), "a graph with 'kind'")
        return graphs.build_standard_topology(
            spec["kind"], _integer(spec["n"], "graph n"),
            _real(spec.get("w", 1.0), "graph w"))
    if "nodes" in spec:
        _check_keys(spec, ("nodes", "edges"), "a graph with 'nodes'")
        edges = tuple((_integer(i, "edge endpoint") - 1,
                       _integer(j, "edge endpoint") - 1,
                       _real(w, "edge weight"))
                      for i, j, w in spec.get("edges", []))
        return WeightedGraph(_integer(spec["nodes"], "graph nodes"), edges)
    raise ConfigError("graph spec needs either 'kind' or 'nodes'")


def _warn_again(caught, text, filename, lineno) -> None:
    """Issue the caught warning again as text at filename:lineno, filtered
    as a warning from this module."""
    warnings.warn_explicit(text, caught.category, filename, lineno,
                           module=__name__)


def parse_privacy(spec, n: int) -> tuple:
    """One PrivacyParams per agent: a mapping shared by all n, or a list of
    n mappings; a range warning on a list entry names its agent, counted
    from 1."""
    def one(d):
        _check_keys(d, ("epsilon", "delta", "b"), "privacy")
        return privacy.PrivacyParams(*(_real(d[k], k)
                                       for k in ("epsilon", "delta", "b")))
    if not isinstance(spec, list):
        return (one(spec),) * n
    entries = []
    for agent, d in enumerate(spec, 1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", privacy.PrivacyRangeWarning)
            entries.append(one(d))
        for w in caught:
            _warn_again(w, f"agent {agent}: {w.message}", w.filename,
                        w.lineno)
    entries = tuple(entries)
    if len(entries) != n:
        raise ConfigError(f"privacy list has {len(entries)} entries, "
                          f"expected {n}")
    return entries


def from_mapping(data: dict) -> RunConfig:
    _check_keys(data, ("graph", "gamma", "horizon", "trials", "seed",
                       "privacy", "formation"), "the config")
    try:
        _check_keys(data["formation"], ("anchors",), "formation")
        g = parse_graph(data["graph"])
        return RunConfig(
            graph=g,
            gamma=_real(data["gamma"], "gamma"),
            horizon=_integer(data.get("horizon", 100), "horizon"),
            trials=_integer(data.get("trials", 1000), "trials"),
            master_seed=_integer(data.get("seed", 0), "seed"),
            privacy_params=parse_privacy(data["privacy"], g.n),
            anchors=_reals(data["formation"]["anchors"],
                           "formation anchor"),
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
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", privacy.PrivacyRangeWarning)
            return from_mapping(data)
    finally:
        for w in caught:
            _warn_again(w, str(w.message), os.fspath(path), privacy_line)


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
