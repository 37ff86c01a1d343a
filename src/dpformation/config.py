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

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import graphs, privacy
from .dynamics import FormationSpec
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
    formation: FormationSpec

    def __post_init__(self):
        if len(self.privacy_params) != self.graph.n:
            raise ConfigError(
                f"{len(self.privacy_params)} privacy entries for "
                f"{self.graph.n} agents")
        if self.formation.agent_count != self.graph.n:
            raise ConfigError(
                f"formation has {self.formation.agent_count} anchor rows "
                f"for {self.graph.n} agents")
        if self.horizon < 1 or self.trials < 1:
            raise ConfigError("horizon and trials must be >= 1")

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([privacy.noise_scale(p) for p in self.privacy_params])

    def validate_step_size(self) -> graphs.PerronMatrix:
        """Build the transition matrix, raising StepSizeTooLarge with the
        binding node/bound named when gamma is invalid."""
        return graphs.build_perron(self.graph, self.gamma)


# libyaml's C parser when PyYAML was built with it, else the pure-Python one
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _check_keys(spec: dict, allowed: tuple, where: str) -> None:
    if not isinstance(spec, dict):
        raise ConfigError(f"config section {where} must be a mapping, got "
                          f"{type(spec).__name__}")
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where} "
                              f"(allowed: {', '.join(allowed)})")


def parse_graph(spec: dict) -> WeightedGraph:
    _check_keys(spec, ("kind", "n", "w", "nodes", "edges"), "graph")
    if "kind" in spec:
        return graphs.build_standard_topology(
            spec["kind"], int(spec["n"]), float(spec.get("w", 1.0)))
    if "nodes" in spec:
        edges = tuple((int(i) - 1, int(j) - 1, float(w))
                      for i, j, w in spec.get("edges", []))
        return WeightedGraph(int(spec["nodes"]), edges)
    raise ConfigError("graph spec needs either 'kind' or 'nodes'")


def parse_privacy(spec, n: int) -> tuple:
    def one(d):
        _check_keys(d, ("epsilon", "delta", "b"), "privacy")
        return privacy.PrivacyParams(float(d["epsilon"]), float(d["delta"]),
                                     float(d["b"]))
    if not isinstance(spec, list):
        return (one(spec),) * n
    entries = tuple(one(d) for d in spec)
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
            gamma=float(data["gamma"]),
            horizon=int(data.get("horizon", 100)),
            trials=int(data.get("trials", 1000)),
            master_seed=int(data.get("seed", 0)),
            privacy_params=parse_privacy(data["privacy"], g.n),
            formation=FormationSpec(np.asarray(data["formation"]["anchors"],
                                               dtype=float)),
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from None


def load(path) -> RunConfig:
    with open(path) as fh:
        data = yaml.load(fh, Loader=_LOADER)
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    return from_mapping(data)


def demo_config(trials: int = 1000, horizon: int = 100,
                seed: int = 1) -> RunConfig:
    """Five agents on a star: four corners of a square plus the hub at the
    center, homogeneous privacy (epsilon = ln 3, delta = 0.00135, b = 2)."""
    anchors = np.array([[0.0, 0.0], [-20.0, 20.0], [20.0, 20.0],
                        [20.0, -20.0], [-20.0, -20.0]])
    return RunConfig(
        graph=graphs.build_standard_topology("star", 5, 1.0),
        gamma=0.2,
        horizon=horizon,
        trials=trials,
        master_seed=seed,
        privacy_params=(privacy.PrivacyParams(math.log(3.0), 0.00135, 2.0),)
        * 5,
        formation=FormationSpec(anchors),
    )
