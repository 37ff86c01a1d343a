"""Weighted graph representation, Laplacian spectra, and the consensus
transition matrix viewed as a Markov chain.

Graphs are undirected, simple, and weighted with strictly positive weights.
All matrix quantities are dense numpy arrays; intended scale is N up to a
few hundred for simulation and a few thousand for closed-form work.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class StepSizeTooLarge(ValueError):
    """Raised when gamma * d_max >= 1: I - gamma*L then has a diagonal
    entry <= 0."""


class NumericalError(RuntimeError):
    """Raised when an eigenvalue computation cannot be trusted, or a result
    leaves the float range."""


def check_finite(value, what: str, **inputs) -> None:
    """Raise NumericalError unless every entry of value is finite, so that
    no nan or +-inf is handed on as a result. The message names what was
    computed and the inputs, broadcast to value's shape, at the first
    entry that is not finite."""
    value = np.asarray(value, dtype=float)
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        at = ", ".join(f"{k}={np.broadcast_to(v, value.shape).flat[bad[0]]}"
                       for k, v in inputs.items())
        raise NumericalError(f"no finite value of {what} at {at}")


def check_positive(value: float, what: str) -> None:
    """Raise unless the input named what (gamma, b, w, e_r, ...) is
    positive and finite, as every bound, threshold and cutoff needs."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be positive and finite, got {value}")


def check_float_agents(n: int) -> None:
    """Raise NumericalError when the agent count n is too large for a
    float, which the closed forms in N need."""
    if n > sys.float_info.max:
        raise NumericalError(f"n = {n} agents is too large for a float")


class EdgeError(ValueError):
    """A refused edge. args are a message template and its values, whose
    first two are the edge's nodes counted from 0, so that a caller whose
    nodes are counted from 1 can re-word it; str is the message."""

    def __str__(self):
        return self.args[0].format(*self.args[1:])


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected simple weighted graph on nodes 0..n-1.

    Edges are stored once per unordered pair as (i, j, w) with i < j and
    w > 0, so symmetry of weights holds by construction. The Laplacian and
    its eigendecomposition are computed on first use and cached read-only.
    """

    n: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        seen = set()
        normalized = []
        for (i, j, w) in self.edges:
            if i == j:
                raise EdgeError("self-loop on node {0}", i, j)
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise EdgeError("edge ({0},{1}) out of range", i, j)
            if not (math.isfinite(w) and w > 0):
                raise EdgeError("edge ({0},{1}) has weight {2}; weights "
                                "must be finite and positive", i, j, w)
            key = (min(i, j), max(i, j))
            if key in seen:
                raise EdgeError("duplicate edge ({0}, {1})", *key)
            seen.add(key)
            normalized.append((key[0], key[1], float(w)))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            a[i, j] = w
            a[j, i] = w
        return a

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Weighted Laplacian L = D - A, degrees on the diagonal; cached
        read-only."""
        a = self.adjacency_matrix()
        lap = np.diag(a.sum(axis=1)) - a
        lap.flags.writeable = False
        return lap

    @cached_property
    def spectrum(self) -> tuple:
        """(lambda, U) = eigh(L): Laplacian eigenvalues in ascending order
        and orthonormal eigenvectors as columns, one eigensolve per graph."""
        lam, u = np.linalg.eigh(self.laplacian)
        lam.flags.writeable = u.flags.writeable = False
        return lam, u


def algebraic_connectivity(g: WeightedGraph) -> float:
    """Second-smallest Laplacian eigenvalue; 0 for disconnected graphs."""
    if g.n < 2:
        return 0.0
    return float(max(g.spectrum[0][1], 0.0))


def is_connected(g: WeightedGraph) -> bool:
    """Whether a depth-first search from node 0 reaches every node."""
    neighbors = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    reached = [False] * g.n
    reached[0] = True
    stack = [0]
    while stack:
        for j in neighbors[stack.pop()]:
            if not reached[j]:
                reached[j] = True
                stack.append(j)
    return all(reached)


# fewest agents of each named topology: a "cycle" on two nodes would be a
# doubled edge
_MIN_AGENTS = {"complete": 2, "cycle": 3, "line": 2, "star": 2}
# the named topologies, in Table I's order
TOPOLOGY_KINDS = tuple(_MIN_AGENTS)


def check_topology(kind: str, n: int, w: float) -> None:
    """Raise unless kind names a standard topology, n is enough agents for
    it and its uniform edge weight w is positive and finite; every function
    of a named topology checks its input here."""
    if kind not in _MIN_AGENTS:
        raise ValueError(f"unknown topology kind {kind!r}")
    if n < _MIN_AGENTS[kind]:
        raise ValueError(f"a {kind} topology needs n >= {_MIN_AGENTS[kind]} "
                         f"agents, got {n}")
    check_float_agents(n)
    check_positive(w, "w")


def build_standard_topology(kind: str, n: int, w: float = 1.0) -> WeightedGraph:
    """Uniform-weight complete, cycle, line, or star graph.

    For the star, node 0 is the hub.
    """
    check_topology(kind, n, w)
    if kind == "complete":
        edges = [(i, j, w) for i in range(n) for j in range(i + 1, n)]
    elif kind == "cycle":
        edges = [(i, (i + 1) % n, w) for i in range(n)]
    elif kind == "line":
        edges = [(i, i + 1, w) for i in range(n - 1)]
    else:
        edges = [(0, i, w) for i in range(1, n)]
    return WeightedGraph(n, tuple(edges))


def topology_lambda2(kind: str, n: int, w: float = 1.0) -> float:
    """Closed-form algebraic connectivity of the named uniform topologies."""
    check_topology(kind, n, w)
    if kind == "complete":
        return w * n
    if kind == "cycle":
        return 2.0 * w * (1.0 - np.cos(2.0 * np.pi / n))
    if kind == "line":
        return 2.0 * w * (1.0 - np.cos(np.pi / n))
    return 2.0 * w if n == 2 else w  # a 2-node star is one edge


@dataclass(frozen=True)
class PerronMatrix:
    """Doubly stochastic consensus transition matrix I - gamma * L; it has
    the eigenvectors of L(graph) and eigenvalues mu_i = 1 - gamma*lambda_i."""

    matrix: np.ndarray
    gamma: float
    graph: WeightedGraph

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def mode_gaps(self) -> np.ndarray:
        """a_i = 1 - mu_i^2 for the deviation modes i >= 2, evaluated as
        gamma*lambda_i * (2 - gamma*lambda_i) to avoid cancellation."""
        gl = self.gamma * self.graph.spectrum[0][1:]
        gaps = gl * (2.0 - gl)
        if np.any(gaps <= 0.0):
            raise NumericalError("a mode of P has |mu| >= 1: no mixing")
        return gaps

    def stationary_modes(self, cov) -> np.ndarray:
        """M_ij = (U_d^T C U_d)_ij / (1 - mu_i mu_j) for the deviation
        modes i, j >= 2 (columns U_d of U) of xbar(k+1) = P xbar(k) + z(k)
        with Cov[z] = C = cov (Xiao, Boyd & Kim 2007). U_d M U_d^T is the
        stationary covariance of the deviation from the network mean and
        trace(M) / N the exact e_ss. 1 - mu_i mu_j is g_i + g_j - g_i g_j
        for g = gamma * lambda, mode_gaps on the diagonal, so nothing
        cancels."""
        u = self.graph.spectrum[1][:, 1:]
        g = self.gamma * self.graph.spectrum[0][1:]
        gaps = g[:, None] + g[None, :] - np.outer(g, g)
        np.fill_diagonal(gaps, self.mode_gaps)
        return (u.T @ cov @ u) / gaps


def build_perron(g: WeightedGraph, gamma: float) -> PerronMatrix:
    """Build P = I - gamma*L(G) and verify it is doubly stochastic.

    Requires a connected graph and gamma * d_i < 1 for every node i
    (equivalently gamma in (0, 1/d_max)).
    """
    check_positive(gamma, "gamma")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    degs = np.diag(g.laplacian)
    worst = int(np.argmax(degs))
    if gamma * degs[worst] >= 1.0:
        raise StepSizeTooLarge(
            f"node {worst}: gamma * degree = {gamma * degs[worst]:.6g} >= 1 "
            f"(requires gamma < 1/d_max = {1.0 / degs[worst]:.6g})"
        )
    p = np.eye(g.n) - gamma * g.laplacian
    if not (np.allclose(p, p.T, atol=1e-12)
            and np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
            and np.allclose(p.sum(axis=1), 1.0, atol=1e-12)):
        raise NumericalError("I - gamma*L is not doubly stochastic to 1e-12")
    return PerronMatrix(p, gamma, g)
