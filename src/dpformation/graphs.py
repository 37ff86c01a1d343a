"""Weighted graph representation, Laplacian spectra, and the consensus
transition matrix viewed as a Markov chain.

Graphs are undirected, simple, and weighted with strictly positive weights.
All matrix quantities are dense numpy arrays; intended scale is N up to a
few hundred for simulation and a few thousand for closed-form work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

EIG_UNIT_TOL = 1e-13


class StepSizeTooLarge(ValueError):
    """Raised when gamma violates the double-stochasticity conditions."""


class NumericalError(RuntimeError):
    """Raised when an eigenvalue computation cannot be trusted."""


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected simple weighted graph on nodes 0..node_count-1.

    Edges are stored once per unordered pair as (i, j, w) with i < j and
    w > 0, so symmetry of weights holds by construction. The Laplacian and
    its eigendecomposition are computed on first use and cached read-only.
    """

    node_count: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        seen = set()
        normalized = []
        for (i, j, w) in self.edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ValueError(f"edge ({i},{j}) out of range")
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"edge ({i},{j}) has weight {w}; weights "
                                 "must be finite and positive")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append((key[0], key[1], float(w)))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def n(self) -> int:
        return self.node_count

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            a[i, j] = w
            a[j, i] = w
        return a

    @cached_property
    def _laplacian(self) -> np.ndarray:
        a = self.adjacency_matrix()
        lap = np.diag(a.sum(axis=1)) - a
        lap.flags.writeable = False
        return lap

    @cached_property
    def spectrum(self) -> tuple:
        """(lambda, U) = eigh(L): Laplacian eigenvalues in ascending order
        and orthonormal eigenvectors as columns, one eigensolve per graph."""
        lam, u = np.linalg.eigh(self._laplacian)
        lam.flags.writeable = u.flags.writeable = False
        return lam, u

    def degrees(self) -> np.ndarray:
        """Weighted degree of each node."""
        return np.diag(self._laplacian).copy()

    def max_degree(self) -> float:
        return float(self.degrees().max())


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted Laplacian: degree matrix minus adjacency matrix (the
    graph's cached, read-only copy)."""
    return g._laplacian


def algebraic_connectivity(g: WeightedGraph) -> float:
    """Second-smallest Laplacian eigenvalue; 0 for disconnected graphs."""
    if g.n < 2:
        return 0.0
    return float(max(g.spectrum[0][1], 0.0))


def is_connected(g: WeightedGraph) -> bool:
    """Whether a breadth-first search from node 0 reaches every node."""
    reached = breadth_first_order(laplacian(g), 0, directed=False,
                                  return_predecessors=False)
    return len(reached) == g.n


def build_standard_topology(kind: str, n: int, w: float = 1.0) -> WeightedGraph:
    """Uniform-weight complete, cycle, line, or star graph.

    For the star, node 0 is the hub.
    """
    if w <= 0:
        raise ValueError("weight must be positive")
    if kind == "complete":
        if n < 2:
            raise ValueError("complete graph needs n >= 2")
        edges = [(i, j, w) for i in range(n) for j in range(i + 1, n)]
    elif kind == "cycle":
        if n < 3:
            raise ValueError("cycle graph needs n >= 3")
        edges = [(i, (i + 1) % n, w) for i in range(n)]
    elif kind == "line":
        if n < 2:
            raise ValueError("line graph needs n >= 2")
        edges = [(i, i + 1, w) for i in range(n - 1)]
    elif kind == "star":
        if n < 2:
            raise ValueError("star graph needs n >= 2")
        edges = [(0, i, w) for i in range(1, n)]
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return WeightedGraph(n, tuple(edges))


def topology_lambda2(kind: str, n: int, w: float = 1.0) -> float:
    """Closed-form algebraic connectivity of the named uniform topologies."""
    if n < 2:
        raise ValueError(f"a {kind} topology needs n >= 2 agents, got {n}")
    if kind == "complete":
        return w * n
    if kind == "cycle":
        return 2.0 * w * (1.0 - np.cos(2.0 * np.pi / n))
    if kind == "line":
        return 2.0 * w * (1.0 - np.cos(np.pi / n))
    if kind == "star":
        return w
    raise ValueError(f"unknown topology kind {kind!r}")


def random_connected_graph(n: int, rng: np.random.Generator,
                           extra_edge_prob: float = 0.2) -> WeightedGraph:
    """Random connected graph: a random tree plus independent extra edges.

    Weights are uniform in (0.1, 1.0]. Connected by construction.
    """
    edges = {}
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        edges[(parent, k)] = 0.1 + 0.9 * float(rng.random())
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges[(i, j)] = 0.1 + 0.9 * float(rng.random())
    return WeightedGraph(n, tuple((i, j, w) for (i, j), w in edges.items()))


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


def build_perron(g: WeightedGraph, gamma: float) -> PerronMatrix:
    """Build P = I - gamma*L(G) and verify it is doubly stochastic.

    Requires a connected graph and gamma * d_i < 1 for every node i
    (equivalently gamma in (0, 1/d_max)).
    """
    if not gamma > 0:
        raise StepSizeTooLarge(f"gamma must be positive, got {gamma}")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    degs = g.degrees()
    worst = int(np.argmax(degs))
    if gamma * degs[worst] >= 1.0:
        raise StepSizeTooLarge(
            f"node {worst}: gamma * degree = {gamma * degs[worst]:.6g} >= 1 "
            f"(requires gamma < 1/d_max = {1.0 / degs[worst]:.6g})"
        )
    p = np.eye(g.n) - gamma * laplacian(g)
    if not (np.allclose(p, p.T, atol=1e-12)
            and np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
            and np.allclose(p.sum(axis=1), 1.0, atol=1e-12)):
        raise NumericalError("I - gamma*L is not doubly stochastic to 1e-12")
    return PerronMatrix(p, gamma, g)


def stationary_distribution(p: PerronMatrix) -> np.ndarray:
    """Stationary distribution of the chain: uniform, because P is
    doubly stochastic."""
    return np.full(p.n, 1.0 / p.n)


def kemeny_constant(matrix: np.ndarray) -> float:
    """Kemeny constant of a symmetric stochastic matrix.

    Uses the eigenvalue form: the sum of 1/(1 - lambda) over all
    eigenvalues except the unit one.
    """
    evals = np.sort(np.linalg.eigvalsh(matrix))[::-1]
    rest = evals[1:]
    if np.any(rest >= 1.0 - EIG_UNIT_TOL):
        raise NumericalError(
            "secondary eigenvalue at 1: chain is not irreducible"
        )
    return float(np.sum(1.0 / (1.0 - rest)))
