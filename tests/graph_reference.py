"""Random test graphs and the degree helper the tests size gamma with.

The library only needs the named topologies and explicit edge lists;
these helpers draw the random connected graphs that the property and
cross-check tests run on.
"""
import numpy as np

from dpformation.graphs import WeightedGraph


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


def max_degree(g: WeightedGraph) -> float:
    """Largest weighted degree; any gamma below 1/max_degree is valid."""
    return float(np.diag(g.laplacian).max())
