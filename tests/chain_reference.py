"""The consensus matrix read as a Markov chain, for cross-checks.

The library takes the Kemeny constant of P^2 and the uniform stationary
distribution from the cached Laplacian spectrum (bounds.lemma7_sandwich).
These helpers compute them the textbook way, from the chain itself, with an
eigensolve of their own. Irreducibility of the chain, which is connectivity
of the graph, is checked with scipy's breadth-first search in place of the
library's own graph walk.
"""
import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from dpformation import NumericalError

EIG_UNIT_TOL = 1e-13


def stationary_distribution(p):
    """Stationary distribution of the chain: uniform, because P is
    doubly stochastic."""
    return np.full(p.n, 1.0 / p.n)


def bfs_is_connected(g) -> bool:
    """Whether scipy's breadth-first search from node 0 over the Laplacian
    reaches every node."""
    reached = breadth_first_order(g.laplacian, 0, directed=False,
                                  return_predecessors=False)
    return len(reached) == g.n


def kemeny_constant(matrix):
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


def kemeny_spectral_bounds(p, lam2_l):
    """Bounds on the Kemeny constant of P^2: ((N-1)/2, upper].

    The upper bound uses lambda2(P)^2 = (1 - gamma*lambda2(L))^2.
    """
    n = p.n
    upper = (n - 1) / (1.0 - (1.0 - p.gamma * lam2_l) ** 2)
    return (n - 1) / 2.0, upper
