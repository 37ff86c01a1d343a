"""Reference values the benchmark computes itself.

Every gate compares the library's output with a value computed here from
numpy/scipy primitives only, never through a dpformation code path, so the
gates stay valid when the library's algorithms are replaced:

* exact e_ss from one symmetric eigendecomposition (Xiao, Boyd & Kim 2007,
  "Distributed average consensus with least-mean-square deviation"):
  (1/N) * sum_{i>=2} (U^T C U)_ii / (1 - mu_i^2) with mu_i = 1 - gamma*lambda_i;
* the Kemeny constant of P^2, sum_{i>=2} 1 / (1 - mu_i^2), for the Lemma-7
  sandwich;
* kappa(delta, eps) with K = -ndtri(delta) (Le Ny & Pappas 2014,
  "Differentially private filtering"), and the homogeneous bound
  gamma * kappa^2 * b^2 * (N-1)^2 / (N * lambda2 * (2 - gamma*lambda2)).
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigh  # bound before the tracer wraps numpy.linalg
from scipy.special import ndtri


# The same weight law and draw order as dpformation.random_connected_graph,
# kept here so the inputs do not move if the library's generator changes.
def random_graph(n: int, rng: np.random.Generator,
                 extra_edge_prob: float = 0.2) -> list:
    """Random connected graph as a list of (i, j, w) with i < j: a random
    tree plus independent extra edges, weights uniform in (0.1, 1.0]."""
    edges = {}
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        edges[(parent, k)] = 0.1 + 0.9 * float(rng.random())
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges[(i, j)] = 0.1 + 0.9 * float(rng.random())
    return sorted((i, j, w) for (i, j), w in edges.items())


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j, w in edges:
        a[i, j] = a[j, i] = w
    return a


def max_degree(n: int, edges) -> float:
    return float(adjacency(n, edges).sum(axis=1).max())


class Spectrum:
    """One eigh of the Laplacian answers every spectral reference."""

    def __init__(self, n: int, edges, gamma: float):
        a = adjacency(n, edges)
        lam, self.u = eigh(np.diag(a.sum(axis=1)) - a)
        self.n, self.gamma, self.a = n, gamma, a
        self.lambda2 = float(lam[1])
        self.mu = 1.0 - gamma * lam          # eigenvalues of P, mu[0] = 1

    def network_noise(self, sigmas) -> np.ndarray:
        """Diagonal of Cov[z] for z = gamma*A v: gamma^2 sum_j w_ij^2 s_j^2."""
        return self.gamma**2 * (self.a**2 @ np.asarray(sigmas, float) ** 2)

    def exact_ess(self, z_diag) -> float:
        """Steady-state e_ss for independent noise with diagonal z_diag."""
        modal = (self.u[:, 1:] ** 2).T @ np.asarray(z_diag, float)
        return float(np.sum(modal / (1.0 - self.mu[1:] ** 2)) / self.n)

    def kemeny2(self) -> float:
        return float(np.sum(1.0 / (1.0 - self.mu[1:] ** 2)))

    def sandwich(self, z_diag) -> tuple:
        w = np.asarray(z_diag, float) / self.n
        k2 = self.kemeny2()
        return float(w.min() * k2), float(w.max() * k2)

    def theorem1(self, kappa_b_sq_max: float) -> float:
        n, g, l2 = self.n, self.gamma, self.lambda2
        return g * (n - 1) ** 2 * kappa_b_sq_max / (n * l2 * (2.0 - g * l2))


def kappa(delta, epsilon):
    k = -ndtri(delta)
    return (k + np.sqrt(k * k + 2.0 * epsilon)) / (2.0 * epsilon)


def bound(epsilon, lambda2, *, n, gamma, b, delta):
    """Homogeneous Corollary-1 bound; broadcasts over epsilon and lambda2."""
    return (gamma * kappa(delta, epsilon) ** 2 * b**2 * (n - 1) ** 2
            / (n * lambda2 * (2.0 - gamma * lambda2)))


def topology_lambda2(kind: str, n: int, w: float = 1.0) -> float:
    if kind == "complete":
        return w * n
    if kind == "cycle":
        return 2.0 * w * (1.0 - math.cos(2.0 * math.pi / n))
    if kind == "line":
        return 2.0 * w * (1.0 - math.cos(math.pi / n))
    if kind == "star":
        return w
    raise ValueError(f"unknown topology {kind!r}")


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)
