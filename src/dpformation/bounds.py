"""Steady-state-error bounds, the exact spectral oracle, and privacy
threshold calculators.

The central quantity is the steady-state network-average squared deviation
e_ss of the noisy consensus dynamics. Three routes to it live here:

* an exact oracle, closed form on the graph's cached Laplacian spectrum,
* the Kemeny-constant sandwich lower/upper bounds, and
* the closed-form upper bound C(N, gamma, lambda2) * b^2 * kappa(eps)^2,
  plus its inversion into minimum-epsilon design thresholds for standard
  topologies.

kappa is one-to-one in eps, so the threshold inverts the bound exactly in
closed form and is authoritative; the literal published threshold
expressions are evaluated alongside for comparison because they contain
apparent typos.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, graphs, privacy
from .graphs import PerronMatrix, WeightedGraph


def exact_ess_oracle(p: PerronMatrix, noise) -> float:
    """Exact steady-state error of xbar(k+1) = P xbar(k) + z(k).

    noise is Cov[z]: a full N x N matrix C, or its diagonal (a length-N
    vector or a scalar) for independent perturbations. With L = U diag(lambda)
    U^T, deviation mode i >= 2 settles at variance (U^T C U)_ii / a_i with
    a_i = 1 - mu_i^2 (Xiao, Boyd & Kim 2007), so
    e_ss = (1/N) * sum_{i>=2} (U^T C U)_ii / a_i.
    """
    c = np.asarray(noise, dtype=float)
    if c.ndim < 2:
        c = np.diag(np.broadcast_to(c, (p.n,)))
    u = p.graph.spectrum[1][:, 1:]
    modal = np.sum(u * (c @ u), axis=0)
    return float(np.sum(modal / p.mode_gaps) / p.n)


def lemma7_sandwich(p: PerronMatrix, z_diag) -> tuple:
    """Kemeny sandwich on e_ss for i.i.d. diagonal noise.

    Returns (min_i s_i^2 pi_i, max_i s_i^2 pi_i) scaled by the Kemeny
    constant of the two-step chain P^2, sum_{i>=2} 1 / (1 - mu_i^2).
    """
    z_diag = np.broadcast_to(np.asarray(z_diag, dtype=float), (p.n,))
    k2 = float(np.sum(1.0 / p.mode_gaps))
    weighted = z_diag * graphs.stationary_distribution(p)
    return float(weighted.min() * k2), float(weighted.max() * k2)


def kemeny_spectral_bounds(p: PerronMatrix, lam2_l: float) -> tuple:
    """Bounds on the Kemeny constant of P^2: ((N-1)/2, upper].

    The upper bound uses lambda2(P)^2 = (1 - gamma*lambda2(L))^2.
    """
    n = p.n
    upper = (n - 1) / (1.0 - (1.0 - p.gamma * lam2_l) ** 2)
    return (n - 1) / 2.0, upper


def _prefactor(n_agents: int, gamma: float, lambda2):
    """C = gamma (N-1)^2 / (N lambda2 (2 - gamma lambda2)); every bound is
    C * b^2 * kappa^2, for N >= 2 agents. Broadcasts over lambda2, which
    must lie in (0, 2/gamma), where the denominator is positive."""
    if n_agents < 2:
        raise ValueError(f"need at least 2 agents, got {n_agents}")
    lam2 = np.asarray(lambda2, dtype=float)
    if not np.all((lam2 > 0) & (lam2 < 2.0 / gamma)):
        raise ValueError("lambda2 must lie in (0, 2/gamma)")
    return (gamma * (n_agents - 1) ** 2
            / (n_agents * lam2 * (2.0 - gamma * lam2)))


def corollary1_bound(epsilon, lambda2, *, n_agents: int, gamma: float,
                     b: float, delta: float):
    """Homogeneous upper bound on e_ss as a function of free parameters.

    gamma * kappa^2 * b^2 * (N-1)^2 / (N * lambda2 * (2 - gamma*lambda2)).
    Broadcasts over epsilon and lambda2: a float for scalars.
    """
    kap = privacy.kappa(delta, epsilon)
    out = _prefactor(n_agents, gamma, lambda2) * (b * b * (kap * kap))
    return out if out.ndim else float(out)


def theorem1_bound(g: WeightedGraph, gamma: float, params) -> float:
    """Heterogeneous upper bound on e_ss.

    gamma * (N-1)^2 * max_i kappa_i^2 b_i^2 / (N lambda2 (2 - gamma lambda2)).
    params is one PrivacyParams (homogeneous) or a sequence of N of them.
    Validates the step-size conditions by building the transition matrix.
    """
    return _theorem1(graphs.build_perron(g, gamma), params)


def _theorem1(p: PerronMatrix, params) -> float:
    if isinstance(params, privacy.PrivacyParams):
        params = [params]
    worst = max(q.b * q.b * (q.kappa * q.kappa) for q in params)
    lam2 = graphs.algebraic_connectivity(p.graph)
    return float(_prefactor(p.n, p.gamma, lam2) * worst)


def epsilon_threshold_numeric(lambda2: float, *, gamma: float, delta: float,
                              b: float, n_agents: int, e_r: float) -> float:
    """Smallest epsilon whose homogeneous bound certifies e_ss <= e_r.

    The bound C * b^2 * kappa(eps)^2 is strictly decreasing in eps and
    meets e_r at kappa* = sqrt(e_r / (b^2 C)); inverting
    K + sqrt(K^2 + 2 eps) = 2 eps kappa gives the exact threshold
    eps* = (1 + 2 kappa* K) / (2 kappa*^2), positive for every e_r > 0.
    """
    if not e_r > 0:
        raise ValueError("e_r must be positive")
    k = privacy.q_inverse(delta)
    kap = math.sqrt(e_r / (b * b * _prefactor(n_agents, gamma, lambda2)))
    return (1.0 + 2.0 * kap * k) / (2.0 * kap * kap)


def epsilon_threshold_closed_form(kind: str, n: int, *, gamma: float,
                                  delta: float, b: float, w: float,
                                  e_r: float,
                                  lambda2: float | None = None) -> float:
    """Literal evaluation of the published per-topology threshold formulas.

    kind is one of impossibility, complete, cycle, line, star. The
    impossibility form needs lambda2 explicitly; the others use the
    closed-form spectrum of the named uniform-weight topology. These
    expressions are reported for comparison only; see
    epsilon_threshold_numeric for the exact inversion of the bound.
    """
    k = privacy.q_inverse(delta)
    if kind == "impossibility":
        if lambda2 is None:
            raise ValueError("impossibility form requires lambda2")
        z1 = gamma * (n - 1) ** 2 / (2.0 - gamma * lambda2)
        return (2.0 * b * z1 / (n * e_r * lambda2)) * (
            b + e_r * k * lambda2 * n / math.sqrt(e_r * z1 * lambda2 * n))
    if kind == "complete":
        return (2.0 * b * gamma * (n - 1) ** 2
                / (n**2 * e_r * w * (2.0 - gamma * w * n))) * (
            b + e_r * k * w * n * math.sqrt(2.0 - gamma * w * n)
            / ((n - 1) * math.sqrt(e_r * gamma * w)))
    if kind == "cycle":
        c = 1.0 - math.cos(2.0 * math.pi / n)
        z2 = (n - 1) ** 2 * gamma / (1.0 - gamma * w * c)
        return (b * z2 / (n * e_r * 2.0 * w * c)
                + k / math.sqrt(z2 * e_r * w * c * n))
    if kind == "line":
        c = 1.0 - math.cos(math.pi / n)
        z3 = (n - 1) ** 2 * gamma / (1.0 - gamma * w * c)
        return (b * z3 / (n * e_r * 2.0 * w * c)
                + k / math.sqrt(z3 * e_r * w * c * n))
    if kind == "star":
        return (2.0 * b * gamma * (n - 1) ** 2
                / (n * e_r * w * (2.0 - gamma * w))) * (
            b + e_r * k * w * n * math.sqrt(2.0 - gamma * w)
            / ((n - 1) * math.sqrt(e_r * gamma * w * n)))
    raise ValueError(f"unknown threshold kind {kind!r}")


TABLE1_KINDS = ("complete", "cycle", "line", "star")
TABLE1_SIZES = (10, 100, 1000, 10000)
TABLE1_PARAMS = dict(delta=0.01, b=5.0, w=1.0, gamma=1e-4, e_r=100.0)


@dataclass(frozen=True)
class ThresholdCell:
    kind: str
    n: int
    numeric: float
    closed_form: float

    @property
    def relative_deviation(self) -> float:
        return abs(self.closed_form - self.numeric) / self.numeric


def reproduce_table1(**overrides) -> list:
    """Minimum-epsilon thresholds for the four standard topologies at
    N in {10, 100, 1000, 10000}, with the published closed forms alongside.
    """
    prm = {**TABLE1_PARAMS, **overrides}
    cells = []
    for kind in TABLE1_KINDS:
        for n in TABLE1_SIZES:
            lam2 = graphs.topology_lambda2(kind, n, prm["w"])
            numeric = epsilon_threshold_numeric(
                lam2, gamma=prm["gamma"], delta=prm["delta"], b=prm["b"],
                n_agents=n, e_r=prm["e_r"])
            closed = epsilon_threshold_closed_form(
                kind, n, gamma=prm["gamma"], delta=prm["delta"], b=prm["b"],
                w=prm["w"], e_r=prm["e_r"])
            cells.append(ThresholdCell(kind, n, numeric, closed))
    return cells


def bound_surface(eps_values, lam2_values, *, n_agents: int, delta: float,
                  b: float, gamma: float) -> np.ndarray:
    """Grid of homogeneous bounds, shape (len(eps), len(lam2)).

    lambda2 is treated as a free parameter; values at or beyond 2/gamma are
    rejected because the bound's denominator changes sign there, and
    epsilon values must be positive.
    """
    eps = np.asarray(eps_values, dtype=float).reshape(-1, 1)
    lam2 = np.asarray(lam2_values, dtype=float).reshape(1, -1)
    return corollary1_bound(eps, lam2, n_agents=n_agents, gamma=gamma, b=b,
                            delta=delta)


@dataclass(frozen=True)
class BoundReport:
    """Everything we can say about e_ss for one configuration."""

    lemma7_lower: float
    lemma7_upper: float
    theorem1_upper: float
    corollary1_upper: float | None
    exact_ess: float


def bound_report(g: WeightedGraph, gamma: float, params) -> BoundReport:
    """Exact oracle value plus all bounds for a graph and privacy setup.

    params is one PrivacyParams or a sequence of N of them; when all N are
    equal the simplified homogeneous bound is reported too.
    """
    p = graphs.build_perron(g, gamma)
    plist = ([params] * g.n if isinstance(params, privacy.PrivacyParams)
             else list(params))
    sigmas = np.array([privacy.noise_scale(q) for q in plist])
    z_diag = dynamics.noise_covariance_diag(p, sigmas)
    lo, hi = lemma7_sandwich(p, z_diag)
    q = plist[0]
    c1 = (corollary1_bound(q.epsilon, graphs.algebraic_connectivity(g),
                           n_agents=g.n, gamma=gamma, b=q.b, delta=q.delta)
          if all(r == q for r in plist) else None)
    return BoundReport(lo, hi, _theorem1(p, plist), c1,
                       exact_ess_oracle(p, z_diag))
