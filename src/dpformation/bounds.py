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
from .graphs import PerronMatrix


def exact_ess_oracle(p: PerronMatrix, cov) -> float:
    """Exact steady-state error of xbar(k+1) = P xbar(k) + z(k).

    cov is the N x N matrix C = Cov[z] (dynamics.noise_covariance).
    Deviation mode i >= 2 settles at the variance M_ii of
    p.stationary_modes(C), so e_ss = trace(M) / N. Where floats cannot
    hold it, NumericalError names the largest variance in C.
    """
    c = np.asarray(cov, dtype=float)
    if c.shape != (p.n, p.n):
        raise ValueError(f"Cov[z] must be {p.n} x {p.n}, got shape {c.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        ess = float(np.trace(p.stationary_modes(c)) / p.n)
    graphs.check_finite(ess, "the exact e_ss", n_agents=p.n, gamma=p.gamma,
                        max_variance=c.diagonal().max())
    return ess


def lemma7_sandwich(p: PerronMatrix, z_diag) -> tuple:
    """Kemeny sandwich on e_ss for i.i.d. diagonal noise.

    Returns (min_i s_i^2 pi_i, max_i s_i^2 pi_i) scaled by the Kemeny
    constant of the two-step chain P^2, sum_{i>=2} 1 / (1 - mu_i^2). P is
    doubly stochastic, so its stationary distribution is pi_i = 1/N.
    """
    z_diag = np.broadcast_to(np.asarray(z_diag, dtype=float), (p.n,))
    k2 = float(np.sum(1.0 / p.mode_gaps))
    weighted = z_diag * (1.0 / p.n)
    return float(weighted.min() * k2), float(weighted.max() * k2)


def _prefactor(n_agents: int, gamma: float, lambda2):
    """C = gamma (N-1)^2 / (N lambda2 (2 - gamma lambda2)); every bound is
    C * b^2 * kappa^2, for N >= 2 agents and a positive finite gamma.
    Broadcasts over lambda2, which must lie in (0, 2/gamma), where the
    denominator is positive. The one check of N and lambda2."""
    if n_agents < 2:
        raise ValueError(f"need at least 2 agents, got {n_agents}")
    graphs.check_float_agents(n_agents)
    graphs.check_positive(gamma, "gamma")
    lam2 = np.asarray(lambda2, dtype=float)
    ok = (lam2 > 0) & (lam2 < 2.0 / gamma)
    if not np.all(ok):
        raise ValueError(f"lambda2 must lie in (0, 2/gamma) = "
                         f"(0, {2.0 / gamma}), got {lam2[~ok].flat[0]}")
    return (gamma * (n_agents - 1) ** 2
            / (n_agents * lam2 * (2.0 - gamma * lam2)))


def corollary1_bound(epsilon, lambda2, *, n_agents: int, gamma: float,
                     b: float, delta: float):
    """Homogeneous upper bound on e_ss as a function of free parameters.

    gamma * kappa^2 * b^2 * (N-1)^2 / (N * lambda2 * (2 - gamma*lambda2)).
    Broadcasts over epsilon and lambda2: a float for scalars.
    """
    graphs.check_positive(b, "adjacency radius b")
    kap = privacy.kappa(delta, epsilon)
    with np.errstate(over="ignore"):  # check_finite names an overflow
        out = _prefactor(n_agents, gamma, lambda2) * (b * b * (kap * kap))
    graphs.check_finite(out, "the bound", epsilon=epsilon, lambda2=lambda2,
                        n_agents=n_agents, gamma=gamma, b=b, delta=delta)
    return out if out.ndim else float(out)


def theorem1_bound(p: PerronMatrix, params) -> float:
    """Heterogeneous upper bound on e_ss.

    gamma * (N-1)^2 * max_i kappa_i^2 b_i^2 / (N lambda2 (2 - gamma lambda2)),
    that is corollary1_bound at the agent with the largest b^2 kappa^2.
    params is a sequence of N PrivacyParams, one per agent. Where floats
    cannot hold the bound, NumericalError names that agent's parameters.
    """
    if len(params) != p.n:
        raise ValueError(f"{len(params)} privacy entries for {p.n} agents")
    q = max(params, key=lambda q: q.b * q.b * (q.kappa * q.kappa))
    return corollary1_bound(q.epsilon, graphs.algebraic_connectivity(p.graph),
                            n_agents=p.n, gamma=p.gamma, b=q.b,
                            delta=q.delta)


def epsilon_threshold_numeric(lambda2: float, *, gamma: float, delta: float,
                              b: float, n_agents: int, e_r: float) -> float:
    """Smallest epsilon whose homogeneous bound certifies e_ss <= e_r.

    The bound C * b^2 * kappa(eps)^2 is strictly decreasing in eps and
    meets e_r at kappa* = sqrt(e_r / (b^2 C)); inverting
    K + sqrt(K^2 + 2 eps) = 2 eps kappa gives the exact threshold
    eps* = (1 + 2 kappa* K) / (2 kappa*^2), positive for every finite
    e_r > 0 in exact arithmetic. Where floats cannot hold kappa*^2 or
    eps*, NumericalError names the inputs.
    """
    graphs.check_positive(e_r, "e_r")
    graphs.check_positive(b, "adjacency radius b")
    k = privacy.q_inverse(delta)
    # a Python float: a zero divisor raises, an overflow is inf unwarned
    c = float(_prefactor(n_agents, gamma, lambda2))
    try:
        kap = math.sqrt(e_r / (b * b * c))
        eps = (1.0 + 2.0 * kap * k) / (2.0 * kap * kap)
    except ZeroDivisionError:  # b * b * c or kap * kap underflowed to 0
        eps = math.nan
    # kap * kap overflowing to inf leaves eps = 0, no threshold either
    graphs.check_finite(eps if eps > 0 else math.nan, "the minimum epsilon",
                        lambda2=lambda2, gamma=gamma, delta=delta, b=b,
                        n_agents=n_agents, e_r=e_r)
    return eps


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
    graphs.check_positive(b, "adjacency radius b")
    graphs.check_positive(gamma, "gamma")
    graphs.check_positive(e_r, "e_r")
    k = privacy.q_inverse(delta)
    if kind not in ("impossibility", *graphs.TOPOLOGY_KINDS):
        raise ValueError(f"unknown threshold kind {kind!r}")
    if kind == "impossibility":
        if lambda2 is None:
            raise ValueError("impossibility form requires lambda2")
    else:
        graphs.check_positive(w, "w")
    try:
        if kind == "impossibility":
            z1 = gamma * (n - 1) ** 2 / (2.0 - gamma * lambda2)
            eps = (2.0 * b * z1 / (n * e_r * lambda2)) * (
                b + e_r * k * lambda2 * n / math.sqrt(e_r * z1 * lambda2 * n))
        elif kind == "complete":
            eps = (2.0 * b * gamma * (n - 1) ** 2
                   / (n**2 * e_r * w * (2.0 - gamma * w * n))) * (
                b + e_r * k * w * n * math.sqrt(2.0 - gamma * w * n)
                / ((n - 1) * math.sqrt(e_r * gamma * w)))
        elif kind in ("cycle", "line"):
            # lambda2 = 2 w c: c = 1 - cos(2 pi / n) for the cycle and
            # 1 - cos(pi / n) for the line; the paper's z2 and z3
            c = 1.0 - math.cos((2.0 if kind == "cycle" else 1.0) * math.pi / n)
            z = (n - 1) ** 2 * gamma / (1.0 - gamma * w * c)
            eps = (b * z / (n * e_r * 2.0 * w * c)
                   + k / math.sqrt(z * e_r * w * c * n))
        else:
            eps = (2.0 * b * gamma * (n - 1) ** 2
                   / (n * e_r * w * (2.0 - gamma * w))) * (
                b + e_r * k * w * n * math.sqrt(2.0 - gamma * w)
                / ((n - 1) * math.sqrt(e_r * gamma * w * n)))
    except ArithmeticError:  # a division by zero or an int overflow
        eps = math.nan
    graphs.check_finite(eps, f"the published {kind} threshold", n=n,
                        gamma=gamma, delta=delta, b=b, w=w, e_r=e_r)
    return eps


TABLE1_SIZES = (10, 100, 1000, 10000)
TABLE1_PARAMS = dict(delta=0.01, b=5.0, w=1.0, gamma=1e-4, e_r=100.0)


@dataclass(frozen=True)
class ThresholdCell:
    kind: str
    n: int
    lambda2: float
    numeric: float
    closed_form: float

    @property
    def relative_deviation(self) -> float:
        return abs(self.closed_form - self.numeric) / self.numeric


def threshold_cell(kind: str, n: int, *, delta: float, b: float, w: float,
                   gamma: float, e_r: float) -> ThresholdCell:
    """Minimum epsilon for the named uniform-weight topology on n agents,
    with its closed-form lambda2 and the published closed form alongside."""
    lam2 = graphs.topology_lambda2(kind, n, w)
    numeric = epsilon_threshold_numeric(lam2, gamma=gamma, delta=delta, b=b,
                                        n_agents=n, e_r=e_r)
    closed = epsilon_threshold_closed_form(kind, n, gamma=gamma, delta=delta,
                                           b=b, w=w, e_r=e_r)
    return ThresholdCell(kind, n, lam2, numeric, closed)


def reproduce_table1(**overrides) -> list:
    """Minimum-epsilon thresholds for the four standard topologies at
    N in {10, 100, 1000, 10000}, with the published closed forms alongside.
    """
    prm = {**TABLE1_PARAMS, **overrides}
    return [threshold_cell(kind, n, **prm)
            for kind in graphs.TOPOLOGY_KINDS for n in TABLE1_SIZES]


@dataclass(frozen=True)
class BoundReport:
    """Everything we can say about e_ss for one configuration."""

    lemma7_lower: float
    lemma7_upper: float
    theorem1_upper: float
    exact_ess: float


def bound_report(p: PerronMatrix, params) -> BoundReport:
    """Exact oracle value plus all bounds for a transition matrix and
    privacy setup, under the "network" noise model the sandwich describes.

    params is a sequence of N PrivacyParams, one per agent; when all N are
    equal, theorem1_upper is the homogeneous corollary1_bound.
    """
    upper = theorem1_bound(p, params)  # checks there are N params
    sigmas = np.array([privacy.noise_scale(q) for q in params])
    cov = dynamics.noise_covariance(p, sigmas, "network")
    lo, hi = lemma7_sandwich(p, np.diag(cov))
    return BoundReport(lo, hi, upper, exact_ess_oracle(p, cov))
