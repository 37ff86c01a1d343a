"""Root-finding cross-checks for the closed-form design path.

q_inverse is -ndtri(delta) and epsilon_threshold_numeric inverts kappa in
closed form. Here both are found the slow way instead, by bracketed brentq
searches on the Gaussian tail q_function and on the homogeneous bound
itself, so that the closed forms are checked against an independent route
to the same numbers.
"""
import math

from scipy.optimize import brentq


def q_function(y: float) -> float:
    """Standard normal upper-tail probability Q(y) = P[Z > y]."""
    return 0.5 * math.erfc(y / math.sqrt(2.0))


def brentq_q_inverse(delta: float) -> float:
    """The K with Q(K) = delta, by bracketed search on [0, 40]."""
    return brentq(lambda y: q_function(y) - delta, 0.0, 40.0,
                  xtol=1e-14, rtol=8.9e-16)


def brentq_epsilon_threshold(lambda2: float, *, gamma: float, delta: float,
                             b: float, n_agents: int, e_r: float) -> float:
    """The eps with bound(eps) = e_r, by bracketed search on log eps in
    [1e-20, 1e20]; the bound is strictly decreasing in eps. The bound is
    written out here with K from brentq_q_inverse, not taken from the
    library."""
    k = brentq_q_inverse(delta)
    scale = (gamma * b**2 * (n_agents - 1) ** 2
             / (n_agents * lambda2 * (2.0 - gamma * lambda2)))

    def gap(log_eps):
        eps = math.exp(log_eps)
        kap = (k + math.sqrt(k * k + 2.0 * eps)) / (2.0 * eps)
        return scale * kap**2 - e_r

    return math.exp(brentq(gap, math.log(1e-20), math.log(1e20),
                           xtol=1e-13, rtol=8.9e-16))
