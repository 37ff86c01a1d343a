"""Sensitivity of the steady-state-error bound to the privacy level and to
network connectivity (Theorem 3).

Both partial derivatives of the homogeneous bound are evaluated in closed
form, and the dominance verdict (is the bound more sensitive to lambda2 or
to epsilon?) is their direct comparison. The exact lambda2 cutoff of that
comparison and the literal published cutoffs are reported beside it.

Both partials are negative only for lambda2 < 1/gamma; the lambda2 partial
vanishes at lambda2 = 1/gamma and is positive beyond it, so dominance
verdicts are restricted to (0, 1/gamma).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds, graphs, privacy


@dataclass(frozen=True)
class CutoffReport:
    lower_cut: float
    upper_cut: float
    alpha: float
    eta1: float
    eta2: float


def theorem3_thresholds(epsilon: float, delta: float,
                        gamma: float) -> CutoffReport:
    """Closed-form lambda2 cutoffs for topology-dominant sensitivity.

    Evaluates the published alpha, eta1, eta2 and the two cutoffs
    lambda2 > eta1 - sqrt(rad + alpha) and lambda2 < eta2 - sqrt(-rad + alpha)
    literally. Raises on a negative radicand, and NumericalError naming
    the inputs where a float cannot hold a term (epsilon^2, 1/gamma^2).
    """
    graphs.check_positive(gamma, "gamma")
    graphs.check_positive(epsilon, "epsilon")
    k = privacy.q_inverse(delta)
    try:
        alpha = (epsilon**2 + 1.5 * epsilon * k**2 + 1.0 / gamma**2
                 + k**4 / 2.0)
        s = math.sqrt(2.0 * epsilon * k**2 + k**4)
        mid = (2.0 * epsilon * gamma + gamma * k**2 + 2.0) / (2.0 * gamma)
        rad = k**2 * (4.0 * epsilon**2 + 4.0 * epsilon * k**2 + k**4) / (
            2.0 * s)
    except ArithmeticError:  # an overflowing ** or a zero gamma**2
        alpha = mid = rad = s = math.nan
    eta1 = mid + 0.5 * s
    eta2 = mid - 0.5 * s
    graphs.check_finite([alpha, eta1, eta2, rad], "the Theorem-3 cutoffs",
                        epsilon=epsilon, delta=delta, gamma=gamma)
    if alpha + rad < 0 or alpha - rad < 0:
        raise ValueError("negative radicand in cutoff expression")
    return CutoffReport(lower_cut=eta2 - math.sqrt(alpha - rad),
                        upper_cut=eta1 - math.sqrt(alpha + rad),
                        alpha=alpha, eta1=eta1, eta2=eta2)


@dataclass(frozen=True)
class SensitivityReport:
    d_epsilon: float
    d_lambda2: float
    verdict: str                 # "topology_dominant" | "epsilon_dominant"
    exact_cutoff: float          # topology dominates iff lambda2 < this
    cutoffs: CutoffReport        # the literal published ones
    in_valid_region: bool        # lambda2 in (0, 1/gamma)


def sensitivity_compare(epsilon: float, lambda2: float, *, n_agents: int,
                        gamma: float, b: float,
                        delta: float) -> SensitivityReport:
    """Which lever moves the bound B more at this point?

    With K = Q^-1(delta), r = sqrt(K^2 + 2 eps) and A = (K + r) r,
    d(B)/d(eps) = 2B (1/A - 1/eps) and
    d(B)/d(lambda2) = B (gamma / (2 - gamma lambda2) - 1/lambda2).
    The verdict compares them directly: topology dominates when
    d/d(lambda2) < d/d(eps) (both negative on the valid region).

    Times lambda2 (2 - gamma lambda2) / (2B) > 0, d/d(lambda2) - d/d(eps)
    is -f(lambda2), f(x) = u gamma x^2 - (gamma + 2u) x + 1 with
    u = 1/eps - 1/A > 0 (A > r^2 > 2 eps). f is 1 at 0, -u/gamma at
    1/gamma and -1 at 2/gamma, so its one root in (0, 2/gamma) lies in
    (0, 1/gamma), and topology dominates iff lambda2 is below it:
    2 / (gamma + 2u + sqrt(gamma^2 + 4u^2)), a sum of positive terms.

    Raises NumericalError naming the inputs where a float cannot hold the
    bound, a partial, the cutoff or a published cutoff term.
    """
    bound = bounds.corollary1_bound(epsilon, lambda2, n_agents=n_agents,
                                    gamma=gamma, b=b, delta=delta)
    k = privacy.q_inverse(delta)
    r = math.sqrt(k * k + 2.0 * epsilon)
    aux = (k + r) * r
    de = 2.0 * bound * (1.0 / aux - 1.0 / epsilon)
    dl = bound * (gamma / (2.0 - gamma * lambda2) - 1.0 / lambda2)
    u = 1.0 / epsilon - 1.0 / aux
    cutoff = 2.0 / (gamma + 2.0 * u + math.hypot(gamma, 2.0 * u))
    graphs.check_finite([de, dl, cutoff], "the sensitivity report",
                        epsilon=epsilon, lambda2=lambda2, n_agents=n_agents,
                        gamma=gamma, b=b, delta=delta)
    return SensitivityReport(
        d_epsilon=de,
        d_lambda2=dl,
        verdict="topology_dominant" if dl < de else "epsilon_dominant",
        exact_cutoff=cutoff,
        cutoffs=theorem3_thresholds(epsilon, delta, gamma),
        in_valid_region=0.0 < lambda2 < 1.0 / gamma,
    )
