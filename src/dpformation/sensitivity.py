"""Sensitivity of the steady-state-error bound to the privacy level and to
network connectivity.

Both partial derivatives of the homogeneous bound are evaluated in closed
form. The dominance verdict (is the bound more sensitive to lambda2 or to
epsilon?) is the direct comparison of the two evaluated partials; the
closed-form lambda2 cutoffs and the underlying quadratic are reported as
diagnostics alongside, since they need not agree everywhere.

Both partials are negative only for lambda2 < 1/gamma; the lambda2 partial
vanishes at lambda2 = 1/gamma and is positive beyond it, so dominance
verdicts are restricted to (0, 1/gamma).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds, privacy


@dataclass(frozen=True)
class SensitivityPoint:
    """One evaluation point of the homogeneous bound."""

    epsilon: float
    delta: float
    b: float
    gamma: float
    n_agents: int
    lambda2: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.lambda2 < 2.0 / self.gamma:
            raise ValueError("lambda2 must lie in (0, 2/gamma)")

    @property
    def k_delta(self) -> float:
        return privacy.q_inverse(self.delta)

    @property
    def bound(self) -> float:
        return bounds.corollary1_bound(
            self.epsilon, self.lambda2, n_agents=self.n_agents,
            gamma=self.gamma, b=self.b, delta=self.delta)

    @property
    def aux(self) -> float:
        """A = lambda_aux * r, with r = sqrt(K_delta^2 + 2*eps) and
        lambda_aux = K_delta + r; d(ln kappa)/d(eps) = 1/A - 1/eps."""
        k = self.k_delta
        r = math.sqrt(k * k + 2.0 * self.epsilon)
        return (k + r) * r


def partial_epsilon(pt: SensitivityPoint) -> float:
    """d(bound)/d(epsilon) at the point, in closed form: the bound is
    proportional to kappa^2, so this is 2 * bound * (1/A - 1/eps)."""
    return 2.0 * pt.bound * (1.0 / pt.aux - 1.0 / pt.epsilon)


def partial_lambda2(pt: SensitivityPoint) -> float:
    """d(bound)/d(lambda2) at the point, in closed form:
    bound * (gamma / (2 - gamma*lambda2) - 1/lambda2).

    Zero exactly at lambda2 = 1/gamma, the bound's minimizer in lambda2.
    """
    return pt.bound * (pt.gamma / (2.0 - pt.gamma * pt.lambda2)
                       - 1.0 / pt.lambda2)


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
    literally. Raises on a negative radicand.
    """
    k = privacy.q_inverse(delta)
    alpha = (epsilon**2 + 1.5 * epsilon * k**2 + 1.0 / gamma**2 + k**4 / 2.0)
    s = math.sqrt(2.0 * epsilon * k**2 + k**4)
    mid = (2.0 * epsilon * gamma + gamma * k**2 + 2.0) / (2.0 * gamma)
    eta1 = mid + 0.5 * s
    eta2 = mid - 0.5 * s
    rad = k**2 * (4.0 * epsilon**2 + 4.0 * epsilon * k**2 + k**4) / (2.0 * s)
    if alpha + rad < 0 or alpha - rad < 0:
        raise ValueError("negative radicand in cutoff expression")
    return CutoffReport(lower_cut=eta2 - math.sqrt(alpha - rad),
                        upper_cut=eta1 - math.sqrt(alpha + rad),
                        alpha=alpha, eta1=eta1, eta2=eta2)


def dominance_quadratic(pt: SensitivityPoint) -> float:
    """Quadratic in lambda2 whose negativity marks topology dominance.

    (eps*gamma/A - gamma)*lam2^2 + (2 + eps*gamma - 2*eps/A)*lam2 - eps,
    with A = lambda_aux * sqrt(K_delta^2 + 2*eps). Reported as a diagnostic
    next to the direct partial comparison.
    """
    a = pt.aux
    g, e, l2 = pt.gamma, pt.epsilon, pt.lambda2
    return ((e * g / a - g) * l2**2 + (2.0 + e * g - 2.0 * e / a) * l2 - e)


@dataclass(frozen=True)
class SensitivityReport:
    point: SensitivityPoint
    d_epsilon: float
    d_lambda2: float
    verdict: str                 # "topology_dominant" | "epsilon_dominant"
    quadratic: float
    quadratic_agrees: bool
    cutoffs: CutoffReport
    in_valid_region: bool        # lambda2 in (0, 1/gamma)


def sensitivity_compare(pt: SensitivityPoint) -> SensitivityReport:
    """Which lever moves the bound more at this point?

    The verdict compares the evaluated partials directly: topology dominates
    when d/d(lambda2) < d/d(epsilon) (both negative on the valid region).
    The quadratic diagnostic and the closed-form cutoffs are reported but do
    not influence the verdict.
    """
    de = partial_epsilon(pt)
    dl = partial_lambda2(pt)
    verdict = "topology_dominant" if dl < de else "epsilon_dominant"
    quad = dominance_quadratic(pt)
    return SensitivityReport(
        point=pt,
        d_epsilon=de,
        d_lambda2=dl,
        verdict=verdict,
        quadratic=quad,
        quadratic_agrees=(quad < 0) == (verdict == "topology_dominant"),
        cutoffs=theorem3_thresholds(pt.epsilon, pt.delta, pt.gamma),
        in_valid_region=0.0 < pt.lambda2 < 1.0 / pt.gamma,
    )
