"""Gaussian mechanism for trajectory-valued differential privacy.

Noise-scale calibration reduces to the Gaussian tail function Q and its
inverse: an agent with leakage bound epsilon, failure probability delta,
and adjacency radius b needs noise scale sigma >= b * kappa(delta, epsilon)
where kappa(delta, epsilon) = (K + sqrt(K^2 + 2*epsilon)) / (2*epsilon)
and K = Q^{-1}(delta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import graphs

TYPICAL_EPS_LO = 0.1
TYPICAL_EPS_HI = math.log(3.0)
TYPICAL_DELTA_MAX = 0.01


class PrivacyRangeWarning(UserWarning):
    """Parameters outside the customary ranges; still accepted."""


def range_notes(epsilon: float, delta: float) -> list[str]:
    """The texts of the PrivacyRangeWarnings that (epsilon, delta) earns:
    one for an epsilon outside [0.1, ln 3], one for a delta above 0.01.
    Empty for customary values; config issues them where it reads a
    privacy entry, and PrivacyParams itself never warns."""
    notes = []
    for name, value, lo, hi, where in (
            ("epsilon", epsilon, TYPICAL_EPS_LO, TYPICAL_EPS_HI,
             f"outside the customary range [{TYPICAL_EPS_LO}, ln 3]"),
            ("delta", delta, -math.inf, TYPICAL_DELTA_MAX,
             f"above the customary maximum {TYPICAL_DELTA_MAX}")):
        if not lo <= value <= hi:
            text = f"{value:.4g}"  # unless it reads as inside the range
            if lo <= float(text) <= hi:
                text = repr(float(value))
            notes.append(f"{name}={text} {where}")
    return notes


# Cephes ndtri (S. L. Moshier), as shipped in scipy.special: rational
# approximations in y - 1/2 on the central interval and in 1/z, with
# z = sqrt(-2 ln y), on the tail; coefficients verbatim, each polynomial
# listed from the highest power down. The Q tables start with the leading
# 1 that Cephes leaves implicit (its p1evl); 1 * x is exact, so one Horner
# loop gives p1evl's bits.
_EXP_M2 = 0.13533528323661269189        # exp(-2), the central/tail split
_S2PI = 2.50662827463100050242E0        # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# 2 <= z < 8, i.e. delta down to exp(-32) = 1.27e-14
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# z >= 8, down to the smallest subnormal
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation of sum coef[i] x^(n-i), as Cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def q_inverse(delta: float) -> float:
    """Inverse of the Gaussian tail Q(y) = P[Z > y] on (0, 1/2): the K
    with Q(K) = delta.

    Q(y) = Phi(-y), so K = -Phi^{-1}(delta). Evaluated by the Cephes ndtri
    algorithm in the same operation order as scipy.special.ndtri, so
    K = -ndtri(delta) bit for bit, to about one ulp over the whole domain.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must be in (0, 1/2), got {delta}")
    if delta > _EXP_M2:
        y = delta - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return -(x * _S2PI)
    z = math.sqrt(-2.0 * math.log(delta))
    x0 = z - math.log(z) / z
    r = 1.0 / z
    if z < 8.0:
        x1 = r * _polevl(r, _P1) / _polevl(r, _Q1)
    else:
        x1 = r * _polevl(r, _P2) / _polevl(r, _Q2)
    return x0 - x1


def kappa(delta: float, epsilon):
    """Noise-scale coefficient (K + sqrt(K^2 + 2*eps)) / (2*eps).

    Broadcasts over epsilon: a float for a scalar, an array otherwise. It
    maps eps in (0, inf) one-to-one onto (0, inf), with the exact inverse
    eps = (1 + 2*kappa*K) / (2*kappa^2).
    """
    eps = np.asarray(epsilon, dtype=float)
    if not np.all((eps > 0) & np.isfinite(eps)):
        raise ValueError("epsilon must be positive and finite")
    k = q_inverse(delta)
    # inf for a subnormal eps; the bounds' check_finite names it
    with np.errstate(over="ignore"):
        out = (k + np.sqrt(k * k + 2.0 * eps)) / (2.0 * eps)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PrivacyParams:
    """Per-agent privacy parameters (epsilon, delta, b)."""

    epsilon: float
    delta: float
    b: float

    def __post_init__(self):
        self.kappa  # checks epsilon and delta, and caches kappa
        graphs.check_positive(self.b, "adjacency radius b")

    @cached_property
    def kappa(self) -> float:
        return kappa(self.delta, self.epsilon)


def noise_scale(p: PrivacyParams) -> float:
    """Minimal sufficient Gaussian scale sigma = b * kappa(delta, epsilon)."""
    return p.b * p.kappa
