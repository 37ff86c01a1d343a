"""Gaussian mechanism for trajectory-valued differential privacy.

Noise-scale calibration reduces to the Gaussian tail function Q and its
inverse: an agent with leakage bound epsilon, failure probability delta,
and adjacency radius b needs noise scale sigma >= b * kappa(delta, epsilon)
where kappa(delta, epsilon) = (K + sqrt(K^2 + 2*epsilon)) / (2*epsilon)
and K = Q^{-1}(delta).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

TYPICAL_EPS_LO = 0.1
TYPICAL_EPS_HI = math.log(3.0)
TYPICAL_DELTA_MAX = 0.01


class PrivacyRangeWarning(UserWarning):
    """Parameters outside the customary ranges; still accepted."""


def q_function(y: float) -> float:
    """Standard normal upper-tail probability Q(y) = P[Z > y]."""
    return 0.5 * math.erfc(y / math.sqrt(2.0))


def q_inverse(delta: float) -> float:
    """Inverse of q_function on (0, 1/2): the K with Q(K) = delta.

    Q(y) = Phi(-y), so K = -Phi^{-1}(delta), evaluated by scipy's ndtri to
    about one ulp over the whole domain.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must be in (0, 1/2), got {delta}")
    return -float(ndtri(delta))


def kappa(delta: float, epsilon):
    """Noise-scale coefficient (K + sqrt(K^2 + 2*eps)) / (2*eps).

    Broadcasts over epsilon: a float for a scalar, an array otherwise. It
    maps eps in (0, inf) one-to-one onto (0, inf), with the exact inverse
    eps = (1 + 2*kappa*K) / (2*kappa^2).
    """
    eps = np.asarray(epsilon, dtype=float)
    if not np.all(eps > 0):
        raise ValueError("epsilon must be positive")
    k = q_inverse(delta)
    out = (k + np.sqrt(k * k + 2.0 * eps)) / (2.0 * eps)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PrivacyParams:
    """Per-agent privacy parameters (epsilon, delta, b)."""

    epsilon: float
    delta: float
    b: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must be in (0, 1/2)")
        if self.b <= 0:
            raise ValueError("adjacency radius b must be positive")
        if not TYPICAL_EPS_LO <= self.epsilon <= TYPICAL_EPS_HI:
            warnings.warn(
                f"epsilon={self.epsilon:.4g} outside the customary range "
                f"[{TYPICAL_EPS_LO}, ln 3]",
                PrivacyRangeWarning, stacklevel=2,
            )
        if self.delta > TYPICAL_DELTA_MAX:
            warnings.warn(
                f"delta={self.delta:.4g} above the customary maximum "
                f"{TYPICAL_DELTA_MAX}",
                PrivacyRangeWarning, stacklevel=2,
            )

    @property
    def k_delta(self) -> float:
        return q_inverse(self.delta)

    @property
    def kappa(self) -> float:
        return kappa(self.delta, self.epsilon)


def noise_scale(p: PrivacyParams) -> float:
    """Minimal sufficient Gaussian scale sigma = b * kappa(delta, epsilon)."""
    return p.b * p.kappa


def sample_noise(sigma: float, steps: int, rng_seed) -> np.ndarray:
    """i.i.d. zero-mean Gaussian draws with scale sigma, deterministic
    per seed.

    rng_seed is anything np.random.default_rng accepts (int, SeedSequence,
    or Generator).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(rng_seed)
    return rng.normal(0.0, sigma, size=steps)


def is_adjacent(v, w, b: float) -> bool:
    """Whether two equal-length trajectories are within l2 distance b."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"trajectory shapes differ: {v.shape} vs {w.shape}")
    if b <= 0:
        raise ValueError("adjacency radius b must be positive")
    return float(np.linalg.norm(v - w)) <= b
