"""Iterative cross-check for the closed-form exact_ess_oracle.

With Q the projector removing the network mean, the deviation e = Q xbar
has covariance S(k+1) = (QPQ) S(k) (QPQ) + Q Z Q. The spectral radius of
QPQ is 1 - gamma*lambda2 < 1, so the iteration converges; the result is
trace(S_inf) / N. Each step costs O(N^3) and slow-mixing chains need up to
1e6 steps, so this lives next to the tests, not in the library.
"""
import math

import numpy as np

from dpformation import NumericalError


def iterative_ess_oracle(p, cov) -> float:
    """cov is the N x N matrix Cov[z]."""
    n = p.n
    z = np.asarray(cov, dtype=float)
    q = np.eye(n) - np.full((n, n), 1.0 / n)
    qpq = q @ p.matrix @ q
    qzq = q @ z @ q
    s = np.zeros((n, n))
    prev_trace = 0.0
    for _ in range(10**6):
        s = qpq @ s @ qpq + qzq
        tr = float(np.trace(s))
        if abs(tr - prev_trace) <= 1e-13 * max(tr, 1e-300):
            return tr / n
        if not math.isfinite(tr):
            break
        prev_trace = tr
    raise NumericalError(
        "covariance iteration did not converge; step-size conditions "
        "are likely violated"
    )
