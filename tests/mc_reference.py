"""Cross-checks for the Monte Carlo kernel and its estimator.

dynamics.run_trials works through the horizon in time blocks, each drawn
step-major from its tile's generator. whole_tensor_run_trials is the same
computation written the direct way: draw each tile's whole
(horizon, trials, N) noise in one call from dynamics.tile_rng, mix the
whole tensor, and reduce one step at a time with the same two
matrix-vector products with the vector of 1/N. With a stationary start
each tile first draws its trials' (trials, N) standard normals and starts
at xbar0 + F xi, as run_trials does. It needs 2 * 8 * horizon * trials * N
bytes, so it lives next to the tests, not in the library.

window_mean_variance is the exact second moment of what estimate_ess
averages, so the tests can check the spread of the simulated noise and not
only its mean.

check_interval_coverage checks estimate_ess's 95% interval against the
exact e_ss over many seeds, so that it fails by chance at a known rate.
"""
import math

import numpy as np

from dpformation.dynamics import (
    TILE_TRIALS,
    estimate_ess,
    noise_covariance,
    noise_gain,
    tile_rng,
)


def whole_tensor_run_trials(p, sigmas, horizon: int, trials: int,
                            master_seed, xbar0=None,
                            noise_model: str = "protocol",
                            stationary: bool = False) -> tuple:
    """run_trials' (e_agg, path) with the noise of every step
    materialized up front, on run_trials' tiles, one after the other."""
    n = p.n
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (n,))
    x0 = np.zeros(n) if xbar0 is None else np.asarray(xbar0, dtype=float)
    gain = noise_gain(p)
    # the network law: independent z_i of variance sum_j G_ij^2 sigma_j^2
    z_scale = np.sqrt(gain**2 @ sigmas**2)
    if stationary:
        # the deviation ~ N(0, S) with S = U_d M U_d^T in the deviation
        # modes; root is S's symmetric square root
        ud = p.graph.spectrum[1][:, 1:]
        modes = p.stationary_modes(noise_covariance(p, sigmas, noise_model))
        lam, u = np.linalg.eigh(ud @ modes @ ud.T)
        root = (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.T

    avg = np.full(n, 1.0 / n)

    def mean_square_error(x):
        dev = x - (x @ avg)[:, None]
        return (dev * dev) @ avg

    def run_tile(t_lo, t_hi):
        count = t_hi - t_lo
        rng = tile_rng(master_seed, t_lo // TILE_TRIALS)
        xi = rng.standard_normal((count, n)) if stationary else None
        v = rng.standard_normal((horizon, count, n))
        if noise_model == "protocol":
            z = (v * sigmas) @ gain  # gain is symmetric
        else:
            z = v * z_scale
        x = xi @ root + x0 if stationary else np.tile(x0, (count, 1))
        e_agg = np.empty((horizon + 1, count))
        traj = np.empty((horizon + 1, n)) if t_lo == 0 else None
        e_agg[0] = mean_square_error(x)
        if traj is not None:
            traj[0] = x[0]
        for k in range(horizon):
            x = x @ p.matrix + z[k]  # P is symmetric
            e_agg[k + 1] = mean_square_error(x)
            if traj is not None:
                traj[k + 1] = x[0]
        return e_agg, traj

    # run_trials' tiles: TILE_TRIALS trials each, a last lone trial
    # joining the tile before it; run_trials' jobs only sets how many
    # threads run them
    starts = list(range(0, max(1, trials - 1), TILE_TRIALS))
    tiles = zip(starts, starts[1:] + [trials])
    results = [run_tile(*tile) for tile in tiles]

    e_agg = np.concatenate([r[0] for r in results], axis=1)
    return e_agg, results[0][1]


def window_mean_variance(p, cov, window: int) -> float:
    """Variance of one stationary trial's squared error averaged over
    `window` consecutive steps, for Gaussian noise with the N x N
    Cov[z] = cov.

    In the eigenbasis of P, deviation modes i, j >= 2 have stationary
    covariance S_ij = (U^T C U)_ij / (1 - mu_i mu_j) and lag-tau covariance
    mu_j^tau S_ij, so by Isserlis Cov[e(k), e(k+tau)] =
    (2/N^2) sum_ij S_ij^2 mu_j^(2 tau), and the window mean has variance
    (2/(N^2 W^2)) sum_ij S_ij^2 [W + 2 sum_{tau<W} (W - tau) mu_j^(2 tau)].
    """
    c = np.asarray(cov, dtype=float)
    mu, u = np.linalg.eigh(p.matrix)
    mu, u = mu[:-1], u[:, :-1]  # drop the consensus mode, mu = 1
    s = (u.T @ c @ u) / (1.0 - np.outer(mu, mu))
    tau = np.arange(1, window)
    lag_sum = window + 2.0 * ((window - tau) * mu[:, None] ** (2 * tau)).sum(
        axis=1)
    n = p.n
    return float(2.0 / (n * n * window * window) * np.sum(s**2 * lag_sum))


# check_interval_coverage: master seeds 0 ... COVERAGE_SEEDS - 1, at most
# MAX_MISSES intervals that miss, and a pooled |z| of at most MAX_POOLED_Z
COVERAGE_SEEDS = 40
MAX_MISSES = 8
MAX_POOLED_Z = 3.5


def check_interval_coverage(p, sigmas, exact: float, trials: int) -> None:
    """Assert that estimate_ess's 95% intervals cover the exact e_ss on
    master seeds 0 ... 39, allowing the misses of a Bin(40, 0.05) count,
    and that the mean of the 40 estimates lies within 3.5 of its pooled
    standard errors of the exact value. The pooled standard error is that
    of 40 * trials trials, so at trials = 2000 the check resolves a bias of
    3.5 / sqrt(4) = 1.75 standard errors of one 20 000-trial run, finer
    than that run's own 95% interval. A correct estimator fails it with
    probability at most 1e-3, computed here."""
    # by the union bound, the chance that an estimator whose intervals each
    # cover with probability 0.95 and whose pooled z is standard normal
    # fails: P(Bin(40, 0.05) > 8) + P(|Z| > 3.5) = 1.3e-4 + 4.7e-4
    rate = sum(math.comb(COVERAGE_SEEDS, k) * 0.05**k
               * 0.95**(COVERAGE_SEEDS - k)
               for k in range(MAX_MISSES + 1, COVERAGE_SEEDS + 1))
    rate += math.erfc(MAX_POOLED_Z / math.sqrt(2.0))
    assert rate <= 1e-3, rate
    ests = [estimate_ess(p, sigmas, trials=trials, master_seed=seed)
            for seed in range(COVERAGE_SEEDS)]
    misses = sum(abs(e.value - exact) > e.half_width for e in ests)
    pooled_se = math.sqrt(sum((e.half_width / 1.96) ** 2 for e in ests))
    pooled_z = sum(e.value - exact for e in ests) / pooled_se
    assert misses <= MAX_MISSES, misses
    assert abs(pooled_z) <= MAX_POOLED_Z, pooled_z
