"""Cross-checks for the Monte Carlo kernel and its estimator.

dynamics.run_trials works through the horizon in time blocks from
persistent per-trial generators. whole_tensor_run_trials is the same
computation written the direct way: draw each trial's whole (horizon, N)
noise at once, mix the full (horizon, trials, N) tensor, and reduce one
step at a time. It needs 2 * 8 * horizon * trials * N bytes, so it lives
next to the tests, not in the library.

trial_rng seeds one trial through numpy's own SeedSequence, the keying
that dynamics.trial_rngs reproduces with batched uint32 arithmetic.

window_mean_variance is the exact second moment of what estimate_ess
averages, so the tests can check the spread of the simulated noise and not
only its mean.
"""
import numpy as np

from dpformation.dynamics import TILE_TRIALS, TrialEnsemble, noise_gain


def trial_rng(master_seed, trial: int) -> np.random.Generator:
    """Independent generator for one trial, derived from the master seed."""
    if isinstance(master_seed, (int, np.integer)):
        key = (int(master_seed), trial)
    else:
        key = tuple(int(s) for s in master_seed) + (trial,)
    # length prefix: SeedSequence entropy ignores trailing zero words, so
    # (5, 0) and (5, 0, 0) would otherwise collide
    return np.random.default_rng(np.random.SeedSequence((len(key),) + key))


def whole_tensor_run_trials(p, sigmas, horizon: int, trials: int,
                            master_seed, xbar0=None,
                            noise_model: str = "protocol") -> TrialEnsemble:
    """run_trials with the noise of every step materialized up front,
    on run_trials' tiles, one after the other."""
    n = p.n
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (n,))
    x0 = np.zeros(n) if xbar0 is None else np.asarray(xbar0, dtype=float)
    gain = noise_gain(p)
    # the network law: independent z_i of variance sum_j G_ij^2 sigma_j^2
    z_scale = np.sqrt(gain**2 @ sigmas**2)

    def run_tile(t_lo, t_hi):
        count = t_hi - t_lo
        v = np.empty((horizon, count, n))
        for t in range(t_lo, t_hi):
            v[:, t - t_lo, :] = trial_rng(master_seed, t).standard_normal(
                (horizon, n))
        if noise_model == "protocol":
            z = (v * sigmas) @ gain  # gain is symmetric
        else:
            z = v * z_scale
        x = np.tile(x0, (count, 1))
        e_agg = np.empty((horizon + 1, count))
        traj = np.empty((horizon + 1, n)) if t_lo == 0 else None
        dev = x - x.mean(axis=1, keepdims=True)
        e_agg[0] = np.mean(dev**2, axis=1)
        if traj is not None:
            traj[0] = x[0]
        for k in range(horizon):
            x = x @ p.matrix + z[k]  # P is symmetric
            dev = x - x.mean(axis=1, keepdims=True)
            e_agg[k + 1] = np.mean(dev**2, axis=1)
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
    return TrialEnsemble(e_agg, results[0][1])


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
