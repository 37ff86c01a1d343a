"""Private formation-control dynamics and Monte Carlo steady-state-error
estimation.

The n-dimensional controller decomposes into n independent scalar runs, so
everything here works on scalar (per-dimension) state vectors. The shifted
state xbar = x - q evolves as xbar(k+1) = P xbar(k) + z(k), where
z_i(k) = gamma * sum_j w_ij * v_j(k) collects the neighbors' privacy noise.
The deviation from the moving consensus target is e(k) = xbar - mean(xbar).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import PerronMatrix


def noise_gain(p: PerronMatrix) -> np.ndarray:
    """gamma * A(G), the matrix mapping per-agent noise draws to the state
    perturbation z. Equals P with its diagonal removed."""
    return p.matrix - np.diag(np.diag(p.matrix))


def noise_covariance(p: PerronMatrix, sigmas, noise_model: str) -> np.ndarray:
    """N x N covariance of the state perturbation z that run_trials draws
    when agent j's privacy noise has scale sigma_j. With G = noise_gain(p):

    * "protocol": the node-level law exactly. Each agent j draws one noise
      value v_j(k) and every neighbor of j mixes it in, so z = G v and
      Cov[z] = G diag(sigma^2) G; the z_i of agents sharing a neighbor are
      correlated.
    * "network": the analytical model, z_i drawn independently with
      variance s_i^2 = gamma^2 * sum_j w_ij^2 sigma_j^2, so Cov[z] is
      diagonal. This is the process the Kemeny sandwich describes; the
      marginal variances match the protocol but cross-correlations are
      dropped.
    """
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (p.n,))
    gain = noise_gain(p)
    if noise_model == "protocol":
        return gain @ np.diag(sigmas**2) @ gain
    if noise_model == "network":
        return np.diag(gain**2 @ sigmas**2)
    raise ValueError(f"unknown noise_model {noise_model!r}")


def tile_rng(master_seed, tile: int) -> np.random.Generator:
    """The generator of run_trials' tile `tile`, which covers the trials
    from tile * TILE_TRIALS.

    numpy's default_rng on a SeedSequence with entropy (len(key),) + key,
    where key = (master_seed, tile) for an int master seed and
    key = (*master_seed, tile) for a sequence. The length prefix keeps
    (5, 0) and (5, 0, 0) apart: SeedSequence pads short entropy with zero
    words, so they would otherwise collide. Key entries must be
    non-negative.
    """
    if isinstance(master_seed, (int, np.integer)):
        key = (int(master_seed), tile)
    else:
        key = tuple(int(s) for s in master_seed) + (tile,)
    return np.random.default_rng(np.random.SeedSequence((len(key),) + key))


# time steps per block of run_trials, in noise draws per trial: a tile's
# generator fills a block in one call and its mixing and reductions take
# a few calls per block, so short blocks would be dominated by the call
# overhead; a block buffer takes 8 KiB per trial
BLOCK_DRAWS = 1024

# trials per tile of run_trials: each buffer of a tile takes
# TILE_TRIALS * BLOCK_DRAWS * 8 B = 2 MiB, and the tiles, not the worker
# threads, set which trials share a generator and a matrix product
TILE_TRIALS = 256


def _mean_square_error(states, dev, out) -> None:
    """out[j] = mean over agents of (states[j] - its mean)^2 for (rows,
    count, n) states, by two matrix-vector products with the vector of 1/n.
    The means wait in out; dev, which may be states, takes the deviations."""
    avg = np.full(states.shape[-1], 1.0 / states.shape[-1])
    np.matmul(states, avg, out=out)
    np.subtract(states, out[..., None], out=dev)
    np.square(dev, out=dev)
    np.matmul(dev, avg, out=out)


def _run_tile(t_lo, t_hi, state, noise, p, gain, scale, root, x0,
              master_seed, block, e_agg, traj) -> None:
    """Run the trials t_lo ... t_hi - 1 of run_trials' tile into their
    columns of e_agg, and trial 0 into traj, in a worker's flat state
    buffer and, for the protocol law (gain not None), noise buffer."""
    count, n = t_hi - t_lo, len(x0)
    rng = tile_rng(master_seed, t_lo // TILE_TRIALS)
    # x[0] carries the block's start; x[j + 1] takes step j's
    # perturbation, to which the recursion adds P x[j] from tmp
    rows = state[:(block + 2) * count * n].reshape(block + 2, count, n)
    x, tmp = rows[:-1], rows[-1]
    x[0] = x0
    if root is not None:
        rng.standard_normal(out=tmp)
        x[0] += tmp @ root  # root is symmetric
    _mean_square_error(x[:1], tmp[None], e_agg[:1, t_lo:t_hi])
    if t_lo == 0:
        traj[0] = x[0, 0]
    for k in range(1, len(e_agg), block):  # steps k ... k + b - 1
        b = min(block, len(e_agg) - k)
        # step-major, so the head is contiguous also for a short block
        v = (x[1:b + 1] if gain is None
             else noise[:b * count * n].reshape(b, count, n))
        rng.standard_normal(out=v)
        v *= scale
        if gain is not None:  # gain is symmetric
            np.matmul(v, gain, out=x[1:b + 1])
        for j in range(b):
            np.matmul(x[j], p.matrix, out=tmp)  # P is symmetric
            x[j + 1] += tmp
        if t_lo == 0:
            traj[k:k + b] = x[1:b + 1, 0]
        x[0] = x[b]
        _mean_square_error(x[1:b + 1], x[1:b + 1], e_agg[k:k + b, t_lo:t_hi])


def run_trials(p: PerronMatrix, sigmas, horizon: int, trials: int,
               master_seed, xbar0=None, jobs: int = 1,
               noise_model: str = "protocol",
               stationary: bool = False) -> tuple:
    """Simulate independent seeded trials of the private dynamics and
    return (e_agg, path): the (horizon + 1, trials) squared-error series of
    every trial and the (horizon + 1, N) xbar of trial 0, with rows for
    steps 0 ... horizon.

    Tile i holds the trials from i * TILE_TRIALS, a last lone trial joining
    the tile before it, and draws from one generator,
    tile_rng(master_seed, i). The tiles do not depend on jobs: jobs >= 1
    only caps the number of threads, at most one per tile, and thread w
    runs tiles w, w + threads, ... in one set of buffers. So every trial
    draws the same noise and is a row of the same matrix products whatever
    jobs is, and the results are the same bits.
    Each tile walks the horizon in time blocks of about BLOCK_DRAWS draws
    per trial, filling a step-major (steps, trials, N) block from its
    generator block after block; the draws, and so the results, are those
    of one (horizon, trials, N) draw per tile, so a shorter horizon is a
    prefix of a longer one. Memory stays O(horizon * trials) for the error
    series plus O(TILE_TRIALS * BLOCK_DRAWS) per thread.

    noise_model, "protocol" or "network", selects the law of the state
    perturbation z; noise_covariance gives each law's Cov[z]. The network
    law draws z straight into the state rows; only the protocol law holds a
    noise block, which one matrix product with noise_gain(p) mixes in.

    stationary=True adds to the start xbar0 a deviation drawn from its
    stationary law N(0, S), S = U_d M U_d^T with M = p.stationary_modes
    of Cov[z] and U_d the deviation eigenvectors: each tile first draws
    its trials' (trials, N) standard normals xi, before any noise, and a
    trial starts at xbar0 + F xi, with F the symmetric square root of S.
    With stationary=False it starts at xbar0 and draws nothing more.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    n = p.n
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (n,))
    x0 = np.zeros(n) if xbar0 is None else np.asarray(xbar0, dtype=float)
    cov = noise_covariance(p, sigmas, noise_model)
    # the scale of each draw: sigma_j for the protocol law, which mixes the
    # scaled draws through the gain, and the network law's z_i directly
    gain = noise_gain(p) if noise_model == "protocol" else None
    scale = sigmas if gain is not None else np.sqrt(np.diag(cov))
    root = None
    if stationary:
        # roundoff leaves the zero eigenvalues of S (the consensus mode, more
        # for sigma = 0 or a rank-deficient protocol gain) slightly negative
        ud = p.graph.spectrum[1][:, 1:]
        lam, u = np.linalg.eigh(ud @ p.stationary_modes(cov) @ ud.T)
        root = (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.T

    block = max(1, min(-(-BLOCK_DRAWS // n), horizon))
    # a one-trial tile would take numpy's matrix-vector product, whose
    # rounding differs from a row of a matrix-matrix product, so a last
    # lone trial joins the tile before it
    starts = list(range(0, max(1, trials - 1), TILE_TRIALS))
    tiles = list(zip(starts, starts[1:] + [trials]))
    workers = min(jobs, len(tiles))
    # per worker, sized for the largest tile: a flat state buffer (block + 1
    # state rows and tmp's row per trial) and, for the protocol law, a noise
    # buffer. They come before the results, so that once freed they leave a
    # hole the next run reuses, not a heap top that malloc hands back to the
    # system and the next run faults in again
    most = max(hi - lo for lo, hi in tiles) * n  # draws per step
    spaces = [(np.empty(most * (block + 2)),
               None if gain is None else np.empty(most * block))
              for _ in range(workers)]
    e_agg = np.empty((horizon + 1, trials))
    traj = np.empty((horizon + 1, n))

    def run_share(w):
        for tile in tiles[w::workers]:
            _run_tile(*tile, *spaces[w], p, gain, scale, root, x0,
                      master_seed, block, e_agg, traj)

    if workers == 1:
        run_share(0)
    else:
        # imported here: it loads logging, and one worker needs neither
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_share, range(workers)))
    return e_agg, traj


def averaging_window(p: PerronMatrix) -> int:
    """Averaging window W of a stationary Monte Carlo run: W =
    ceil(12.5 / (1 - rho)) steps, a quarter of 50 mixing times, with
    rho = max_{i>=2} |mu_i|.
    """
    # 1 - rho^2; with one agent there is no deviation mode and rho = 0
    gap = float(np.min(p.mode_gaps, initial=1.0))
    # 1 - rho without the cancellation of 1 - sqrt(1 - gap)
    return math.ceil(12.5 * (1.0 + math.sqrt(1.0 - gap)) / gap)


@dataclass(frozen=True)
class EssEstimate:
    value: float
    half_width: float
    horizon: int    # steps each trial simulates, the window W
    trials: int


def estimate_ess(p: PerronMatrix, sigmas, trials: int = 1000,
                 master_seed=0, jobs: int = 1) -> EssEstimate:
    """Monte Carlo estimate of the steady-state error.

    Runs the "network" noise model (independent z with the analytical
    variances), the process whose steady state the Kemeny sandwich and the
    exact oracle on its diagonal covariance characterize.

    Each trial starts in the stationary law (run_trials' stationary),
    runs W = averaging_window(p) steps and averages its squared-error
    series over steps 1 ... W; every step has expectation e_ss, so the
    estimate, the mean of these per-trial window means, is unbiased.
    Trials are i.i.d., so the half-width is a valid 95% normal interval
    from the spread of the per-trial window means.
    """
    window = averaging_window(p)
    e_agg, _ = run_trials(p, sigmas, window, trials, master_seed, jobs=jobs,
                          noise_model="network", stationary=True)
    # row 0 is the drawn start
    trial_means = e_agg[1:].mean(axis=0)
    value = float(trial_means.mean())
    if trials > 1:
        hw = 1.96 * float(np.std(trial_means, ddof=1)) / math.sqrt(trials)
    else:
        hw = float("inf") if value > 0 else 0.0
    return EssEstimate(value, hw, window, trials)
