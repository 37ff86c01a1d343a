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
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hash constants and pool size
# (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = 0xFFFFFFFF


def _uint32_words(i: int) -> list:
    """Little-endian 32-bit words of a non-negative int, [0] for 0, as
    SeedSequence reads an entropy entry."""
    if i < 0:
        raise ValueError(f"seed key entries must be non-negative, got {i}")
    words = [i & _M32]
    while i > _M32:
        i >>= 32
        words.append(i & _M32)
    return words


class _PcgSeed(ISeedSequence):
    """One trial's precomputed SeedSequence.generate_state(4, uint64),
    handed to PCG64 through numpy's ISeedSequence interface."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("_PcgSeed only seeds PCG64")
        return self.state


def trial_rngs(master_seed, t_lo: int, t_hi: int) -> list:
    """Independent generators for trials t_lo ... t_hi - 1.

    Trial t gets the generator numpy's default_rng builds from a
    SeedSequence with entropy (len(key),) + key, where
    key = (master_seed, t) for an int master seed and
    key = (*master_seed, t) for a sequence. The length prefix keeps
    (5, 0) and (5, 0, 0) apart: SeedSequence pads short entropy with
    zero words, so they would otherwise collide.

    All trials share the key's leading words and differ in the last one,
    so SeedSequence's pool mixing and generate_state run here once as
    uint32 array operations over the trials; the hash constants advance
    independently of the data. The generators draw exactly what numpy's
    own SeedSequence would give them.
    """
    if not 0 <= t_lo <= t_hi <= 2**32:
        raise ValueError(
            f"trial range [{t_lo}, {t_hi}) must lie in [0, 2**32)")
    if isinstance(master_seed, (int, np.integer)):
        key = (int(master_seed),)
    else:
        key = tuple(int(s) for s in master_seed)
    prefix = [w for i in (len(key) + 1,) + key for w in _uint32_words(i)]
    count = t_hi - t_lo
    entropy = np.empty((len(prefix) + 1, count), dtype=np.uint32)
    entropy[:-1] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(t_lo, t_hi, dtype=np.uint64)  # one word each

    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _M32
        value *= np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> np.uint32(16))

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    # generate_state(4, uint64): 8 words cycling through the pool, paired
    # little-endian into uint64
    hash_b = _INIT_B
    words = []
    for i in range(8):
        w = pool[i % _POOL] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _M32
        w *= np.uint32(hash_b)
        words.append(w ^ (w >> np.uint32(16)))
    low = np.stack(words[0::2], axis=1).astype(np.uint64)
    high = np.stack(words[1::2], axis=1).astype(np.uint64)
    state = high << np.uint64(32) | low
    return [np.random.Generator(np.random.PCG64(_PcgSeed(row)))
            for row in state]


# noise draws per trial per time block of run_trials: a block buffer takes
# 8 KiB per trial, and a trial's generator is called once per block, so
# short blocks would be dominated by the call overhead
BLOCK_DRAWS = 1024

# trials per tile of run_trials: a tile's noise and state buffers take
# TILE_TRIALS * BLOCK_DRAWS * 8 B = 2 MiB each, and the tiles, not the
# worker threads, set which trials share a matrix product
TILE_TRIALS = 256


def _agent_sum(y: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """out = the sum of y over axis 1, for y of shape (rows, m, cols).

    Adds whole (rows, cols) slabs in the order in which numpy's pairwise
    summation adds a contiguous run of m values, so out equals np.sum over
    a copy of y with axis 1 innermost, bit for bit, except that a column of
    negative zeros sums to -0.0 rather than 0.0. As in numpy: below 8
    terms one after the other; up to 128, eight accumulators r_k over the
    terms k, k+8, ..., combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    followed by the remainder; above 128, the sum of two halves split at a
    multiple of 8. spare is a flat buffer of at least y.size floats and is
    overwritten.
    """
    rows, m, cols = y.shape
    if m < 8:
        np.copyto(out, y[:, 0])
        for i in range(1, m):
            out += y[:, i]
        return
    if m > 128:
        half = m // 2 - m // 2 % 8
        _agent_sum(y[:, :half], out, spare)
        rest = spare[:out.size].reshape(out.shape)
        _agent_sum(y[:, half:], rest, spare[out.size:])
        out += rest
        return
    tail = m - m % 8
    r = spare[:rows * 8 * cols].reshape(rows, 8, cols)
    # pair sums r0+r1, r2+r3, r4+r5, r6+r7 into the even accumulators
    if m < 16:
        np.add(y[:, 0:8:2], y[:, 1:8:2], out=r[:, 0::2])
    else:
        np.add(y[:, :8], y[:, 8:16], out=r)
        for lo in range(16, tail, 8):
            r += y[:, lo:lo + 8]
        r[:, 0::2] += r[:, 1::2]
    r[:, 0::4] += r[:, 2::4]
    np.add(r[:, 0], r[:, 4], out=out)
    for i in range(tail, m):
        out += y[:, i]


@dataclass(frozen=True)
class TrialEnsemble:
    """Per-trial error series of a Monte Carlo run; the trial average and
    its standard error are derived from them on first use."""

    # the rows are steps 0 ... horizon of run_trials
    e_agg_trials: np.ndarray    # (rows, trials) per-trial series
    first_trajectory: np.ndarray  # (rows, N) xbar of trial 0

    @cached_property
    def e_agg_mean(self) -> np.ndarray:
        """(rows,) averaged across trials."""
        return self.e_agg_trials.mean(axis=1)

    @cached_property
    def e_agg_sem(self) -> np.ndarray:
        """Standard error of the mean, per step; zeros for a single
        trial."""
        rows, trials = self.e_agg_trials.shape
        if trials == 1:
            return np.zeros(rows)
        return self.e_agg_trials.std(axis=1, ddof=1) / math.sqrt(trials)


def run_trials(p: PerronMatrix, sigmas, horizon: int, trials: int,
               master_seed, xbar0=None, jobs: int = 1,
               noise_model: str = "protocol",
               stationary: bool = False) -> TrialEnsemble:
    """Simulate independent seeded trials of the private dynamics.

    Trial t draws its noise from a generator keyed by (master_seed, t)
    (trial_rngs). The trials are split into tiles of TILE_TRIALS, a last
    lone trial joining the tile before it, and the tiles do not depend on
    jobs: jobs >= 1 only caps the number of threads, at most one per tile,
    and thread w runs tiles w, w + threads, ... in one set of buffers. So
    every trial is a row of the same matrix products whatever jobs is, and
    the results are the same bits.
    Each tile walks the horizon in time blocks of about BLOCK_DRAWS draws
    per trial, refilling its buffers from the same generators block after
    block; the draws, and so the results, are those of one whole-horizon
    draw per trial, while memory stays O(horizon * trials) for the error
    series plus O(TILE_TRIALS * BLOCK_DRAWS) per thread.

    noise_model, "protocol" or "network", selects the law of the state
    perturbation z; noise_covariance gives each law's Cov[z].

    stationary=True adds to the start xbar0 a deviation drawn from its
    stationary law N(0, S), S = U_d M U_d^T with M = p.stationary_modes
    of Cov[z] and U_d the deviation eigenvectors: each trial first
    draws N standard normals xi from its generator, before any noise, and
    starts at xbar0 + F xi, with F the symmetric square root of S. With
    stationary=False it starts at xbar0 and draws nothing more. Either
    way the squared-error series, its mean and standard error, and
    first_trajectory cover steps 0 ... horizon.
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
    gain = noise_gain(p)
    cov = noise_covariance(p, sigmas, noise_model)
    # the scale of each draw: sigma_j for the protocol law, which mixes the
    # scaled draws through the gain, and the network law's z_i directly
    scale = sigmas if noise_model == "protocol" else np.sqrt(np.diag(cov))
    if stationary:
        # roundoff leaves the zero eigenvalues of S (the consensus mode, and
        # more for sigma = 0 or a protocol law with a rank-deficient gain)
        # slightly negative
        ud = p.graph.spectrum[1][:, 1:]
        lam, u = np.linalg.eigh(ud @ p.stationary_modes(cov) @ ud.T)
        root = (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.T

    block = max(1, min(-(-BLOCK_DRAWS // n), horizon))
    # one scale per draw of a trial's block row
    scale_row = np.tile(scale, block)

    def run_tile(t_lo, t_hi, space):
        count = t_hi - t_lo
        rngs = trial_rngs(master_seed, t_lo, t_hi)
        size = count * block * n
        # trial-major, so each generator fills one contiguous run
        v = space[0][:size].reshape(count, block, n)
        draws = v.reshape(count, block * n)
        # x[0] carries the block's start; x[j + 1] takes step j's
        # perturbation, to which the recursion adds P x[j] from tmp, the
        # head of v, spent once the perturbations are in x
        x = space[1][:size + count * n].reshape(block + 1, count, n)
        tmp = space[0][:count * n].reshape(count, n)
        if stationary:
            for i, g in enumerate(rngs):
                g.standard_normal(out=x[1, i])
            np.matmul(x[1], root, out=x[0])  # root is symmetric
            x[0] += x0
        else:
            x[0] = x0
        e_tile = e_agg[:, t_lo:t_hi]
        first = t_lo == 0

        def mean_square_error(states, out):
            """out[j] = mean over agents of (states[j] - its mean)^2 for
            (rows, count, n) states, bit for bit as np.mean over agents.

            Once the block's recursion has run, v, its noise and products,
            is spent, and so is x[1:], as x[0] carries the next block's
            start. v takes an agent-major copy of the states, so every
            operation after it runs on whole (rows, count) slabs, and x[1:]
            is _agent_sum's scratch; the agent means wait in out until the
            second sum.
            """
            rows = len(states)
            y = v.reshape(-1)[:rows * n * count].reshape(rows, n, count)
            np.copyto(y, states.transpose(0, 2, 1))
            spare = x[1:].reshape(-1)
            _agent_sum(y, out, spare)
            out /= n
            np.subtract(y, out[:, None], out=y)
            np.square(y, out=y)
            _agent_sum(y, out, spare)
            out /= n

        mean_square_error(x[:1], e_tile[:1])
        if first:
            traj[0] = x[0, 0]
        for k0 in range(0, horizon, block):
            b = min(block, horizon - k0)
            for i, g in enumerate(rngs):
                g.standard_normal(out=v[i, :b])
            draws[:, :b * n] *= scale_row[:b * n]
            if noise_model == "protocol":  # gain is symmetric
                np.matmul(v[:, :b].transpose(1, 0, 2), gain, out=x[1:b + 1])
            else:
                np.copyto(x[1:b + 1], v[:, :b].transpose(1, 0, 2))
            for j in range(b):
                np.matmul(x[j], p.matrix, out=tmp)  # P is symmetric
                x[j + 1] += tmp
            if first:
                traj[k0 + 1:k0 + b + 1] = x[1:b + 1, 0]
            x[0] = x[b]
            mean_square_error(x[1:b + 1], e_tile[k0 + 1:k0 + b + 1])

    # a one-trial tile would take numpy's matrix-vector product, whose
    # rounding differs from a row of a matrix-matrix product, so a last
    # lone trial joins the tile before it
    starts = list(range(0, max(1, trials - 1), TILE_TRIALS))
    tiles = list(zip(starts, starts[1:] + [trials]))
    workers = min(jobs, len(tiles))
    shares = [tiles[w::workers] for w in range(workers)]

    def buffers(share):
        """Flat noise and state buffers whose leading parts every tile of a
        worker's share views."""
        count = max(hi - lo for lo, hi in share)
        size = count * block * n
        return np.empty(size), np.empty(size + count * n)

    def run_share(share, space):
        for tile in share:
            run_tile(*tile, space)

    # the buffers come before the results, so that once freed they leave
    # a hole the next run reuses, not a heap top that malloc hands back to
    # the system and the next run faults in again
    spaces = [buffers(share) for share in shares]
    e_agg = np.empty((horizon + 1, trials))
    traj = np.empty((horizon + 1, n))
    if workers == 1:
        run_share(shares[0], spaces[0])
    else:
        # imported here: it loads logging, and one worker needs neither
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_share, shares, spaces))
    return TrialEnsemble(e_agg, traj)


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
    ens = run_trials(p, sigmas, window, trials, master_seed, jobs=jobs,
                     noise_model="network", stationary=True)
    # row 0 is the drawn start
    trial_means = ens.e_agg_trials[1:].mean(axis=0)
    value = float(trial_means.mean())
    if trials > 1:
        hw = 1.96 * float(np.std(trial_means, ddof=1)) / math.sqrt(trials)
    else:
        hw = float("inf") if value > 0 else 0.0
    return EssEstimate(value, hw, window, trials)
