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
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import graphs
from .graphs import PerronMatrix


class NonMixingWarning(UserWarning):
    """Tail of the error series still trends: horizon likely too short."""


@dataclass(frozen=True)
class FormationSpec:
    """Anchor points of a translationally invariant formation.

    anchors is an (N, n) matrix; row i is agent i's position in one
    representative of the formation. Offsets between agents are differences
    of anchor rows, so antisymmetry holds by construction.
    """

    anchors: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        object.__setattr__(self, "anchors", a)

    @property
    def agent_count(self) -> int:
        return self.anchors.shape[0]

    @property
    def dimensions(self) -> int:
        return self.anchors.shape[1]

    def offset(self, i: int, j: int) -> np.ndarray:
        """Desired relative state p_j - p_i."""
        return self.anchors[j] - self.anchors[i]

    def component(self, l: int) -> np.ndarray:
        """Anchor vector q for dimension l (one entry per agent)."""
        return self.anchors[:, l].copy()


def noise_gain(p: PerronMatrix) -> np.ndarray:
    """gamma * A(G), the matrix mapping per-agent noise draws to the state
    perturbation z. Equals P with its diagonal removed."""
    return p.matrix - np.diag(np.diag(p.matrix))


def noise_covariance_diag(p: PerronMatrix, sigmas) -> np.ndarray:
    """Diagonal of Cov[z]: s_i^2 = gamma^2 * sum_j w_ij^2 sigma_j^2."""
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (p.n,))
    return noise_gain(p) ** 2 @ sigmas**2


def error_series(xbar_traj: np.ndarray) -> tuple:
    """Per-step deviation e(k) and squared-error network average.

    xbar_traj has one row per time step. e(k) = x(k) - beta(k), with beta
    the noiseless consensus target mean(x)*1 + q - mean(q)*1, which in
    shifted coordinates is xbar minus its network mean. The aggregate is
    the average of e_i^2 over agents (one value per step).
    """
    xbar_traj = np.atleast_2d(np.asarray(xbar_traj, dtype=float))
    e = xbar_traj - xbar_traj.mean(axis=1, keepdims=True)
    return e, np.mean(e**2, axis=1)


def trial_rng(master_seed, trial: int) -> np.random.Generator:
    """Independent generator for one trial, derived from the master seed."""
    if isinstance(master_seed, (int, np.integer)):
        key = (int(master_seed), trial)
    else:
        key = tuple(int(s) for s in master_seed) + (trial,)
    # length prefix: SeedSequence entropy ignores trailing zero words, so
    # (5, 0) and (5, 0, 0) would otherwise collide
    return np.random.default_rng(np.random.SeedSequence((len(key),) + key))


# noise draws per trial per time block of run_trials: a block buffer takes
# 8 KiB per trial, and a trial's generator is called once per block, so
# short blocks would be dominated by the call overhead
BLOCK_DRAWS = 1024


@dataclass(frozen=True)
class TrialEnsemble:
    """Trial-averaged error series of a Monte Carlo run."""

    e_agg_mean: np.ndarray      # (horizon+1,) averaged across trials
    e_agg_sem: np.ndarray       # standard error of the mean, per step
    e_agg_trials: np.ndarray    # (horizon+1, trials) per-trial series
    first_trajectory: np.ndarray  # (horizon+1, N) xbar of trial 0


def run_trials(p: PerronMatrix, sigmas, horizon: int, trials: int,
               master_seed, xbar0=None, jobs: int = 1,
               noise_model: str = "protocol") -> TrialEnsemble:
    """Simulate independent seeded trials of the private dynamics.

    Trial t draws its noise from a generator keyed by (master_seed, t), so
    results are independent of how trials are chunked across workers.
    Each worker walks the horizon in time blocks of about BLOCK_DRAWS draws
    per trial, refilling its buffers from the same generators block after
    block; the draws, and so the results, are those of one whole-horizon
    draw per trial, while memory stays O(horizon * trials) for the error
    series plus O(BLOCK_DRAWS * trials) per worker.

    noise_model selects how the state perturbation z is produced:

    * "protocol": the node-level law exactly. Each agent j draws one noise
      value v_j(k) and every neighbor of j mixes it in, so z = gamma*A v
      and the z_i of agents sharing a neighbor are correlated.
    * "network": the analytical model, z_i drawn independently with
      variance s_i^2 = gamma^2 * sum_j w_ij^2 sigma_j^2. This is the
      process the Kemeny sandwich describes; the marginal variances match
      the protocol but cross-correlations are dropped.
    """
    if noise_model not in ("protocol", "network"):
        raise ValueError(f"unknown noise_model {noise_model!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    n = p.n
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (n,))
    x0 = np.zeros(n) if xbar0 is None else np.asarray(xbar0, dtype=float)
    gain = noise_gain(p)
    z_scale = np.sqrt(noise_covariance_diag(p, sigmas))

    block = max(1, min(-(-BLOCK_DRAWS // n), horizon))

    def run_chunk(t_lo, t_hi):
        count = t_hi - t_lo
        rngs = [trial_rng(master_seed, t) for t in range(t_lo, t_hi)]
        # trial-major, so each generator fills one contiguous run
        v = np.empty((count, block, n))
        # z[j] is the (count, n) perturbation of the block's step j
        z = (v.transpose(1, 0, 2) if noise_model == "network"
             else np.empty((block, count, n)))
        x = np.empty((block + 1, count, n))  # x[0] carries the block's start
        x[0] = x0
        # the block's noise is spent once its recursion has run, so v's
        # memory doubles as the scratch for the centered states
        dev = v.reshape(block, count, n)
        mean = np.empty((block, count, 1))
        e_agg = np.empty((horizon + 1, count))
        traj = np.empty((horizon + 1, n)) if t_lo == 0 else None

        def mean_square_error(states, out):
            """out[j] = mean over agents of (states[j] - its mean)^2,
            summed then divided as np.mean does, so the bits match."""
            b = len(states)
            np.sum(states, axis=2, keepdims=True, out=mean[:b])
            mean[:b] /= n
            np.subtract(states, mean[:b], out=dev[:b])
            np.square(dev[:b], out=dev[:b])
            np.sum(dev[:b], axis=2, out=out)
            out /= n

        mean_square_error(x[:1], e_agg[:1])
        if traj is not None:
            traj[0] = x0
        for k0 in range(0, horizon, block):
            b = min(block, horizon - k0)
            for i, g in enumerate(rngs):
                g.standard_normal(out=v[i, :b])
            if noise_model == "protocol":
                v[:, :b] *= sigmas
                # gain is symmetric
                np.matmul(v[:, :b].transpose(1, 0, 2), gain, out=z[:b])
            else:
                v[:, :b] *= z_scale
            for j in range(b):
                np.matmul(x[j], p.matrix, out=x[j + 1])  # P is symmetric
                x[j + 1] += z[j]
            mean_square_error(x[1:b + 1], e_agg[k0 + 1:k0 + b + 1])
            if traj is not None:
                traj[k0 + 1:k0 + b + 1] = x[1:b + 1, 0]
            x[0] = x[b]
        return e_agg, traj

    if jobs <= 1 or trials == 1:
        chunks = [(0, trials)]
    else:
        step = -(-trials // jobs)
        chunks = [(lo, min(lo + step, trials))
                  for lo in range(0, trials, step)]
    if len(chunks) == 1:
        results = [run_chunk(*chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(lambda c: run_chunk(*c), chunks))

    e_agg = (results[0][0] if len(results) == 1
             else np.concatenate([r[0] for r in results], axis=1))
    first_traj = results[0][1]
    sem = e_agg.std(axis=1, ddof=1) / math.sqrt(trials) if trials > 1 \
        else np.zeros(horizon + 1)
    return TrialEnsemble(e_agg.mean(axis=1), sem, e_agg, first_traj)


def default_horizon(p: PerronMatrix) -> int:
    """Several mixing times: 50 / (gamma * lambda2(L))."""
    gap = p.gamma * graphs.algebraic_connectivity(p.graph)
    if gap <= 0:
        raise ValueError("chain does not mix: spectral gap is zero")
    return max(int(math.ceil(50.0 / gap)), 20)


@dataclass(frozen=True)
class EssEstimate:
    value: float
    half_width: float
    horizon: int
    trials: int
    mixing_ok: bool


def estimate_ess(p: PerronMatrix, sigmas, trials: int = 1000,
                 horizon: int | None = None, tail_fraction: float = 0.25,
                 master_seed=0, xbar0=None, jobs: int = 1,
                 noise_model: str = "network") -> EssEstimate:
    """Monte Carlo estimate of the steady-state error.

    Defaults to the "network" noise model (independent z with the
    analytical variances), the process whose steady state the Kemeny
    sandwich and the exact oracle on the diagonal covariance characterize.

    Each trial's squared-error series is averaged over the final
    tail_fraction of steps; the estimate is the mean of these per-trial
    tail means. Trials are i.i.d., so the half-width is a valid 95% normal
    interval from the spread of the per-trial tail means.

    Emits NonMixingWarning when the tail still trends (least-squares slope
    over 100 steps exceeding 1% of the tail mean).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    if horizon is None:
        horizon = default_horizon(p)
    ens = run_trials(p, sigmas, horizon, trials, master_seed, xbar0, jobs,
                     noise_model=noise_model)
    tail_start = horizon + 1 - max(int((horizon + 1) * tail_fraction), 1)
    tail = ens.e_agg_mean[tail_start:]
    trial_means = ens.e_agg_trials[tail_start:].mean(axis=0)
    value = float(trial_means.mean())

    mixing_ok = True
    if len(tail) >= 3 and value > 0:
        slope = np.polyfit(np.arange(len(tail)), tail, 1)[0]
        if abs(slope) * 100.0 > 0.01 * value:
            mixing_ok = False
            warnings.warn(
                f"tail still trends: slope per 100 steps is "
                f"{abs(slope) * 100.0 / value:.2%} of the tail mean",
                NonMixingWarning, stacklevel=2,
            )
    if trials > 1:
        hw = 1.96 * float(np.std(trial_means, ddof=1)) / math.sqrt(trials)
    else:
        hw = float("inf") if value > 0 else 0.0
    return EssEstimate(value, hw, horizon, trials, mixing_ok)
