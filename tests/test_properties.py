"""Property tests for the spectral core, the Monte Carlo plan, its drawn
start and tiling, and the design path.

Graphs come from graph_reference.random_connected_graph (weights in (0.1, 1]), with step
size gamma in [0.05, 0.5] / d_max and heterogeneous per-agent privacy; the
plan is also checked up to gamma near 1 / d_max, where P has negative
eigenvalues.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpformation import (
    PrivacyParams,
    averaging_window,
    build_perron,
    corollary1_bound,
    epsilon_threshold_numeric,
    exact_ess_oracle,
    lemma7_sandwich,
    noise_covariance,
    noise_scale,
    run_trials,
    theorem1_bound,
)
from dpformation.dynamics import TILE_TRIALS
from graph_reference import max_degree, random_connected_graph
from lyapunov_reference import iterative_ess_oracle

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


@st.composite
def configs(draw, sizes=st.integers(2, 12)):
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(n, rng, draw(st.floats(0.0, 0.6)))
    gamma = draw(st.floats(0.05, 0.5)) / max_degree(g)
    params = [PrivacyParams(float(rng.uniform(0.1, np.log(3.0))),
                            float(rng.uniform(1e-4, 0.01)),
                            float(rng.uniform(0.5, 2.0))) for _ in range(n)]
    p = build_perron(g, gamma)
    sigmas = [noise_scale(q) for q in params]
    return g, p, params, sigmas


@SETTINGS
@given(configs())
def test_oracle_matches_iterative_reference(cfg):
    # network noise is diagonal; protocol noise G S G is correlated across
    # agents that share a neighbor
    _, p, _, sigmas = cfg
    for model in ("network", "protocol"):
        cov = noise_covariance(p, sigmas, model)
        ref = iterative_ess_oracle(p, cov)
        assert abs(exact_ess_oracle(p, cov) - ref) <= 1e-9 * ref, model


@SETTINGS
@given(configs())
def test_oracle_inside_lemma7_sandwich(cfg):
    _, p, _, sigmas = cfg
    cov = noise_covariance(p, sigmas, "network")
    lo, hi = lemma7_sandwich(p, np.diag(cov))
    assert lo * (1 - 1e-10) <= exact_ess_oracle(p, cov) <= hi * (1 + 1e-10)


@SETTINGS
@given(configs())
def test_oracle_below_theorem1_bound(cfg):
    _, p, params, sigmas = cfg
    cov = noise_covariance(p, sigmas, "network")
    assert exact_ess_oracle(p, cov) <= theorem1_bound(p, params) * (1 + 1e-12)


@SETTINGS
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       extra=st.floats(0.0, 0.6), frac=st.floats(0.01, 0.999))
def test_window_is_a_quarter_of_fifty_mixing_times(n, seed, extra, frac):
    g = random_connected_graph(n, np.random.default_rng(seed), extra)
    p = build_perron(g, frac / max_degree(g))
    window = averaging_window(p)
    # rho = max |mu_i| over all but the unit eigenvalue, from P itself
    rho = np.abs(np.linalg.eigvalsh(p.matrix)[:-1]).max()
    rho2 = 1.0 - p.mode_gaps.min()
    assert abs(rho2 - rho**2) <= 1e-12
    w = 12.5 / (1.0 - rho)
    assert w * (1 - 1e-9) <= window < w * (1 + 1e-9) + 1


@SETTINGS
@given(log_e_r=st.floats(-6.0, 30.0), n=st.integers(2, 10000),
       log_delta=st.floats(-12.0, -0.31), b=st.floats(0.1, 10.0),
       gamma=st.floats(1e-5, 1.0), frac=st.floats(0.01, 0.99))
def test_threshold_bound_round_trip(log_e_r, n, log_delta, b, gamma, frac):
    e_r, lam2 = 10.0**log_e_r, frac * 2.0 / gamma
    kw = dict(n_agents=n, gamma=gamma, b=b, delta=10.0**log_delta)
    eps = epsilon_threshold_numeric(lam2, e_r=e_r, **kw)
    assert eps > 0
    assert abs(corollary1_bound(eps, lam2, **kw) - e_r) <= 1e-12 * e_r


@SETTINGS
@given(configs())
def test_stationary_covariance_solves_the_lyapunov_equation(cfg):
    # S = U_d M U_d^T from the deviation modes solves S = P S P + Pi Q Pi
    # with Pi = I - 11^T / N, the fixed point of one step of the
    # deviation's covariance, and trace(S) / N = e_ss, for both laws
    _, p, _, sigmas = cfg
    pi = np.eye(p.n) - 1.0 / p.n
    ud = p.graph.spectrum[1][:, 1:]
    for model in ("network", "protocol"):
        q = noise_covariance(p, sigmas, model)
        s = ud @ p.stationary_modes(q) @ ud.T
        step = p.matrix @ s @ p.matrix + pi @ q @ pi
        assert np.abs(step - s).max() <= 1e-12 * np.abs(s).max(), model
        exact = exact_ess_oracle(p, q)
        assert abs(np.trace(s) / p.n - exact) <= 1e-12 * exact, model


@st.composite
def trial_plans(draw):
    """(trials, horizon, stationary): up to 40 trials in one tile over up
    to 150 steps, or two to three tiles over up to 12 steps, with the
    start drawn from the stationary law half of the time."""
    if draw(st.booleans()):
        trials, horizon = draw(st.integers(1, 40)), draw(st.integers(0, 150))
    else:
        trials = draw(st.integers(TILE_TRIALS + 2, 3 * TILE_TRIALS))
        horizon = draw(st.integers(0, 12))
    return trials, horizon, draw(st.booleans())


@SETTINGS
@given(cfg=configs(st.one_of(st.integers(2, 12),
                             st.sampled_from([17, 130]))),
       plan=trial_plans(), jobs=st.integers(1, 8))
def test_every_jobs_gives_the_same_bits(cfg, plan, jobs):
    # the tiles do not depend on jobs and none holds a lone trial, so
    # every trial's steps are rows of the same matrix-matrix products
    # whatever the thread count, also at N = 17 and 130, where OpenBLAS
    # rounds a row differently for different row counts
    _, p, _, sigmas = cfg
    trials, horizon, stationary = plan
    args = (p, sigmas, horizon, trials, 17)
    for model in ("protocol", "network"):
        one = run_trials(*args, noise_model=model, stationary=stationary)
        split = run_trials(*args, jobs=jobs, noise_model=model,
                           stationary=stationary)
        assert np.array_equal(split[0], one[0]), model  # e_agg
        assert np.array_equal(split[1], one[1]), model  # trial 0's path
