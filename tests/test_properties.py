"""Property tests for the spectral core and the design path.

Graphs come from random_connected_graph (weights in (0.1, 1]), with step
size gamma in [0.05, 0.5] / d_max and heterogeneous per-agent privacy.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpformation import (
    PrivacyParams,
    build_perron,
    corollary1_bound,
    epsilon_threshold_numeric,
    exact_ess_oracle,
    lemma7_sandwich,
    noise_covariance_diag,
    noise_gain,
    noise_scale,
    random_connected_graph,
    theorem1_bound,
)
from lyapunov_reference import iterative_ess_oracle

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


@st.composite
def configs(draw):
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(n, rng, draw(st.floats(0.0, 0.6)))
    gamma = draw(st.floats(0.05, 0.5)) / g.max_degree()
    params = [PrivacyParams(float(rng.uniform(0.1, np.log(3.0))),
                            float(rng.uniform(1e-4, 0.01)),
                            float(rng.uniform(0.5, 2.0))) for _ in range(n)]
    p = build_perron(g, gamma)
    z = noise_covariance_diag(p, [noise_scale(q) for q in params])
    return g, p, params, z


@SETTINGS
@given(configs())
def test_oracle_matches_iterative_reference(cfg):
    _, p, params, z = cfg
    ref = iterative_ess_oracle(p, z)
    assert abs(exact_ess_oracle(p, z) - ref) <= 1e-9 * ref
    # protocol noise: full covariance G S G, correlated across agents
    gain = noise_gain(p)
    cov = gain @ np.diag([noise_scale(q) ** 2 for q in params]) @ gain
    ref = iterative_ess_oracle(p, cov)
    assert abs(exact_ess_oracle(p, cov) - ref) <= 1e-9 * ref


@SETTINGS
@given(configs())
def test_oracle_inside_lemma7_sandwich(cfg):
    _, p, _, z = cfg
    lo, hi = lemma7_sandwich(p, z)
    assert lo * (1 - 1e-10) <= exact_ess_oracle(p, z) <= hi * (1 + 1e-10)


@SETTINGS
@given(configs())
def test_oracle_below_theorem1_bound(cfg):
    g, p, params, z = cfg
    assert exact_ess_oracle(p, z) <= theorem1_bound(g, p.gamma, params) \
        * (1 + 1e-12)


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
