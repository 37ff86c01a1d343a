"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see
them). Tolerances are pinned; Monte Carlo checks use frozen seeds so every
run is bit-identical.
"""
import functools
import math
import time
import warnings

import numpy as np
import pytest

from dpformation import (
    PrivacyParams,
    algebraic_connectivity,
    build_perron,
    corollary1_bound,
    demo_config,
    estimate_ess,
    exact_ess_oracle,
    lemma7_sandwich,
    noise_covariance,
    q_inverse,
    reproduce_table1,
    run_trials,
    sensitivity_compare,
    theorem1_bound,
    theorem3_thresholds,
)
from dpformation.dynamics import tile_rng
from chain_reference import kemeny_constant
from graph_reference import max_degree, random_connected_graph
from step_reference import (
    error_series,
    noiseless_step,
    private_step_network,
    private_step_node,
)

# printed reference thresholds (4-6 significant figures)
TABLE1_PRINTED = {
    ("complete", 10): 0.0074, ("complete", 100): 0.0081,
    ("complete", 1000): 0.0084, ("complete", 10000): 0.0116,
    ("cycle", 10): 0.0380, ("cycle", 100): 1.4514,
    ("cycle", 1000): 199.35, ("cycle", 10000): 159591.0,
    ("line", 10): 0.7533, ("line", 100): 3.2127,
    ("line", 1000): 714.70, ("line", 10000): 635752.0,
    ("star", 10): 0.0235, ("star", 100): 0.0820,
    ("star", 1000): 0.2661, ("star", 10000): 0.8849,
}


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                note = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {desc}")
                raise
            print(f"\n[PASS] criterion {num}: {desc}"
                  + (f" -- {note}" if note else ""))
        return wrapper
    return deco


def seeded_graphs(count=100, n_lo=3, n_hi=12):
    """The frozen 100-graph ensemble shared by criteria 4, 5 and 8."""
    out = []
    for seed in range(count):
        rng = np.random.default_rng(1000 + seed)
        g = random_connected_graph(int(rng.integers(n_lo, n_hi + 1)), rng)
        out.append((g, build_perron(g, 0.5 / max_degree(g)), rng))
    return out


@criterion(1, "Table I thresholds within 2% (numeric route)")
def test_table1_reproduction():
    t0 = time.monotonic()
    cells = reproduce_table1()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    closed_form_discrepancies = []
    for c in cells:
        printed = TABLE1_PRINTED[(c.kind, c.n)]
        if (c.kind, c.n) == ("line", 10):
            # the printed 0.7533 is inconsistent with the printed line
            # entries at N=100/1000/10000 (which the numeric route matches
            # to 4 figures) by a factor of exactly 10; the numeric value
            # matches the decimal-shifted 0.07533
            assert c.numeric == pytest.approx(printed / 10.0, rel=0.02)
            continue
        assert c.numeric == pytest.approx(printed, rel=0.02), (c.kind, c.n)
        if c.relative_deviation > 0.02:
            closed_form_discrepancies.append((c.kind, c.n))
    print("\n  discrepancy report (closed-form column vs numeric, > 2%):")
    for kind, n in closed_form_discrepancies:
        print(f"    {kind} N={n}")
    print("  note: line N=10 printed value is a 10x decimal shift; "
          "numeric 0.07534 matches 0.7533/10 within 2%")
    return (f"15/16 printed entries matched, 1 decimal-shift misprint "
            f"documented, {len(closed_form_discrepancies)} closed-form "
            f"discrepancies reported, {elapsed:.2f}s")


@criterion(2, "sensitivity cutoff 5.55134 +/- 1e-3 and "
              "q_inverse(0.00135) = 3.000 +/- 2e-3")
def test_cutoff_and_q_inverse():
    cut = theorem3_thresholds(0.01, 0.00135, 0.1)
    assert abs(cut.upper_cut - 5.55134) < 1e-3, cut.upper_cut
    assert abs(q_inverse(0.00135) - 3.000) < 2e-3


@criterion(3, "closed-form partials match finite differences to 1e-6 "
              "on a 10x10 grid")
def test_gradient_checks():
    t0 = time.monotonic()
    delta, gamma, b, n = 0.00135, 0.1, 1.0, 10

    def bound(eps, lam2):
        return corollary1_bound(eps, lam2, n_agents=n, gamma=gamma, b=b,
                                delta=delta)

    for eps in np.linspace(0.05, 1.0, 10):
        for lam2 in np.linspace(0.5, 0.9 / gamma, 10):
            rep = sensitivity_compare(eps, lam2, n_agents=n, gamma=gamma,
                                      b=b, delta=delta)
            he = 1e-6 * eps
            fd_e = (bound(eps + he, lam2) - bound(eps - he, lam2)) / (2 * he)
            hl = 1e-6 * lam2
            fd_l = (bound(eps, lam2 + hl) - bound(eps, lam2 - hl)) / (2 * hl)
            assert rep.d_epsilon == pytest.approx(fd_e, rel=1e-6)
            assert rep.d_lambda2 == pytest.approx(fd_l, rel=1e-6)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    return f"{elapsed:.2f}s"


@criterion(4, "Kemeny sandwich holds on 100 random connected graphs")
def test_kemeny_sandwich():
    violations = 0
    for g, p, _ in seeded_graphs():
        k2 = kemeny_constant(np.linalg.matrix_power(p.matrix, 2))
        lam2 = algebraic_connectivity(g)
        lower = (g.n - 1) / 2.0
        upper = (g.n - 1) / (1.0 - (1.0 - p.gamma * lam2) ** 2)
        if not lower < k2 <= upper * (1.0 + 1e-12):
            violations += 1
    assert violations == 0
    return "0 violations"


@criterion(5, "oracle inside variance sandwich; sandwich upper below the "
              "closed-form bound")
def test_sandwich_and_ordering():
    params = PrivacyParams(epsilon=0.5, delta=0.01, b=1.0)
    sigma = params.b * params.kappa
    violations = 0
    for g, p, rng in seeded_graphs():
        hetero = rng.uniform(0.1, 2.0, g.n)
        cov = noise_covariance(p, hetero, "network")
        lo, hi = lemma7_sandwich(p, np.diag(cov))
        if not (lo * (1 - 1e-12) <= exact_ess_oracle(p, cov)
                <= hi * (1 + 1e-12)):
            violations += 1
        _, hi_hom = lemma7_sandwich(
            p, np.diag(noise_covariance(p, sigma, "network")))
        if hi_hom > theorem1_bound(p, [params] * g.n) * (1 + 1e-12):
            violations += 1
    assert violations == 0
    return "0 violations"


@criterion(6, "Monte Carlo estimator within 5% of the exact oracle on "
              "40 small configs")
def test_estimator_cross_validation():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(int(rng.integers(3, 9)), rng)
        p = build_perron(g, 0.5 / max_degree(g))
        sigmas = rng.uniform(0.5, 1.5, g.n)
        oracle = exact_ess_oracle(p, noise_covariance(p, sigmas, "network"))
        est = estimate_ess(p, sigmas, trials=2000, master_seed=seed, jobs=1)
        dev = abs(est.value - oracle) / oracle
        worst = max(worst, dev)
        assert dev < 0.05, f"seed {seed}: {dev:.3%}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    return f"worst deviation {worst:.2%}, {elapsed:.1f}s"


@criterion(7, "5-agent star demo: trial-averaged tail error below the "
              "closed-form bound; noiseless run reaches the formation")
def test_demo_replication():
    cfg = demo_config()
    p = build_perron(cfg.graph, cfg.gamma)
    bound = theorem1_bound(p, cfg.privacy_params)

    for l in range(cfg.anchors.shape[1]):
        q = cfg.anchors[:, l]
        e_agg, path = run_trials(p, cfg.sigmas, cfg.horizon, cfg.trials,
                                 (cfg.master_seed, l), xbar0=-q, jobs=4)
        tail = e_agg[-25:].mean(axis=1)
        assert tail.max() <= bound, (l, tail.max())
        # single-trial pointwise containment is an empirical observation,
        # not a proved property: report violations without failing
        _, single = error_series(path)
        worst = float(single[-25:].max())
        if worst > bound:
            warnings.warn(f"dimension {l}: single-trial pointwise e_agg "
                          f"{worst:.3f} exceeds bound {bound:.3f}")

    residual = 0.0
    for l in range(cfg.anchors.shape[1]):
        xbar = -cfg.anchors[:, l]
        for _ in range(cfg.horizon):
            xbar = noiseless_step(xbar, p)
        residual = max(residual, float(np.abs(xbar - xbar.mean()).max()))
    assert residual < 1e-6, residual
    return f"bound {bound:.6f}, noiseless residual {residual:.2e}"


@criterion(8, "structural invariants: double stochasticity, uniform "
              "stationary distribution, node/network equivalence, "
              "dimension decomposition")
def test_structural_properties():
    for g, p, rng in seeded_graphs(25):
        m = p.matrix
        assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12
        pi = np.full(g.n, 1.0 / g.n)
        assert np.abs(pi @ m - pi).max() <= 1e-12

        xbar = rng.normal(size=g.n)
        v = rng.normal(size=g.n)
        net = private_step_network(xbar, p, v)
        node = private_step_node(xbar, g, p.gamma, v)
        assert np.abs(net - node).max() <= 1e-12

    # an n-dimensional run is exactly n scalar runs on per-dimension keys:
    # a 2-D simulation whose dimension l consumes the stream of tile 0
    # under key (seed, l) reproduces the scalar trajectories bit for bit
    g, p, _ = seeded_graphs(1)[0]
    seed, horizon = 42, 30
    sigmas = np.linspace(0.5, 1.5, g.n)
    gain = p.matrix - np.diag(np.diag(p.matrix))
    scalar = [run_trials(p, sigmas, horizon, 1, (seed, l))[1]
              for l in range(2)]
    z = np.stack([(tile_rng((seed, l), 0).standard_normal((horizon, 1, g.n))
                   * sigmas) @ gain for l in range(2)])
    x = np.zeros((2, 1, g.n))
    for k in range(horizon):
        x = x @ p.matrix + z[:, k]
        for l in range(2):
            assert np.array_equal(x[l, 0], scalar[l][k + 1]), (l, k)


@criterion(9, "bound surface strictly decreasing in epsilon and in lambda2 "
              "on a 50x50 grid")
def test_surface_monotonicity():
    n, delta, gamma, b = 50, 0.01, 0.02, 5.0
    eps = np.linspace(0.1, 1.0, 50)
    lam2 = np.linspace(1.0, 1.0 / gamma, 50)
    grid = corollary1_bound(eps[:, None], lam2[None, :], n_agents=n,
                            gamma=gamma, b=b, delta=delta)
    assert np.all(np.diff(grid, axis=0) < 0), "not decreasing in epsilon"
    assert np.all(np.diff(grid, axis=1) < 0), "not decreasing in lambda2"
    return "0 monotonicity violations"
