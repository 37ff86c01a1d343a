import math
import re
import warnings

import numpy as np
import pytest

from dpformation import (
    NumericalError,
    PrivacyParams,
    WeightedGraph,
    algebraic_connectivity,
    averaging_window,
    bound_report,
    build_perron,
    build_standard_topology,
    corollary1_bound,
    epsilon_threshold_closed_form,
    epsilon_threshold_numeric,
    estimate_ess,
    exact_ess_oracle,
    kappa,
    lemma7_sandwich,
    noise_covariance,
    noise_scale,
    reproduce_table1,
    run_trials,
    theorem1_bound,
    threshold_cell,
    topology_lambda2,
)
from dpformation.graphs import check_topology
from graph_reference import max_degree, random_connected_graph
from mc_reference import check_interval_coverage
from threshold_reference import brentq_epsilon_threshold

TABLE1_REFERENCE = {
    ("complete", 10): 0.0074, ("complete", 100): 0.0081,
    ("complete", 1000): 0.0084, ("complete", 10000): 0.0116,
    ("cycle", 10): 0.0380, ("cycle", 100): 1.4514,
    ("cycle", 1000): 199.35, ("cycle", 10000): 159591.0,
    ("line", 10): 0.7533, ("line", 100): 3.2127,
    ("line", 1000): 714.70, ("line", 10000): 635752.0,
    ("star", 10): 0.0235, ("star", 100): 0.0820,
    ("star", 1000): 0.2661, ("star", 10000): 0.8849,
}


def hetero_network_cov(p, rng):
    sigmas = rng.uniform(0.1, 2.0, size=p.n)
    return noise_covariance(p, sigmas, "network")


class TestExactOracle:
    def test_zero_noise(self):
        p = build_perron(build_standard_topology("star", 5, 1.0), 0.2)
        assert exact_ess_oracle(p, np.zeros((5, 5))) == 0.0

    @pytest.mark.parametrize("scale, named", [
        (1e308, "max_variance=1e+308"), (np.inf, "max_variance=inf"),
        (np.nan, "max_variance=nan")], ids=["overflow", "inf", "nan"])
    def test_non_finite_value_names_the_variance(self, scale, named):
        # used to return inf or nan, with a numpy overflow warning
        p = build_perron(build_standard_topology("cycle", 6, 1.0), 0.01)
        with pytest.raises(NumericalError, match=re.escape(
                "no finite value of the exact e_ss at n_agents=6, "
                f"gamma=0.01, {named}")):
            exact_ess_oracle(p, np.diag(np.full(6, scale)))

    @pytest.mark.parametrize("cov", [1.0, np.ones(5), np.eye(4)])
    def test_rejects_all_but_the_full_matrix(self, cov):
        p = build_perron(build_standard_topology("star", 5, 1.0), 0.2)
        with pytest.raises(ValueError, match="must be 5 x 5"):
            exact_ess_oracle(p, cov)

    def test_two_state_hand_value(self):
        # P = [[.75,.25],[.25,.75]], Z = s^2 I: the deviation mode has
        # eigenvalue 0.5, so steady variance s^2/(1-0.25) and
        # e_ss = s^2 / (2 * 0.75) * ... = (2/3) s^2
        p = build_perron(WeightedGraph(2, ((0, 1, 1.0),)), 0.25)
        s2 = 1.3
        value = exact_ess_oracle(p, s2 * np.eye(2))
        assert value == pytest.approx(2.0 / 3.0 * s2, rel=1e-10)
        lo, hi = lemma7_sandwich(p, np.full(2, s2))
        assert lo * (1 - 1e-10) <= value <= hi * (1 + 1e-10)

    def test_matches_monte_carlo(self):
        g = build_standard_topology("cycle", 6, 1.0)
        p = build_perron(g, 0.2)
        exact = exact_ess_oracle(p, noise_covariance(p, 1.5, "network"))
        est = estimate_ess(p, 1.5, trials=2000, master_seed=31)
        assert est.value == pytest.approx(exact, rel=0.05)
        # the 95% intervals of the per-trial window means cover the oracle
        check_interval_coverage(p, 1.5, exact, trials=2000)

    def test_protocol_model_matches_monte_carlo(self):
        # demo star: the protocol noise z = gamma*A v has Cov[z] = G S G,
        # correlated across agents sharing a neighbor
        p = build_perron(build_standard_topology("star", 5, 1.0), 0.2)
        sigma = noise_scale(PrivacyParams(math.log(3), 0.00135, 2.0))
        exact = exact_ess_oracle(p, noise_covariance(p, sigma, "protocol"))
        network = exact_ess_oracle(p, noise_covariance(p, sigma, "network"))
        e_agg, _ = run_trials(p, sigma, averaging_window(p), 2000, 11,
                              noise_model="protocol", stationary=True)
        tail_mean = float(e_agg[1:].mean())
        assert tail_mean == pytest.approx(exact, rel=0.03)
        assert not tail_mean == pytest.approx(network, rel=0.5)


class TestLemma7Sandwich:
    def test_vertex_transitive_homogeneous_collapses(self):
        # cycle with uniform weights and homogeneous sigma: all s_i^2 equal
        p = build_perron(build_standard_topology("cycle", 7, 1.0), 0.3)
        lo, hi = lemma7_sandwich(p, np.diag(noise_covariance(p, 2.0,
                                                             "network")))
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_contains_oracle_heterogeneous(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = random_connected_graph(int(rng.integers(3, 13)), rng)
            p = build_perron(g, 0.5 / max_degree(g))
            cov = hetero_network_cov(p, rng)
            lo, hi = lemma7_sandwich(p, np.diag(cov))
            value = exact_ess_oracle(p, cov)
            assert lo * (1 - 1e-10) <= value <= hi * (1 + 1e-10)


class TestTheorem1Bound:
    def test_demo_configuration(self):
        # N=5 star, w=1, gamma=0.2, eps=ln 3, delta=0.00135, b=2;
        # reference from 50-digit evaluation of the closed form
        g = build_standard_topology("star", 5, 1.0)
        params = PrivacyParams(math.log(3), 0.00135, 2.0)
        assert theorem1_bound(build_perron(g, 0.2),
                              [params] * 5) == pytest.approx(
            11.864339910243050, rel=1e-12)

    def test_decreasing_in_epsilon(self):
        g = build_standard_topology("complete", 6, 0.2)
        p = build_perron(g, 0.2)
        values = [theorem1_bound(p, [PrivacyParams(e, 0.01, 1.0)] * 6)
                  for e in np.linspace(0.1, 1.0, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dominates_sandwich_upper_homogeneous(self):
        rng = np.random.default_rng(19)
        params = PrivacyParams(0.5, 0.01, 1.0)
        from dpformation import noise_scale
        sigma = noise_scale(params)
        for _ in range(25):
            g = random_connected_graph(int(rng.integers(3, 13)), rng)
            gamma = 0.5 / max_degree(g)
            p = build_perron(g, gamma)
            _, hi = lemma7_sandwich(
                p, np.diag(noise_covariance(p, sigma, "network")))
            assert hi <= theorem1_bound(p, [params] * g.n) * (1 + 1e-12)

    def test_invalid_gamma_reported(self):
        g = build_standard_topology("star", 5, 1.0)
        from dpformation import StepSizeTooLarge
        with pytest.raises(StepSizeTooLarge):
            theorem1_bound(build_perron(g, 0.5),
                           [PrivacyParams(0.5, 0.01, 1.0)] * 5)

    def test_matches_homogeneous_specialization(self):
        g = build_standard_topology("cycle", 8, 1.0)
        params = PrivacyParams(0.4, 0.01, 1.5)
        expected = corollary1_bound(0.4, algebraic_connectivity(g),
                                    n_agents=8, gamma=0.2, b=1.5, delta=0.01)
        assert theorem1_bound(build_perron(g, 0.2),
                              [params] * 8) == pytest.approx(expected,
                                                             rel=1e-10)

    @pytest.mark.xfail(strict=True, reason="Theorem 1 assumes edge weights "
                       "w_ij <= 1; with w = 2 the exact e_ss is w^2 = 4 "
                       "times the bound (ROADMAP item 1)")
    def test_holds_on_complete_graph_with_weight_two(self):
        g = build_standard_topology("complete", 4, 2.0)
        p = build_perron(g, 0.05)
        params = [PrivacyParams(0.5, 0.01, 1.0)] * 4
        cov = noise_covariance(p, noise_scale(params[0]), "network")
        assert exact_ess_oracle(p, cov) <= theorem1_bound(p, params)

    def test_overflow_names_the_worst_agent(self):
        # kappa^2 overflows at epsilon = 1e-300; the bound used to be inf
        p = build_perron(build_standard_topology("star", 5, 1.0), 0.2)
        tiny = PrivacyParams(1e-300, 0.00135, 2.0)
        params = [PrivacyParams(0.5, 0.01, 1.0)] * 4 + [tiny]
        with pytest.raises(NumericalError, match=re.escape(
                "no finite value of the bound at epsilon=1e-300, "
                "lambda2=1.0, n_agents=5, gamma=0.2, b=2.0, delta=0.00135")):
            theorem1_bound(p, params)

    def test_is_corollary1_at_the_worst_agent(self):
        # heterogeneous lists whose worst agent is never agent 0: the
        # bound is Corollary 1 at that agent, bit for bit
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = random_connected_graph(int(rng.integers(3, 13)), rng)
            p = build_perron(g, 0.5 / max_degree(g))
            params = [PrivacyParams(float(rng.uniform(0.1, 1.0)),
                                    float(rng.uniform(1e-4, 0.01)),
                                    float(rng.uniform(0.5, 2.0)))
                      for _ in range(g.n)]
            scales = [q.b * kappa(q.delta, q.epsilon) for q in params]
            worst = int(np.argmax(scales))
            at = int(rng.integers(1, g.n))
            params[worst], params[at] = params[at], params[worst]
            lam2 = algebraic_connectivity(g)

            def at_agent(a):
                return corollary1_bound(a.epsilon, lam2, n_agents=g.n,
                                        gamma=p.gamma, b=a.b, delta=a.delta)

            assert theorem1_bound(p, params) == at_agent(params[at])
            assert at_agent(params[0]) < at_agent(params[at])

    def test_overflow_raises_without_a_numpy_warning(self):
        # finite C(lambda2) and b^2 kappa^2 whose product overflows
        g = build_standard_topology("line", 50, 1.0)
        params = [PrivacyParams(1.0, 0.00135, 1e153)] * 50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape("b=1e+153")):
                theorem1_bound(build_perron(g, 0.4), params)

    @pytest.mark.parametrize("count", [1, 4, 6])
    def test_needs_one_entry_per_agent(self, count):
        p = build_perron(build_standard_topology("star", 5, 1.0), 0.2)
        with pytest.raises(ValueError, match=f"{count} privacy entries"):
            theorem1_bound(p, [PrivacyParams(0.5, 0.01, 1.0)] * count)


class TestEpsilonThreshold:
    def test_bound_at_threshold_equals_target(self):
        for kind, n in [("complete", 10), ("star", 100), ("cycle", 50)]:
            lam2 = topology_lambda2(kind, n, 1.0)
            eps = epsilon_threshold_numeric(lam2, gamma=1e-4, delta=0.01,
                                            b=5.0, n_agents=n, e_r=100.0)
            back = corollary1_bound(eps, lam2, n_agents=n, gamma=1e-4,
                                    b=5.0, delta=0.01)
            assert back == pytest.approx(100.0, rel=1e-8)

    def test_monotone_in_lambda2(self):
        eps = [epsilon_threshold_numeric(l2, gamma=1e-4, delta=0.01, b=5.0,
                                         n_agents=10, e_r=100.0)
               for l2 in [0.5, 1.0, 5.0, 20.0]]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_monotone_in_b_and_target(self):
        kw = dict(gamma=1e-4, delta=0.01, n_agents=10, e_r=100.0)
        assert epsilon_threshold_numeric(1.0, b=10.0, **kw) \
            > epsilon_threshold_numeric(1.0, b=5.0, **kw)
        assert epsilon_threshold_numeric(1.0, b=5.0, gamma=1e-4, delta=0.01,
                                         n_agents=10, e_r=1000.0) \
            < epsilon_threshold_numeric(1.0, b=5.0, **kw)

    def test_huge_target_has_exact_positive_threshold(self):
        # any eps below eps* fails to certify e_r, however large e_r is
        kw = dict(n_agents=10, gamma=1e-4, b=5.0, delta=0.01)
        eps = epsilon_threshold_numeric(1.0, e_r=1e30, **kw)
        assert eps == pytest.approx(2.3409009168048e-16, rel=1e-12)
        assert corollary1_bound(eps, 1.0, **kw) == pytest.approx(1e30,
                                                                 rel=1e-12)
        assert corollary1_bound(eps * (1 - 1e-9), 1.0, **kw) > 1e30

    def test_matches_brentq_cross_check_on_table1(self):
        for c in reproduce_table1():
            ref = brentq_epsilon_threshold(
                topology_lambda2(c.kind, c.n, 1.0), gamma=1e-4, delta=0.01,
                b=5.0, n_agents=c.n, e_r=100.0)
            assert abs(c.numeric - ref) <= 1e-13 * ref, (c.kind, c.n)

    @pytest.mark.parametrize("kw, named", [
        (dict(gamma=1e-320), "gamma=1e-320"),    # kappa* = inf, eps* = nan
        (dict(b=1e200), "b=1e+200"),             # kappa* = 0
        (dict(e_r=1e-320), "e_r=1e-320"),        # eps* = inf
        (dict(b=1e-10, e_r=1e300), "b=1e-10")],  # kappa*^2 = inf, eps* = 0
        ids=["nan", "zero-division", "inf", "zero"])
    def test_no_finite_positive_threshold_raises(self, kw, named):
        # each used to return nan, inf or 0.0, or raise ZeroDivisionError
        prm = dict(gamma=1e-4, delta=0.01, b=5.0, n_agents=10, e_r=100.0)
        match = "the minimum epsilon at .*" + re.escape(named)
        with pytest.raises(NumericalError, match=match):
            epsilon_threshold_numeric(10.0, **{**prm, **kw})

    def test_invalid_target(self):
        for n, e_r in [(10, -1.0), (10, math.nan), (10, math.inf),
                       (1, 1.0)]:
            with pytest.raises(ValueError):
                epsilon_threshold_numeric(1.0, gamma=1e-4, delta=0.01, b=5.0,
                                          n_agents=n, e_r=e_r)


class TestClosedForms:
    def test_loose_agreement_with_reference(self):
        # the published closed forms carry systematic deviations from the
        # numeric inversion; check order of magnitude only
        for kind, n, ref in [("cycle", 100, 1.4514),
                             ("complete", 10000, 0.0116)]:
            val = epsilon_threshold_closed_form(
                kind, n, gamma=1e-4, delta=0.01, b=5.0, w=1.0, e_r=100.0)
            assert ref / 4 < val < ref * 4

    def test_impossibility_requires_lambda2(self):
        with pytest.raises(ValueError, match="lambda2"):
            epsilon_threshold_closed_form("impossibility", 10, gamma=1e-4,
                                          delta=0.01, b=5.0, w=1.0,
                                          e_r=100.0)

    @pytest.mark.parametrize("kind, message", [
        ("cycle", "a cycle topology needs n >= 3 agents, got 2"),
        ("wheel", "unknown topology kind 'wheel'")])
    def test_named_kind_is_checked_as_its_graph_is(self, kind, message):
        # the published cycle form used to return 11.63 at n = 2, and an
        # unknown kind to read "unknown threshold kind"
        with pytest.raises(ValueError, match=re.escape(message)):
            epsilon_threshold_closed_form(kind, 2, gamma=1e-4, delta=0.01,
                                          b=5.0, w=1.0, e_r=100.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            check_topology(kind, 2, 1.0)

    def test_impossibility_evaluates(self):
        val = epsilon_threshold_closed_form(
            "impossibility", 10, gamma=1e-4, delta=0.01, b=5.0, w=1.0,
            e_r=100.0, lambda2=10.0)
        assert val > 0

    def test_deviation_from_numeric_is_reported(self):
        cells = reproduce_table1()
        assert len(cells) == 16
        # every closed-form entry deviates; none silently reconciled
        assert all(c.relative_deviation > 0.02 for c in cells)


class TestTable1:
    @pytest.mark.parametrize("kind,n", sorted(TABLE1_REFERENCE))
    def test_numeric_matches_reference(self, kind, n):
        if (kind, n) == ("line", 10):
            pytest.xfail(
                "reference value 0.7533 is a decimal-shift misprint: it is "
                "10x the value implied by the line graph's own spectral "
                "formula and inconsistent with the neighboring cycle entry")
        lam2 = topology_lambda2(kind, n, 1.0)
        eps = epsilon_threshold_numeric(lam2, gamma=1e-4, delta=0.01, b=5.0,
                                        n_agents=n, e_r=100.0)
        assert eps == pytest.approx(TABLE1_REFERENCE[(kind, n)], rel=0.02)

    def test_line10_is_reference_over_ten(self):
        lam2 = topology_lambda2("line", 10, 1.0)
        eps = epsilon_threshold_numeric(lam2, gamma=1e-4, delta=0.01, b=5.0,
                                        n_agents=10, e_r=100.0)
        assert eps == pytest.approx(0.07533, rel=0.02)

    def test_cells_are_threshold_cells(self):
        # the table and a single design cell are built by the same call
        kw = dict(delta=0.01, b=5.0, w=1.0, gamma=1e-4, e_r=100.0)
        cells = reproduce_table1(**kw)
        assert cells == [threshold_cell(c.kind, c.n, **kw) for c in cells]
        c = threshold_cell("cycle", 100, **kw)
        lam2 = topology_lambda2("cycle", 100, 1.0)
        assert c.lambda2 == lam2
        assert c.numeric == epsilon_threshold_numeric(
            lam2, gamma=1e-4, delta=0.01, b=5.0, n_agents=100, e_r=100.0)
        assert c.closed_form == epsilon_threshold_closed_form(
            "cycle", 100, **kw)


class TestBoundSurface:
    """The sweep's grid: corollary1_bound broadcast over an epsilon column
    and a lambda2 row."""

    KW = dict(n_agents=50, delta=0.01, b=5.0, gamma=0.02)

    def test_single_cell_matches_bound(self):
        grid = corollary1_bound(np.array([[0.3]]), np.array([[4.0]]),
                                **self.KW)
        assert grid.shape == (1, 1)
        assert grid[0, 0] == corollary1_bound(0.3, 4.0, **self.KW)

    def test_monotone_in_epsilon(self):
        grid = corollary1_bound(np.linspace(0.1, 1.0, 12)[:, None],
                                np.array([2.0, 10.0])[None, :], **self.KW)
        assert grid.shape == (12, 2)
        assert np.all(np.diff(grid, axis=0) < 0)

    def test_rejects_lambda2_beyond_denominator_flip(self):
        with pytest.raises(ValueError, match="2/gamma"):
            corollary1_bound(np.array([[0.5]]), np.array([[4.0, 100.0]]),
                             **self.KW)

    @pytest.mark.parametrize("eps", [0.0, -0.5])
    def test_rejects_nonpositive_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            corollary1_bound(np.array([[eps], [0.5]]), np.array([[4.0]]),
                             **self.KW)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            corollary1_bound(eps, 4.0, **self.KW)


class TestGammaValidation:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_bound_and_threshold_reject_gamma(self, gamma):
        with pytest.raises(ValueError,
                           match="gamma must be positive and finite"):
            corollary1_bound(0.5, 4.0, n_agents=50, gamma=gamma, b=5.0,
                             delta=0.01)
        with pytest.raises(ValueError,
                           match="gamma must be positive and finite"):
            epsilon_threshold_numeric(1.0, gamma=gamma, delta=0.01, b=5.0,
                                      n_agents=10, e_r=100.0)
        for kind in ("impossibility", "complete", "cycle", "line", "star"):
            with pytest.raises(ValueError,
                               match="gamma must be positive and finite"):
                epsilon_threshold_closed_form(kind, 10, gamma=gamma,
                                              delta=0.01, b=5.0, w=1.0,
                                              e_r=100.0, lambda2=1.0)


class TestClosedFormValidation:
    """The published forms check e_r, and w for the four topologies, as
    the exact inversion does; they used to fail with a math domain error or
    a NumericalError naming no input."""

    KW = dict(gamma=1e-4, delta=0.01, b=5.0, lambda2=1.0)

    @pytest.mark.parametrize("e_r", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["impossibility", "complete", "cycle",
                                      "line", "star"])
    def test_rejects_target(self, kind, e_r):
        with pytest.raises(ValueError, match=re.escape(
                f"e_r must be positive and finite, got {e_r}")):
            epsilon_threshold_closed_form(kind, 10, w=1.0, e_r=e_r,
                                          **self.KW)

    @pytest.mark.parametrize("w", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["complete", "cycle", "line", "star"])
    def test_rejects_weight(self, kind, w):
        with pytest.raises(ValueError, match=re.escape(
                f"w must be positive and finite, got {w}")):
            epsilon_threshold_closed_form(kind, 10, w=w, e_r=100.0,
                                          **self.KW)


class TestRadiusValidation:
    @pytest.mark.parametrize("b", [-5.0, 0.0, math.nan, math.inf])
    def test_every_bound_rejects_invalid_radius(self, b):
        calls = [
            lambda: corollary1_bound(0.5, 4.0, n_agents=50, gamma=0.02, b=b,
                                     delta=0.01),
            lambda: epsilon_threshold_numeric(1.0, gamma=1e-4, delta=0.01,
                                              b=b, n_agents=10, e_r=100.0),
            lambda: epsilon_threshold_closed_form(
                "complete", 10, gamma=1e-4, delta=0.01, b=b, w=1.0,
                e_r=100.0),
            lambda: PrivacyParams(0.5, 0.01, b),
        ]
        for call in calls:
            with pytest.raises(ValueError,
                               match="radius b must be positive and finite"):
                call()


class TestBoundReport:
    def test_demo_report_is_consistent(self):
        g = build_standard_topology("star", 5, 1.0)
        params = PrivacyParams(math.log(3), 0.00135, 2.0)
        rep = bound_report(build_perron(g, 0.2), [params] * 5)
        assert rep.lemma7_lower <= rep.exact_ess <= rep.lemma7_upper
        assert rep.lemma7_upper <= rep.theorem1_upper

    def test_heterogeneous_report(self):
        g = build_standard_topology("line", 4, 1.0)
        plist = [PrivacyParams(0.3 + 0.1 * i, 0.01, 1.0) for i in range(4)]
        rep = bound_report(build_perron(g, 0.3), plist)
        assert rep.lemma7_lower <= rep.exact_ess <= rep.lemma7_upper
        assert rep.exact_ess <= rep.theorem1_upper

    def test_equal_params_list_is_homogeneous(self):
        g = build_standard_topology("star", 5, 1.0)
        params = PrivacyParams(math.log(3), 0.00135, 2.0)
        rep = bound_report(build_perron(g, 0.2), [params] * 5)
        assert rep.theorem1_upper == corollary1_bound(
            params.epsilon, algebraic_connectivity(g), n_agents=5,
            gamma=0.2, b=params.b, delta=params.delta)
