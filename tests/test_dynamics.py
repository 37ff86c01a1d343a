import tracemalloc

import numpy as np
import pytest

from dpformation import (
    FormationSpec,
    NonMixingWarning,
    build_perron,
    build_standard_topology,
    error_series,
    estimate_ess,
    noise_covariance_diag,
    random_connected_graph,
    run_trials,
)
from dpformation.dynamics import BLOCK_DRAWS, noise_gain, trial_rng
from mc_reference import whole_tensor_run_trials
from step_reference import (
    beta,
    noiseless_step,
    private_step,
    private_step_network,
    private_step_node,
)


@pytest.fixture
def star5():
    g = build_standard_topology("star", 5, 1.0)
    return g, build_perron(g, 0.2)


class TestFormationSpec:
    def test_offsets_antisymmetric(self):
        spec = FormationSpec(np.array([[0.0, 0.0], [-20.0, 20.0],
                                       [20.0, 20.0]]))
        for i in range(3):
            for j in range(3):
                assert np.array_equal(spec.offset(i, j), -spec.offset(j, i))

    def test_offsets_consistent_with_anchors(self):
        anchors = np.random.default_rng(1).normal(size=(4, 3))
        spec = FormationSpec(anchors)
        assert np.array_equal(spec.offset(1, 3), anchors[3] - anchors[1])

    def test_component_extraction(self):
        spec = FormationSpec(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(spec.component(1), [2.0, 4.0])


class TestNoiselessStep:
    def test_consensus_fixed_point(self, star5):
        _, p = star5
        x = np.full(5, 3.7)
        assert np.allclose(noiseless_step(x, p), x, atol=1e-14)

    def test_mean_preserved(self, star5):
        _, p = star5
        x = np.random.default_rng(2).normal(size=5)
        assert noiseless_step(x, p).mean() == pytest.approx(x.mean(),
                                                            abs=1e-12)

    def test_converges_to_initial_mean(self, star5):
        _, p = star5
        x = np.random.default_rng(3).normal(scale=10.0, size=5)
        target = x.mean()
        for _ in range(200):
            x = noiseless_step(x, p)
        assert np.max(np.abs(x - target)) < 1e-9


class TestPrivateStep:
    def test_zero_noise_matches_noiseless(self, star5):
        _, p = star5
        x = np.random.default_rng(4).normal(size=5)
        rng = np.random.default_rng(0)
        assert np.array_equal(private_step(x, p, 0.0, rng),
                              noiseless_step(x, p))

    def test_node_and_network_forms_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(3, 12)), rng)
            p = build_perron(g, 0.5 / g.max_degree())
            x = rng.normal(size=g.n)
            v = rng.normal(size=g.n)
            node = private_step_node(x, g, p.gamma, v)
            network = private_step_network(x, p, v)
            assert np.max(np.abs(node - network)) <= 1e-12

    def test_perturbation_variance_matches_model(self, star5):
        # empirical Var[z_i] over 1e5 draws vs gamma^2 sum w^2 sigma^2
        _, p = star5
        sigmas = np.array([1.0, 2.0, 0.5, 1.5, 3.0])
        rng = np.random.default_rng(6)
        v = rng.standard_normal((10**5, 5)) * sigmas
        z = v @ noise_gain(p)
        expected = noise_covariance_diag(p, sigmas)
        assert np.max(np.abs(z.var(axis=0) / expected - 1)) < 0.02

    def test_mean_evolves_by_noise_sum(self, star5):
        _, p = star5
        x = np.zeros(5)
        v = np.random.default_rng(7).normal(size=5)
        nxt = private_step_network(x, p, v)
        z = noise_gain(p) @ v
        assert nxt.sum() == pytest.approx(x.sum() + z.sum(), abs=1e-12)


class TestBeta:
    def test_zero_anchor_gives_mean(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(beta(x, np.zeros(3)), 2.0)

    def test_state_in_formation_is_fixed(self):
        q = np.array([0.0, -20.0, 20.0])
        assert np.allclose(beta(q, q), q)

    def test_mean_equals_state_mean(self):
        rng = np.random.default_rng(8)
        x, q = rng.normal(size=6), rng.normal(size=6)
        assert beta(x, q).mean() == pytest.approx(x.mean(), abs=1e-12)


class TestErrorSeries:
    def test_noiseless_error_decays(self, star5):
        _, p = star5
        x = np.random.default_rng(9).normal(size=5)
        traj = [x]
        for _ in range(150):
            traj.append(noiseless_step(traj[-1], p))
        _, e_agg = error_series(np.array(traj))
        assert e_agg[-1] < 1e-18
        assert e_agg[0] > e_agg[-1]

    def test_unit_norm_offset_gives_unit_error(self):
        # mean-zero perturbation u with ||u||^2 = N on top of consensus
        u = np.array([1.0, -1.0, 1.0, -1.0])
        xbar = np.full(4, 2.5) + u
        _, e_agg = error_series(xbar[None, :])
        assert e_agg[0] == pytest.approx(1.0, abs=1e-14)


class TestRunTrials:
    def test_trial_seeding_is_chunk_independent(self, star5):
        _, p = star5
        a = run_trials(p, 1.0, 30, 16, 99, jobs=1)
        b = run_trials(p, 1.0, 30, 16, 99, jobs=4)
        assert np.array_equal(a.e_agg_trials, b.e_agg_trials)
        assert np.array_equal(a.first_trajectory, b.first_trajectory)

    def test_deterministic_per_master_seed(self, star5):
        _, p = star5
        a = run_trials(p, 1.0, 20, 5, (3, 1))
        b = run_trials(p, 1.0, 20, 5, (3, 1))
        c = run_trials(p, 1.0, 20, 5, (3, 2))
        assert np.array_equal(a.e_agg_mean, b.e_agg_mean)
        assert not np.array_equal(a.e_agg_mean, c.e_agg_mean)

    def test_trajectory_length(self, star5):
        _, p = star5
        ens = run_trials(p, 1.0, 42, 3, 0)
        assert ens.first_trajectory.shape == (43, 5)
        assert ens.e_agg_mean.shape == (43,)
        assert np.all(ens.e_agg_trials >= 0)

    def test_network_model_matches_marginal_variance(self, star5):
        # z variance per agent under the analytical model
        _, p = star5
        sigmas = 2.0
        ens = run_trials(p, sigmas, 1, 20000, 123, noise_model="network")
        # after one step from zero, spread of x equals z spread;
        # check aggregate against projected covariance
        expected_diag = noise_covariance_diag(p, sigmas)
        n = 5
        q = np.eye(n) - np.full((n, n), 1.0 / n)
        expected = np.trace(q @ np.diag(expected_diag) @ q) / n
        assert ens.e_agg_mean[1] == pytest.approx(expected, rel=0.05)

    def test_unknown_noise_model_rejected(self, star5):
        _, p = star5
        with pytest.raises(ValueError, match="noise_model"):
            run_trials(p, 1.0, 5, 2, 0, noise_model="other")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_nonpositive_trials(self, star5, trials):
        _, p = star5
        with pytest.raises(ValueError, match="trials"):
            run_trials(p, 1.0, 5, trials, 0)

    def test_rejects_negative_horizon(self, star5):
        _, p = star5
        with pytest.raises(ValueError, match="horizon"):
            run_trials(p, 1.0, -1, 3, 0)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_zero_horizon_is_the_initial_row(self, star5, jobs):
        _, p = star5
        x0 = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        ens = run_trials(p, 1.0, 0, 4, 0, xbar0=x0, jobs=jobs)
        assert ens.e_agg_trials.shape == (1, 4)
        assert np.all(ens.e_agg_trials == np.mean((x0 - x0.mean()) ** 2))
        assert np.array_equal(ens.first_trajectory, x0[None, :])
        assert np.array_equal(ens.e_agg_sem, [0.0])


class TestStreamingMatchesWholeTensor:
    """The time-blocked kernel against the whole-tensor reference, bit for
    bit, at horizons around the block boundaries."""

    @pytest.mark.parametrize("n", [3, 8, 20])
    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    @pytest.mark.parametrize("jobs", [1, 3])
    # horizon = blocks * block + extra, block = ceil(BLOCK_DRAWS / n)
    @pytest.mark.parametrize("blocks, extra",
                             [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_bit_identical(self, n, noise_model, jobs, blocks, extra):
        g = random_connected_graph(n, np.random.default_rng(n))
        p = build_perron(g, 0.5 / g.max_degree())
        sigmas = np.linspace(0.5, 2.0, n)
        xbar0 = np.linspace(-3.0, 5.0, n)
        h = blocks * -(-BLOCK_DRAWS // n) + extra
        args = (p, sigmas, h, 5, (11, n))
        kw = dict(xbar0=xbar0, jobs=jobs, noise_model=noise_model)
        got = run_trials(*args, **kw)
        want = whole_tensor_run_trials(*args, **kw)
        for field in ("e_agg_trials", "e_agg_mean", "e_agg_sem",
                      "first_trajectory"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), \
                field


class TestRunTrialsMemory:
    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    def test_peak_below_half_the_noise_tensor(self, noise_model):
        # the whole-tensor kernel peaks at 2.1x (network) and 3.0x
        # (protocol) the 8*h*T*N bytes of one (h, T, N) noise tensor
        h, trials, n = 4000, 500, 8
        p = build_perron(build_standard_topology("cycle", n, 1.0), 0.25)
        tracemalloc.start()
        try:
            run_trials(p, 1.0, h, trials, 0, noise_model=noise_model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * h * trials * n


class TestDimensionDecomposition:
    def test_multidim_run_equals_scalar_runs(self, star5):
        # dimension l of an n-dimensional run is the scalar run keyed by
        # (seed, l); exact equality on matched seeds
        _, p = star5
        anchors = np.array([[0.0, 0.0], [-20.0, 20.0], [20.0, 20.0],
                            [20.0, -20.0], [-20.0, -20.0]])
        spec = FormationSpec(anchors)
        seed = 77
        for l in range(spec.dimensions):
            q = spec.component(l)
            full = run_trials(p, 2.0, 25, 4, (seed, l), xbar0=-q)
            scalar = run_trials(p, 2.0, 25, 4, (seed, l), xbar0=-q)
            assert np.array_equal(full.e_agg_trials, scalar.e_agg_trials)

    def test_trial_rng_keying(self):
        a = trial_rng(5, 0).standard_normal(4)
        b = trial_rng((5, 0), 0).standard_normal(4)
        c = trial_rng(5, 0).standard_normal(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestEstimateEss:
    def test_zero_noise_gives_zero(self, star5):
        _, p = star5
        est = estimate_ess(p, 0.0, trials=10, horizon=50, master_seed=0)
        assert est.value <= 1e-9

    def test_reports_half_width(self, star5):
        _, p = star5
        est = estimate_ess(p, 1.0, trials=200, horizon=150, master_seed=1)
        assert est.value > 0
        assert est.half_width > 0
        assert est.trials == 200

    @pytest.mark.filterwarnings("ignore::dpformation.NonMixingWarning")
    def test_value_is_mean_of_per_trial_tail_means(self, star5):
        _, p = star5
        est = estimate_ess(p, 1.0, trials=200, horizon=150, master_seed=1)
        ens = run_trials(p, 1.0, 150, 200, 1, noise_model="network")
        tail = ens.e_agg_trials[151 - 37:]  # the last quarter of 151 steps
        per_trial = tail.mean(axis=0)
        assert est.value == pytest.approx(per_trial.mean(), rel=1e-14)
        assert est.value < tail.mean(axis=1).max()
        assert est.half_width == pytest.approx(
            1.96 * per_trial.std(ddof=1) / np.sqrt(200), rel=1e-14)

    def test_nonmixing_warning_on_trending_tail(self, star5):
        # start far from equilibrium with a horizon too short to mix
        _, p = star5
        with pytest.warns(NonMixingWarning):
            estimate_ess(p, 0.1, trials=50, horizon=12, master_seed=2,
                         xbar0=np.array([100.0, 0.0, 0.0, 0.0, 0.0]))

    def test_invalid_args(self, star5):
        _, p = star5
        with pytest.raises(ValueError):
            estimate_ess(p, 1.0, trials=0)
        with pytest.raises(ValueError):
            estimate_ess(p, 1.0, trials=2, tail_fraction=0.0)
