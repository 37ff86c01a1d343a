import re
import tracemalloc

import numpy as np
import pytest

from dpformation import (
    WeightedGraph,
    averaging_window,
    build_perron,
    build_standard_topology,
    estimate_ess,
    exact_ess_oracle,
    noise_covariance,
    run_trials,
)
from dpformation.dynamics import (
    BLOCK_DRAWS,
    TILE_TRIALS,
    noise_gain,
    tile_rng,
)
from graph_reference import max_degree, random_connected_graph
from mc_reference import (
    check_interval_coverage,
    whole_tensor_run_trials,
    window_mean_variance,
)
from step_reference import (
    beta,
    error_series,
    noiseless_step,
    offset,
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
        anchors = np.array([[0.0, 0.0], [-20.0, 20.0], [20.0, 20.0]])
        for i in range(3):
            for j in range(3):
                assert np.array_equal(offset(anchors, i, j),
                                      -offset(anchors, j, i))

    def test_offsets_consistent_with_anchors(self):
        anchors = np.random.default_rng(1).normal(size=(4, 3))
        assert np.array_equal(offset(anchors, 1, 3), anchors[3] - anchors[1])


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
            p = build_perron(g, 0.5 / max_degree(g))
            x = rng.normal(size=g.n)
            v = rng.normal(size=g.n)
            node = private_step_node(x, g, p.gamma, v)
            network = private_step_network(x, p, v)
            assert np.max(np.abs(node - network)) <= 1e-12

    def test_perturbation_variance_matches_model(self, star5):
        # empirical Cov[z] of z = G v over 1e5 draws vs G diag(sigma^2) G;
        # the network model keeps its diagonal, gamma^2 sum w^2 sigma^2
        _, p = star5
        sigmas = np.array([1.0, 2.0, 0.5, 1.5, 3.0])
        rng = np.random.default_rng(6)
        v = rng.standard_normal((10**5, 5)) * sigmas
        z = v @ noise_gain(p)
        protocol = noise_covariance(p, sigmas, "protocol")
        network = noise_covariance(p, sigmas, "network")
        assert np.max(np.abs(z.var(axis=0) / np.diag(network) - 1)) < 0.02
        # the leaves share the hub as their one neighbor, so they correlate
        assert protocol[1, 2] > 0
        assert np.max(np.abs(np.cov(z.T) - protocol)) < 0.02 * protocol.max()
        assert np.allclose(np.diag(protocol), np.diag(network), rtol=1e-14)
        assert np.array_equal(network, np.diag(np.diag(network)))

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
        a_agg, a_path = run_trials(p, 1.0, 30, 16, 99, jobs=1)
        b_agg, b_path = run_trials(p, 1.0, 30, 16, 99, jobs=4)
        assert np.array_equal(a_agg, b_agg)
        assert np.array_equal(a_path, b_path)

    def test_deterministic_per_master_seed(self, star5):
        _, p = star5
        a, _ = run_trials(p, 1.0, 20, 5, (3, 1))
        b, _ = run_trials(p, 1.0, 20, 5, (3, 1))
        c, _ = run_trials(p, 1.0, 20, 5, (3, 2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_trajectory_length(self, star5):
        _, p = star5
        e_agg, path = run_trials(p, 1.0, 42, 3, 0)
        assert path.shape == (43, 5)
        assert e_agg.shape == (43, 3)
        assert np.all(e_agg >= 0)

    def test_network_model_matches_marginal_variance(self, star5):
        # z variance per agent under the analytical model
        _, p = star5
        sigmas = 2.0
        e_agg, _ = run_trials(p, sigmas, 1, 20000, 123,
                              noise_model="network")
        # after one step from zero, spread of x equals z spread;
        # check aggregate against projected covariance
        cov = noise_covariance(p, sigmas, "network")
        n = 5
        q = np.eye(n) - np.full((n, n), 1.0 / n)
        expected = np.trace(q @ cov @ q) / n
        assert e_agg[1].mean() == pytest.approx(expected, rel=0.05)

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

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, star5, jobs):
        _, p = star5
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_trials(p, 1.0, 5, 3, 0, jobs=jobs)

    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    @pytest.mark.parametrize("xbar0", [3.0, [7.0], np.arange(6.0),
                                       np.ones(2), np.ones((5, 2)),
                                       np.ones((1, 5))],
                             ids=["scalar", "one", "six", "two", "5x2",
                                  "1x5"])
    def test_rejects_xbar0_not_n_numbers(self, star5, noise_model, xbar0):
        _, p = star5
        shape = np.shape(xbar0)
        with pytest.raises(ValueError, match=re.escape(
                f"xbar0 must be N = 5 numbers, got shape {shape}")):
            run_trials(p, 1.0, 5, 3, 0, xbar0=xbar0, noise_model=noise_model)

    @pytest.mark.parametrize("trials, jobs", [(1, 1), (1, 4), (7, 3),
                                              (6, 3), (2, 5)])
    def test_chunking_keeps_every_trial(self, star5, trials, jobs):
        # every trial runs once, on its own draws
        _, p = star5
        one = run_trials(p, 1.0, 9, trials, 4)
        split = run_trials(p, 1.0, 9, trials, 4, jobs=jobs)
        assert np.array_equal(split[0], one[0])
        assert np.array_equal(split[1], one[1])

    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    def test_stationary_start_has_the_stationary_law(self, star5,
                                                     noise_model):
        # the deviation of the drawn start has the stationary law, so step
        # k of the run has expected squared error
        # |Pi P^k x0|^2 / N + e_ss with Pi = I - 11^T / N, at k = 0 and
        # at every later step
        _, p = star5
        sigmas = np.array([1.0, 2.0, 0.5, 1.5, 3.0])
        x0 = np.array([1.0, -2.0, 0.0, 4.0, -3.0])
        k, trials = 3, 20000
        e_ss = exact_ess_oracle(p, noise_covariance(p, sigmas, noise_model))
        pi = np.eye(5) - np.full((5, 5), 0.2)
        e_agg, _ = run_trials(p, sigmas, k, trials, 3, xbar0=x0,
                              noise_model=noise_model, stationary=True)
        assert e_agg.shape == (k + 1, trials)
        sem = e_agg.std(axis=1, ddof=1) / np.sqrt(trials)
        mean = x0
        for row in range(k + 1):
            want = np.sum((pi @ mean) ** 2) / 5 + e_ss
            z = (e_agg[row].mean() - want) / sem[row]
            assert abs(z) <= 4.0, (row, z)
            mean = p.matrix @ mean

    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    def test_zero_noise_stationary_start_is_xbar0(self, star5, noise_model):
        # S = 0: every trial starts at xbar0 and follows P^k xbar0
        _, p = star5
        x0 = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        e_agg, path = run_trials(p, 0.0, 12, 3, 0, xbar0=x0,
                                 noise_model=noise_model, stationary=True)
        want = [x0]
        for _ in range(12):
            want.append(p.matrix @ want[-1])
        assert np.array_equal(path[0], x0)
        assert np.allclose(path, want, rtol=0, atol=1e-12)
        assert np.all(e_agg == e_agg[:, :1])

    def test_singular_protocol_start_stays_in_its_support(self, star5):
        # the star's protocol noise z = G v = gamma * (sum of the leaves'
        # v, v_hub, v_hub, v_hub, v_hub) gives every leaf the same value,
        # and P keeps the leaves equal, so the stationary deviation S lies
        # along (4, -1, -1, -1, -1) and has rank 1; the drawn start must
        # too. The zero eigenvalues come out of eigh as +-1e-16 * |S|; the
        # negative ones are clipped, and the square roots of the positive
        # ones, about 1e-8, bound how far the leaves of the start may differ
        _, p = star5
        e_agg, path = run_trials(p, 2.0, 4, 50, 0, stationary=True)
        start = path[0]
        assert np.all(np.isfinite(e_agg))
        assert np.ptp(start[1:]) <= 1e-6 * np.abs(start).max()

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_zero_horizon_is_the_initial_row(self, star5, jobs):
        _, p = star5
        x0 = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        e_agg, path = run_trials(p, 1.0, 0, 4, 0, xbar0=x0, jobs=jobs)
        assert e_agg.shape == (1, 4)
        assert np.all(e_agg == np.mean((x0 - x0.mean()) ** 2))
        assert np.array_equal(path, x0[None, :])

    @pytest.mark.parametrize("n", [2, 17, 130, 300])
    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    @pytest.mark.parametrize("stationary", [False, True])
    def test_squared_error_agrees_with_numpy_mean(self, n, noise_model,
                                                  stationary):
        # the two matrix-vector reductions sum in another order than
        # np.mean's pairwise sums, so they agree to rounding, not bit for bit
        g = random_connected_graph(n, np.random.default_rng(n))
        p = build_perron(g, 0.5 / max_degree(g))
        e_agg, x = run_trials(p, np.linspace(0.5, 2.0, n), 40, 3, (3, n),
                              xbar0=np.linspace(-3.0, 5.0, n),
                              noise_model=noise_model, stationary=stationary)
        want = np.mean((x - x.mean(axis=1, keepdims=True)) ** 2, axis=1)
        assert np.allclose(e_agg[:, 0], want, rtol=1e-14, atol=0)


class TestStreamingMatchesWholeTensor:
    """The time-blocked kernel against the whole-tensor reference, bit for
    bit, at horizons around the block boundaries, from xbar0 and from a
    stationary start."""

    # small N, N around multiples of 8, and 17 and 130, where OpenBLAS
    # rounds a row differently for different row counts
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 20, 130])
    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    @pytest.mark.parametrize("jobs", [1, 3])
    # horizon = blocks * block + extra, block = ceil(BLOCK_DRAWS / n)
    @pytest.mark.parametrize("blocks, extra",
                             [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_bit_identical(self, n, noise_model, jobs, blocks, extra):
        block = -(-BLOCK_DRAWS // n)
        self.check(n, noise_model, jobs, blocks * block + extra, 5)

    # the lone trial after one tile joins it; three tiles, the last
    # holding five trials; nine steps cross a block at N = 130
    @pytest.mark.parametrize("n", [3, 17, 130])
    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("trials", [TILE_TRIALS + 1,
                                        2 * TILE_TRIALS + 5])
    def test_bit_identical_across_tiles(self, n, noise_model, jobs, trials):
        self.check(n, noise_model, jobs, 9, trials)

    @staticmethod
    def check(n, noise_model, jobs, h, trials):
        g = random_connected_graph(n, np.random.default_rng(n))
        p = build_perron(g, 0.5 / max_degree(g))
        sigmas = np.linspace(0.5, 2.0, n)
        xbar0 = np.linspace(-3.0, 5.0, n)
        args = (p, sigmas, h, trials, (11, n))
        for stationary in (False, True):
            kw = dict(xbar0=xbar0, noise_model=noise_model,
                      stationary=stationary)
            want = whole_tensor_run_trials(*args, **kw)
            got = run_trials(*args, jobs=jobs, **kw)
            for field, g, w in zip(("e_agg", "path"), got, want):
                assert np.array_equal(g, w), (stationary, field)
            # numpy sums axis 0 of two or more trials row by row, as the
            # window sums fold the blocks
            sums = run_trials(*args, jobs=jobs, window_sums=True, **kw)
            assert np.array_equal(sums, want[0][1:].sum(axis=0)), stationary


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

    @staticmethod
    def working_memory(noise_model):
        """Peak traced bytes of a run_trials call above its error series,
        in units of one tile buffer, 8 * TILE_TRIALS * BLOCK_DRAWS bytes:
        four tiles of N = 8 agents over 200 steps on one thread."""
        h, trials, n = 200, 4 * TILE_TRIALS, 8
        p = build_perron(build_standard_topology("cycle", n, 1.0), 0.25)
        tracemalloc.start()
        try:
            run_trials(p, 1.0, h, trials, 0, noise_model=noise_model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - 8 * (h + 1) * trials) / (8 * TILE_TRIALS * BLOCK_DRAWS)

    @pytest.mark.parametrize("noise_model", ["protocol", "network"])
    def test_working_memory_does_not_grow_with_trials(self, noise_model):
        # beyond the error series, one tile's state buffer under both laws
        # and its noise buffer under the protocol law, 1 unit each (2.1
        # units in all here for the protocol law, 1.1-1.5 for the network
        # law); buffers for all the trials at once would take 4.1-4.5
        # (network) and 8.1 (protocol)
        assert self.working_memory(noise_model) < 3

    def test_window_sums_do_not_hold_the_series(self):
        # a 3-agent line at gamma = 0.001 averages W = 12500 steps; its
        # (W + 1, T) error series alone would take 28.6 MiB
        p = build_perron(build_standard_topology("line", 3, 1.0), 0.001)
        window, trials = averaging_window(p), 300
        assert window == 12500
        tracemalloc.start()
        try:
            estimate_ess(p, 1.0, trials=trials, master_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * (window + 1) * trials

    def test_network_law_holds_no_noise_buffer(self):
        # the network law draws z straight into the state rows, so it holds
        # one tile buffer (1.1-1.5 units); a noise buffer as well, as the
        # protocol law has, would make it 2.05-2.5
        assert self.working_memory("network") < 1.75


class TestDimensionDecomposition:
    def test_tile_rng_keying(self):
        # an int master seed s keys tile i as (s, i), a tuple as (*s, i),
        # behind the key's length
        def draw(seed, tile):
            return tile_rng(seed, tile).standard_normal(4)

        want = np.random.default_rng(np.random.SeedSequence((2, 5, 1)))
        assert np.array_equal(draw(5, 1), want.standard_normal(4))
        assert np.array_equal(draw(5, 1), draw((5,), 1))
        assert not np.array_equal(draw(5, 0), draw(5, 1))
        assert not np.array_equal(draw(5, 0), draw((5, 0), 0))
        for seed in (-1, (5, -2)):
            with pytest.raises(ValueError, match="non-negative"):
                tile_rng(seed, 0)


def criterion6_setup(seed):
    """Graph, step size and noise scales of the acceptance criterion-6
    configuration with graph seed `seed`."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(int(rng.integers(3, 9)), rng)
    p = build_perron(g, 0.5 / max_degree(g))
    return p, rng.uniform(0.5, 1.5, g.n)


class TestAveragingWindow:
    def test_near_periodic_cycle_window_follows_its_negative_mode(self):
        # 4-cycle at gamma = 0.49: mu = 1, 0.02, 0.02, -0.96, so rho is set
        # by the negative eigenvalue, not by gamma * lambda2
        p = build_perron(build_standard_topology("cycle", 4, 1.0), 0.49)
        assert averaging_window(p) == 313  # ceil(12.5 / 0.04)

    def test_near_periodic_cycle_interval_covers_oracle(self):
        p = build_perron(build_standard_topology("cycle", 4, 1.0), 0.49)
        exact = exact_ess_oracle(p, noise_covariance(p, 1.0, "network"))
        check_interval_coverage(p, 1.0, exact, trials=2000)

    def test_zero_rho_window(self):
        # K2 at gamma = 0.5: P = [[.5, .5], [.5, .5]] mixes in one step
        p = build_perron(WeightedGraph(2, ((0, 1, 1.0),)), 0.5)
        assert averaging_window(p) == 13


class TestEstimateEss:
    def test_zero_noise_gives_zero(self, star5):
        _, p = star5
        est = estimate_ess(p, 0.0, trials=10, master_seed=0)
        assert est.value <= 1e-9

    def test_reports_half_width(self, star5):
        _, p = star5
        est = estimate_ess(p, 1.0, trials=200, master_seed=1)
        assert est.value > 0
        assert est.half_width > 0
        assert est.trials == 200

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("trials", [2, 200, 257, 513])
    def test_value_is_mean_of_per_trial_tail_means(self, star5, jobs,
                                                   trials):
        # the streamed window sums give the series' means bit for bit
        _, p = star5
        window = averaging_window(p)
        est = estimate_ess(p, 1.0, trials=trials, master_seed=1, jobs=jobs)
        e_agg, _ = run_trials(p, 1.0, window, trials, 1,
                              noise_model="network", stationary=True)
        tail = e_agg[1:]  # steps 1 ... W
        assert len(tail) == window
        per_trial = tail.mean(axis=0)
        assert est.horizon == window
        assert est.value == float(per_trial.mean())
        assert est.value < tail.mean(axis=1).max()
        assert est.half_width == (1.96 * float(per_trial.std(ddof=1))
                                  / np.sqrt(trials))

    def test_one_trial_is_its_streamed_window_mean(self, star5):
        # numpy sums a lone trial's column pairwise, not row by row, so the
        # estimate follows the streamed sum, not the series' mean
        _, p = star5
        window = averaging_window(p)
        est = estimate_ess(p, 1.0, trials=1, master_seed=1)
        sums = run_trials(p, 1.0, window, 1, 1, noise_model="network",
                          stationary=True, window_sums=True)
        assert sums.shape == (1,)
        assert est.value == sums[0] / window
        assert est.half_width == float("inf")

    @pytest.mark.parametrize("seed", [0, 9, 27])
    def test_half_width_matches_exact_variance(self, seed):
        # second moment: the observed spread of the per-trial window means
        # against the closed-form variance of one trial's window mean
        p, sigmas = criterion6_setup(seed)
        trials = 2000
        est = estimate_ess(p, sigmas, trials=trials, master_seed=seed)
        var = window_mean_variance(
            p, noise_covariance(p, sigmas, "network"), averaging_window(p))
        ratio = est.half_width / (1.96 * np.sqrt(var / trials))
        assert 0.9 <= ratio <= 1.1, ratio

    def test_invalid_args(self, star5):
        _, p = star5
        with pytest.raises(ValueError):
            estimate_ess(p, 1.0, trials=0)
