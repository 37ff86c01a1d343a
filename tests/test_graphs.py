import numpy as np
import pytest

from dpformation import (
    NumericalError,
    PerronMatrix,
    StepSizeTooLarge,
    WeightedGraph,
    algebraic_connectivity,
    build_perron,
    build_standard_topology,
    is_connected,
    topology_lambda2,
)
from dpformation.bounds import epsilon_threshold_numeric
from dpformation.graphs import check_positive
from dpformation.privacy import PrivacyParams
from chain_reference import (
    bfs_is_connected,
    kemeny_constant,
    kemeny_spectral_bounds,
    stationary_distribution,
)
from graph_reference import max_degree, random_connected_graph


def two_node_graph(w=1.0):
    return WeightedGraph(2, ((0, 1, w),))


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(3, ((0, 0, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            WeightedGraph(2, ((0, 1, 0.0),))

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="finite"):
            WeightedGraph(2, ((0, 1, w),))

    def test_adjacency_symmetric(self):
        g = random_connected_graph(8, np.random.default_rng(0))
        a = g.adjacency_matrix()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)


class TestTopologies:
    def test_complete_lambda2_is_wn(self):
        g = build_standard_topology("complete", 10, 1.0)
        assert algebraic_connectivity(g) == pytest.approx(10.0, abs=1e-10)

    def test_cycle4_lambda2(self):
        g = build_standard_topology("cycle", 4, 1.0)
        assert algebraic_connectivity(g) == pytest.approx(2.0, abs=1e-10)

    def test_star_lambda2_is_w(self):
        g = build_standard_topology("star", 10, 1.0)
        assert algebraic_connectivity(g) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_line_lambda2_closed_form(self, n):
        g = build_standard_topology("line", n, 0.7)
        expected = 2 * 0.7 * (1 - np.cos(np.pi / n))
        assert algebraic_connectivity(g) == pytest.approx(expected, rel=1e-10)
        assert topology_lambda2("line", n, 0.7) == pytest.approx(expected)

    def test_star_hub_is_node_zero(self):
        g = build_standard_topology("star", 6, 1.0)
        assert np.diag(g.laplacian)[0] == 5

    @pytest.mark.parametrize("kind,n", [("complete", 1), ("cycle", 2),
                                        ("line", 1), ("star", 1)])
    def test_invalid_sizes_rejected(self, kind, n):
        with pytest.raises(ValueError):
            build_standard_topology(kind, n)

    @pytest.mark.parametrize("n, kind", [
        (n, kind) for n in (-1, 0, 1)
        for kind in ("complete", "cycle", "line", "star")] + [(2, "cycle")])
    def test_closed_form_lambda2_needs_two_agents(self, n, kind):
        least = 3 if kind == "cycle" else 2
        with pytest.raises(ValueError, match=f"n >= {least}"):
            topology_lambda2(kind, n)

    @pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("build", [build_standard_topology,
                                       topology_lambda2])
    def test_invalid_weight_rejected(self, build, w):
        with pytest.raises(ValueError,
                           match=f"w must be positive and finite, got {w}"):
            build("cycle", 5, w)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_standard_topology("wheel", 5)


class TestLaplacian:
    def test_two_node_laplacian(self):
        assert np.array_equal(two_node_graph().laplacian,
                              [[1.0, -1.0], [-1.0, 1.0]])

    def test_complete3(self):
        lap = build_standard_topology("complete", 3, 1.0).laplacian
        assert np.array_equal(np.diag(lap), [2.0, 2.0, 2.0])
        assert lap[0, 1] == lap[1, 2] == -1.0

    def test_row_sums_zero(self):
        g = random_connected_graph(12, np.random.default_rng(3))
        assert np.max(np.abs(g.laplacian.sum(axis=1))) < 1e-14


class TestConnectivity:
    def test_line_connected(self):
        assert is_connected(build_standard_topology("line", 5, 1.0))

    def test_isolated_nodes(self):
        g = WeightedGraph(2, ())
        assert not is_connected(g)
        assert algebraic_connectivity(g) == 0.0

    def test_two_components_lambda2_zero(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        assert not is_connected(g)
        assert algebraic_connectivity(g) < 1e-12

    def test_spectral_agrees_with_search(self):
        # 100 random graphs, half made disconnected by dropping a cut node
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(3, 20))
            g = random_connected_graph(n, rng)
            if trial % 2:
                # isolate node 0 to break connectivity
                g = WeightedGraph(n, tuple(e for e in g.edges
                                           if 0 not in e[:2]))
            assert is_connected(g) == (algebraic_connectivity(g) > 1e-9)

    def test_search_agrees_with_scipy_bfs(self):
        # 100 random connected graphs, and 100 graphs of two random
        # connected components, each with its nodes relabelled at random
        # (random_connected_graph links every node to a lower-numbered one)
        rng = np.random.default_rng(7)

        def relabelled(n, parts):
            perm = [int(k) for k in rng.permutation(n)]
            return WeightedGraph(n, tuple(
                (perm[offset + i], perm[offset + j], w)
                for offset, g in parts for i, j, w in g.edges))

        for _ in range(100):
            n = int(rng.integers(1, 60))
            g = relabelled(n, [(0, random_connected_graph(
                n, rng, float(rng.uniform(0.0, 0.3))))])
            assert is_connected(g)
            assert bfs_is_connected(g)
            n1, n2 = (int(k) for k in rng.integers(1, 30, size=2))
            split = relabelled(n1 + n2, [(0, random_connected_graph(n1, rng)),
                                         (n1, random_connected_graph(n2, rng))])
            assert not is_connected(split)
            assert not bfs_is_connected(split)


class TestPerron:
    def test_two_node_exact(self):
        p = build_perron(two_node_graph(), 0.25)
        assert np.array_equal(p.matrix, [[0.75, 0.25], [0.25, 0.75]])

    def test_star5_valid_step(self):
        p = build_perron(build_standard_topology("star", 5, 1.0), 0.2)
        assert np.max(np.abs(p.matrix.sum(axis=0) - 1)) < 1e-12
        assert np.max(np.abs(p.matrix.sum(axis=1) - 1)) < 1e-12
        assert np.all(p.matrix >= 0)

    def test_star5_step_too_large(self):
        g = build_standard_topology("star", 5, 1.0)
        with pytest.raises(StepSizeTooLarge, match="node 0"):
            build_perron(g, 0.3)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            build_perron(WeightedGraph(3, ((0, 1, 1.0),)), 0.1)

    def test_eigenvalue_consistency(self):
        # second-largest eigenvalue of P is 1 - gamma*lambda2(L)
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(3, 15)), rng)
            gamma = 0.5 / max_degree(g)
            p = build_perron(g, gamma)
            lam2p = np.sort(np.linalg.eigvalsh(p.matrix))[-2]
            assert lam2p == pytest.approx(
                1 - gamma * algebraic_connectivity(g), abs=1e-10)


class TestStationary:
    def test_uniform_n5(self):
        p = build_perron(build_standard_topology("star", 5, 1.0), 0.2)
        assert np.array_equal(stationary_distribution(p), np.full(5, 0.2))

    def test_uniform_n2(self):
        p = build_perron(two_node_graph(), 0.25)
        assert np.array_equal(stationary_distribution(p), [0.5, 0.5])

    def test_residual_random_n8(self):
        g = random_connected_graph(8, np.random.default_rng(11))
        p = build_perron(g, 0.5 / max_degree(g))
        pi = stationary_distribution(p)
        assert np.max(np.abs(pi @ p.matrix - pi)) < 1e-12


class TestKemeny:
    def test_two_state_chain(self):
        # eigenvalues {1, 0.5}, so K = 1/(1 - 0.5) = 2
        p = build_perron(two_node_graph(), 0.25)
        assert kemeny_constant(p.matrix) == pytest.approx(2.0, rel=1e-12)

    def test_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(3, 12)), rng)
            p = build_perron(g, 0.5 / max_degree(g))
            assert kemeny_constant(p.matrix) > (g.n - 1) / 2

    def test_squared_chain_spectral_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(3, 12)), rng)
            p = build_perron(g, 0.5 / max_degree(g))
            k2 = kemeny_constant(p.matrix @ p.matrix)
            lo, hi = kemeny_spectral_bounds(p, algebraic_connectivity(g))
            assert lo < k2 <= hi * (1 + 1e-12)

    def test_reducible_chain_raises(self):
        block = np.array([[0.75, 0.25], [0.25, 0.75]])
        disconnected = np.block([[block, np.zeros((2, 2))],
                                 [np.zeros((2, 2)), block]])
        with pytest.raises(NumericalError):
            kemeny_constant(disconnected)


class TestSpectralCore:
    def test_one_eigensolve_per_graph(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m: calls.append(1) or eigh(m))
        g = random_connected_graph(10, np.random.default_rng(8))
        p = build_perron(g, 0.3 / max_degree(g))
        assert algebraic_connectivity(g) == g.spectrum[0][1]
        assert p.mode_gaps.shape == (9,)
        assert len(calls) == 1

    def test_spectrum_diagonalizes_laplacian(self):
        g = random_connected_graph(10, np.random.default_rng(9))
        lam, u = g.spectrum
        assert np.allclose(u @ np.diag(lam) @ u.T, g.laplacian, atol=1e-12)
        assert np.all(np.diff(lam) >= 0)

    def test_cached_arrays_are_read_only(self):
        g = build_standard_topology("cycle", 5, 1.0)
        with pytest.raises(ValueError):
            g.laplacian[0, 0] = 3.0
        with pytest.raises(ValueError):
            g.spectrum[0][0] = 1.0

    def test_mode_gaps_are_one_minus_mu_squared(self):
        g = random_connected_graph(7, np.random.default_rng(10))
        p = build_perron(g, 0.5 / max_degree(g))
        mu = np.sort(np.linalg.eigvalsh(p.matrix))[::-1][1:]
        assert np.allclose(np.sort(p.mode_gaps), np.sort(1 - mu**2),
                           rtol=1e-10)

    def test_stationary_modes_divide_by_one_minus_mu_i_mu_j(self):
        # P has negative eigenvalues at gamma near 1 / d_max
        g = random_connected_graph(7, np.random.default_rng(11))
        p = build_perron(g, 0.95 / max_degree(g))
        c = np.diag(np.linspace(0.5, 2.0, 7))
        mu, u = np.linalg.eigh(p.matrix)
        mu, u = mu[::-1][1:], u[:, ::-1][:, 1:]
        want = (u.T @ c @ u) / (1.0 - np.outer(mu, mu))
        got = p.stationary_modes(c)
        # eigenvector signs are arbitrary: compare |M_ij| and the diagonal
        assert np.allclose(np.abs(got), np.abs(want), rtol=1e-9, atol=0)
        assert np.array_equal(np.diag(got),
                              np.diag(p.graph.spectrum[1][:, 1:].T @ c
                                      @ p.graph.spectrum[1][:, 1:])
                              / p.mode_gaps)

    def test_stationary_modes_refuse_a_mode_that_does_not_mix(self):
        # gamma * lambda_max = 2 puts mu = -1 on the line's top mode
        g = build_standard_topology("line", 2, 1.0)
        p = PerronMatrix(np.eye(2) - 1.0 * g.laplacian, 1.0, g)
        with pytest.raises(NumericalError, match="no mixing"):
            p.stationary_modes(np.eye(2))


# each input that check_positive guards, with a public call that reads it
POSITIVE_INPUTS = {
    "gamma": lambda v: build_perron(build_standard_topology("star", 5), v),
    "adjacency radius b": lambda v: PrivacyParams(0.5, 0.01, v),
    "w": lambda v: topology_lambda2("cycle", 5, v),
    "e_r": lambda v: epsilon_threshold_numeric(1.0, gamma=1e-4, delta=0.01,
                                               b=5.0, n_agents=10, e_r=v),
}


class TestCheckPositive:
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"),
                                       float("nan")])
    @pytest.mark.parametrize("what", sorted(POSITIVE_INPUTS))
    def test_exact_message_for_each_input(self, what, value):
        message = f"{what} must be positive and finite, got {value}"
        with pytest.raises(ValueError) as direct:
            check_positive(value, what)
        with pytest.raises(ValueError) as public:
            POSITIVE_INPUTS[what](value)
        assert str(direct.value) == str(public.value) == message
