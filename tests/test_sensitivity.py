import numpy as np
import pytest

from dpformation import (
    SensitivityPoint,
    corollary1_bound,
    dominance_quadratic,
    partial_epsilon,
    partial_lambda2,
    sensitivity_compare,
    theorem3_thresholds,
)


def make_point(epsilon=0.3, lambda2=3.0, gamma=0.1, delta=0.00135, b=1.0,
               n_agents=10):
    return SensitivityPoint(epsilon=epsilon, delta=delta, b=b, gamma=gamma,
                            n_agents=n_agents, lambda2=lambda2)


def fd_epsilon(pt, rel_step=1e-6):
    h = pt.epsilon * rel_step
    kw = dict(n_agents=pt.n_agents, gamma=pt.gamma, b=pt.b, delta=pt.delta)
    return (corollary1_bound(pt.epsilon + h, pt.lambda2, **kw)
            - corollary1_bound(pt.epsilon - h, pt.lambda2, **kw)) / (2 * h)


def fd_lambda2(pt, rel_step=1e-6):
    h = pt.lambda2 * rel_step
    kw = dict(n_agents=pt.n_agents, gamma=pt.gamma, b=pt.b, delta=pt.delta)
    return (corollary1_bound(pt.epsilon, pt.lambda2 + h, **kw)
            - corollary1_bound(pt.epsilon, pt.lambda2 - h, **kw)) / (2 * h)


class TestPartialEpsilon:
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.7, 1.0])
    @pytest.mark.parametrize("lambda2", [0.5, 3.0, 9.0])
    def test_matches_finite_difference(self, epsilon, lambda2):
        pt = make_point(epsilon=epsilon, lambda2=lambda2)
        assert partial_epsilon(pt) == pytest.approx(fd_epsilon(pt), rel=1e-6)

    def test_cubic_growth_at_small_epsilon(self):
        # dominant term scales like epsilon^-3: halving epsilon
        # multiplies the magnitude by ~8
        a = abs(partial_epsilon(make_point(epsilon=1e-4)))
        b = abs(partial_epsilon(make_point(epsilon=5e-5)))
        assert b / a == pytest.approx(8.0, rel=0.01)

    def test_negative_on_valid_grid(self):
        for eps in np.linspace(0.05, 1.0, 8):
            for lam2 in np.linspace(0.5, 9.5, 8):
                assert partial_epsilon(make_point(eps, lam2)) < 0


class TestPartialLambda2:
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.7])
    @pytest.mark.parametrize("lambda2", [0.5, 3.0, 9.0, 15.0])
    def test_matches_finite_difference(self, epsilon, lambda2):
        pt = make_point(epsilon=epsilon, lambda2=lambda2)
        assert partial_lambda2(pt) == pytest.approx(fd_lambda2(pt), rel=1e-6)

    def test_zero_at_bound_minimizer(self):
        # lambda2 = 1/gamma minimizes the bound in lambda2
        assert partial_lambda2(make_point(lambda2=10.0, gamma=0.1)) == 0.0

    def test_sign_change_at_minimizer(self):
        assert partial_lambda2(make_point(lambda2=9.99, gamma=0.1)) < 0
        assert partial_lambda2(make_point(lambda2=10.01, gamma=0.1)) > 0

    def test_point_validation(self):
        with pytest.raises(ValueError):
            make_point(lambda2=25.0, gamma=0.1)  # >= 2/gamma
        with pytest.raises(ValueError):
            make_point(epsilon=0.0)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError,
                               match="epsilon must be positive and finite"):
                make_point(epsilon=eps)

    @pytest.mark.parametrize("b", [-1.0, 0.0, float("nan"), float("inf")])
    def test_radius_validation(self, b):
        with pytest.raises(ValueError, match="radius b"):
            make_point(b=b)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_gamma_validation(self, gamma):
        with pytest.raises(ValueError,
                           match="gamma must be positive and finite"):
            make_point(gamma=gamma)
        with pytest.raises(ValueError,
                           match="gamma must be positive and finite"):
            theorem3_thresholds(0.5, 0.01, gamma)


class TestTheorem3Thresholds:
    def test_reference_cutoff(self):
        rep = theorem3_thresholds(0.01, 0.00135, 0.1)
        assert rep.upper_cut == pytest.approx(5.55134, abs=1e-3)

    def test_alpha_value(self):
        # 0.0001 + 0.135 + 100 + 40.5 with K_delta = 3
        rep = theorem3_thresholds(0.01, 0.00135, 0.1)
        assert rep.alpha == pytest.approx(140.6351, abs=2e-3)

    def test_eta_values(self):
        rep = theorem3_thresholds(0.01, 0.00135, 0.1)
        assert rep.eta1 == pytest.approx(19.015, abs=1e-3)
        assert rep.eta2 == pytest.approx(10.005, abs=1e-3)
        assert rep.lower_cut == pytest.approx(0.005, abs=1e-3)


class TestSensitivityCompare:
    def test_star_over_ten_is_epsilon_dominant(self):
        rep = sensitivity_compare(make_point(epsilon=0.01, lambda2=1.0))
        assert rep.verdict == "epsilon_dominant"
        assert rep.in_valid_region

    def test_verdict_is_direct_partial_comparison(self):
        for lam2 in [0.5, 1.0, 5.0, 9.9, 10.0, 14.0]:
            pt = make_point(epsilon=0.01, lambda2=lam2)
            rep = sensitivity_compare(pt)
            expected = ("topology_dominant"
                        if partial_lambda2(pt) < partial_epsilon(pt)
                        else "epsilon_dominant")
            assert rep.verdict == expected

    def test_quadratic_crosscheck_flag(self):
        for lam2 in np.linspace(0.2, 15.0, 20):
            pt = make_point(epsilon=0.01, lambda2=lam2)
            rep = sensitivity_compare(pt)
            quad = dominance_quadratic(pt)
            assert rep.quadratic == quad
            assert rep.quadratic_agrees == (
                (quad < 0) == (rep.verdict == "topology_dominant"))

    def test_valid_region_flag(self):
        assert sensitivity_compare(make_point(lambda2=9.0)).in_valid_region
        assert not sensitivity_compare(
            make_point(lambda2=12.0)).in_valid_region
