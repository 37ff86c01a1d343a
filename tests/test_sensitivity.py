import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpformation import (
    NumericalError,
    corollary1_bound,
    sensitivity_compare,
    theorem3_thresholds,
)


def make_point(epsilon=0.3, lambda2=3.0, gamma=0.1, delta=0.00135, b=1.0,
               n_agents=10):
    return dict(epsilon=epsilon, delta=delta, b=b, gamma=gamma,
                n_agents=n_agents, lambda2=lambda2)


def compare(*args, **kw):
    return sensitivity_compare(**make_point(*args, **kw))


def bound_at(pt, epsilon, lambda2):
    return corollary1_bound(epsilon, lambda2, n_agents=pt["n_agents"],
                            gamma=pt["gamma"], b=pt["b"], delta=pt["delta"])


def fd_epsilon(pt, rel_step=1e-6):
    e, lam2 = pt["epsilon"], pt["lambda2"]
    h = e * rel_step
    return (bound_at(pt, e + h, lam2) - bound_at(pt, e - h, lam2)) / (2 * h)


def fd_lambda2(pt, rel_step=1e-6):
    e, lam2 = pt["epsilon"], pt["lambda2"]
    h = lam2 * rel_step
    return (bound_at(pt, e, lam2 + h) - bound_at(pt, e, lam2 - h)) / (2 * h)


class TestPartialEpsilon:
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.7, 1.0])
    @pytest.mark.parametrize("lambda2", [0.5, 3.0, 9.0])
    def test_matches_finite_difference(self, epsilon, lambda2):
        pt = make_point(epsilon=epsilon, lambda2=lambda2)
        assert sensitivity_compare(**pt).d_epsilon == pytest.approx(
            fd_epsilon(pt), rel=1e-6)

    def test_cubic_growth_at_small_epsilon(self):
        # dominant term scales like epsilon^-3: halving epsilon
        # multiplies the magnitude by ~8
        a = abs(compare(epsilon=1e-4).d_epsilon)
        b = abs(compare(epsilon=5e-5).d_epsilon)
        assert b / a == pytest.approx(8.0, rel=0.01)

    def test_negative_on_valid_grid(self):
        for eps in np.linspace(0.05, 1.0, 8):
            for lam2 in np.linspace(0.5, 9.5, 8):
                assert compare(eps, lam2).d_epsilon < 0


class TestPartialLambda2:
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.7])
    @pytest.mark.parametrize("lambda2", [0.5, 3.0, 9.0, 15.0])
    def test_matches_finite_difference(self, epsilon, lambda2):
        pt = make_point(epsilon=epsilon, lambda2=lambda2)
        assert sensitivity_compare(**pt).d_lambda2 == pytest.approx(
            fd_lambda2(pt), rel=1e-6)

    def test_zero_at_bound_minimizer(self):
        # lambda2 = 1/gamma minimizes the bound in lambda2
        assert compare(lambda2=10.0, gamma=0.1).d_lambda2 == 0.0

    def test_sign_change_at_minimizer(self):
        assert compare(lambda2=9.99, gamma=0.1).d_lambda2 < 0
        assert compare(lambda2=10.01, gamma=0.1).d_lambda2 > 0

    def test_point_validation(self):
        with pytest.raises(ValueError):
            compare(lambda2=25.0, gamma=0.1)  # >= 2/gamma
        with pytest.raises(ValueError):
            compare(epsilon=0.0)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError,
                               match="epsilon must be positive and finite"):
                compare(epsilon=eps)

    @pytest.mark.parametrize("b", [-1.0, 0.0, float("nan"), float("inf")])
    def test_radius_validation(self, b):
        with pytest.raises(ValueError, match="radius b"):
            compare(b=b)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_gamma_validation(self, gamma):
        with pytest.raises(ValueError,
                           match="gamma must be positive and finite"):
            compare(gamma=gamma)
        with pytest.raises(ValueError,
                           match="gamma must be positive and finite"):
            theorem3_thresholds(0.5, 0.01, gamma)


class TestTheorem3Thresholds:
    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"),
                                     float("inf")])
    def test_rejects_epsilon(self, eps):
        # it used to return cutoffs for eps <= 0 and raise NumericalError
        # for nan and inf
        with pytest.raises(ValueError, match=re.escape(
                f"epsilon must be positive and finite, got {eps}")):
            theorem3_thresholds(eps, 0.00135, 0.1)

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
        rep = compare(epsilon=0.01, lambda2=1.0)
        assert rep.verdict == "epsilon_dominant"
        assert rep.in_valid_region

    def test_verdict_is_direct_partial_comparison(self):
        for lam2 in [0.5, 1.0, 5.0, 9.9, 10.0, 14.0]:
            rep = compare(epsilon=0.01, lambda2=lam2)
            expected = ("topology_dominant"
                        if rep.d_lambda2 < rep.d_epsilon
                        else "epsilon_dominant")
            assert rep.verdict == expected

    def test_valid_region_flag(self):
        assert compare(lambda2=9.0).in_valid_region
        assert not compare(lambda2=12.0).in_valid_region

    def test_validates_before_the_cutoffs(self):
        # an epsilon that overflows the literal cutoffs' epsilon**2 still
        # reports the bound's own range error first
        with pytest.raises(ValueError, match="2/gamma"):
            compare(epsilon=1e200, lambda2=25.0)

    def test_exact_cutoff_is_the_literal_lower_one(self):
        rep = compare(epsilon=0.01, lambda2=7.0)
        assert rep.exact_cutoff == pytest.approx(0.00500152335, rel=1e-9)
        assert rep.exact_cutoff == pytest.approx(rep.cutoffs.lower_cut,
                                                 rel=1e-8)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(1e-4, 10.0), delta=st.floats(1e-12, 0.49),
       epsilon=st.floats(1e-3, 1e3), where=st.floats(1e-9, 1 - 1e-9),
       near=st.booleans())
def test_exact_cutoff_splits_the_verdict(gamma, delta, epsilon, where, near):
    # Theorem 3: on the bound's whole domain (0, 2/gamma), topology
    # dominates exactly below one cutoff, and that cutoff lies in
    # (0, 1/gamma). lambda2 is drawn across the domain or within a
    # factor 2 of the cutoff; a 1e-9 relative band around it is left out
    kw = dict(n_agents=10, gamma=gamma, b=1.0, delta=delta)
    cut = sensitivity_compare(epsilon, 1.0 / gamma, **kw).exact_cutoff
    assert 0 < cut < 1.0 / gamma
    lam2 = cut * 2.0 ** (2.0 * where - 1.0) if near else 2.0 / gamma * where
    assume(abs(lam2 - cut) > 1e-9 * cut)
    rep = sensitivity_compare(epsilon, lam2, **kw)
    assert rep.exact_cutoff == cut
    assert (rep.verdict == "topology_dominant") == (lam2 < cut)


@pytest.mark.parametrize("point, what, named", [
    (make_point(epsilon=1e-300, lambda2=2.0), "the bound", "epsilon=1e-300"),
    (make_point(epsilon=1e200, lambda2=2.0), "the Theorem-3 cutoffs",
     "epsilon=1e+200"),
    (make_point(epsilon=0.5, lambda2=2.0, gamma=1e-320),
     "the Theorem-3 cutoffs", "gamma=1e-320")],
    ids=["bound-inf", "epsilon-squared", "gamma-squared"])
def test_no_finite_report_raises(point, what, named):
    # the first used to report two -inf partials and a verdict, the others
    # raised OverflowError and ZeroDivisionError naming no input
    match = f"{what} at .*" + re.escape(named)
    with pytest.raises(NumericalError, match=match):
        sensitivity_compare(**point)
