import math
import warnings

import numpy as np
import pytest

from dpformation import (
    PrivacyParams,
    is_adjacent,
    kappa,
    noise_scale,
    q_function,
    q_inverse,
    sample_noise,
)
from dpformation.privacy import PrivacyRangeWarning
from threshold_reference import brentq_q_inverse

# upper-tail probabilities computed with mpmath at 50 digits
Q_REFERENCE = [
    (0.5, 0.30853753872598689636),
    (1.0, 0.15865525393145705141),
    (2.0, 0.0227501319481792072),
    (3.0, 0.0013498980316300945267),
    (5.0, 2.8665157187919391167e-7),
]


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == 0.5

    def test_tail_limits(self):
        assert q_function(40.0) == pytest.approx(0.0, abs=1e-300)
        assert q_function(-40.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("y,expected", Q_REFERENCE)
    def test_against_high_precision(self, y, expected):
        assert q_function(y) == pytest.approx(expected, abs=1e-12)
        assert q_function(-y) == pytest.approx(1 - expected, abs=1e-12)


class TestQInverse:
    def test_k_delta_three(self):
        assert q_inverse(0.00135) == pytest.approx(3.0, abs=2e-3)

    def test_one_percent(self):
        assert q_inverse(0.01) == pytest.approx(2.3263478740408411, rel=1e-10)

    def test_near_half_is_near_zero(self):
        assert q_inverse(0.4999999) == pytest.approx(0.0, abs=1e-5)

    @pytest.mark.parametrize("delta", [0.0, 0.5, -0.1, 0.7])
    def test_domain_errors(self, delta):
        with pytest.raises(ValueError):
            q_inverse(delta)

    @pytest.mark.parametrize("y", np.linspace(1e-6, 6.0, 25))
    def test_roundtrip_identity(self, y):
        assert q_inverse(q_function(y)) == pytest.approx(y, abs=1e-9)

    def test_residual(self):
        for delta in [1e-9, 1e-4, 0.05, 0.3]:
            assert abs(q_function(q_inverse(delta)) - delta) <= 1e-12

    @pytest.mark.parametrize("delta", np.geomspace(1e-300, 0.4999, 61))
    def test_matches_brentq_cross_check(self, delta):
        ref = brentq_q_inverse(delta)
        assert abs(q_inverse(delta) - ref) <= 1e-13 * ref


class TestKappa:
    def test_reference_value(self):
        # K_delta ~= 3, epsilon = ln 3
        assert kappa(0.00135, math.log(3)) == pytest.approx(
            2.8882718015085845, rel=1e-10)

    def test_formula_value_at_50_digits(self):
        # (K_{0.01} + sqrt(K_{0.01}^2 + 0.2)) / 0.2, mpmath reference
        assert kappa(0.01, 0.1) == pytest.approx(
            23.476458057296716074, rel=1e-12)

    def test_decreasing_in_epsilon(self):
        values = [kappa(0.01, e) for e in np.logspace(-3, 3, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # kappa ~ 1/sqrt(2*eps) for large eps
        assert values[-1] == pytest.approx(1 / math.sqrt(2e3), rel=0.1)

    def test_broadcasts_over_epsilon(self):
        eps = np.array([[0.1, 0.5], [1.0, 7.0]])
        out = kappa(0.01, eps)
        assert out.shape == (2, 2)
        assert out.tolist() == [[kappa(0.01, e) for e in row] for row in
                                eps.tolist()]
        assert type(kappa(0.01, 0.5)) is float

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, [0.5, 0.0]])
    def test_nonpositive_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            kappa(0.01, eps)

    def test_increasing_in_k_delta(self):
        # smaller delta means larger K_delta, hence larger kappa
        deltas = np.linspace(0.001, 0.4, 30)
        values = [kappa(d, 0.5) for d in deltas]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestNoiseScale:
    def test_reference_sigma(self):
        p = PrivacyParams(math.log(3), 0.00135, 2.0)
        assert noise_scale(p) == pytest.approx(5.7765436030171691, rel=1e-10)

    def test_linear_in_b(self):
        p1 = PrivacyParams(0.5, 0.01, 1.0)
        p2 = PrivacyParams(0.5, 0.01, 2.0)
        assert noise_scale(p2) == 2.0 * noise_scale(p1)

    def test_stricter_delta_needs_more_noise(self):
        loose = PrivacyParams(0.5, 0.01, 1.0)
        strict = PrivacyParams(0.5, 0.001, 1.0)
        assert noise_scale(strict) > noise_scale(loose)

    def test_derived_fields_positive(self):
        p = PrivacyParams(0.3, 0.01, 1.5)
        assert p.k_delta > 0
        assert noise_scale(p) > 0


class TestPrivacyParamsValidation:
    @pytest.mark.parametrize("eps,delta,b", [
        (0.0, 0.01, 1.0), (-1.0, 0.01, 1.0),
        (0.5, 0.0, 1.0), (0.5, 0.5, 1.0),
        (0.5, 0.01, 0.0),
    ])
    def test_invalid_rejected(self, eps, delta, b):
        with pytest.raises(ValueError):
            PrivacyParams(eps, delta, b)

    def test_atypical_epsilon_warns(self):
        with pytest.warns(PrivacyRangeWarning):
            PrivacyParams(5.0, 0.01, 1.0)
        with pytest.warns(PrivacyRangeWarning):
            PrivacyParams(0.01, 0.01, 1.0)

    def test_atypical_delta_warns(self):
        with pytest.warns(PrivacyRangeWarning):
            PrivacyParams(0.5, 0.1, 1.0)

    def test_typical_params_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PrivacyParams(0.5, 0.01, 1.0)


class TestSampleNoise:
    def test_deterministic_per_seed(self):
        a = sample_noise(1.5, 100, 12345)
        b = sample_noise(1.5, 100, 12345)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample_noise(1.0, 50, 1),
                                  sample_noise(1.0, 50, 2))

    def test_moments_at_1e6(self):
        draws = sample_noise(1.0, 10**6, 2024)
        assert abs(draws.mean()) < 4e-3
        assert abs(draws.var() - 1.0) < 0.01

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            sample_noise(0.0, 10, 0)


class TestAdjacency:
    def test_identical_trajectories(self):
        v = np.arange(10.0)
        assert is_adjacent(v, v, 0.5)

    def test_single_large_entry(self):
        z = np.zeros(5)
        w = np.zeros(5)
        w[2] = 3.0
        assert not is_adjacent(z, w, 2.0)
        assert is_adjacent(z, w, 3.0)

    def test_matches_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.normal(size=30)
            w = rng.normal(size=30)
            b = float(rng.uniform(0.5, 10.0))
            assert is_adjacent(v, w, b) == (np.linalg.norm(v - w) <= b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            is_adjacent(np.zeros(3), np.zeros(4), 1.0)
