"""Gaussian chart and the closed-form Wasserstein-2 distance."""
import math

import numpy as np
import pytest

from conftest import random_orthogonal, random_spd
from gdn.errors import NumericError, ValidationError
from gdn.manifolds.gaussian import (
    GaussianParam,
    gaussian_chart_decode,
    gaussian_chart_encode,
    wasserstein2,
)


class TestGaussianChart:
    def test_decode_zero_gives_standard_normal(self):
        g = gaussian_chart_decode(np.zeros(5))
        np.testing.assert_allclose(g.mean, np.zeros(2))
        np.testing.assert_allclose(g.cov, np.eye(2), atol=1e-12)

    def test_encode_diagonal_log(self):
        g = GaussianParam(np.zeros(2), np.diag([math.e ** 2, 1.0]))
        v = gaussian_chart_encode(g)
        np.testing.assert_allclose(v, [0.0, 0.0, 2.0, 0.0, 0.0], atol=1e-10)

    def test_round_trip_on_random_vectors(self, rng):
        for _ in range(100):
            v = rng.uniform(-1.5, 1.5, size=5)
            g = gaussian_chart_decode(v)
            np.testing.assert_allclose(gaussian_chart_encode(g), v, atol=1e-8)

    def test_decode_of_a_log_variance_past_the_float_range(self):
        with pytest.raises(NumericError,
                           match="^matrix function 'exp' overflows the float range$"):
            gaussian_chart_decode([0.0, 1e3])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_chart_decode(np.zeros(4))


class TestWasserstein2:
    def test_identity_of_indiscernibles(self, rng):
        g = GaussianParam(rng.standard_normal(3), random_spd(3, rng))
        assert wasserstein2(g, g) <= 1e-10

    def test_mean_shift_only(self):
        mu = np.array([3.0, -4.0])
        a = GaussianParam(np.zeros(2), np.eye(2))
        b = GaussianParam(mu, np.eye(2))
        assert wasserstein2(a, b) == pytest.approx(5.0, abs=1e-10)

    def test_isotropic_scaling(self):
        n, s, t = 3, 0.7, 1.9
        a = GaussianParam(np.zeros(n), s * s * np.eye(n))
        b = GaussianParam(np.zeros(n), t * t * np.eye(n))
        assert wasserstein2(a, b) == pytest.approx(math.sqrt(n) * abs(s - t), abs=1e-10)

    def test_commuting_covariances_closed_form(self, rng):
        # simultaneously diagonalizable pairs reduce to
        # sqrt(|dmu|^2 + |S1^(1/2) - S2^(1/2)|_F^2)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            Q = random_orthogonal(n, rng)
            d1 = rng.uniform(0.3, 3.0, n)
            d2 = rng.uniform(0.3, 3.0, n)
            mu1 = rng.standard_normal(n)
            mu2 = rng.standard_normal(n)
            a = GaussianParam(mu1, (Q * d1) @ Q.T)
            b = GaussianParam(mu2, (Q * d2) @ Q.T)
            want = math.sqrt(float(np.sum((mu1 - mu2) ** 2))
                             + float(np.sum((np.sqrt(d1) - np.sqrt(d2)) ** 2)))
            assert wasserstein2(a, b) == pytest.approx(want, abs=1e-8)

    def test_symmetry(self, rng):
        a = GaussianParam(rng.standard_normal(3), random_spd(3, rng))
        b = GaussianParam(rng.standard_normal(3), random_spd(3, rng))
        assert wasserstein2(a, b) == pytest.approx(wasserstein2(b, a), abs=1e-10)

    def test_order_mismatch(self, rng):
        a = GaussianParam(np.zeros(2), np.eye(2))
        b = GaussianParam(np.zeros(3), np.eye(3))
        with pytest.raises(ValidationError):
            wasserstein2(a, b)
