"""Readout charts: softmax, gauge, and metric projection."""
import itertools
import math

import numpy as np
import pytest

from gdn.errors import DomainError, ValidationError
from gdn.readouts import Simplex, gauge_chart, project_convex, softmax_chart


def simplex_projection_oracle(y: np.ndarray) -> np.ndarray:
    """Exhaustive active-set QP oracle: best feasible candidate over all
    support sets, with sums taken in descending-value order."""
    C = y.size
    order = np.argsort(y)[::-1]
    best, best_d = None, math.inf
    for size in range(1, C + 1):
        for support in itertools.combinations(range(C), size):
            s = 0.0
            for i in sorted(support, key=lambda i: -y[i]):
                s = s + y[i]
            tau = (s - 1.0) / size
            z = np.zeros(C)
            ok = True
            for i in support:
                z[i] = y[i] - tau
                if z[i] < 0.0:
                    ok = False
                    break
            if not ok:
                continue
            d = float(np.sum((z - y) ** 2))
            if d < best_d:
                best, best_d = z, d
    return best


class TestSoftmax:
    def test_forward_c2_hand_value(self):
        out = softmax_chart("forward", [0.0])
        np.testing.assert_allclose(out, [1.0 / (1.0 + math.e), math.e / (1.0 + math.e)],
                                   atol=1e-12)

    def test_forward_symmetric_point(self):
        np.testing.assert_allclose(softmax_chart("forward", [1.0, 1.0]),
                                   np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_inverse_hand_value(self):
        y = softmax_chart("forward", [0.0])
        np.testing.assert_allclose(softmax_chart("inverse", y), [0.0], atol=1e-12)

    def test_right_inverse_on_random_draws(self, rng):
        for _ in range(300):
            C = int(rng.integers(2, 6))
            v = rng.uniform(-10.0, 10.0, C - 1)
            y = softmax_chart("forward", v)
            assert np.all(y > 0.0)
            assert abs(float(y.sum()) - 1.0) <= 1e-12
            np.testing.assert_allclose(softmax_chart("inverse", y), v, atol=1e-10)

    def test_forward_is_nonexpansive_on_samples(self, rng):
        for _ in range(100):
            a, b = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
            da = float(np.linalg.norm(softmax_chart("forward", a)
                                      - softmax_chart("forward", b)))
            assert da <= float(np.linalg.norm(a - b)) + 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            softmax_chart("inverse", [0.0, 1.0])


class TestGauge:
    def test_euclidean_ball_hand_values(self):
        np.testing.assert_array_equal(gauge_chart(np.linalg.norm, "forward", [0.0, 0.0]),
                                      [0.0, 0.0])
        fwd = gauge_chart(np.linalg.norm, "forward", [3.0, 0.0])
        np.testing.assert_allclose(fwd, [0.75, 0.0])
        np.testing.assert_allclose(gauge_chart(np.linalg.norm, "inverse", fwd),
                                   [3.0, 0.0], atol=1e-12)

    def test_sup_norm_cube(self):
        mu = lambda v: float(np.max(np.abs(v)))
        np.testing.assert_allclose(gauge_chart(mu, "forward", [1.0, 1.0]), [0.5, 0.5])

    def test_right_inverse_on_random_draws(self, rng):
        for _ in range(300):
            v = rng.uniform(-4, 4, int(rng.integers(1, 5)))
            z = gauge_chart(np.linalg.norm, "forward", v)
            assert float(np.linalg.norm(z)) < 1.0
            np.testing.assert_allclose(gauge_chart(np.linalg.norm, "inverse", z), v,
                                       atol=1e-10)

    def test_inverse_outside_body_rejected(self):
        with pytest.raises(DomainError):
            gauge_chart(np.linalg.norm, "inverse", [1.5, 0.0])


class TestProjectConvex:
    def test_simplex_center(self):
        np.testing.assert_allclose(project_convex(Simplex(3), [1.0, 1.0, 1.0]),
                                   np.full(3, 1.0 / 3.0))

    def test_simplex_matches_active_set_oracle(self, rng):
        for _ in range(200):
            C = int(rng.integers(2, 6))
            y = rng.uniform(-2, 2, C)
            fast = project_convex(Simplex(C), y)
            np.testing.assert_array_equal(fast, simplex_projection_oracle(y))

    def test_idempotent_and_nonexpansive(self, rng):
        shape = Simplex(2)
        for _ in range(100):
            a, b = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            pa, pb = project_convex(shape, a), project_convex(shape, b)
            np.testing.assert_allclose(project_convex(shape, pa), pa, atol=1e-12)
            assert float(np.linalg.norm(pa - pb)) \
                <= float(np.linalg.norm(a - b)) + 1e-12

    def test_malformed_shapes(self):
        with pytest.raises(ValidationError, match="simplex needs C >= 1"):
            Simplex(0)

