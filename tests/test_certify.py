"""Dataset-efficiency certification."""
import math

import numpy as np
import pytest

from gdn.approx.certify import certify_efficient
from gdn.approx.polynomials import poly_derivative, poly_eval
from gdn.errors import DomainError, NumericError, UnsupportedError, ValidationError
from gdn.manifolds.core import resolve_manifold

E1 = resolve_manifold("euclidean:1")
E2 = resolve_manifold("euclidean:2")


class TestLagrangePath:
    def test_three_point_quadratic(self):
        dataset = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        values = [np.array([0.0]), np.array([0.25]), np.array([1.0])]
        cert = certify_efficient(dataset, values, E1, E1, np.zeros(1), np.zeros(1))
        assert cert.certified
        assert cert.n == 2
        assert cert.interpolation_residual <= 1e-10
        # emitted polynomial is z^2 (chart data already interpolate it)
        np.testing.assert_allclose(np.array(cert.polynomial).ravel(),
                                   [0.0, 0.0, 1.0], atol=1e-12)
        assert cert.M is not None and cert.M > 0.0

    def test_m_bounds_all_checked_derivatives(self):
        dataset = [np.array([0.0]), np.array([0.4]), np.array([0.9])]
        values = [np.array([0.1]), np.array([0.7]), np.array([0.2])]
        cert = certify_efficient(dataset, values, E1, E1, np.zeros(1), np.zeros(1))
        assert cert.certified
        coeffs = {(d,): np.array(c) for d, c in enumerate(cert.polynomial)}
        for x in dataset:
            poly = dict(coeffs)
            for order in range(1, 4):
                poly = poly_derivative(poly, 0)
                mag = float(np.max(np.abs(np.atleast_1d(poly_eval(poly, x)))))
                assert mag <= cert.M + 1e-9

    def test_singleton_certifies_with_constant(self):
        cert = certify_efficient([np.array([0.25])], [np.array([0.5])],
                                 E1, E1, np.zeros(1), np.zeros(1))
        assert cert.certified
        assert cert.interpolation_residual <= 1e-12

    def test_denormalized_rejected_with_witness(self):
        dataset = [np.array([1.2, 0.3])]
        values = [np.array([0.0, 0.0])]
        cert = certify_efficient(dataset, values, E2, E2, np.zeros(2), np.zeros(2))
        assert not cert.normalizable
        assert not cert.certified
        assert cert.witness_box == [(0.0, 1.2), (0.0, 0.3)]

    def test_out_of_ball_point_raises(self):
        s2 = resolve_manifold("sphere:2")
        north = np.array([0.0, 0.0, 1.0])
        south = np.array([0.0, 0.0, -1.0])
        with pytest.raises(DomainError):
            certify_efficient([south], [north], s2, s2, north, north)

    def test_first_failing_index_is_reported(self):
        s2 = resolve_manifold("sphere:2")
        north = np.array([0.0, 0.0, 1.0])
        south = np.array([0.0, 0.0, -1.0])
        near = [np.array([0.0, s, math.sqrt(1.0 - s * s)]) for s in (0.1, 0.2, 0.3, 0.4)]
        # a dataset point at index 2, later values bad too
        with pytest.raises(DomainError, match="dataset point 2 "):
            certify_efficient(near[:2] + [south, near[3]],
                              near[:3] + [south], s2, s2, north, north)
        # a value at index 1, a later dataset point bad too
        with pytest.raises(DomainError, match="value 1 "):
            certify_efficient(near[:3] + [south], [near[0], south] + near[2:],
                              s2, s2, north, north)
        # the same index on both sides: the dataset point comes first
        with pytest.raises(DomainError, match="dataset point 3 "):
            certify_efficient(near[:3] + [south], near[:3] + [south],
                              s2, s2, north, north)

    def test_points_of_the_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="length 2"):
            certify_efficient([np.zeros(2), np.zeros(3)], [np.zeros(2)] * 2,
                              E2, E2, np.zeros(2), np.zeros(2))

    def test_sphere_dataset_uses_intrinsic_chart(self):
        # ambient points and tangents are 2-vectors; the certifier must work
        # in the 1-dimensional intrinsic frame, where the identity map is z
        s1 = resolve_manifold("sphere:1")
        base = np.array([0.0, 1.0])
        from gdn.manifolds.zoo import chart_at, exp_map
        E = chart_at(s1, base).frame
        pts = [exp_map(s1, base, E @ np.array([u])) for u in (0.1, 0.4, 0.7)]
        cert = certify_efficient(pts, pts, s1, s1, base, base)
        assert cert.normalizable
        assert cert.certified
        np.testing.assert_allclose(np.array(cert.polynomial).ravel(),
                                   [0.0, 1.0, 0.0], atol=1e-12)

    def test_multidim_is_refused(self):
        with pytest.raises(UnsupportedError, match="p = 2") as info:
            certify_efficient([np.zeros(2)], [np.zeros(2)], E2, E2,
                              np.zeros(2), np.zeros(2))
        assert "candidate" not in str(info.value)

    def test_c_star_saturates_at_dataset_size(self):
        dataset = [np.array([t]) for t in np.linspace(0.0, 1.0, 4)]
        values = [np.array([0.0]) for _ in dataset]
        cert = certify_efficient(dataset, values, E1, E1, np.zeros(1), np.zeros(1))
        assert cert.C_star == 4


def _certify_1d(xs, ys):
    # the dataset of abscissae xs with values ys (a float or m outputs each)
    ys = [np.atleast_1d(y) for y in ys]
    m = ys[0].size
    return certify_efficient([np.array([x]) for x in xs], ys, E1,
                             resolve_manifold(f"euclidean:{m}"), np.zeros(1), np.zeros(m))


class TestVandermondeSolve:
    @pytest.mark.parametrize("count", range(2, 31))
    def test_sin_on_equispaced_points_certifies(self, count):
        # the monomial Lagrange builder left residuals past 1e-10 from 10 points
        xs = np.linspace(0.0, 1.0, count)
        cert = _certify_1d(xs, np.sin(3.0 * xs))
        assert cert.certified, cert.notes
        assert cert.n == count - 1
        assert cert.interpolation_residual <= 1e-13

    def test_seeded_eight_points_certify(self):
        # refused by the Lagrange builder with a residual of 1.18e-10
        rng = np.random.default_rng(1)
        xs, ys = rng.random(8), rng.random(8)
        cert = _certify_1d(xs, ys)
        assert cert.certified, cert.notes
        assert cert.interpolation_residual <= 1e-10

    def test_cubic_with_two_outputs_recovers_coefficients(self):
        coeffs = np.array([[0.5, -1.0], [2.0, 0.25], [-3.0, 0.0], [1.5, 4.0]])
        xs = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
        ys = np.vander(xs, 4, increasing=True) @ coeffs
        cert = _certify_1d(xs, ys)
        assert cert.certified
        got = np.array(cert.polynomial)
        assert got.shape == (5, 2)
        np.testing.assert_allclose(got, np.vstack([coeffs, np.zeros((1, 2))]), atol=1e-12)

    def test_singular_vandermonde_raises(self):
        # x^2 underflows to 0 at both nonzero abscissae
        with pytest.raises(NumericError, match="Vandermonde matrix of the 3 chart "
                                               "abscissae is singular"):
            _certify_1d([0.0, 1e-200, 2e-200], [0.0, 1.0, 0.0])

    def test_non_finite_results_are_never_certified(self):
        # a solve that overflows leaves NaN residual and M, without a warning
        cert = _certify_1d([0.0, 1e-160, 2e-160], [0.0, 1.0, 0.0])
        assert not math.isfinite(cert.interpolation_residual)
        assert not math.isfinite(cert.M)
        assert not cert.certified
        assert any("interpolation residual" in note for note in cert.notes)
        assert any("derivative bound M is" in note for note in cert.notes)
