"""Dataset-efficiency certification."""
import math

import numpy as np
import pytest

from gdn.approx.certify import certify_efficient
from gdn.approx.polynomials import poly_derivative, poly_eval
from gdn.errors import DomainError, UnsupportedError, ValidationError
from gdn.manifolds import resolve_manifold

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
        cert = certify_efficient(dataset, values, E2, E2, np.zeros(2), np.zeros(2),
                                 candidates=[{(0, 0): np.zeros(2)}], n=1)
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
                              E2, E2, np.zeros(2), np.zeros(2),
                              candidates=[{(0, 0): np.zeros(2)}] * 2, n=1)

    def test_sphere_dataset_uses_intrinsic_chart(self):
        # ambient tangents are 3-vectors; the certifier must work in the
        # 2-dimensional intrinsic frame
        s2 = resolve_manifold("sphere:2")
        north = np.array([0.0, 0.0, 1.0])
        from gdn.manifolds.zoo import exp_map, tangent_basis
        E = tangent_basis(s2, north)
        pts = [exp_map(s2, north, E @ np.array(u))
               for u in ([0.1, 0.2], [0.4, 0.1], [0.2, 0.6])]
        cert = certify_efficient(pts, pts, s2, s2, north, north,
                                 candidates=[{(1, 0): np.array([1.0, 0.0]),
                                              (0, 1): np.array([0.0, 1.0])}] * 3,
                                 n=1)
        assert cert.normalizable
        assert cert.certified

    def test_multidim_needs_candidates(self):
        with pytest.raises(UnsupportedError):
            certify_efficient([np.zeros(2)], [np.zeros(2)], E2, E2,
                              np.zeros(2), np.zeros(2))


class TestCandidatePath:
    def test_shared_polynomial_passes(self):
        # both points carry the same quadratic, so compatibility is exact
        poly = {(2,): np.array([1.0]), (0,): np.array([0.0])}
        dataset = [np.array([0.2]), np.array([0.8])]
        values = [np.array([0.04]), np.array([0.64])]
        cert = certify_efficient(dataset, values, E1, E1, np.zeros(1), np.zeros(1),
                                 candidates=[poly, poly], n=2)
        assert cert.certified
        assert cert.C == math.comb(1 + 2, 1)

    def test_p2_candidates(self):
        poly = {(1, 1): np.array([1.0, 0.0]), (0, 0): np.array([0.0, 0.5])}
        dataset = [np.array([0.2, 0.5]), np.array([0.6, 0.1])]
        values = [np.array([float(poly_eval(poly, x)[0]), float(poly_eval(poly, x)[1])])
                  for x in dataset]
        cert = certify_efficient(dataset, values, E2, E2, np.zeros(2), np.zeros(2),
                                 candidates=[poly, poly], n=1)
        assert cert.certified

    def test_interpolation_failure_noted(self):
        poly = {(0,): np.array([0.0])}
        dataset = [np.array([0.5])]
        values = [np.array([1.0])]
        cert = certify_efficient(dataset, values, E1, E1, np.zeros(1), np.zeros(1),
                                 candidates=[poly], n=1)
        assert not cert.certified
        assert any("interpolation" in note for note in cert.notes)

    def test_incompatible_candidates_noted(self):
        # wildly different polynomials at nearby points break condition (iii)
        p1 = {(0,): np.array([0.0])}
        p2 = {(0,): np.array([0.001]), (1,): np.array([500.0])}
        dataset = [np.array([0.0]), np.array([0.001])]
        values = [np.array([0.0]), np.array([0.501])]
        cert = certify_efficient(dataset, values, E1, E1, np.zeros(1), np.zeros(1),
                                 candidates=[p1, p2], n=1)
        assert not cert.certified
        assert any("compatibility" in note for note in cert.notes)

    def test_candidates_need_n(self):
        with pytest.raises(ValidationError):
            certify_efficient([np.zeros(1)], [np.zeros(1)], E1, E1,
                              np.zeros(1), np.zeros(1),
                              candidates=[{(0,): np.zeros(1)}])

    def test_c_star_saturates_at_dataset_size(self):
        dataset = [np.array([t]) for t in np.linspace(0.0, 1.0, 4)]
        values = [np.array([0.0]) for _ in dataset]
        cert = certify_efficient(dataset, values, E1, E1, np.zeros(1), np.zeros(1))
        assert cert.C_star == 4
