"""Manifold resolution, curvature radii, and the universality-radius
calculus."""
import math
import sys

import pytest
from hypothesis import given, strategies as st

from gdn.errors import ParseError, ValidationError
from gdn.manifolds.core import k_star, resolve_manifold, universality_radius
from gdn.manifolds.zoo import ManifoldSpec, Sphere


class TestResolveManifold:
    def test_euclidean(self):
        spec = resolve_manifold("euclidean:3")
        assert (spec.dim, spec.chart_dim, spec.point_dim) == (3, 3, 3)
        assert (spec.curvature_max, spec.curvature_min) == (0.0, 0.0)
        assert spec.inj_lower == math.inf

    def test_sphere_dims_and_inj(self):
        spec = resolve_manifold("sphere:2")
        assert spec.dim == 2
        assert spec.point_dim == 3
        assert spec.inj_lower == math.pi

    def test_spd_dims(self):
        spec = resolve_manifold("spd:2")
        assert spec.dim == 3
        assert spec.chart_dim == 3
        assert spec.inj_lower == math.inf

    def test_gaussian_dims(self):
        spec = resolve_manifold("gaussian:2")
        # mean block + covariance block
        assert spec.dim == 2 + 3
        assert spec.chart_dim == 5

    @pytest.mark.parametrize("ident,dim,pdim", [
        ("torus:4", 4, 4), ("rp:2", 2, 3), ("poincare:4:0.5", 4, 4),
    ])
    def test_other_families(self, ident, dim, pdim):
        spec = resolve_manifold(ident)
        assert spec.dim == dim
        assert spec.point_dim == pdim

    @pytest.mark.parametrize("bad", [
        "klein:2", "sphere", "sphere:0", "poincare:2", "poincare:2:-1",
        "euclidean:2:3", "spd:x",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises((ParseError, ValidationError)):
            resolve_manifold(bad)

    def test_curvature_whose_square_overflows_is_refused(self):
        # the Moebius sums form c c |x|^2 |y|^2; past sqrt(float max) every
        # sum went wrong with no error.  The largest c below the bound
        # keeps its bits
        with pytest.raises(ValidationError,
                           match="^poincare curvature must have a finite square, got 1e[+]300$"):
            resolve_manifold("poincare:2:1e300")
        c = math.sqrt(sys.float_info.max)
        assert resolve_manifold(f"poincare:2:{c!r}").param == c
        for bad, shown in (("-1", "-1.0"), ("1e999", "inf"), ("0", "0.0")):
            with pytest.raises(ValidationError,
                               match=f"^poincare curvature must be finite and > 0, got {shown}$"):
                resolve_manifold(f"poincare:2:{bad}")

    @pytest.mark.parametrize("ident", [
        "euclidean:2", "sphere:2", "poincare:2:1", "spd:2", "gaussian:2", "torus:2",
        "rp:2",
    ])
    def test_equal_specs_mean_the_same_geometry(self, ident):
        assert resolve_manifold(ident) == resolve_manifold(ident)

    def test_different_geometries_differ(self):
        assert resolve_manifold("sphere:2") != resolve_manifold("sphere:3")
        assert resolve_manifold("poincare:2:1") != resolve_manifold("poincare:2:0.5")

    def test_same_dims_and_kernels_differ_by_id(self):
        flat, gauss = resolve_manifold("euclidean:2"), resolve_manifold("gaussian:1")
        assert type(flat) is type(gauss) and flat.point_dim == gauss.point_dim == 2
        assert flat != gauss

    def test_one_curvature_written_two_ways_is_one_spec(self):
        a, b = resolve_manifold("poincare:2:1"), resolve_manifold("poincare:2:1.0")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.id == b.id == "poincare:2:1.0"

    def test_a_spec_is_a_dict_key(self):
        seen = {resolve_manifold("sphere:2"): "s2", resolve_manifold("spd:2"): "p2"}
        assert seen[resolve_manifold(" sphere:2 ")] == "s2"
        assert seen[resolve_manifold("spd:2")] == "p2"
        assert resolve_manifold("sphere:3") not in seen

    def test_the_spec_is_its_family_class(self):
        spec = resolve_manifold("sphere:2")
        assert isinstance(spec, Sphere) and isinstance(spec, ManifoldSpec)
        assert (spec.id, spec.family) == ("sphere:2", "sphere")

    @pytest.mark.parametrize("ident,kmin", [
        ("euclidean:2", 0.0), ("gaussian:2", 0.0), ("torus:2", 0.0), ("sphere:2", 1.0),
        ("rp:2", 1.0), ("poincare:2:0.5", -0.5), ("spd:3", -0.5),
    ])
    def test_curvature_min(self, ident, kmin):
        assert resolve_manifold(ident).curvature_min == kmin


class TestKStar:
    def test_zero_and_negative_are_infinite(self):
        assert k_star(0.0) == math.inf
        assert k_star(-5.0) == math.inf

    def test_hand_value(self):
        # pi/(4 sqrt(K)) = 1 at K = pi^2/16
        assert k_star(math.pi ** 2 / 16.0) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_nonincreasing_on_positive_axis(self, a, b):
        lo, hi = sorted((a, b))
        assert k_star(lo) >= k_star(hi)

    def test_infinite_exactly_on_nonpositive(self):
        for K in (-1e9, -1.0, -1e-12, 0.0):
            assert k_star(K) == math.inf
        for K in (1e-12, 1.0, 1e9):
            assert math.isfinite(k_star(K))


class TestUniversalityRadius:
    def test_cartan_hadamard_is_infinite(self):
        assert universality_radius(math.inf, math.inf, lambda e: e) == math.inf

    def test_lipschitz_hand_values(self):
        assert universality_radius(math.pi, math.pi, lambda e: e) == math.pi
        assert universality_radius(math.pi, math.pi, lambda e: e / 2.0) \
            == pytest.approx(math.pi / 2.0)

    def test_monotone_in_each_argument(self):
        base = universality_radius(1.0, 1.0, lambda e: e)
        assert universality_radius(2.0, 1.0, lambda e: e) >= base
        assert universality_radius(1.0, 2.0, lambda e: e) >= base
        assert universality_radius(1.0, 1.0, lambda e: 2 * e) >= base

    def test_rejects_nonpositive_radii(self):
        with pytest.raises(ValidationError):
            universality_radius(0.0, 1.0, lambda e: e)
