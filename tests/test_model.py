"""GDN evaluation, guards, parallelization, and pipeline composition."""
import json
import math

import numpy as np
import pytest

from gdn.errors import DomainError, RangeError, ValidationError
from gdn.manifolds import resolve_manifold
from gdn.manifolds.zoo import exp_map, random_tangent, tangent_basis
from gdn.model import (
    GDNModel,
    PipelineModel,
    gdn_eval,
    gdn_from_dict,
    gdn_to_dict,
    parallelize,
    pipeline_eval,
)
from gdn.network import AffineLayer, FeedforwardNet, get_activation
from gdn.quotient import resolve_quotient
from gdn.readouts import ReadoutSpec, softmax_chart

RELU = get_activation("relu")
E2 = resolve_manifold("euclidean:2")
S2 = resolve_manifold("sphere:2")


def affine_net(W, b):
    return FeedforwardNet((AffineLayer(np.array(W, dtype=float),
                                       np.array(b, dtype=float)),), RELU)


def zero_net(p, m):
    return affine_net(np.zeros((m, p)), np.zeros(m))


class TestGdnEval:
    def test_zero_core_collapses_to_base_y(self, rng):
        g = GDNModel(E2, E2, np.array([1.0, 1.0]), np.array([5.0, -2.0]),
                     zero_net(2, 2))
        for _ in range(10):
            x = np.array([1.0, 1.0]) + rng.uniform(-1, 1, 2)
            np.testing.assert_array_equal(gdn_eval(g, x), [5.0, -2.0])

    def test_euclidean_identity_is_translation(self, rng):
        bx, by = np.array([1.0, 1.0]), np.array([5.0, 5.0])
        g = GDNModel(E2, E2, bx, by, affine_net(np.eye(2), np.zeros(2)))
        x = rng.standard_normal(2)
        np.testing.assert_allclose(gdn_eval(g, x), x - bx + by)

    def test_sphere_rotation_core_matches_rotation_oracle(self, rng):
        # rotation about the base axis is linear in ambient tangent coords
        base = np.array([0.0, 0.0, 1.0])
        ang = 0.7
        R = np.array([[math.cos(ang), -math.sin(ang), 0.0],
                      [math.sin(ang), math.cos(ang), 0.0],
                      [0.0, 0.0, 1.0]])
        g = GDNModel(S2, S2, base, base, affine_net(R, np.zeros(3)))
        E = tangent_basis(S2, base)
        for _ in range(50):
            v = E @ rng.uniform(-1, 1, 2)
            v *= min(1.0, (math.pi / 2 - 1e-6) / np.linalg.norm(v))
            x = exp_map(S2, base, v)
            np.testing.assert_allclose(gdn_eval(g, x), R @ x, atol=1e-8)

    def test_domain_guard_reports_distance(self):
        g = GDNModel(S2, S2, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                     zero_net(3, 3))
        with pytest.raises(DomainError, match="injectivity"):
            gdn_eval(g, np.array([0.0, 0.0, -1.0]))

    def test_sphere_range_guard(self):
        big = affine_net(np.zeros((3, 3)), [4.0, 0.0, 0.0])  # norm 4 > pi
        g = GDNModel(E2, S2,
                     np.zeros(2), np.array([0.0, 0.0, 1.0]),
                     FeedforwardNet((AffineLayer(np.zeros((3, 2)), np.array([4.0, 0, 0])),),
                                    RELU))
        with pytest.raises(RangeError):
            gdn_eval(g, np.zeros(2))

    def test_core_dim_validation(self):
        with pytest.raises(ValidationError):
            GDNModel(E2, E2, np.zeros(2), np.zeros(2), zero_net(3, 2))


def random_chart_model(ident, base, rng, scale=0.3):
    """A GDN from ``ident`` to itself with a small random tanh core whose
    outputs are tangent at the base point."""
    spec = resolve_manifold(ident)
    E = tangent_basis(spec, base)
    hidden = 6
    core = FeedforwardNet(
        (AffineLayer(scale * rng.standard_normal((hidden, spec.chart_dim)),
                     0.1 * rng.standard_normal(hidden)),
         AffineLayer(E @ (scale * rng.standard_normal((spec.dim, hidden))),
                     E @ (0.1 * rng.standard_normal(spec.dim)))),
        get_activation("tanh"))
    return GDNModel(spec, spec, np.asarray(base, dtype=float),
                    np.asarray(base, dtype=float), core)


class TestStackedGdnEval:
    CASES = [("sphere:2", [0.0, 0.6, 0.8]), ("poincare:2:1", [0.1, -0.2]),
             ("spd:2", [1.5, 0.3, 1.0])]

    @pytest.mark.parametrize("ident,base", CASES)
    def test_rows_equal_per_point_calls(self, ident, base, rng):
        g = random_chart_model(ident, base, rng)
        xs = np.array([exp_map(g.domain, g.base_x,
                               random_tangent(g.domain, g.base_x, rng, 1.2))
                       for _ in range(50)])
        got = gdn_eval(g, xs)
        assert got.shape == (50, g.codomain.point_dim)
        np.testing.assert_array_equal(got, np.array([gdn_eval(g, x) for x in xs]))
        np.testing.assert_array_equal(gdn_eval(g, xs[:1]), got[:1])
        assert gdn_eval(g, xs[0]).shape == (g.codomain.point_dim,)

    def test_one_point_outside_the_ball_raises(self, rng):
        north = np.array([0.0, 0.0, 1.0])
        g = random_chart_model("sphere:2", north, rng)
        xs = np.array([exp_map(S2, north, random_tangent(S2, north, rng, 1.0))
                       for _ in range(6)])
        xs[4] = -north
        with pytest.raises(DomainError, match=f"distance {math.pi!r} "):
            gdn_eval(g, xs)

    def test_first_core_output_outside_the_chart_ball_is_reported(self):
        north = np.array([0.0, 0.0, 1.0])
        E = tangent_basis(S2, north)
        g = GDNModel(E2, S2, np.zeros(2), north,
                     affine_net(E @ (4.0 * np.eye(2)), np.zeros(3)))
        xs = np.array([[0.1, 0.2], [-0.3, 0.1], [1.0, 0.0], [0.0, 1.25], [0.2, 0.2]])
        with pytest.raises(RangeError, match="norm 4.0 "):
            gdn_eval(g, xs)


class TestParallelize:
    def test_single_branch_equals_branch(self, rng):
        g = GDNModel(E2, E2, np.zeros(2), np.ones(2), affine_net(np.eye(2), np.zeros(2)))
        p = parallelize([g])
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(pipeline_eval(p, x), gdn_eval(g, x))

    def test_two_translations(self, rng):
        g1 = GDNModel(E2, E2, np.zeros(2), np.array([1.0, 0.0]),
                      affine_net(np.eye(2), np.zeros(2)))
        g2 = GDNModel(E2, E2, np.zeros(2), np.array([0.0, -1.0]),
                      affine_net(np.eye(2), np.zeros(2)))
        out = pipeline_eval(parallelize([g1, g2]), np.array([0.25, 0.5]))
        np.testing.assert_allclose(out[0], [1.25, 0.5])
        np.testing.assert_allclose(out[1], [0.25, -0.5])

    def test_error_tuple_matches_product_distance(self, rng):
        from gdn.quotient import ProductSpace, product_distance
        models = [GDNModel(E2, E2, np.zeros(2), rng.standard_normal(2),
                           affine_net(np.eye(2), np.zeros(2))) for _ in range(3)]
        p = parallelize(models)
        x = rng.standard_normal(2)
        outs = pipeline_eval(p, x)
        targets = [rng.standard_normal(2) for _ in range(3)]
        P = ProductSpace((E2, E2, E2))
        want = max(float(np.linalg.norm(o - t)) for o, t in zip(outs, targets))
        assert product_distance(P, outs, targets) == pytest.approx(want)

    def test_mismatched_domains_rejected(self):
        g1 = GDNModel(E2, E2, np.zeros(2), np.zeros(2), zero_net(2, 2))
        g2 = GDNModel(E2, E2, np.ones(2), np.zeros(2), zero_net(2, 2))
        with pytest.raises(ValidationError):
            parallelize([g1, g2])


class TestPipeline:
    def test_degenerate_pipeline_is_gdn_eval_bit_for_bit(self, rng):
        g = GDNModel(E2, E2, np.zeros(2), np.ones(2),
                     affine_net(rng.standard_normal((2, 2)), rng.standard_normal(2)))
        p = PipelineModel(((g, None),))
        for _ in range(20):
            x = rng.standard_normal(2)
            a, b = pipeline_eval(p, x), gdn_eval(g, x)
            assert np.array_equal(a, b)

    def test_softmax_readout_of_translated_input(self):
        e1 = resolve_manifold("euclidean:1")
        g = GDNModel(e1, e1, np.zeros(1), np.zeros(1), affine_net(np.eye(1), np.zeros(1)))
        p = PipelineModel(((g, None),), feature=lambda x: x,
                          readout=ReadoutSpec("softmax", C=2))
        np.testing.assert_allclose(pipeline_eval(p, [0.0]),
                                   softmax_chart("forward", [0.0]))

    def test_torus_projection_branch(self):
        const = affine_net(np.zeros((2, 2)), np.array([1.4, -0.25]))
        g = GDNModel(E2, E2, np.zeros(2), np.zeros(2), const)
        p = PipelineModel(((g, resolve_quotient("torus:2")),))
        np.testing.assert_allclose(pipeline_eval(p, np.zeros(2)), [0.4, 0.75])

    def test_branch_errors_annotated(self):
        g = GDNModel(S2, S2, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                     zero_net(3, 3))
        p = PipelineModel(((g, None),))
        with pytest.raises(DomainError, match="branch 0"):
            pipeline_eval(p, np.array([0.0, 0.0, -1.0]))


class TestGdnSerialization:
    def test_round_trip_bit_exact(self, rng):
        core = FeedforwardNet(
            (AffineLayer(rng.standard_normal((4, 3)), rng.standard_normal(4)),
             AffineLayer(rng.standard_normal((3, 4)), rng.standard_normal(3))),
            get_activation("exp"))
        base = np.array([0.0, 0.0, 1.0])
        g = GDNModel(S2, S2, base, base, core)
        d = json.loads(json.dumps(gdn_to_dict(g)))
        back = gdn_from_dict(d)
        assert back.domain.id == "sphere:2"
        np.testing.assert_array_equal(back.base_x, g.base_x)
        for a, b in zip(g.core.layers, back.core.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
