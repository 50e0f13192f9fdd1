"""Closed-form exp/log/distance across the manifold zoo."""
import math

import numpy as np
import pytest

from conftest import random_orthogonal, random_spd
from gdn.errors import GdnError, OutOfInjectivityError, ValidationError
from gdn.manifolds import resolve_manifold
from gdn.manifolds.sym import frob_unvec, frob_vec
from gdn.manifolds.zoo import (
    check_point,
    distance,
    exp_map,
    inj_lower,
    log_map,
    random_point,
    random_tangent,
)

ZOO = ["euclidean:3", "sphere:2", "poincare:2:1", "spd:2", "gaussian:2",
       "torus:3", "rp:2"]

E1, E2, E3 = np.eye(3)


class TestSphere:
    spec = resolve_manifold("sphere:2")

    def test_zero_tangent(self):
        np.testing.assert_allclose(exp_map(self.spec, E3, np.zeros(3)), E3)

    def test_quarter_turn(self):
        y = exp_map(self.spec, E3, (math.pi / 2.0) * E1)
        np.testing.assert_allclose(y, E1, atol=1e-12)

    def test_log_inverts_quarter_turn(self):
        v = log_map(self.spec, E3, E1)
        np.testing.assert_allclose(v, (math.pi / 2.0) * E1, atol=1e-12)

    def test_distance_right_angle(self):
        assert distance(self.spec, E1, E2) == pytest.approx(math.pi / 2.0)

    def test_exp_guards(self):
        with pytest.raises(OutOfInjectivityError):
            exp_map(self.spec, E3, 3.2 * E1)
        with pytest.raises(ValidationError):
            exp_map(self.spec, E3, np.array([0.1, 0.0, 0.5]))  # not orthogonal

    def test_antipodal_log_rejected(self):
        with pytest.raises(OutOfInjectivityError):
            log_map(self.spec, E3, -E3)


class TestPoincare:
    spec = resolve_manifold("poincare:2:1")

    def test_distance_from_origin(self):
        # 2 atanh(|y|) at the origin
        d = distance(self.spec, np.zeros(2), np.array([0.5, 0.0]))
        assert d == pytest.approx(2.0 * math.atanh(0.5), abs=1e-12)

    def test_point_validation(self):
        with pytest.raises(ValidationError):
            check_point(self.spec, np.array([1.0, 0.2]))


class TestSPD:
    spec = resolve_manifold("spd:2")
    I2 = frob_vec(np.eye(2))

    def test_exp_diagonal(self):
        y = exp_map(self.spec, self.I2, frob_vec(np.diag([2.0, 0.0])))
        np.testing.assert_allclose(frob_unvec(y), np.diag([math.e ** 2, 1.0]),
                                   atol=1e-10)

    def test_log_diagonal(self):
        v = log_map(self.spec, self.I2, frob_vec(np.diag([math.e ** 2, 1.0])))
        np.testing.assert_allclose(frob_unvec(v), np.diag([2.0, 0.0]), atol=1e-10)

    def test_distance_diagonal(self):
        d = distance(self.spec, self.I2, frob_vec(np.diag([math.e ** 2, 1.0])))
        assert d == pytest.approx(2.0, abs=1e-10)

    def test_affine_invariance(self, rng):
        spec3 = resolve_manifold("spd:3")
        worst = 0.0
        for _ in range(60):
            A, B = random_spd(3, rng), random_spd(3, rng)
            X = random_orthogonal(3, rng)
            d1 = distance(spec3, frob_vec(A), frob_vec(B))
            d2 = distance(spec3, frob_vec(X.T @ A @ X), frob_vec(X.T @ B @ X))
            worst = max(worst, abs(d1 - d2))
        assert worst <= 1e-8

    def test_exp_output_is_spd(self, rng):
        for _ in range(20):
            x = random_point(self.spec, rng)
            v = random_tangent(self.spec, x, rng)
            y = exp_map(self.spec, x, v)
            w = np.linalg.eigvalsh(frob_unvec(y))
            assert w[0] > 0.0


class TestTorus:
    spec = resolve_manifold("torus:2")

    def test_exp_wraps(self):
        np.testing.assert_allclose(
            exp_map(self.spec, np.zeros(2), np.array([1.4, -0.25])),
            np.array([0.4, 0.75]))

    def test_distance_wraparound(self):
        assert distance(self.spec, np.array([0.9, 0.0]), np.array([0.1, 0.0])) \
            == pytest.approx(0.2)

    def test_injectivity(self):
        assert inj_lower(self.spec, np.zeros(2)) == 0.5


class TestProjectiveGuards:
    spec = resolve_manifold("rp:2")

    def test_exp_guard_at_half_pi(self):
        with pytest.raises(OutOfInjectivityError):
            exp_map(self.spec, E3, (math.pi / 2.0) * E1)

    def test_log_cut_locus(self):
        with pytest.raises(OutOfInjectivityError):
            log_map(self.spec, E3, E1)  # orthogonal classes sit on the cut locus

    def test_exp_output_is_canonical(self, rng):
        for _ in range(30):
            x = random_point(self.spec, rng)
            v = random_tangent(self.spec, x, rng)
            y = exp_map(self.spec, x, v)
            nz = np.nonzero(np.abs(y) > 1e-14)[0]
            assert y[nz[0]] > 0.0


class TestInjLower:
    @pytest.mark.parametrize("ident,value", [
        ("poincare:4:0.5", math.inf), ("sphere:7", math.pi), ("euclidean:2", math.inf),
        ("spd:3", math.inf), ("gaussian:2", math.inf), ("rp:2", math.pi / 2.0),
    ])
    def test_constants(self, ident, value, rng):
        spec = resolve_manifold(ident)
        assert inj_lower(spec, random_point(spec, rng)) == value


class TestZooProperties:
    """Round trip, radial isometry, metric axioms, and invariant
    preservation across the whole zoo."""

    @pytest.mark.parametrize("ident", ZOO)
    def test_round_trip_and_radial_isometry(self, ident, rng):
        spec = resolve_manifold(ident)
        tol = 1e-6 if spec.family == "spd" else 1e-9
        for _ in range(200):
            x = random_point(spec, rng)
            v = random_tangent(spec, x, rng)
            y = exp_map(spec, x, v)
            np.testing.assert_allclose(log_map(spec, x, y), v, atol=tol)
            assert abs(distance(spec, x, y) - float(np.linalg.norm(v))) <= tol

    def test_spd_round_trip_larger_orders(self, rng):
        for n in (3, 4, 5):
            spec = resolve_manifold(f"spd:{n}")
            for _ in range(40):
                x = random_point(spec, rng)
                v = random_tangent(spec, x, rng)
                y = exp_map(spec, x, v)
                np.testing.assert_allclose(log_map(spec, x, y), v, atol=1e-6)

    @pytest.mark.parametrize("ident", ZOO)
    def test_metric_axioms_on_samples(self, ident, rng):
        spec = resolve_manifold(ident)
        pts = [random_point(spec, rng) for _ in range(12)]
        for a in pts:
            assert distance(spec, a, a) <= 1e-12
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dij = distance(spec, pts[i], pts[j])
                assert dij >= 0.0
                assert dij == pytest.approx(distance(spec, pts[j], pts[i]), abs=1e-9)
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            assert distance(spec, a, c) <= (distance(spec, a, b)
                                            + distance(spec, b, c) + 1e-9)

    @pytest.mark.parametrize("ident", ZOO)
    def test_exp_inverts_log(self, ident, rng):
        spec = resolve_manifold(ident)
        tol = 1e-6 if spec.family == "spd" else 1e-9
        for _ in range(100):
            x = random_point(spec, rng)
            v = random_tangent(spec, x, rng)
            y = exp_map(spec, x, v)
            back = exp_map(spec, x, log_map(spec, x, y))
            np.testing.assert_allclose(back, y, atol=tol)

    def test_sphere_exp_stays_unit(self, rng):
        spec = resolve_manifold("sphere:2")
        for _ in range(100):
            x = random_point(spec, rng)
            v = random_tangent(spec, x, rng)
            y = exp_map(spec, x, v)
            assert abs(float(np.linalg.norm(y)) - 1.0) <= 1e-10


class TestStacks:
    """exp_map, log_map and distance on (N, d) stacks: each row is bit for
    bit the per-point result, and a bad row fails the whole call the same
    way."""

    IDENTS = ZOO + ["euclidean:1", "poincare:3:0.5", "spd:3"]

    @staticmethod
    def _sample(spec, rng, count=40):
        xs = np.array([random_point(spec, rng) for _ in range(count)])
        vs = np.array([random_tangent(spec, x, rng) for x in xs])
        ys = np.array([random_point(spec, rng) for _ in range(count)])
        return xs, vs, ys

    @pytest.mark.parametrize("ident", IDENTS)
    def test_rows_equal_per_point_calls(self, ident, rng):
        spec = resolve_manifold(ident)
        xs, vs, ys = self._sample(spec, rng)
        ys[5] = xs[5]  # a zero log row
        exps = exp_map(spec, xs, vs)
        np.testing.assert_array_equal(
            exps, np.array([exp_map(spec, x, v) for x, v in zip(xs, vs)]))
        dists = distance(spec, xs, ys)
        assert dists.shape == (len(xs),)
        np.testing.assert_array_equal(
            dists, np.array([distance(spec, x, y) for x, y in zip(xs, ys)]))
        for targets in (ys, exps):
            logs = log_map(spec, xs, targets)
            assert logs.shape == (len(xs), spec.chart_dim)
            np.testing.assert_array_equal(
                logs, np.array([log_map(spec, x, y) for x, y in zip(xs, targets)]))

    @pytest.mark.parametrize("ident", IDENTS)
    def test_one_point_against_a_stack(self, ident, rng):
        spec = resolve_manifold(ident)
        base = random_point(spec, rng)
        vs = np.array([random_tangent(spec, base, rng) for _ in range(40)])
        ys = np.array([random_point(spec, rng) for _ in range(40)])
        np.testing.assert_array_equal(
            exp_map(spec, base, vs), np.array([exp_map(spec, base, v) for v in vs]))
        np.testing.assert_array_equal(
            distance(spec, base, ys), np.array([distance(spec, base, y) for y in ys]))
        np.testing.assert_array_equal(
            distance(spec, ys, base), np.array([distance(spec, y, base) for y in ys]))
        np.testing.assert_array_equal(
            log_map(spec, base, ys), np.array([log_map(spec, base, y) for y in ys]))
        np.testing.assert_array_equal(
            log_map(spec, ys, base), np.array([log_map(spec, y, base) for y in ys]))

    def test_single_point_shapes(self, rng):
        spec = resolve_manifold("sphere:2")
        x = random_point(spec, rng)
        v = random_tangent(spec, x, rng)
        assert exp_map(spec, x, v).shape == (3,)
        assert isinstance(distance(spec, x, x), float)
        assert log_map(spec, x, x).shape == (3,)
        assert exp_map(spec, x[None], v).shape == (1, 3)
        assert distance(spec, x[None], x).shape == (1,)
        assert log_map(spec, x, x[None]).shape == (1, 3)

    def test_empty_stack(self):
        spec = resolve_manifold("poincare:2:1")
        assert exp_map(spec, np.zeros(2), np.zeros((0, 2))).shape == (0, 2)
        assert distance(spec, np.zeros((0, 2)), np.zeros(2)).shape == (0,)
        assert log_map(spec, np.zeros(2), np.zeros((0, 2))).shape == (0, 2)

    def test_row_count_mismatch_rejected(self):
        spec = resolve_manifold("euclidean:2")
        for fn in (distance, log_map):
            with pytest.raises(ValidationError, match="do not match"):
                fn(spec, np.zeros((3, 2)), np.zeros((2, 2)))

    # (family, kind of bad row, how to spoil a row): point rows are spoiled
    # for every kernel, tangent rows for exp_map only, and log rows spoil
    # the second point of a log_map pair
    BAD_ROWS = [
        ("euclidean:2", "point", lambda spec, x, v: (np.array([np.nan, 0.0]), v)),
        ("euclidean:2", "tangent", lambda spec, x, v: (x, np.array([0.0, np.inf]))),
        ("sphere:2", "point", lambda spec, x, v: (np.array([0.0, 0.0, 1.1]), v)),
        ("sphere:2", "tangent", lambda spec, x, v: (x, x)),  # not orthogonal
        ("sphere:2", "tangent", lambda spec, x, v: (x, 3.3 * v / np.linalg.norm(v))),
        ("rp:2", "tangent", lambda spec, x, v: (x, 1.6 * v / np.linalg.norm(v))),
        ("poincare:2:1", "point", lambda spec, x, v: (np.array([0.8, 0.8]), v)),
        ("spd:2", "point", lambda spec, x, v: (frob_vec(np.diag([1.0, -0.5])), v)),
        ("torus:2", "point", lambda spec, x, v: (np.array([0.5, np.inf]), v)),
        ("sphere:2", "log", lambda spec, x, v: (x, -x)),  # antipodal
        ("rp:2", "log", lambda spec, x, v: (x, v / np.linalg.norm(v))),  # cut locus
        ("spd:2", "log", lambda spec, x, v: (x, frob_vec(np.diag([1.0, -0.5])))),
        ("poincare:2:1", "log", lambda spec, x, v: (x, np.array([0.8, 0.8]))),
    ]

    @pytest.mark.parametrize("ident,kind,spoil", BAD_ROWS)
    def test_bad_row_raises_like_per_point_call(self, ident, kind, spoil, rng):
        spec = resolve_manifold(ident)
        xs, vs, ys = self._sample(spec, rng, count=6)
        bad_x, bad_v = spoil(spec, xs[3], vs[3])
        if kind == "log":
            calls = [(log_map, bad_x, bad_v, ys)]
        else:
            calls = [(exp_map, bad_x, bad_v, vs)]
        if kind == "point":
            calls += [(distance, bad_x, ys[3], ys), (log_map, bad_x, ys[3], ys)]
        for fn, a, b, others in calls:
            with pytest.raises(GdnError) as single:
                fn(spec, a, b)
            stack_a, stack_b = xs.copy(), others.copy()
            stack_a[3], stack_b[3] = a, b
            with pytest.raises(GdnError) as stacked:
                fn(spec, stack_a, stack_b)
            assert type(stacked.value) is type(single.value), fn.__name__


def _scalar_sphere_exp(x, v):
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return x.copy()
    y = math.cos(nv) * x + math.sin(nv) * (v / nv)
    return y / float(np.linalg.norm(y))


def _scalar_sphere_distance(x, y):
    c1 = 0.5 * float(np.linalg.norm(x - y))
    c2 = 0.5 * float(np.linalg.norm(x + y))
    if c1 <= c2:
        return 2.0 * math.asin(min(c1, 1.0))
    return math.pi - 2.0 * math.asin(min(c2, 1.0))


def _scalar_mobius_add(x, y, c):
    xy, x2, y2 = float(x @ y), float(x @ x), float(y @ y)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    return num / (1.0 + 2.0 * c * xy + c * c * x2 * y2)


def _scalar_poincare_exp(x, v, c):
    sc, nv = math.sqrt(c), float(np.linalg.norm(v))
    u = np.zeros_like(v) if nv == 0.0 else math.tanh(sc * nv / 2.0) / (sc * nv) * v
    return _scalar_mobius_add(x, u, c)


def _scalar_poincare_distance(x, y, c):
    sc = math.sqrt(c)
    n = float(np.linalg.norm(_scalar_mobius_add(-x, y, c)))
    return (2.0 / sc) * math.atanh(min(sc * n, 1.0 - 1e-16))


@pytest.mark.parametrize("ident,exp_ref,dist_ref", [
    ("sphere:2", _scalar_sphere_exp, _scalar_sphere_distance),
    ("poincare:2:1", lambda x, v: _scalar_poincare_exp(x, v, 1.0),
     lambda x, y: _scalar_poincare_distance(x, y, 1.0)),
    ("poincare:3:0.5", lambda x, v: _scalar_poincare_exp(x, v, 0.5),
     lambda x, y: _scalar_poincare_distance(x, y, 0.5)),
])
def test_stacked_kernels_keep_the_scalar_arithmetic(ident, exp_ref, dist_ref, rng):
    """The array kernels round exactly like the scalar math-module formulas
    they replaced, on single points and on stacks."""
    spec = resolve_manifold(ident)
    xs = np.array([random_point(spec, rng) for _ in range(200)])
    vs = np.array([random_tangent(spec, x, rng) for x in xs])
    vs[7] = 0.0
    ys = np.array([random_point(spec, rng) for _ in range(200)])
    ys[9] = xs[9]
    want_exp = np.array([exp_ref(x, v) for x, v in zip(xs, vs)])
    want_dist = np.array([dist_ref(x, y) for x, y in zip(xs, ys)])
    np.testing.assert_array_equal(exp_map(spec, xs, vs), want_exp)
    np.testing.assert_array_equal(distance(spec, xs, ys), want_dist)
    np.testing.assert_array_equal(exp_map(spec, xs[3], vs[3]), want_exp[3])
    assert distance(spec, xs[3], ys[3]) == want_dist[3]
