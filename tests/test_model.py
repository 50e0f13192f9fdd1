"""GDN evaluation, guards and serialization."""
import collections
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

# loaded before a test patches the names it imports, so that the patch and
# its undoing reach its bindings, whichever test loads the compiler first
import gdn.assemble  # noqa: F401
import gdn.manifolds.sym
import gdn.manifolds.zoo
import gdn.model
from gdn.errors import DomainError, NumericError, RangeError, ValidationError
from gdn.manifolds.core import resolve_manifold
from gdn.cli import main
from gdn.manifolds.sym import frob_vec
from gdn.manifolds.zoo import chart_at, exp_map, random_point, random_tangent
from gdn.model import (
    GDNModel,
    gdn_eval,
    gdn_from_dict,
    gdn_to_dict,
    save_gdn,
)
from gdn.network import AffineLayer, FeedforwardNet, eval_net, get_activation

RELU = get_activation("relu")
E2 = resolve_manifold("euclidean:2")
S2 = resolve_manifold("sphere:2")


def affine_net(W, b):
    return FeedforwardNet((AffineLayer(np.array(W, dtype=float),
                                       np.array(b, dtype=float)),), RELU)


def zero_net(p, m):
    return affine_net(np.zeros((m, p)), np.zeros(m))


def model_at(domain, codomain, base_x, base_y, core):
    """The GDN about ``base_x`` and ``base_y``, bound to their charts."""
    return GDNModel(chart_at(domain, base_x), chart_at(codomain, base_y), core)


class TestGdnEval:
    def test_zero_core_collapses_to_base_y(self, rng):
        g = model_at(E2, E2, np.array([1.0, 1.0]), np.array([5.0, -2.0]),
                     zero_net(2, 2))
        for _ in range(10):
            x = np.array([1.0, 1.0]) + rng.uniform(-1, 1, 2)
            np.testing.assert_array_equal(gdn_eval(g, x), [5.0, -2.0])

    def test_euclidean_identity_is_translation(self, rng):
        bx, by = np.array([1.0, 1.0]), np.array([5.0, 5.0])
        g = model_at(E2, E2, bx, by, affine_net(np.eye(2), np.zeros(2)))
        x = rng.standard_normal(2)
        np.testing.assert_allclose(gdn_eval(g, x), x - bx + by)

    def test_sphere_rotation_core_matches_rotation_oracle(self, rng):
        # rotation about the base axis is linear in ambient tangent coords
        base = np.array([0.0, 0.0, 1.0])
        ang = 0.7
        R = np.array([[math.cos(ang), -math.sin(ang), 0.0],
                      [math.sin(ang), math.cos(ang), 0.0],
                      [0.0, 0.0, 1.0]])
        g = model_at(S2, S2, base, base, affine_net(R, np.zeros(3)))
        E = g.chart_x.frame
        for _ in range(50):
            v = E @ rng.uniform(-1, 1, 2)
            v *= min(1.0, (math.pi / 2 - 1e-6) / np.linalg.norm(v))
            x = exp_map(S2, base, v)
            np.testing.assert_allclose(gdn_eval(g, x), R @ x, atol=1e-8)

    def test_domain_guard_reports_distance(self):
        g = model_at(S2, S2, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                     zero_net(3, 3))
        with pytest.raises(DomainError, match="injectivity"):
            gdn_eval(g, np.array([0.0, 0.0, -1.0]))

    def test_sphere_range_guard(self):
        big = affine_net(np.zeros((3, 3)), [4.0, 0.0, 0.0])  # norm 4 > pi
        g = model_at(E2, S2,
                     np.zeros(2), np.array([0.0, 0.0, 1.0]),
                     FeedforwardNet((AffineLayer(np.zeros((3, 2)), np.array([4.0, 0, 0])),),
                                    RELU))
        with pytest.raises(RangeError):
            gdn_eval(g, np.zeros(2))

    def test_core_dim_validation(self):
        with pytest.raises(ValidationError):
            model_at(E2, E2, np.zeros(2), np.zeros(2), zero_net(3, 2))


def random_chart_model(ident, base, rng, scale=0.3):
    """A GDN from ``ident`` to itself with a small random tanh core whose
    outputs are tangent at the base point."""
    spec = resolve_manifold(ident)
    E = chart_at(spec, base).frame
    hidden = 6
    core = FeedforwardNet(
        (AffineLayer(scale * rng.standard_normal((hidden, spec.chart_dim)),
                     0.1 * rng.standard_normal(hidden)),
         AffineLayer(E @ (scale * rng.standard_normal((spec.dim, hidden))),
                     E @ (0.1 * rng.standard_normal(spec.dim)))),
        get_activation("tanh"))
    return model_at(spec, spec, np.asarray(base, dtype=float),
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

    @pytest.mark.parametrize("ident,base", [
        ("sphere:2", [0.0, 0.6, 0.8]), ("sphere:3", [0.5, -0.5, 0.5, 0.5]),
        ("rp:2", [0.0, 0.6, 0.8])])
    def test_sphere_family_evaluation_is_its_kernels(self, ident, base, rng):
        # the ball checks change no bit of what the kernels compute
        g = random_chart_model(ident, base, rng)
        spec = g.domain
        xs = np.array([exp_map(spec, g.base_x, random_tangent(spec, g.base_x, rng, 1.2))
                       for _ in range(20)])
        for x in (xs[0], xs):
            want = spec.exp(g.base_y, eval_net(g.core, spec.log(g.base_x, x)))
            assert gdn_eval(g, x).tobytes() == want.tobytes()

    def test_torus_evaluation_is_its_kernels(self, rng):
        # the torus has a finite injectivity radius and no chart class of
        # its own: the generic chart's ball checks change no bit either
        g = random_chart_model("torus:2", [0.3, 0.8], rng, scale=0.1)
        spec = g.domain
        xs = np.array([exp_map(spec, g.base_x, random_tangent(spec, g.base_x, rng, 0.5))
                       for _ in range(20)])
        for x in (xs[0], xs):
            want = spec.exp(g.base_y, eval_net(g.core, spec.log(g.base_x, x)))
            assert gdn_eval(g, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("ident", ["spd:2", "spd:3"])
    def test_spd_rows_are_the_single_evaluations_and_the_kernels(self, ident, rng):
        # spd:2 works on entries, spd:3 on LAPACK's matrices: either way a
        # row of a stack has the bits of that row alone and of the kernels
        spec = resolve_manifold(ident)
        g = random_chart_model(ident, random_point(spec, rng), rng)
        xs = np.array([exp_map(spec, g.base_x, random_tangent(spec, g.base_x, rng, 1.2))
                       for _ in range(20)])
        got = gdn_eval(g, xs)
        assert got.tobytes() == spec.exp(g.base_y, eval_net(g.core, spec.log(g.base_x,
                                                                              xs))).tobytes()
        for x, row in zip(xs, got):
            want = spec.exp(g.base_y, eval_net(g.core, spec.log(g.base_x, x)))
            assert gdn_eval(g, x).tobytes() == row.tobytes() == want.tobytes()

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
        E = chart_at(S2, north).frame
        g = model_at(E2, S2, np.zeros(2), north,
                     affine_net(E @ (4.0 * np.eye(2)), np.zeros(3)))
        xs = np.array([[0.1, 0.2], [-0.3, 0.1], [1.0, 0.0], [0.0, 1.25], [0.2, 0.2]])
        with pytest.raises(RangeError, match="norm 4.0 "):
            gdn_eval(g, xs)


class TestBallChecks:
    """The model's ball checks run in its charts, which hand what they
    computed to the kernels they guard."""

    @pytest.mark.parametrize("ident,base", [
        ("sphere:2", [0.0, 0.6, 0.8]), ("sphere:3", [0.5, -0.5, 0.5, 0.5]),
        ("rp:2", [0.0, 0.6, 0.8])])
    def test_one_distance_and_one_output_norm_per_evaluation(self, ident, base, rng,
                                                             monkeypatch):
        g = random_chart_model(ident, base, rng)
        xs = np.array([exp_map(g.domain, g.base_x,
                               random_tangent(g.domain, g.base_x, rng, 1.2))
                       for _ in range(8)])
        counts, outputs = collections.Counter(), []
        sphere_distance = gdn.manifolds.zoo.Sphere.distance

        def counted_distance(self, x, y):  # the chordal form, rp's included
            counts["distance"] += 1
            return sphere_distance(self, x, y)

        net, norms = gdn.model.eval_net, gdn.manifolds.zoo.row_norms

        def recorded_net(core, v):
            outputs.append(net(core, v))
            return outputs[-1]

        def counted_norms(a):
            counts["output norm"] += any(a is w for w in outputs)
            return norms(a)

        monkeypatch.setattr(gdn.manifolds.zoo.Sphere, "distance", counted_distance)
        monkeypatch.setattr(gdn.model, "eval_net", recorded_net)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("gdn") and \
                    getattr(mod, "row_norms", None) is norms:
                monkeypatch.setattr(mod, "row_norms", counted_norms)
        for x in (xs[0], xs):
            counts.clear()
            g(x)
            assert counts == {"distance": 1, "output norm": 1}

    def test_rp_aligns_each_input_once(self, rng, monkeypatch):
        # the domain check hands its representative on the base's side, and
        # |x.y|, to the log: two dot products with the base per evaluation,
        # the alignment's and the sphere log's own
        g = random_chart_model("rp:2", [0.0, 0.6, 0.8], rng)
        xs = np.array([exp_map(g.domain, g.base_x,
                               random_tangent(g.domain, g.base_x, rng, 1.2))
                       for _ in range(8)])
        vecdot, dots = np.vecdot, collections.Counter()

        def counted_vecdot(a, b, *args, **kwargs):
            dots["with the base"] += a is g.base_x
            return vecdot(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "vecdot", counted_vecdot)
        for x in (xs[0], xs):
            dots.clear()
            g(x)
            assert dots == {"with the base": 2}

    def test_spd2_assembles_a_matrix_only_for_a_product(self, rng, monkeypatch):
        # an spd:2 evaluation runs its closed forms on entries: it assembles
        # the input's matrix and exp's, each for its product with a root of
        # the base, and no frob_unvec, sym or frob_entries matrix
        g = random_chart_model("spd:2", [1.5, 0.3, 1.0], rng)
        xs = np.array([exp_map(g.domain, g.base_x,
                               random_tangent(g.domain, g.base_x, rng, 1.2))
                       for _ in range(8)])
        counts, zoo = collections.Counter(), gdn.manifolds.zoo

        def counted(name, f):
            def call(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)
            return call

        for name in ("frob_unvec", "sym", "frob_entries", "_matrix2"):
            monkeypatch.setattr(zoo, name, counted(name, getattr(zoo, name)))
        for x in (xs[0], xs):
            counts.clear()
            g(x)
            assert counts == {"_matrix2": 2}

    @pytest.mark.parametrize("ident", ["euclidean:2", "gaussian:1", "poincare:2:1",
                                       "spd:2", "spd:3"])
    def test_infinite_radius_checks_nothing(self, ident, rng):
        # the checked kernels of an infinite injectivity ball are the kernels
        spec = resolve_manifold(ident)
        chart = chart_at(spec, random_point(spec, rng))
        assert chart.log_within == chart.log and chart.exp_within == chart.exp

    @pytest.mark.parametrize("ident", ["torus:2", "sphere:2", "rp:2"])
    def test_finite_radius_checks_the_ball(self, ident, rng):
        spec = resolve_manifold(ident)
        chart = chart_at(spec, random_point(spec, rng))
        assert chart.log_within != chart.log and chart.exp_within != chart.exp

    NOT_TANGENT = ("^core output w is not tangent at the codomain base point y: "
                   r"\|y\.w\| = 0\.1 at \|w\| = 0\.14142135623730953; the model is "
                   "undefined there$")

    def test_output_off_the_tangent_space_is_a_range_error(self, tmp_path, capsys):
        # a core output that the codomain exp refuses is a failure of the
        # model (exit 1), not a bad argument; exp_map of it stays one
        rp = resolve_manifold("rp:2")
        north = [0.0, 0.0, 1.0]
        g = model_at(rp, rp, north, north, affine_net(np.zeros((3, 3)), [0.1, 0.0, 0.1]))
        for given in (np.array(north), np.array([north, north])):
            with pytest.raises(RangeError, match=self.NOT_TANGENT):
                gdn_eval(g, given)
        path = tmp_path / "m.json"
        save_gdn(g, str(path))
        assert main(["eval", "--model", str(path), "--input", json.dumps(north)]) == 1
        assert "not tangent" in capsys.readouterr().err
        with pytest.raises(ValidationError, match="^sphere tangent must be orthogonal"):
            exp_map(rp, north, [0.1, 0.0, 0.1])


class TestGdnSerialization:
    def test_round_trip_bit_exact(self, rng):
        core = FeedforwardNet(
            (AffineLayer(rng.standard_normal((4, 3)), rng.standard_normal(4)),
             AffineLayer(rng.standard_normal((3, 4)), rng.standard_normal(3))),
            get_activation("exp"))
        base = np.array([0.0, 0.0, 1.0])
        g = model_at(S2, S2, base, base, core)
        d = json.loads(json.dumps(gdn_to_dict(g)))
        back = gdn_from_dict(d)
        assert back.domain.id == "sphere:2"
        np.testing.assert_array_equal(back.base_x, g.base_x)
        for a, b in zip(g.core.layers, back.core.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)

    @pytest.mark.parametrize("name", ["sphere2-rotation", "poincare2-mobius",
                                      "spd2-congruence"])
    def test_save_writes_the_streamed_encoders_bytes(self, name, tmp_path):
        with open(MODELS / f"{name}.json", encoding="utf-8") as f:
            model = gdn_from_dict(json.load(f))
        ref = tmp_path / "ref.json"
        with open(ref, "w", encoding="utf-8") as f:
            json.dump(gdn_to_dict(model), f)
            f.write("\n")
        out = tmp_path / "out.json"
        save_gdn(model, str(out))
        assert out.read_bytes() == ref.read_bytes()


# -- validated once ------------------------------------------------------------

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


def _count_calls(monkeypatch, counts, module, name):
    # replace the function wherever gdn binds it, as a from-import copies it
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("gdn") and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def _count_frames(monkeypatch, counts):
    # every tangent frame a chart builds comes from a geometry's tangent_basis
    for cls in vars(gdn.manifolds.zoo).values():
        if isinstance(cls, type) and "tangent_basis" in vars(cls):
            original = vars(cls)["tangent_basis"]

            def counted(self, x, original=original):
                counts["frame"] += 1
                return original(self, x)

            monkeypatch.setattr(cls, "tangent_basis", counted)


def _count_eigh(monkeypatch, counts):
    # every LAPACK eigendecomposition, whoever asks for it
    eigh = np.linalg.eigh

    def counted(a):
        counts["eigh"] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)


def _spd3_model():
    # an spd:3 model, off the closed forms of order 2
    spd3 = resolve_manifold("spd:3")
    rng = np.random.default_rng(0)
    bx, by = (random_point(spd3, rng) for _ in range(2))
    return model_at(spd3, spd3, bx, by, affine_net(0.1 * np.eye(6), np.zeros(6)))


class TestValidatedOnce:
    # LAPACK calls one evaluation makes: spd:2 takes its matrix functions in
    # closed form; spd:3 makes one per SPD chart, for its spectral function,
    # since the model keeps the base roots
    EIGH = {"sphere2-rotation": 0, "poincare2-mobius": 0, "spd2-congruence": 0,
            "spd3": 2}

    @pytest.mark.parametrize("case", sorted(EIGH))
    def test_one_point_check_per_evaluation(self, case, monkeypatch):
        model = (_spd3_model() if case == "spd3" else
                 gdn_from_dict(json.loads((MODELS / f"{case}.json").read_text())))
        x = np.array(model.base_x)
        counts = collections.Counter()
        _count_calls(monkeypatch, counts, gdn.manifolds.zoo, "as_point")
        _count_calls(monkeypatch, counts, gdn.manifolds.sym, "check_symmetric")
        _count_frames(monkeypatch, counts)
        _count_eigh(monkeypatch, counts)
        model(x)
        assert counts["as_point"] == 1
        assert counts["check_symmetric"] == 0
        assert counts["eigh"] == self.EIGH[case]
        # loading and evaluating never build a tangent frame
        assert counts["frame"] == 0
        assert "frame" not in vars(model.chart_x) and "frame" not in vars(model.chart_y)

    # one command-line compile of each perfbench chart case and of
    # cube3-product, as perfbench runs them
    COMPILES = {
        "sphere2-rotation": ["rotation", "sphere:2", "sphere:2", "[0, 0, 1]",
                             "1.5707", "0.1"],
        "poincare2-mobius": ["mobius-shift", "poincare:2:1", "poincare:2:1", "[0, 0]",
                             "1.0", "0.05"],
        "spd2-congruence": ["spd-congruence", "spd:2", "spd:2", "[1, 0, 1]", "1.0",
                            "0.05", "--lip", "2.0"],
        "cube3-product": ["poly:x1*x2*x3", "euclidean:3", "euclidean:1", "[0, 0, 0]",
                          "0.5", "0.05"],
    }

    @pytest.mark.parametrize("case", sorted(COMPILES))
    def test_each_base_is_bound_once_per_compile(self, case, monkeypatch, tmp_path,
                                                 capsys):
        target, domain, codomain, base_x, radius, eps, *lip = self.COMPILES[case]
        counts = collections.Counter()
        for name in ("chart_at", "_spd_roots"):
            _count_calls(monkeypatch, counts, gdn.manifolds.zoo, name)
        _count_frames(monkeypatch, counts)
        _count_eigh(monkeypatch, counts)
        out = tmp_path / "model.json"
        assert main(["compile", "--target", target, "--domain", domain,
                     "--codomain", codomain, "--base-x", base_x, "--radius", radius,
                     "--eps", eps, "--out", str(out), *lip]) == 0
        capsys.readouterr()
        assert counts["chart_at"] == 2
        assert counts["frame"] <= 2
        # one root computation per SPD base, kept by its chart
        assert counts["_spd_roots"] <= (3 if domain.startswith("spd") else 0)
        # spd:2 takes every matrix function in closed form, without LAPACK
        assert counts["eigh"] == 0

    def test_model_reads_manifolds_and_bases_from_its_charts(self):
        chart_x, chart_y = chart_at(E2, [1.0, 2.0]), chart_at(S2, [0.0, 1.0, 0.0])
        g = GDNModel(chart_x, chart_y, zero_net(2, 3))
        assert g.domain is E2 and g.codomain is S2
        assert g.base_x is chart_x.x and g.base_y is chart_y.x

    def test_stored_bases_are_checked_as_they_are_bound(self):
        d = json.loads((MODELS / "spd2-congruence.json").read_text())
        d["base_y"] = [1.0, 0.0, -0.5]
        with pytest.raises(ValidationError, match="^spd point is not positive definite: "
                                                  "min eigenvalue -5.000000e-01$"):
            gdn_from_dict(d)

    def test_stored_bases_are_read_only_copies(self):
        bx, by = np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
        g = model_at(S2, S2, bx, by, zero_net(3, 3))
        for stored in (g.base_x, g.base_y):
            with pytest.raises(ValueError):
                stored[0] = 0.5
        bx[2] = by[1] = 0.5  # the caller's arrays stay writable, and apart
        np.testing.assert_array_equal(g.base_x, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(g.base_y, [0.0, 1.0, 0.0])

    def test_stored_spd_roots_are_read_only(self):
        spd = resolve_manifold("spd:2")
        g = model_at(spd, spd, [2.0, 0.0, 1.0], [1.0, 0.5, 3.0], zero_net(3, 3))
        for chart in (g.chart_x, g.chart_y):
            for stored in (chart.root, chart.inv_root, chart.x):
                with pytest.raises(ValueError):
                    stored[0] = 0.5

    def test_spd_overflow_raises_through_gdn_eval(self):
        spd = resolve_manifold("spd:2")
        eye = [1.0, 0.0, 1.0]
        g = model_at(spd, spd, eye, eye, affine_net(np.zeros((3, 3)), [800.0, 0.0, 0.0]))
        with pytest.raises(NumericError,
                           match="^the spd exponential map overflows the float range$"):
            g(np.array(eye))

    @pytest.mark.parametrize("n", [2, 3])
    def test_spd_underflow_raises_through_gdn_eval(self, n, tmp_path, capsys):
        # a net output whose exponential underflows to a singular matrix:
        # gdn_eval and ``gdn eval`` refuse it, and exit 1
        spd = resolve_manifold(f"spd:{n}")
        eye = frob_vec(np.eye(n))
        g = model_at(spd, spd, eye, eye, affine_net(np.zeros((len(eye), len(eye))),
                                                    -800.0 * eye))
        message = "the spd exponential map underflows the float range"
        with pytest.raises(NumericError, match=f"^{message}$"):
            g(eye)
        path = tmp_path / "m.json"
        save_gdn(g, str(path))
        assert main(["eval", "--model", str(path), "--input", json.dumps(eye.tolist())]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # (manifold, base point, input, error class, message), as the checks
    # inside distance, log_map and exp_map raised them on every call
    BAD_INPUTS = [
        ("euclidean:2", [0.0, 0.0], [1.0], ValidationError,
         "point of euclidean:2 must have length 2, got 1"),
        ("euclidean:2", [0.0, 0.0], [np.nan, 0.0], ValidationError,
         "point of euclidean:2 has non-finite entries"),
        ("gaussian:1", [0.0, 0.0], [0.0, 0.0, 0.0], ValidationError,
         "point of gaussian:1 must have length 2, got 3"),
        ("gaussian:1", [0.0, 0.0], [np.inf, 0.0], ValidationError,
         "point of gaussian:1 has non-finite entries"),
        ("torus:2", [0.0, 0.0], [0.1], ValidationError,
         "point of torus:2 must have length 2, got 1"),
        ("torus:2", [0.0, 0.0], [0.1, np.nan], ValidationError,
         "point of torus:2 has non-finite entries"),
        ("torus:2", [0.0, 0.0], [0.5, 0.5], DomainError,
         "input at distance 0.7071067811865476 from the basepoint is outside the "
         "injectivity ball of radius 0.5"),
        ("sphere:2", [0.0, 0.0, 1.0], [0.0, 1.0], ValidationError,
         "point of sphere:2 must have length 3, got 2"),
        ("sphere:2", [0.0, 0.0, 1.0], [0.0, np.inf, 1.0], ValidationError,
         "point of sphere:2 has non-finite entries"),
        ("sphere:2", [0.0, 0.0, 1.0], [0.0, 0.0, 2.0], ValidationError,
         "point of sphere:2 must be unit norm, got |x|=2.0"),
        ("sphere:2", [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], DomainError,
         "input at distance 3.141592653589793 from the basepoint is outside the "
         "injectivity ball of radius 3.141592653589793"),
        ("rp:2", [0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], ValidationError,
         "point of rp:2 must have length 3, got 4"),
        ("rp:2", [0.0, 0.0, 1.0], [np.nan, 0.0, 1.0], ValidationError,
         "point of rp:2 has non-finite entries"),
        ("rp:2", [0.0, 0.0, 1.0], [0.0, 0.6, 0.6], ValidationError,
         "point of rp:2 must be unit norm, got |x|=0.848528137423857"),
        ("poincare:2:1", [0.0, 0.0], [0.1, 0.1, 0.1], ValidationError,
         "point of poincare:2:1.0 must have length 2, got 3"),
        ("poincare:2:1", [0.0, 0.0], [0.1, -np.inf], ValidationError,
         "point of poincare:2:1.0 has non-finite entries"),
        ("poincare:2:1", [0.0, 0.0], [0.8, 0.8], ValidationError,
         "point of poincare:2:1.0 must satisfy c|x|^2 < 1"),
        ("spd:2", [1.0, 0.0, 1.0], [1.0, 1.0], ValidationError,
         "point of spd:2 must have length 3, got 2"),
        ("spd:2", [1.0, 0.0, 1.0], [1.0, np.nan, 1.0], ValidationError,
         "point of spd:2 has non-finite entries"),
        ("spd:2", [1.0, 0.0, 1.0], [1.0, 0.0, -0.5], ValidationError,
         "target of spd log map is not SPD: matrix function 'log' requires SPD "
         "input: smallest eigenvalue -5.000000e-01"),
        ("rp:2", [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], DomainError,
         "input at distance 1.5707963267948968 from the basepoint is outside the "
         "injectivity ball of radius 1.5707963267948966"),
    ]

    @pytest.mark.parametrize("ident,base,x,error,message", BAD_INPUTS)
    def test_bad_input_raises_as_before(self, ident, base, x, error, message):
        spec = resolve_manifold(ident)
        g = model_at(spec, spec, base, base, zero_net(spec.chart_dim, spec.chart_dim))
        givens = [np.array(x)] + ([np.array([base, x])] if len(x) == len(base) else [])
        for given in givens:  # a point, and a stack with it as its second row
            with pytest.raises(error) as raised:
                gdn_eval(g, given)
            assert str(raised.value) == message

    # (manifold, base point, core bias, error class, message) of a constant
    # core whose output leaves the codomain chart ball
    BAD_OUTPUTS = [
        ("sphere:2", [0.0, 0.0, 1.0], [4.0, 0.0, 0.0], RangeError,
         "core output norm 4.0 is outside the codomain chart ball of radius "
         "3.141592653589793; the model is undefined there"),
        ("rp:2", [0.0, 0.0, 1.0], [1.6, 0.0, 0.0], RangeError,
         "core output norm 1.6 is outside the codomain chart ball of radius "
         "1.5707963267948966; the model is undefined there"),
    ]

    @pytest.mark.parametrize("ident,base,bias,error,message", BAD_OUTPUTS)
    def test_bad_output_raises_as_before(self, ident, base, bias, error, message):
        spec = resolve_manifold(ident)
        g = model_at(spec, spec, base, base,
                     affine_net(np.zeros((spec.chart_dim, spec.chart_dim)), bias))
        for given in (np.array(base), np.array([base, base])):
            with pytest.raises(error) as raised:
                gdn_eval(g, given)
            assert str(raised.value) == message
