"""The closed-form chart constants against sampled chart ratios, the
audit grid, seed-free chart compiles and bench reports, and an SPD compile
that never touches the Jacobi solver.

The random tangent-pair sampler lives here, as the reference that
``exp_chart_lipschitz`` and ``log_chart_lipschitz`` are checked against;
no code under ``src/`` samples chart constants."""
import hashlib
import json
import math
import sys

import numpy as np
import pytest

import gdn.manifolds.sym
from gdn.assemble import audit_gdn, compile_gdn
from gdn.cli import main
from gdn.errors import NumericError, RangeError, ValidationError
from gdn.manifolds.core import exp_chart_lipschitz, log_chart_lipschitz, resolve_manifold
from gdn.manifolds.zoo import chart_at, distance, exp_map, random_point, random_tangent
from gdn.model import GDNModel
from gdn.network import AffineLayer, FeedforwardNet, get_activation
from gdn.sampling import ball_points, geodesic_ball_points, halton
from gdn.targets import resolve_target
from test_golden import BENCH_CSV, BENCH_RUNS

# (manifold, base point, tangent radius)
CASES = [
    ("sphere:2", [0.0, 0.0, 1.0], 1.5),
    ("poincare:2:1", [0.1, -0.2], 1.0),
    ("spd:2", [1.0, 0.0, 1.0], 1.2),
    ("euclidean:1", [0.3], 0.7),
]


def pair_data(spec, base, v1, v2):
    """Tangent gaps |v1 - v2| and geodesic distances d(Exp v1, Exp v2),
    the charts run once on each stack."""
    diff = v1 - v2
    gap = np.sqrt(np.vecdot(diff, diff))
    return gap, distance(spec, exp_map(spec, base, v1), exp_map(spec, base, v2))


def draw_tangents(spec, base, radius: float, count: int, seed: int):
    """``count`` random tangents at the point ``base`` with norm below
    ``radius``, as a (count, chart_dim) stack."""
    rng = np.random.default_rng(seed)
    return np.array([random_tangent(spec, base, rng, radius)
                     for _ in range(count)]).reshape(count, spec.chart_dim)


def sample_pairs(spec, base, radius: float, pairs: int, seed: int):
    """``pair_data`` of ``pairs`` random tangent pairs in the ball of
    ``radius`` about ``base``, drawn pair by pair, v1 then v2."""
    base = chart_at(spec, base).x
    draws = draw_tangents(spec, base, radius, 2 * pairs, seed)
    return pair_data(spec, base, draws[0::2], draws[1::2])


def boundary_pairs(spec, base, radius: float, pairs: int, seed: int):
    """``pair_data`` of 2 ``pairs`` tangent pairs on the sphere of ``radius``:
    v with another boundary tangent, and v with a near-opposite one, whose
    images come closest round a quotient."""
    base = chart_at(spec, base).x
    v, w = draw_tangents(spec, base, radius, 2 * pairs, seed).reshape(2, pairs, -1)
    v1, v2 = (radius * a / np.linalg.norm(a, axis=1, keepdims=True)
              for a in (np.concatenate([v, v]), np.concatenate([w, 0.05 * w - v])))
    return pair_data(spec, base, v1, v2)


def estimate_exp_lipschitz(spec, base, radius: float,
                           pairs: int = 2000, seed: int = 1) -> float:
    """Sampled Lipschitz constant of the exponential chart on the tangent
    ball (at least 1, inflated by 1.1); bounds geodesic error by core
    chart error."""
    gap, d = sample_pairs(spec, base, radius, pairs, seed)
    ok = gap >= 1e-9
    return 1.1 * float((d[ok] / gap[ok]).max(initial=1.0))


def reference_exp_lipschitz(spec, base, radius, pairs=2000, seed=1):
    """The per-pair loop the stacked estimator replaced."""
    base = chart_at(spec, base).x
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(pairs):
        v1 = random_tangent(spec, base, rng, radius)
        v2 = random_tangent(spec, base, rng, radius)
        gap = float(np.linalg.norm(v1 - v2))
        if gap < 1e-9:
            continue
        d = distance(spec, exp_map(spec, base, v1), exp_map(spec, base, v2))
        worst = max(worst, d / gap)
    return 1.1 * worst


class TestLipschitzEstimators:
    @pytest.mark.parametrize("ident,base,radius", CASES)
    def test_exp_estimate_equals_per_pair_loop(self, ident, base, radius):
        spec = resolve_manifold(ident)
        for seed in (1, 8):
            got = estimate_exp_lipschitz(spec, base, radius, pairs=500, seed=seed)
            assert got == reference_exp_lipschitz(spec, base, radius, pairs=500,
                                                   seed=seed)

    def test_exp_estimate_is_at_least_the_inflation(self):
        # the flat chart has expansion exactly 1
        spec = resolve_manifold("euclidean:1")
        assert estimate_exp_lipschitz(spec, [0.0], 1.0, pairs=50) == 1.1


BOUND_IDS = ["euclidean:1", "euclidean:3", "sphere:2", "sphere:3", "rp:2", "torus:2",
             "gaussian:2", "poincare:2:1", "poincare:3:0.5", "poincare:2:4", "spd:2",
             "spd:3"]


class TestExpChartLipschitz:
    @pytest.mark.parametrize("ident", BOUND_IDS)
    def test_sampled_ratio_never_exceeds_closed_form(self, ident):
        spec = resolve_manifold(ident)
        base = random_point(spec, np.random.default_rng(5))
        for radius in (0.3, 1.0, min(2.5, 0.95 * spec.inj_lower)):
            gap, d = sample_pairs(spec, base, radius, 2000, seed=2)
            ok = gap >= 1e-9
            sampled = float((d[ok] / gap[ok]).max())
            # the flat charts are isometries up to rounding in the last bit
            assert sampled <= exp_chart_lipschitz(spec, radius) * (1.0 + 1e-12), radius

    @pytest.mark.parametrize("ident", ["euclidean:1", "euclidean:3", "gaussian:2",
                                       "torus:2", "sphere:2", "sphere:3", "rp:2"])
    def test_flat_and_positive_curvature_give_one(self, ident):
        spec = resolve_manifold(ident)
        for radius in (0.3, 1.0, min(2.5, 0.95 * spec.inj_lower)):
            assert exp_chart_lipschitz(spec, radius) == 1.0

    def test_negative_curvature_values(self):
        assert exp_chart_lipschitz(resolve_manifold("poincare:2:1"), 1.0) == math.sinh(1.0)
        # sec >= -1/2 on spd; sqrt(0.5) and 1/sqrt(2) differ in the last bit
        s = 1.0 / math.sqrt(2.0)
        assert exp_chart_lipschitz(resolve_manifold("spd:2"), 1.0) == pytest.approx(
            math.sinh(s) / s, rel=1e-15, abs=0.0)


def bound_radii(spec):
    # the radii the bound tests sample, inside the injectivity radius
    return [r for r in (0.3, 1.0, 0.95 * min(spec.inj_lower, 2.5))
            if r < spec.inj_lower]


class TestLogChartLipschitz:
    @pytest.mark.parametrize("ident", BOUND_IDS)
    def test_sampled_ratio_never_exceeds_closed_form(self, ident):
        spec = resolve_manifold(ident)
        base = random_point(spec, np.random.default_rng(5))
        for radius in bound_radii(spec):
            inner = sample_pairs(spec, base, radius, 2000, seed=2)
            edge = boundary_pairs(spec, base, radius, 1000, seed=3)
            gap, d = (np.concatenate(a) for a in zip(inner, edge))
            ok = (gap >= 1e-9) & (d >= 1e-12)
            sampled = float((gap[ok] / d[ok]).max())
            # the flat charts are isometries up to rounding in the last bit
            assert sampled <= log_chart_lipschitz(spec, radius) * (1.0 + 1e-12), radius

    @pytest.mark.parametrize("ident", ["euclidean:3", "gaussian:2", "poincare:2:4",
                                       "spd:3"])
    def test_nonpositive_curvature_gives_one(self, ident):
        spec = resolve_manifold(ident)
        for radius in bound_radii(spec):
            assert log_chart_lipschitz(spec, radius) == 1.0

    def test_exact_values(self):
        assert log_chart_lipschitz(resolve_manifold("sphere:2"), 1.0) == 1.0 / math.sin(1.0)
        # the rp wrap: Exp(re) and Exp(-re) are pi - 2r apart as classes
        assert log_chart_lipschitz(resolve_manifold("rp:2"), 1.5) == 3.0 / (math.pi - 3.0)
        assert log_chart_lipschitz(resolve_manifold("torus:2"), 0.475) == pytest.approx(
            19.0, rel=1e-12, abs=0.0)
        # below a quarter period nothing wraps closer than it started
        assert log_chart_lipschitz(resolve_manifold("torus:2"), 0.2) == 1.0

    @pytest.mark.parametrize("ident,radius", [("torus:2", 0.5), ("rp:2", math.pi / 2),
                                              ("sphere:2", -0.1)])
    def test_refused_outside_the_injectivity_ball(self, ident, radius):
        with pytest.raises(ValidationError, match="inj"):
            log_chart_lipschitz(resolve_manifold(ident), radius)


def test_bench_does_not_depend_on_the_seed(tmp_path, capsys):
    # the chart constants are closed forms; no golden target draws at random
    cfg = tmp_path / "bench.json"
    for seed in (0, 5):
        cfg.write_text(json.dumps({"runs": [{**r, "seed": seed} for r in BENCH_RUNS]}))
        assert main(["bench", str(cfg)]) == 0
        assert capsys.readouterr().out == BENCH_CSV


def test_chart_compile_does_not_depend_on_the_seed(tmp_path, capsys):
    shas = []
    for seed in (0, 9):
        out = tmp_path / f"model{seed}.json"
        assert main(["compile", "--target", "mobius-shift", "--domain", "poincare:2:1",
                     "--codomain", "poincare:2:1", "--base-x", "[0, 0]",
                     "--radius", "1.0", "--eps", "0.05", "--seed", str(seed),
                     "--out", str(out)]) == 0
        shas.append(hashlib.sha256(out.read_bytes()).hexdigest())
    capsys.readouterr()
    assert shas[0] == shas[1]


class TestAuditGrid:
    @pytest.mark.parametrize("ident,base", [
        ("sphere:2", [0.6, 0.0, 0.8]), ("rp:2", [0.0, 0.6, 0.8]),
        ("poincare:2:1", [0.1, -0.2]), ("spd:2", [1.5, 0.3, 1.0]),
        ("torus:3", [0.2, 0.4, 0.9])])
    def test_points_equal_one_exp_per_tangent(self, ident, base):
        spec = resolve_manifold(ident)
        radius = 0.4
        chart = chart_at(spec, base)
        E = chart.frame
        want = [exp_map(spec, base, E @ t) for t in ball_points(64, spec.dim, radius)]
        got = geodesic_ball_points(chart, radius, 64)
        assert got.shape == (64, spec.point_dim)
        np.testing.assert_array_equal(got, np.array(want))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_samples_keep_their_columns(self, dim):
        assert halton(0, dim).shape == (0, dim)
        assert ball_points(0, dim, 1.0).shape == (0, dim)
        spec = resolve_manifold("sphere:2")
        chart = chart_at(spec, [0.0, 0.0, 1.0])
        assert geodesic_ball_points(chart, 1.0, 0).shape == (0, 3)


def reference_audit(model, target, radius, count):
    """The per-point audit loop the stacked audit replaced."""
    points = geodesic_ball_points(model.chart_x, radius, count)
    return max(distance(model.codomain, np.asarray(target(x), dtype=float), model(x))
               for x in points)


class TestAudit:
    # (domain, codomain, base point, target, audit radius)
    CASES = [
        ("sphere:2", "sphere:2", [0.0, 0.0, 1.0], "rotation", 1.5),
        ("poincare:2:1", "poincare:2:1", [0.1, -0.2], "mobius-shift", 1.0),
        ("spd:2", "spd:2", [1.0, 0.0, 1.0], "spd-congruence", 1.0),
        ("euclidean:2", "euclidean:1", [0.0, 0.0], "poly:x1*x2", 0.5),
    ]

    @pytest.mark.parametrize("dom,cod,base,name,radius", CASES)
    def test_stacked_audit_equals_per_point_loop(self, dom, cod, base, name, radius):
        domain, codomain = resolve_manifold(dom), resolve_manifold(cod)
        target = resolve_target(name, domain, base, seed=3).fn
        base_y = np.asarray(target(np.array(base, dtype=float)), dtype=float)
        # a small random core, its outputs tangent at base_y
        rng = np.random.default_rng(11)
        chart_y = chart_at(codomain, base_y)
        E = chart_y.frame
        core = FeedforwardNet(
            (AffineLayer(0.3 * rng.standard_normal((5, domain.chart_dim)),
                         0.1 * rng.standard_normal(5)),
             AffineLayer(E @ (0.3 * rng.standard_normal((codomain.dim, 5))),
                         E @ (0.1 * rng.standard_normal(codomain.dim)))),
            get_activation("exp"))
        model = GDNModel(chart_at(domain, base), chart_y, core)
        for count in (1, 37, 200):
            got = audit_gdn(model, target, radius, count)
            assert isinstance(got, float)
            assert got == reference_audit(model, target, radius, count)

    def test_empty_audit_refused(self):
        spec = resolve_manifold("euclidean:1")
        chart = chart_at(spec, [0.0])
        model = GDNModel(chart, chart, FeedforwardNet(
            (AffineLayer(np.eye(1), np.zeros(1)),), get_activation("exp")))
        for count in (0, -3):
            with pytest.raises(ValidationError, match="at least 1 point"):
                audit_gdn(model, lambda x: x, 0.5, count)

    def test_audit_past_the_budget_refused(self):
        # euclidean:1: 2 + 1 + 1 + 2 + 1 = 7 floats a point
        spec = resolve_manifold("euclidean:1")
        chart = chart_at(spec, [0.0])
        model = GDNModel(chart, chart, FeedforwardNet(
            (AffineLayer(np.eye(1), np.zeros(1)),), get_activation("exp")))
        with pytest.raises(ValidationError, match="^an audit of 4793491 points would "
                                                  "hold 268435496 bytes of arrays"):
            audit_gdn(model, lambda x: x, 0.5, 4_793_491)
        assert audit_gdn(model, lambda x: x, 0.5, 100) == 0.0


class TestRefusedBeforeAnyOracleCall:
    """A compile the synthesis cannot finish is refused before the target
    sees a point: cube corners past the injectivity radius, or an activation
    that is not smooth non-polynomial."""

    SPHERE = resolve_manifold("sphere:2")
    BASE = np.array([0.0, 0.0, 1.0])

    def compile(self, radius, activation, calls):
        # the rotation compile, each target call's row count put in ``calls``
        target = resolve_target("rotation", self.SPHERE, self.BASE, seed=0).fn
        base_y = target(self.BASE)

        def counted(x):
            calls.append(len(np.atleast_2d(x)))
            return target(x)

        compile_gdn(self.SPHERE, self.SPHERE, self.BASE, base_y, counted,
                    radius, 0.1, get_activation(activation), audit_count=50)

    @pytest.mark.parametrize("radius,activation,message", [
        # 2.23 * sqrt(2) = 3.1537 >= pi
        (2.23, "exp", r"^radius \* sqrt\(p\) must be below inj\(3\.141592653589793\), "
                      r"since the pullback reads the cube corners at that tangent "
                      r"norm; got 3\.153696244092002 \(radius 2\.23, p = 2\)$"),
        (1.0, "relu", "^shallow synthesis needs a smooth non-polynomial activation, "
                      "got piecewise-linear$"),
        (1.0, "square", "got nonaffine-poly$"),
    ])
    def test_counts_zero_oracle_calls(self, radius, activation, message):
        calls = []
        with pytest.raises(ValidationError, match=message):
            self.compile(radius, activation, calls)
        assert calls == []

    def test_corners_within_the_injectivity_radius_compile(self):
        # 2.22 * sqrt(2) = 3.1396 < pi
        calls = []
        self.compile(2.22, "exp", calls)
        assert sum(calls) > 0


@pytest.mark.parametrize("argv,width,params", [
    (["--target", "rotation", "--domain", "sphere:2", "--codomain", "sphere:2",
      "--base-x", "[0, 0, 1]", "--radius", "1.5707", "--eps", "0.1"], 2, 17),
    (["--target", "mobius-shift", "--domain", "poincare:2:1", "--codomain",
      "poincare:2:1", "--base-x", "[0, 0]", "--radius", "1.0", "--eps", "0.05"], 2, 12),
    (["--target", "spd-congruence", "--domain", "spd:2", "--codomain", "spd:2",
      "--base-x", "[1, 0, 1]", "--radius", "1.0", "--eps", "0.05", "--lip", "2"], 3, 24),
])
def test_chart_cores_have_one_unit_per_distinct_row(capsys, argv, width, params):
    # the chart targets are degree 1, so every output reads the same p rows
    # h e_i, and the core has one unit per row; the structure only, as
    # test_golden.py pins the bytes
    assert main(["compile", *argv, "--seed", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    got = (summary["width"], summary["depth"], summary["param_count"])
    assert got == (width, 1, params)
    assert summary["measured_error"] <= summary["eps"]


def test_spd_compile_runs_without_jacobi(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise NumericError("the Jacobi solver is the test reference only")

    # replace every binding of the solver, not only its defining module
    original = gdn.manifolds.sym.jacobi_eigh
    for name, module in list(sys.modules.items()):
        if name == "gdn" or name.startswith("gdn."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    out = tmp_path / "spd.json"
    code = main(["compile", "--target", "spd-congruence", "--domain", "spd:2",
                 "--codomain", "spd:2", "--base-x", "[1, 0, 1]", "--radius", "1.0",
                 "--eps", "0.05", "--lip", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["measured_error"] <= 0.05
    assert out.exists()


def test_sphere_core_off_the_tangent_space_fails_the_compile():
    # the codomain frame folded into the last layer meets stencil weights
    # near 1e9, whose cancellation leaves the core output off T_y: the
    # audit's evaluation refuses it as a failure of the model
    sphere = resolve_manifold("sphere:2")
    A = np.array([[1.3, 0.2, 0.0], [0.0, 0.9, 0.3], [0.1, 0.0, 1.1]])

    def target(x):
        y = x @ A.T
        return y / np.linalg.norm(y, axis=-1, keepdims=True)

    with pytest.raises(RangeError, match="^core output w is not tangent at the codomain "
                                         "base point y: "):
        compile_gdn(sphere, sphere, [0.0, -0.5256866004193308, -0.8506783164860657],
                    "auto", target, 0.75, 0.1, get_activation("softplus"))
