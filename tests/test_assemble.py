"""Chart-Lipschitz sampling, the audit grid, and an SPD compile that never
touches the Jacobi solver."""
import json
import math
import sys

import numpy as np
import pytest

import gdn.manifolds.sym
from gdn.assemble import audit_gdn, estimate_chart_lipschitz, estimate_exp_lipschitz
from gdn.cli import main
from gdn.errors import NumericError
from gdn.manifolds import resolve_manifold
from gdn.manifolds.zoo import check_point, distance, exp_map, random_tangent, tangent_basis
from gdn.model import GDNModel
from gdn.network import AffineLayer, FeedforwardNet, get_activation
from gdn.sampling import ball_points, geodesic_ball_points
from gdn.targets import resolve_target

# (manifold, base point, tangent radius)
CASES = [
    ("sphere:2", [0.0, 0.0, 1.0], 1.5),
    ("poincare:2:1", [0.1, -0.2], 1.0),
    ("spd:2", [1.0, 0.0, 1.0], 1.2),
    ("euclidean:1", [0.3], 0.7),
]


def reference_exp_lipschitz(spec, base, radius, pairs=2000, seed=1):
    """The per-pair loop the stacked estimator replaced."""
    base = check_point(spec, base)
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


def reference_chart_lipschitz(spec, base, radius, pairs=10_000, seed=0):
    """The per-pair loop the stacked chart estimator replaced."""
    base = check_point(spec, base)
    rng = np.random.default_rng(seed)
    k1, k2 = 0.0, math.inf
    for _ in range(pairs):
        v1 = random_tangent(spec, base, rng, radius)
        v2 = random_tangent(spec, base, rng, radius)
        gap = float(np.linalg.norm(v1 - v2))
        if gap < 1e-9:
            continue
        d = distance(spec, exp_map(spec, base, v1), exp_map(spec, base, v2))
        if d < 1e-12:
            continue
        k1 = max(k1, gap / d)
        k2 = min(k2, d / gap)
    return 1.1 * k1, k2 / 1.1


class TestLipschitzEstimators:
    @pytest.mark.parametrize("ident,base,radius", CASES)
    def test_exp_estimate_equals_per_pair_loop(self, ident, base, radius):
        spec = resolve_manifold(ident)
        for seed in (1, 8):
            got = estimate_exp_lipschitz(spec, base, radius, pairs=500, seed=seed)
            assert got == reference_exp_lipschitz(spec, base, radius, pairs=500,
                                                   seed=seed)

    @pytest.mark.parametrize("ident,base,radius", CASES)
    def test_chart_estimate_equals_per_pair_loop(self, ident, base, radius):
        spec = resolve_manifold(ident)
        got = estimate_chart_lipschitz(spec, base, radius, pairs=500, seed=3)
        assert got == reference_chart_lipschitz(spec, base, radius, pairs=500, seed=3)

    def test_exp_estimate_is_at_least_the_inflation(self):
        # the flat chart has expansion exactly 1
        spec = resolve_manifold("euclidean:1")
        assert estimate_exp_lipschitz(spec, [0.0], 1.0, pairs=50) == 1.1


class TestAuditGrid:
    @pytest.mark.parametrize("ident,base", [
        ("sphere:2", [0.6, 0.0, 0.8]), ("rp:2", [0.0, 0.6, 0.8]),
        ("poincare:2:1", [0.1, -0.2]), ("spd:2", [1.5, 0.3, 1.0]),
        ("torus:3", [0.2, 0.4, 0.9])])
    def test_points_equal_one_exp_per_tangent(self, ident, base):
        spec = resolve_manifold(ident)
        radius = 0.4
        E = tangent_basis(spec, base)
        want = [exp_map(spec, base, E @ t) for t in ball_points(64, spec.dim, radius)]
        got = geodesic_ball_points(spec, base, radius, 64)
        assert isinstance(got, list) and len(got) == 64
        np.testing.assert_array_equal(np.array(got), np.array(want))


def reference_audit(model, target, radius, count):
    """The per-point audit loop the stacked audit replaced."""
    points = geodesic_ball_points(model.domain, model.base_x, radius, count)
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
        E = tangent_basis(codomain, base_y)
        core = FeedforwardNet(
            (AffineLayer(0.3 * rng.standard_normal((5, domain.chart_dim)),
                         0.1 * rng.standard_normal(5)),
             AffineLayer(E @ (0.3 * rng.standard_normal((codomain.dim, 5))),
                         E @ (0.1 * rng.standard_normal(codomain.dim)))),
            get_activation("exp"))
        model = GDNModel(domain, codomain, base, base_y, core)
        for count in (1, 37, 200):
            got = audit_gdn(model, target, radius, count)
            assert isinstance(got, float)
            assert got == reference_audit(model, target, radius, count)


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
