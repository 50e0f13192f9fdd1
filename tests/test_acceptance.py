"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
even on success).  Criteria cover the Bernstein bound, the manifold zoo's
chart identities, the closed-form distances, the constructive compiler, the
deep-narrow rewrite, the counting formulas, the estimators, and the
dataset certifier.
"""
import itertools
import math
import time

import numpy as np
import pytest

from conftest import random_orthogonal, random_spd
from gdn.approx.bernstein import bernstein_eval, bernstein_from_function
from gdn.approx.certify import certify_efficient
from gdn.approx.estimates import depth_estimate, efficient_complexity
from gdn.approx.modulus import LipschitzModulus
from gdn.approx.polynomials import monomial_counts, poly_derivative, poly_eval, \
    reciprocal_approx
from gdn.approx.synthesis import _grid_points, compile_function_to_shallow
from gdn.approx.verticalize import verticalize
from gdn.assemble import compile_gdn
from gdn.manifolds.core import resolve_manifold
from gdn.manifolds.gaussian import GaussianParam, wasserstein2
from gdn.manifolds.sym import frob_vec
from gdn.manifolds.zoo import distance, exp_map, log_map, random_point, random_tangent, \
    row_norms
from gdn.network import AffineLayer, FeedforwardNet, get_activation, width
from gdn.readouts import Simplex, gauge_chart, project_convex, softmax_chart
from gdn.sampling import halton
from gdn.targets import resolve_target
from test_readouts import simplex_projection_oracle


def report(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_bernstein_bound():
    """sup |B_n f - f| <= (1 + p/4) omega(f, 1/sqrt(n)) for f(x) = |x - 1/2|."""
    t0 = time.perf_counter()
    worst_margin = math.inf
    f1 = lambda x: np.abs(x[:, :1] - 0.5)
    grid1 = np.linspace(0.0, 1.0, 1001)
    for n in (4, 16, 64, 256):
        model = bernstein_from_function(f1, n, 1, 1)
        err = max(abs(bernstein_eval(model, [x])[0] - abs(x - 0.5)) for x in grid1)
        worst_margin = min(worst_margin, 1.25 / math.sqrt(n) - err)
        assert err <= 1.25 / math.sqrt(n)
    grid2 = halton(1001, 2)
    for n in (4, 16, 64, 256):
        model = bernstein_from_function(f1, n, 2, 1)
        err = max(abs(bernstein_eval(model, x)[0] - abs(x[0] - 0.5)) for x in grid2)
        assert err <= 1.5 / math.sqrt(n)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 5.0,
           f"Bernstein bound holds at n in {{4,16,64,256}}, p in {{1,2}} "
           f"(min margin {worst_margin:.3e}, {elapsed:.2f}s)")


def test_criterion_02_roundtrip_radial_isometry():
    """1000 random exp/log round trips and radial isometries per geometry."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    idents = ["euclidean:3", "sphere:2", "poincare:2:1", "spd:2", "gaussian:2",
              "torus:3", "rp:2"]
    worst = {}
    for ident in idents:
        spec = resolve_manifold(ident)
        tol = 1e-6 if spec.family == "spd" else 1e-9
        w_rt = w_ri = 0.0
        for _ in range(1000):
            x = random_point(spec, rng)
            v = random_tangent(spec, x, rng)
            y = exp_map(spec, x, v)
            w_rt = max(w_rt, float(np.max(np.abs(log_map(spec, x, y) - v))))
            w_ri = max(w_ri, abs(distance(spec, x, y) - float(np.linalg.norm(v))))
        assert w_rt <= tol and w_ri <= tol, (ident, w_rt, w_ri)
        worst[ident] = max(w_rt, w_ri)
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 10.0,
           f"round trip + radial isometry on {len(idents)} geometries "
           f"(worst {max(worst.values()):.2e}, {elapsed:.2f}s)")


def test_criterion_03_spd_affine_invariance():
    rng = np.random.default_rng(3)
    spec = resolve_manifold("spd:3")
    worst = 0.0
    for _ in range(100):
        A, B = random_spd(3, rng), random_spd(3, rng)
        X = random_orthogonal(3, rng)
        d1 = distance(spec, frob_vec(A), frob_vec(B))
        d2 = distance(spec, frob_vec(X.T @ A @ X), frob_vec(X.T @ B @ X))
        worst = max(worst, abs(d1 - d2))
    report(3, worst <= 1e-8, f"affine invariance on 100 triples (worst {worst:.2e})")


def test_criterion_04_wasserstein_closed_forms():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        Q = random_orthogonal(n, rng)
        d1, d2 = rng.uniform(0.3, 3.0, n), rng.uniform(0.3, 3.0, n)
        mu1, mu2 = rng.standard_normal(n), rng.standard_normal(n)
        got = wasserstein2(GaussianParam(mu1, (Q * d1) @ Q.T),
                           GaussianParam(mu2, (Q * d2) @ Q.T))
        want = math.sqrt(float(np.sum((mu1 - mu2) ** 2))
                         + float(np.sum((np.sqrt(d1) - np.sqrt(d2)) ** 2)))
        worst = max(worst, abs(got - want))
    assert worst <= 1e-8
    mu = rng.standard_normal(3)
    shift = abs(wasserstein2(GaussianParam(np.zeros(3), np.eye(3)),
                             GaussianParam(mu, np.eye(3)))
                - float(np.linalg.norm(mu)))
    report(4, worst <= 1e-8 and shift <= 1e-10,
           f"commuting-case W2 (worst {worst:.2e}), mean shift ({shift:.2e})")


def test_criterion_05_quotient_oracle_equivalence():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 4):
        torus = resolve_manifold(f"torus:{m}")
        for _ in range(250):
            y1, y2 = rng.random(m), rng.random(m)
            d = y1 - y2
            brute = min(
                float(np.sqrt(np.sum((d - np.array(k)) ** 2)))
                for k in itertools.product((-1.0, 0.0, 1.0), repeat=m)
            )
            assert distance(torus, y1, y2) == brute
    rp = resolve_manifold("rp:2")
    s2 = resolve_manifold("sphere:2")
    for _ in range(1000):
        a = rng.standard_normal(3); a /= np.linalg.norm(a)
        b = rng.standard_normal(3); b /= np.linalg.norm(b)
        two_candidate = min(distance(s2, a, b), distance(s2, a, -b))
        assert distance(rp, a, b) == two_candidate
    report(5, True, "torus brute-force window and projective two-candidate "
                    "minima match exactly")


def test_criterion_06_constructive_compile():
    t0 = time.perf_counter()
    exp = get_activation("exp")
    f = lambda x: x[:, :1] * x[:, 1:2]
    res = compile_function_to_shallow(f, 2, 1, 0.05, exp)
    # sup error against the target on the 10^2 audit grid of the unit square
    grid = _grid_points(2, 10)
    cube_error = float(np.max(row_norms(res.net(grid) - f(grid))))
    assert cube_error <= 0.05, cube_error

    s2 = resolve_manifold("sphere:2")
    base = np.array([0.0, 0.0, 1.0])
    target = resolve_target("rotation", s2, base)
    compiled = compile_gdn(s2, s2, base, target.fn(base), target.fn,
                           math.pi / 2.0, 0.1, exp, audit_count=300)
    assert compiled.audit_error <= 0.1, compiled.audit_error
    elapsed = time.perf_counter() - t0
    report(6, elapsed < 60.0,
           f"compiled x1*x2 (audit {cube_error:.2e} <= 0.05) and sphere "
           f"rotation GDN (geodesic audit {compiled.audit_error:.2e} <= 0.1, "
           f"{elapsed:.1f}s)")


def test_criterion_07_verticalization_equivalence():
    rng = np.random.default_rng(7)
    relu = get_activation("relu")
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        hidden = int(rng.integers(1, 9))
        net = FeedforwardNet(
            (AffineLayer(rng.standard_normal((hidden, p)), rng.standard_normal(hidden)),
             AffineLayer(rng.standard_normal((m, hidden)), rng.standard_normal(m))),
            relu)
        deep = verticalize(net, (-2.0, 2.0))
        assert width(deep) <= p + m + 2
        xs = rng.uniform(-2.0, 2.0, size=(1000, p))
        dev = float(np.max(np.abs(deep(xs) - net(xs))))
        worst = max(worst, dev)
        assert dev <= 1e-9
    report(7, True, f"50 deep-narrow rewrites exact on the box "
                    f"(worst deviation {worst:.2e}, width within p+m+2)")


def test_criterion_08_reciprocal_approximant():
    assert reciprocal_approx(0.5, 1) == (1.875, 0.125)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        x = float(rng.uniform(0.05, 1.95))
        n_a = int(rng.integers(0, 7))
        r, e = reciprocal_approx(x, n_a)
        worst = max(worst, abs(abs(r - 1.0 / x) - e))
    report(8, worst <= 1e-12,
           f"reciprocal error matches the closed form (worst gap {worst:.2e}); "
           f"worked value (1.875, 0.125) exact")


def test_criterion_09_monomial_counts():
    for n in (1, 2, 3, 4):
        for p in (1, 2, 3):
            M = 0
            distinct = set()
            for k in itertools.product(range(n + 1), repeat=p):
                for c in itertools.product(*(range(n - ki + 1) for ki in k)):
                    M += 1
                    distinct.add(tuple(n - ci for ci in c))
            M0 = sum(1 for e in distinct if sum(1 for t in e if t > 0) <= 1)
            counts = monomial_counts(n, p)
            assert counts.M == M and counts.M0 == M0 and counts.P1 == n * p * M
    report(9, True, "monomial/multiplication formulas match brute-force "
                    "enumeration for n <= 4, p <= 3")


def test_criterion_10_estimator_sanity():
    lip = LipschitzModulus(1.0)
    d1 = depth_estimate("smooth", 1, 1, 0.1, 0.5, lip, 1.0, 1.0).depth_order
    d2 = depth_estimate("smooth", 1, 1, 0.2, 0.5, lip, 1.0, 1.0).depth_order
    assert d1 == pytest.approx(156.25, abs=1e-9)
    assert d2 == pytest.approx(39.0625, abs=1e-9)
    sweep = [depth_estimate("smooth", 1, 1, e, 0.5, lip, 1.0, 1.0).depth_order
             for e in np.linspace(0.05, 1.0, 20)]
    assert all(a > b for a, b in zip(sweep, sweep[1:]))
    pairs = [(p, m) for p in (1, 2, 3, 4) for m in (1, 2, 3, 5, 8)]
    for p, m in pairs:
        ec = efficient_complexity(p, m, 1, 0.25)
        assert ec.width_lo == m and ec.width_hi == m * (4 * p + 10)
    report(10, True, "hand-derived depth orders (156.25 / 39.0625), strict "
                     "eps-monotonicity, and the m <= W <= m(4p+10) window on "
                     f"{len(pairs)} (p,m) pairs")


def test_criterion_11_efficiency_certification():
    e1 = resolve_manifold("euclidean:1")
    dataset = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
    values = [np.array([0.0]), np.array([0.25]), np.array([1.0])]
    cert = certify_efficient(dataset, values, e1, e1, np.zeros(1), np.zeros(1))
    assert cert.certified and cert.n == 2
    assert cert.interpolation_residual <= 1e-10
    coeffs = {(d,): np.array(c) for d, c in enumerate(cert.polynomial)}
    for x in dataset:
        poly = dict(coeffs)
        for _order in range(3):
            poly = poly_derivative(poly, 0)
            mag = float(np.max(np.abs(np.atleast_1d(poly_eval(poly, x)))))
            assert mag <= cert.M + 1e-9

    e2 = resolve_manifold("euclidean:2")
    bad = certify_efficient([np.array([1.2, 0.3])], [np.zeros(2)], e2, e2,
                            np.zeros(2), np.zeros(2))
    assert not bad.normalizable
    assert bad.witness_box == [(0.0, 1.2), (0.0, 0.3)]
    report(11, True, f"3-point dataset certifies with n=2 (residual "
                     f"{cert.interpolation_residual:.1e}, M={cert.M:.3g}); "
                     "denormalized dataset rejected with witness box")


def test_criterion_12_readout_identities():
    rng = np.random.default_rng(12)
    worst_sm = worst_g = 0.0
    for _ in range(1000):
        C = int(rng.integers(2, 6))
        v = rng.uniform(-10.0, 10.0, C - 1)
        back = softmax_chart("inverse", softmax_chart("forward", v))
        worst_sm = max(worst_sm, float(np.max(np.abs(back - v))))
        u = rng.uniform(-4.0, 4.0, int(rng.integers(1, 5)))
        back_g = gauge_chart(np.linalg.norm, "inverse",
                             gauge_chart(np.linalg.norm, "forward", u))
        worst_g = max(worst_g, float(np.max(np.abs(back_g - u))))
    assert worst_sm <= 1e-10 and worst_g <= 1e-10
    for _ in range(500):
        C = int(rng.integers(2, 6))
        y = rng.uniform(-2.0, 2.0, C)
        assert np.array_equal(project_convex(Simplex(C), y),
                              simplex_projection_oracle(y))
    report(12, True,
           f"softmax/gauge right inverses hold to 1e-10 (worst {worst_sm:.2e} / "
           f"{worst_g:.2e}); simplex projection matches the active-set oracle "
           "exactly")
