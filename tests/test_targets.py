"""Stacked oracles: every built-in target, the cube pullback, ``poly_eval``
and ``LinearFormPoly`` take one point or an (N, d) stack, and each row of a
stack is bit for bit the per-point result.

The per-point implementations they replaced are kept here as references,
and every comparison is exact.  The compile stages call an oracle once per
stack and refuse, with a ``ValidationError``, one that returns anything
but an (N, m) stack.
"""
import math
import re
import warnings

import numpy as np
import pytest

from gdn.approx.bernstein import bernstein_from_function
from gdn.approx.modulus import modulus_from_samples
from gdn.approx.polynomials import decompose_polynomial, parse_poly_expr, poly_eval
from gdn.approx.synthesis import compile_function_to_shallow
from gdn.assemble import audit_gdn, compile_gdn, pullback
from gdn.errors import ValidationError
from gdn.manifolds.core import resolve_manifold
from gdn.manifolds.sym import frob_unvec, frob_vec
from gdn.manifolds.zoo import (
    as_point,
    chart_at,
    exp_map,
    log_map,
    mobius_add,
    random_point,
)
from gdn.network import get_activation
from gdn.targets import _rotation_about_axis, resolve_target


# -- the per-point references -------------------------------------------------

def per_point_poly_eval(coeffs, x):
    x = np.asarray(x, dtype=float).ravel()
    total = None
    for exps, c in coeffs.items():
        mono = 1.0
        for xi, e in zip(x, exps):
            if e:
                mono *= xi ** e
        term = np.asarray(c, dtype=float) * mono
        total = term if total is None else total + term
    if total is None:
        return np.float64(0.0)
    return total


def per_point_linear_form_poly(lf, x):
    x = np.asarray(x, dtype=float).ravel()
    total = 0.0
    for a, b in lf.terms:
        z = float(a @ x)
        total += float(np.polyval(b[::-1], z))
    return total


def per_point_target(name, domain, base_x, seed=0):
    kind, _, arg = name.partition(":")
    if kind == "rotation":
        R = _rotation_about_axis(as_point(domain, base_x),
                                 float(arg) if arg else math.pi / 4.0)
        return lambda x: R @ np.asarray(x, dtype=float)
    if kind == "mobius-shift":
        c = domain.param
        a = np.zeros(domain.point_dim)
        a[0] = float(arg) if arg else 0.3 / math.sqrt(c)
        return lambda x: mobius_add(a, np.asarray(x, dtype=float), c)
    if kind == "spd-congruence":
        n = int(domain.param)
        rng = np.random.default_rng(int(arg) if arg else seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return lambda x: frob_vec(Q.T @ frob_unvec(np.asarray(x, dtype=float)) @ Q)
    polys = [parse_poly_expr(e, domain.dim) for e in arg.split(",")]
    return lambda x: np.array([float(per_point_poly_eval(c, x)) for c in polys])


def per_point_pullback(domain, codomain, base_x, base_y, target, radius):
    E_dom = chart_at(domain, base_x).frame
    E_cod = chart_at(codomain, base_y).frame

    def pulled_back(t):
        u = radius * (2.0 * np.asarray(t, dtype=float) - 1.0)
        x = exp_map(domain, base_x, E_dom @ u)
        w = log_map(codomain, base_y, np.asarray(target(x), dtype=float))
        return E_cod.T @ w

    return pulled_back


def assert_rows_exact(f, reference, points):
    """``f`` on the whole stack, and on each point alone, equals
    ``reference`` on each point with no tolerance."""
    want = np.array([reference(x) for x in points])
    got = f(points)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    for x, row in zip(points, want):
        np.testing.assert_array_equal(f(x), row)


# -- targets ------------------------------------------------------------------

TARGETS = [
    ("sphere:2", [0.0, 0.0, 1.0], "rotation"),
    ("sphere:2", [0.6, 0.0, 0.8], "rotation:0.3"),
    ("poincare:2:1", [0.3, 0.2], "mobius-shift"),
    ("spd:2", [1.0, 0.0, 1.0], "spd-congruence"),
    ("spd:3", list(frob_vec(np.diag([1.0, 2.0, 0.5]))), "spd-congruence:4"),
    ("euclidean:1", [0.1], "poly:x1^3-x1,0.5*x1^2"),
]


@pytest.mark.parametrize("dom,base,name", TARGETS)
def test_target_rows_equal_per_point_oracle(rng, dom, base, name):
    domain = resolve_manifold(dom)
    fn = resolve_target(name, domain, base, seed=3).fn
    reference = per_point_target(name, domain, base, seed=3)
    points = np.array([random_point(domain, rng) for _ in range(300)])
    assert_rows_exact(fn, reference, points)
    empty = fn(np.zeros((0, domain.point_dim)))
    assert empty.shape == (0, len(reference(points[0])))


@pytest.mark.parametrize("name", ["poly:x1^400,x1", "poly:x1^400-x1^399"])
@pytest.mark.parametrize("x", [[[1.0], [-7.5], [8.0]], [-7.5]], ids=["stack", "point"])
def test_poly_overflow_is_refused_naming_the_point(name, x):
    # x^400 passes the float range from |x| = 5.9 (and inf - inf is NaN):
    # one error naming the first such point, without numpy's warning
    fn = resolve_target(name, resolve_manifold("euclidean:1"), [0.0]).fn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=f"^target {re.escape(name)} overflows at \\[-7.5\\]$"):
            fn(np.array(x))


# -- the cube pullback --------------------------------------------------------

PULLBACKS = [
    ("sphere:2", "sphere:2", [0.0, 0.0, 1.0], "rotation", 1.5),
    ("poincare:2:1", "poincare:2:1", [0.3, 0.2], "mobius-shift", 1.0),
    ("spd:2", "spd:2", [1.0, 0.0, 1.0], "spd-congruence", 1.0),
    ("euclidean:3", "euclidean:1", [0.1, -0.2, 0.3], "poly:x1*x2*x3+x1^2", 0.5),
]


@pytest.mark.parametrize("dom,cod,base,name,radius", PULLBACKS)
def test_pullback_rows_equal_per_point_pullback(dom, cod, base, name, radius):
    domain, codomain = resolve_manifold(dom), resolve_manifold(cod)
    fn = resolve_target(name, domain, base, seed=5).fn
    base_y = fn(np.array(base, dtype=float))
    pulled = pullback(chart_at(domain, base), chart_at(codomain, base_y), fn, radius)
    reference = per_point_pullback(domain, codomain, np.array(base, dtype=float),
                                   base_y, per_point_target(name, domain, base, seed=5),
                                   radius)
    t = np.random.default_rng(7).random((200, domain.dim))
    t[0], t[1] = 0.0, 1.0
    assert_rows_exact(pulled, reference, t)
    assert pulled(np.zeros((0, domain.dim))).shape == (0, codomain.dim)


# -- polynomials --------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_poly_eval_rows_equal_per_point(rng, dim):
    for _ in range(10):
        exps = {tuple(int(e) for e in rng.integers(0, 4, dim)) for _ in range(5)}
        scalar = {e: float(rng.standard_normal()) for e in exps}
        vector = {e: rng.standard_normal(2) for e in exps}
        points = rng.standard_normal((300, dim))
        for coeffs in (scalar, vector):
            assert_rows_exact(lambda x: poly_eval(coeffs, x),
                              lambda x: per_point_poly_eval(coeffs, x), points)
    assert poly_eval({}, np.zeros((4, dim))).shape == (4,)
    assert poly_eval(scalar, np.zeros((0, dim))).shape == (0,)


def test_poly_eval_powers_are_scalar_powers():
    # np.power, numpy's vector **, rounds differently from Python's pow on
    # part of these inputs (77 of 100k standard normals at exponent 2, 2,728
    # at exponent 3 with numpy 2.4.6 on x86-64), so it fails here;
    # np.float_power calls libm's pow, which Python's pow also calls
    x = np.random.default_rng(0).standard_normal(20_000)
    for e in (2, 3):
        want = np.array([t ** e for t in x])
        np.testing.assert_array_equal(poly_eval({(e,): 1.0}, x[:, None]), want)


@pytest.mark.parametrize("expr,dim,n", [
    pytest.param("x1*x2*x3", 3, 300, id="x1*x2*x3-3"),
    pytest.param("x1^2-x2^2+x1*x2", 2, 300, id="x1^2-x2^2+x1*x2-2"),
    pytest.param("x1^3-x1+0.5", 1, 300, id="x1^3-x1+0.5-1"),
    pytest.param("x1^2*x2+3*x2^3-x1*x2*x3+2", 3, 300, id="x1^2*x2+3*x2^3-x1*x2*x3+2-3"),
    # 48 terms
    pytest.param("x1^8-2*x1^3*x2^5+x1^2*x2^2*x3^4-0.5*x2^7*x3+3*x3^8+x1*x2*x3-1", 3, 300,
                 id="degree-8"),
    pytest.param("0", 2, 300, id="zero-polynomial"),
    pytest.param("x1^2*x2-x2^3+x1", 2, 0, id="empty-stack"),
])
def test_linear_form_poly_rows_equal_per_point(rng, expr, dim, n):
    coeffs = parse_poly_expr(expr, dim)
    lf = decompose_polynomial(coeffs, max((sum(e) for e in coeffs), default=1), dim)
    points = rng.uniform(-1.5, 1.5, (n, dim))
    assert_rows_exact(lf, lambda x: per_point_linear_form_poly(lf, x), points)
    assert isinstance(lf(np.ones(dim)), float)
    assert lf(np.zeros((0, dim))).shape == (0,)


# -- the oracle boundary ------------------------------------------------------

def PER_POINT(x):
    # the old contract, one point per call: on a stack it returns one row
    return np.array([x[0]])


def WRONG_WIDTH(x):
    # two outputs where one is expected
    return np.hstack([x[:, :1], x[:, :1]])


@pytest.mark.parametrize("oracle,got", [(PER_POINT, "(1, 2)"), (WRONG_WIDTH, "(9, 2)")])
def test_bernstein_lattice_refuses_a_bad_oracle(oracle, got):
    with pytest.raises(ValidationError) as e:
        bernstein_from_function(oracle, 2, 2, 1)
    assert "(9, 1)" in str(e.value) and f"got {got}" in str(e.value)


# the compile's one read at p = 2: the 21^2 selection grid and 34 audit points
@pytest.mark.parametrize("oracle,got", [(PER_POINT, "(1, 2)"), (WRONG_WIDTH, "(475, 2)")])
def test_compile_refuses_a_bad_oracle(oracle, got):
    with pytest.raises(ValidationError) as e:
        compile_function_to_shallow(oracle, 2, 1, 0.1, get_activation("exp"))
    assert "(475, 1)" in str(e.value) and f"got {got}" in str(e.value)


def test_modulus_refuses_a_per_point_oracle(rng):
    with pytest.raises(ValidationError, match=r"\(5, m\).*got \(1, 2\)"):
        modulus_from_samples(PER_POINT, rng.random((5, 2)))


def test_gdn_compile_and_audit_refuse_a_per_point_target():
    e2, e1 = resolve_manifold("euclidean:2"), resolve_manifold("euclidean:1")
    per_point = lambda x: np.array([x[0] * x[1]])
    exp = get_activation("exp")
    with pytest.raises(ValidationError):
        compile_gdn(e2, e1, [0.0, 0.0], [0.0], per_point, 0.5, 0.1, exp)
    compiled = compile_gdn(e2, e1, [0.0, 0.0], [0.0], lambda x: x[..., :1] * x[..., 1:],
                           0.5, 0.1, exp, audit_count=20)
    with pytest.raises(ValidationError, match=r"\(20, 1\).*got \(1, 2\)"):
        audit_gdn(compiled.model, per_point, 0.5, 20)
