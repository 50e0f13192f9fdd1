"""Closed-form exp/log/distance across the manifold zoo."""
import ast
import decimal
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import gdn
from conftest import random_orthogonal, random_spd
from gdn.errors import GdnError, NumericError, OutOfInjectivityError, ValidationError
from gdn.manifolds.core import resolve_manifold
from gdn.manifolds.sym import frob_unvec, frob_vec, spectral, sym_matrix_function
from gdn.manifolds.zoo import (
    _EXP_GAP,
    _spd_functions,
    _squares,
    as_point,
    chart_at,
    distance,
    exp_map,
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
        for check in (as_point, chart_at):
            with pytest.raises(ValidationError, match=r"must satisfy c\|x\|\^2 < 1$"):
                check(self.spec, np.array([1.0, 0.2]))

    @pytest.mark.parametrize("ident,x,v,norm", [
        # tanh(t / 2) rounds to 1 from sqrt(c) |v| about 38.12
        ("poincare:2:1", [0.0, 0.0], [38.0, 0.0], "38.0"),
        ("poincare:2:4", [0.0, 0.0], [0.0, -19.5], "19.5"),
        # tanh < 1, but the Moebius sum rounds the row onto the boundary
        ("poincare:2:1", [0.5, 0.0], [36.0, 0.0], "36.0"),
        ("poincare:2:1", [0.9, 0.0], [35.0, 0.0], "35.0"),
        # |v|^2 overflows: the exp once returned the base point, with a warning
        ("poincare:2:1", [0.0, 0.0], [1e200, 1e200], "1.414213562373095e+200"),
        ("poincare:2:1", [0.3, 0.0], [-1e300, 0.0], "1e+300"),
    ])
    def test_exp_that_leaves_the_ball_is_a_numeric_error(self, ident, x, v, norm):
        spec = resolve_manifold(ident)
        x, v = np.array(x), np.array(v)
        message = ("^the poincare exponential map rounds onto the boundary c\\|y\\|\\^2 = 1 "
                   f"at tangent norm {re.escape(norm)}$")
        for call in (lambda: exp_map(spec, x, v), lambda: chart_at(spec, x).exp(v),
                     lambda: exp_map(spec, x, np.stack([0.1 * v / np.abs(v).max(), v])),
                     lambda: exp_map(spec, np.stack([0.5 * x, x]), v)):
            with pytest.raises(NumericError, match=message):
                call()

    @pytest.mark.parametrize("ident", ["poincare:2:2000", "poincare:2:1e150"])
    def test_exp_at_a_zero_tangent_returns_x_on_a_steep_ball(self, ident):
        # tanh(sqrt(c) / 2), which a zero row computes, rounds to 1 for c
        # past about 1453, but the row moves nowhere
        spec = resolve_manifold(ident)
        x = np.array([0.0, 0.5 / math.sqrt(spec.param)])
        zero = np.zeros(2)
        for base in (np.zeros(2), x):
            assert exp_map(spec, base, zero).tobytes() == base.tobytes()
            assert chart_at(spec, base).exp(zero).tobytes() == base.tobytes()
        w = np.array([1e-3 / math.sqrt(spec.param), 0.0])
        stack = exp_map(spec, x, np.stack([zero, w, zero]))
        assert stack[0].tobytes() == stack[2].tobytes() == x.tobytes()
        assert stack[1].tobytes() == exp_map(spec, x, w).tobytes()
        bases = exp_map(spec, np.stack([np.zeros(2), x]), zero)
        assert bases.tobytes() == np.stack([np.zeros(2), x]).tobytes()

    @given(st.floats(0.0, 0.999), st.floats(-3.0, 3.0), st.floats(0.0, 40.0),
           st.floats(-3.0, 3.0))
    def test_exp_returns_a_point_of_the_ball_or_refuses(self, r, a, n, b):
        # every row an exp returns passes the ball's own check, and a refused
        # one lies past distance 30 from 0, where 1 - |y|^2 ~ 4 e^-d is near
        # the rounding of |y|^2
        x = r * np.array([math.cos(a), math.sin(a)])
        v = n * np.array([math.cos(b), math.sin(b)])
        try:
            y = exp_map(self.spec, x, v)
        except NumericError:
            assert 2.0 * math.atanh(r) + n > 30.0
            return
        assert float(y @ y) < 1.0
        as_point(self.spec, y)


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


def _reference_2x2(kind, A):
    """f(A) of one symmetric 2x2 float matrix, to 60 digits: alpha I + beta N
    with N = [[d, b], [b, -d]], alpha and beta the mean and the divided
    difference of f at the eigenvalues m -+ r, from the exact entries."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, b, c = (Decimal(float(t)) for t in (A[0, 0], A[0, 1], A[1, 1]))
        m, d = (a + c) / 2, (a - c) / 2
        r = (d * d + b * b).sqrt()
        f = {"exp": Decimal.exp, "log": Decimal.ln, "sqrt": Decimal.sqrt,
             "invsqrt": lambda t: 1 / t.sqrt()}[kind]
        hi, lo = f(m + r), f(m - r)
        alpha = (hi + lo) / 2
        beta = (hi - lo) / (2 * r) if r else Decimal(0)
        return [[alpha + beta * d, beta * b], [beta * b, alpha - beta * d]]


def _relative_error(F, R):
    # Frobenius-norm error of a float matrix against a 60-digit reference
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        diff = sum((Decimal(float(F[i, j])) - R[i][j]) ** 2 for i in (0, 1) for j in (0, 1))
        norm = sum(R[i][j] ** 2 for i in (0, 1) for j in (0, 1))
        return float((diff / norm).sqrt())


class TestSPD2ClosedForms:
    """Order 2 takes exp, log, sqrt and sqrt^-1 in closed form; LAPACK's
    ``eigh``, through ``sym_matrix_function``, is the reference."""

    @staticmethod
    def stacks(kind, rng):
        """Conditioning class -> a stack of SPD 2x2 matrices at scales 1e-100
        to 1e100 (to 300 for exp, whose result overflows past 709): condition
        numbers 1 to 1e12, exact multiples of I (r = 0) and r/m = 1e-9."""
        def rotated(w):
            t = rng.uniform(0.0, math.pi)
            Q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            A = (Q * w) @ Q.T
            return 0.5 * (A + A.T)

        def scale():
            return 10.0 ** (rng.uniform(-2, 2.5) if kind == "exp" else rng.uniform(-100, 100))

        classes = {f"kappa={k:g}": np.array([rotated(scale() * np.array([1.0, 1.0 / k]))
                                             for _ in range(120)])
                   for k in (1.0, 1e3, 1e6, 1e12)}
        classes["r=0"] = np.array([scale() * np.eye(2) for _ in range(60)])
        near = []
        for _ in range(60):
            t = rng.uniform(0.0, math.pi)
            N = np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])
            near.append(scale() * (np.eye(2) + 1e-9 * N))
        classes["r/m=1e-9"] = np.array(near)
        return classes

    @pytest.mark.parametrize("kind", ["exp", "log", "sqrt", "invsqrt"])
    def test_accuracy_within_4x_of_lapack(self, kind, rng):
        for name, A in self.stacks(kind, rng).items():
            (closed,) = _spd_functions(A, kind)
            lapack = sym_matrix_function(kind, A)
            refs = [_reference_2x2(kind, a) for a in A]
            worst = max(_relative_error(F, R) for F, R in zip(closed, refs))
            worst_lapack = max(_relative_error(F, R) for F, R in zip(lapack, refs))
            assert worst <= 4.0 * max(worst_lapack, 2.0 ** -53), (name, worst, worst_lapack)

    @pytest.mark.parametrize("kind", ["log", "sqrt", "invsqrt"])
    def test_far_scales_within_4x_of_lapack(self, kind, rng):
        # scales 1e-300 to 1e300 and matrices near the float maximum, where
        # a + c overflows and (sqrt lo + sqrt hi) sqrt lo sqrt hi leaves the
        # float range at both ends; LAPACK, called directly (the
        # symmetrization of sym_matrix_function overflows near 1e308),
        # scales the matrix
        A = []
        for k in (1.0, 1e6):
            for _ in range(60):
                t = rng.uniform(0.0, math.pi)
                Q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
                M = (Q * (10.0 ** rng.uniform(-300, 300) * np.array([1.0, 1.0 / k]))) @ Q.T
                A.append(0.5 * (M + M.T))
        big = np.finfo(float).max
        A += [np.diag([1e308, 1e308]), np.diag([big, big]), np.diag([1.5e308, 1e300]),
              np.array([[1e308, 5e307], [5e307, 1e308]])]
        A = np.array(A)
        (closed,) = _spd_functions(A, kind, positive="not SPD:")
        w, V = np.linalg.eigh(A)
        lapack = spectral(V, {"log": np.log, "sqrt": np.sqrt,
                              "invsqrt": lambda t: 1.0 / np.sqrt(t)}[kind](w))
        refs = [_reference_2x2(kind, a) for a in A]
        worst = max(_relative_error(F, R) for F, R in zip(closed, refs))
        worst_lapack = max(_relative_error(F, R) for F, R in zip(lapack, refs))
        assert worst <= 4.0 * max(worst_lapack, 2.0 ** -53), (worst, worst_lapack)

    @pytest.mark.parametrize("w", [[1e10, 1e-300], [1e-300, 1e10], [1e308, 1e-10]])
    def test_log_where_2r_over_lo_overflows(self, w):
        # a condition number past the float range: log1p(2r/lo) would be
        # inf, silently.  The error is normwise, as LAPACK's is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (L,) = _spd_functions(np.diag(w), "log", positive="not SPD:")
        want = np.diag(np.log(w))
        assert np.abs(L - want).max() <= 4.0 * 2.0 ** -53 * np.abs(want).max()

    def test_eigenvalue_past_the_float_maximum(self, rng):
        # eigenvalues 1.8e308 and 1.6e308: m + r overflows, so the forms run
        # on A / 4 and undo the scale; the other rows of a stack keep their bits
        A = np.array([[1.7e308, 1e307], [1e307, 1.7e308]])
        others = np.array([random_spd(2, rng) for _ in range(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("log", "sqrt", "invsqrt"):
                (F,) = _spd_functions(A, kind, positive="not SPD:")
                assert _relative_error(F, _reference_2x2(kind, A)) <= 4.0 * 2.0 ** -53, kind
                (G,) = _spd_functions(np.array([others[0], A, others[1], others[2]]), kind,
                                      positive="not SPD:")
                assert G[1].tobytes() == F.tobytes()
                assert G[[0, 2, 3]].tobytes() == _spd_functions(others, kind)[0].tobytes()
        # one that is not positive definite is refused with its own eigenvalue
        B = np.array([[1.7e308, 1.65e308], [1.65e308, 1.0e308]])
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            a, b, c = (Decimal(t) for t in (1.7e308, 1.65e308, 1.0e308))
            want = f"not SPD: {float((a + c) / 2 - (((a - c) / 2) ** 2 + b * b).sqrt()):.6e}"
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            _spd_functions(B, "sqrt", positive="not SPD:")

    @pytest.mark.parametrize("kind", ["log", "sqrt", "invsqrt"])
    @pytest.mark.parametrize("A,want", [
        ([[1.79e308, 1.79e308], [1.79e308, 1e308]], "-4.380644e+307"),
        ([[1.79e308, 1.79e308], [1.79e308, -1.79e308]], "-inf"),
    ], ids=["eigenvalue-in-range", "eigenvalue-past-range"])
    def test_refusal_where_r_passes_the_float_maximum(self, kind, A, want):
        # r = hypot(d, b) overflows; the forms run on A / 4 and the refusal
        # names the smallest eigenvalue m - r, without numpy's warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^not SPD: {re.escape(want)}$"):
                _spd_functions(np.array(A), kind, positive="not SPD:")

    @pytest.mark.parametrize("w", [[-1605.0, 5.0], [-1e308, -1e308]],
                             ids=["mean-underflows", "trace-overflows"])
    def test_exp_of_a_diagonal_out_of_range(self, w):
        # e^m = e^-800 underflows where cosh r = cosh 805 overflows, and
        # a + c = -2e308 overflows where its halves do not; the result is
        # diag(e^w), here diag(0, e^5) and 0, as LAPACK's is
        A = np.diag(w)
        (E,) = _spd_functions(A, "exp")
        np.testing.assert_array_equal(E, np.diag(np.exp(w)))
        lam, V = np.linalg.eigh(A)
        np.testing.assert_array_equal(E, spectral(V, np.exp(lam)))

    @pytest.mark.parametrize("kind", ["exp", "log", "sqrt", "invsqrt"])
    def test_stack_rows_are_the_single_results(self, kind, rng):
        A = np.array([random_spd(2, rng) for _ in range(12)])
        A[3] = 2.5 * np.eye(2)  # r = 0
        A[5] = np.diag([0.5, 4.0])
        (F,) = _spd_functions(A, kind, positive="not SPD:")
        for a, f in zip(A, F):
            assert _spd_functions(a, kind, positive="not SPD:")[0].tobytes() == f.tobytes()
            assert np.array_equal(f, f.T)

    @pytest.mark.parametrize("A", [
        np.diag([1.0, -0.5]), np.diag([-1.0, 0.0]), np.zeros((2, 2)), np.diag([-2.0, -3.0]),
        np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
    ], ids=["indefinite", "largest-zero", "zero", "negative", "rotated", "off-diagonal",
            "singular"])
    def test_refusal_names_the_smallest_eigenvalue(self, A):
        # also where the large eigenvalue is 0, which the small one divides by
        want = f"not SPD: {np.linalg.eigvalsh(A)[0]:.6e}"
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            _spd_functions(A, "sqrt", positive="not SPD:")

    @pytest.mark.parametrize("small", [0.0, 1e-17], ids=["rank-1", "tiny-positive"])
    def test_negative_trace_refused(self, small, rng):
        # eigenvalues -s and 0 (-s v v^T) or -s and 1e-17: m + r cancels,
        # and its sign is rounding; each is refused, naming about -s
        for _ in range(200):
            t = rng.uniform(0.0, math.pi)
            Q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            M = (Q * np.array([-(10.0 ** rng.uniform(-3, 3)), small])) @ Q.T
            A = 0.5 * (M + M.T)
            want = f"not SPD: {np.linalg.eigvalsh(A)[0]:.6e}"
            with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
                _spd_functions(A, "sqrt", positive="not SPD:")


class TestBoundChart:
    """``chart_at(spec, x)``: the kernels about a fixed point, bit for bit
    the unbound ones; SPD keeps the base roots it decomposed once."""

    @pytest.mark.parametrize("ident", ZOO + ["spd:3"])
    def test_bound_kernels_equal_unbound_bit_for_bit(self, ident, rng):
        spec = resolve_manifold(ident)
        for _ in range(3):
            x = random_point(spec, rng)
            chart = chart_at(spec, x)
            vs = np.array([random_tangent(spec, x, rng) for _ in range(16)])
            ys = exp_map(spec, x, vs)
            for v, y in [(vs[0], ys[0]), (vs, ys)]:
                assert chart.exp(v).tobytes() == spec.exp(x, v).tobytes()
                assert chart.log(y).tobytes() == spec.log(x, y).tobytes()
                assert (np.asarray(chart.distance(y)).tobytes()
                        == np.asarray(spec.distance(x, y)).tobytes())

    @pytest.mark.parametrize("n", [2, 3])
    def test_spd_chart_keeps_both_roots(self, n, rng):
        A = random_spd(n, rng)
        chart = chart_at(resolve_manifold(f"spd:{n}"), frob_vec(A))
        np.testing.assert_allclose(chart.root @ chart.root, A, atol=1e-12)
        np.testing.assert_allclose(chart.root @ chart.inv_root, np.eye(n), atol=1e-12)
        for root in (chart.root, chart.inv_root):
            with pytest.raises(ValueError):
                root[0, 0] = 1.0

    def test_spd_base_that_is_not_positive_definite_refused(self):
        spec = resolve_manifold("spd:2")
        bad = frob_vec(np.diag([1.0, -0.5]))
        message = "spd point is not positive definite: min eigenvalue -5.000000e-01"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            chart_at(spec, bad)

    def test_a_stack_is_not_a_base_point(self):
        spec = resolve_manifold("sphere:2")
        for stack, rows in (([[0.0, 0.0, 1.0]], 1), (np.eye(3)[:2], 2)):
            with pytest.raises(ValidationError, match=f"^base point of sphere:2 must be "
                                                      f"one point, got a stack of {rows}$"):
                chart_at(spec, stack)

    @pytest.mark.parametrize("ident", ZOO + ["rp:3", "sphere:3", "spd:3"])
    def test_chart_records_its_spec_and_a_read_only_orthonormal_frame(self, ident, rng):
        spec = resolve_manifold(ident)
        x = random_point(spec, rng)
        chart = chart_at(spec, x)
        assert chart.spec is spec
        frame = chart.frame
        assert frame is chart.frame  # built once
        assert frame.shape == (spec.chart_dim, spec.dim)
        np.testing.assert_allclose(frame.T @ frame, np.eye(spec.dim), atol=1e-12)
        # every column is tangent at x: its projection leaves it unchanged
        for column in frame.T:
            np.testing.assert_allclose(spec.project(x, column), column,
                                       atol=1e-12)
        with pytest.raises(ValueError):
            frame[0, 0] = 0.5


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
        assert self.spec.inj_lower == 0.5


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

    def test_distance_hand_values(self):
        assert distance(self.spec, E1, E2) == pytest.approx(math.pi / 2.0)
        assert distance(self.spec, E1, -E1) == 0.0


class TestInjLower:
    @pytest.mark.parametrize("ident,value", [
        ("poincare:4:0.5", math.inf), ("sphere:7", math.pi), ("euclidean:2", math.inf),
        ("spd:3", math.inf), ("gaussian:2", math.inf), ("rp:2", math.pi / 2.0),
    ])
    def test_constants(self, ident, value):
        assert resolve_manifold(ident).inj_lower == value


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

    @pytest.mark.parametrize("ident", ZOO + ["torus:2"])
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

    @pytest.mark.parametrize("ident,cover", [("torus:3", "euclidean:3"),
                                             ("rp:2", "sphere:2")])
    def test_quotient_distance_at_most_the_cover_distance(self, ident, cover, rng):
        spec, cover = resolve_manifold(ident), resolve_manifold(cover)
        for _ in range(100):
            a, b = random_point(spec, rng), random_point(spec, rng)
            assert distance(spec, a, b) <= distance(cover, a, b) + 1e-12

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

    def test_squares_of_one_row_are_its_stack_bits(self, rng):
        # _squares takes np.vdot on one vector and np.vecdot on a stack: the
        # same dot kernel, so a row alone and in a stack give the same bits,
        # inf past the float range, with no warning either way
        for n in range(1, 8):
            for scale in (1e-200, 1e-5, 1.0, 1e5, 1e154, 1e160):
                rows = rng.standard_normal((300, n)) * (scale * rng.random((300, 1)))
                squares = _squares(rows)
                assert squares.tobytes() == b"".join(_squares(r).tobytes() for r in rows)
        assert _squares(np.array([1e200, 0.0])) == math.inf

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

    def test_spd_error_names_the_first_bad_row(self):
        # rows 1 and 2 are not positive definite; the stacked message gives
        # row 1's smallest eigenvalue, as a call on row 1 alone does
        spec = resolve_manifold("spd:2")
        stack = np.stack([frob_vec(np.diag(w))
                          for w in ([1.0, 1.0], [-0.5, 1.0], [-3.0, 1.0])])
        with pytest.raises(ValidationError) as single:
            log_map(spec, stack[1], stack[0])
        with pytest.raises(ValidationError) as stacked:
            log_map(spec, stack, stack[0])
        assert str(stacked.value) == str(single.value)
        assert "min eigenvalue -5.000000e-01" in str(stacked.value)

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


def _rotated(w, q):
    # Q diag(w) Q^T, symmetrized, for Q the orthogonal factor of the n x n
    # matrix with entries q
    n = len(w)
    Q = np.linalg.qr(np.reshape(q, (n, n)))[0]
    M = (Q * np.asarray(w)) @ Q.T
    return 0.5 * (M + M.T)


# spd:2 and spd:3 tangents Q diag(w) Q^T at the identity, w in [-700, 700]
ROTATED_TANGENTS = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-700.0, 700.0), min_size=n, max_size=n),
    st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))).map(
    lambda wq: frob_vec(_rotated(*wq)).tolist())

# spd:2 and spd:3 bases Q diag(1, ..., 10^-k) Q^T of condition 10^k, k in
# [8, 17], each with the seed of a tangent 0.1 N(0, I)
ILL_CONDITIONED = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.floats(8.0, 17.0),
    st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n),
    st.integers(0, 2 ** 32 - 1)))


class TestOneGeometryPerFamily:
    def test_spd_exp_overflow_raises(self):
        spec = resolve_manifold("spd:2")
        with pytest.raises(NumericError,
                           match="^the spd exponential map overflows the float range$"):
            exp_map(spec, [1.0, 0.0, 1.0], [800.0, 0.0, 0.0])

    # (manifold, base, tangent) whose exponential passes the float range:
    # through e^hi, through the product with a large base, through r and
    # m + r near the float maximum, and through LAPACK's path at order 3
    EXP_OVERFLOWS = [
        ("spd:2", [1.0, 0.0, 1.0], [1e3, 0.0, 1e3]),
        ("spd:2", [1e300, 0.0, 1e300], [700.0, 0.0, 0.0]),
        ("spd:2", [1.0, 0.0, 1.0], [1e308, 1.7e308, -1e308]),
        ("spd:2", [1.0, 0.0, 1.0], [1.7e308, 1e307, 1.7e308]),
        ("spd:3", [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], [1e3, 0.0, 0.0, 0.0, 0.0, 0.0]),
    ]

    @pytest.mark.parametrize("manifold,x,v", EXP_OVERFLOWS)
    def test_spd_exp_overflow_is_a_numeric_error(self, manifold, x, v):
        # one error naming the exponential; pytest fails on any warning
        spec = resolve_manifold(manifold)
        for call in (lambda: exp_map(spec, x, v), lambda: chart_at(spec, x).exp(
                np.asarray(v))):
            with pytest.raises(NumericError,
                               match="^the spd exponential map overflows the float range$"):
                call()

    # (manifold, base, tangent) whose exponential underflows to a matrix
    # that is not positive definite: through e^lo, through the product with
    # a small base, and through LAPACK's path at order 3
    EXP_UNDERFLOWS = [
        ("spd:2", [1.0, 0.0, 1.0], [-800.0, 0.0, -800.0]),
        ("spd:2", [1.0, 0.0, 1.0], [-1.7e308, 0.0, -1.7e308]),
        ("spd:2", [1e-300, 0.0, 1e-300], [-100.0, 0.0, -100.0]),
        ("spd:3", [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], [-800.0, 0.0, 0.0, -800.0, 0.0, -800.0]),
    ]

    @pytest.mark.parametrize("manifold,x,v", EXP_UNDERFLOWS)
    def test_spd_exp_underflow_is_a_numeric_error(self, manifold, x, v):
        spec = resolve_manifold(manifold)
        for call in (lambda: exp_map(spec, x, v), lambda: chart_at(spec, x).exp(
                np.asarray(v))):
            with pytest.raises(NumericError,
                               match="^the spd exponential map underflows the float range$"):
                call()

    @pytest.mark.parametrize("manifold,x,v,guarded", [
        ("spd:2", [1.0, 0.0, 1.0], [-720.0, 0.0, -720.0], True),
        ("spd:2", [1e-300, 0.0, 1e-300], [-20.0, 0.0, -20.0], True),
        ("spd:2", [1e-300, 0.0, 1e-300], [-10.0, 0.5, -11.0], False),
        ("spd:3", [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], [-720.0, 0.0, 0.0, -1.0, 0.0, 0.0], True),
    ])
    def test_exp_past_the_floor_keeps_its_bits(self, manifold, x, v, guarded):
        # past the chart's exponent floor the same steps run with the
        # warnings off; a positive definite result has the bits of the
        # unguarded steps, through the chart and through exp_map
        spec = resolve_manifold(manifold)
        chart = chart_at(spec, x)
        low = np.linalg.eigvalsh(frob_unvec(np.asarray(v)))[0]
        assert (low < chart.exp_floor) == guarded
        E = _spd_functions(frob_unvec(np.asarray(v)), "exp")[0]
        M = chart.root @ E @ chart.root
        want = frob_vec(0.5 * (M + M.T))
        assert np.linalg.eigvalsh(frob_unvec(want))[0] > 0.0
        for got in (chart.exp(np.asarray(v)), exp_map(spec, x, v)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("manifold,x,v,guarded", [
        ("spd:2", [1.0, 0.0, 1.0], [708.0, 0.0, 0.0], True),
        ("spd:2", [1.0, 0.0, 1.0], [707.5, 0.5, 706.0], True),
        ("spd:2", [1e300, 0.0, 1e300], [17.0, -1.0, 16.0], True),
        ("spd:2", [1e300, 0.0, 1e300], [-600.0, 1.0, -650.0], False),
        ("spd:3", [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], [707.5, 0.0, 0.0, 0.0, 0.0, 1.0], True),
    ])
    def test_exp_past_the_guard_keeps_its_bits(self, manifold, x, v, guarded):
        # rows near the float maximum (guarded) and one far below it: the
        # steps run once with the warnings off, and a finite result has the
        # bits of the steps run alone
        chart = chart_at(resolve_manifold(manifold), x)
        with np.errstate(all="ignore"):
            E = _spd_functions(frob_unvec(np.asarray(v)), "exp")[0]
            M = chart.root @ E @ chart.root
        want = frob_vec(0.5 * (M + M.T))
        got = chart.exp(np.asarray(v))
        assert np.all(np.isfinite(got)) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("manifold,v,want", [
        ("spd:2", [0.0, 0.0, -50.0], [1.0, 0.0, math.exp(-50.0)]),
        ("spd:2", [708.0, 0.0, 0.0], [math.exp(708.0), 0.0, 1.0]),
        ("spd:3", [0.0, 0.0, 0.0, -50.0, 0.0, 0.0], [1.0, 0.0, 0.0, math.exp(-50.0), 0.0, 1.0]),
    ])
    def test_wide_diagonal_keeps_its_small_eigenvalue(self, manifold, v, want):
        # an eigen-gap of 50 or 708: the closed form's e^m cosh r - e^m sinh r
        # would cancel to 0, the projector form keeps e^lo exactly
        spec = resolve_manifold(manifold)
        x = frob_vec(np.eye(int(spec.param)))
        for got in (exp_map(spec, x, v), chart_at(spec, x).exp(np.asarray(v))):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(log_map(spec, x, want), v)

    WIDE_GAP = ("^the spd exponential map is not positive definite: rounding passes its "
                "smallest eigenvalue past an eigen-gap of 31.88$")

    def test_rotated_wide_gap_comes_back_positive_definite(self):
        # eigen-gap 52 off the axes: e^-26 is far below the rounding of the
        # entries, about e^26 ulps, which may leave an indefinite point
        spec = resolve_manifold("spd:2")
        y = exp_map(spec, [1.0, 0.0, 1.0], [25.0, 10.0, -25.0])
        assert np.linalg.eigvalsh(frob_unvec(y))[0] > 0.0
        log_map(spec, [1.0, 0.0, 1.0], y)

    @pytest.mark.parametrize("manifold,v", [
        ("spd:2", [18.0, 18.0, -18.0]),
        ("spd:3", [18.0, 18.0, 0.0, -18.0, 0.0, 0.0]),
    ])
    def test_rotated_wide_gap_is_a_numeric_error(self, manifold, v):
        # eigen-gap 44 off the axes, where the rounding of the entries
        # leaves a matrix that is not positive definite
        spec = resolve_manifold(manifold)
        x = frob_vec(np.eye(int(spec.param)))
        for call in (lambda: exp_map(spec, x, v), lambda: chart_at(spec, x).exp(
                np.asarray(v))):
            with pytest.raises(NumericError, match=self.WIDE_GAP):
                call()

    # a tangent whose exponential rounds to a matrix of negative exact
    # determinant ac - b^2, which dlaev2's small eigenvalue read as positive
    INDEFINITE_TANGENT = [380.8872400894015, -74.75284851121432, 566.850115902361]

    def test_exp_past_the_rounding_of_the_small_eigenvalue_is_a_numeric_error(self):
        # it returned [1.16e251, -6.20e251, 1.66e252], which the log map took
        spec = resolve_manifold("spd:2")
        with pytest.raises(NumericError, match=self.WIDE_GAP):
            exp_map(spec, [1.0, 0.0, 1.0], self.INDEFINITE_TANGENT)

    def test_near_singular_point_is_decided_exactly(self):
        # ac - b^2 < 0 exactly, where dlaev2's small eigenvalue and LAPACK's
        # read 2.2e-16: the chart and the log map took it
        spec = resolve_manifold("spd:2")
        x = [116.97322824939135, 19.718591182562605, 1.6620163606840475]
        (a, b), (_b, c) = frob_unvec(np.array(x)).tolist()
        assert Fraction(a) * Fraction(c) - Fraction(b) ** 2 < 0
        with pytest.raises(ValidationError, match="^spd point is not positive definite: "
                                                  "min eigenvalue -4.191722e-17$"):
            chart_at(spec, x)
        with pytest.raises(ValidationError, match="smallest eigenvalue -4.191722e-17$"):
            log_map(spec, [1.0, 0.0, 1.0], [x, [1.0, 0.0, 1.0]])

    def test_near_singular_positive_definite_matrix_stands(self):
        # ac - b^2 = 2^-52 - 2^-106 > 0, below the rounding of the small
        # eigenvalue: the exact determinant accepts it
        b = 1.0 - 2.0 ** -53
        S = np.array([[1.0, b], [b, 1.0]])
        (F,) = _spd_functions(S, "sqrt", positive="not SPD:")
        assert np.isfinite(F).all()

    def test_wide_gap_rows_of_a_stack(self):
        # the rows that stand keep the bits they have alone; one that does
        # not fails the stack
        spec = resolve_manifold("spd:2")
        vs = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, -50.0], [-0.4, 0.0, 0.2]])
        got = exp_map(spec, [1.0, 0.0, 1.0], vs)
        for g, v in zip(got, vs):
            assert g.tobytes() == exp_map(spec, [1.0, 0.0, 1.0], v).tobytes()
        with pytest.raises(NumericError, match=self.WIDE_GAP):
            exp_map(spec, [1.0, 0.0, 1.0], np.vstack([vs, [18.0, 18.0, -18.0]]))

    @given(v=ROTATED_TANGENTS)
    @example(v=[25.0, 10.0, -25.0])
    @example(v=[529.0, 0.0, -553.0])
    @example(v=[4.751386278524292, 56.1870629855972, 332.21736372147575])
    @example(v=INDEFINITE_TANGENT)
    def test_exp_at_identity_is_positive_definite_or_refused(self, v):
        # a point comes back positive definite, for the log map and an exact
        # oracle, or the map refuses it.  At order 2 the oracle is a > 0 and
        # ac - b^2 > 0 in exact arithmetic; numpy's eigvalsh is asked too
        # where dsyevd leaves the matrix unscaled, because past 2^485 it
        # may read 0 for a positive definite matrix.  Order 3 asks eigvalsh
        spec = resolve_manifold("spd:2" if len(v) == 3 else "spd:3")
        x = frob_vec(np.eye(int(spec.param)))
        try:
            y = exp_map(spec, x, v)
        except NumericError:
            return
        Y = frob_unvec(y)
        if len(v) == 3:
            with decimal.localcontext() as ctx:
                ctx.prec = 2000  # a product of two doubles is exact
                (a, b), (_b, c) = (map(Decimal, row) for row in Y.tolist())
                assert a > 0 and a * c - b * b > 0
        if len(v) != 3 or 2.0 ** -485 <= np.abs(Y).max() <= 2.0 ** 485:
            assert np.linalg.eigvalsh(Y)[0] > 0.0
        log_map(spec, x, y)

    # a base of condition 1.3e16 that the chart takes, and a small tangent
    # whose exponential rounds to a singular matrix there
    FOUND_BASE = [0.6920660588219394, -0.6528562308021687, 0.30793394117806056]
    FOUND_TANGENT = [-0.0490380309628057, 0.06743517049201465, 0.10056441164163901]

    def test_ill_conditioned_base_is_a_numeric_error(self):
        spec = resolve_manifold("spd:2")
        chart = chart_at(spec, self.FOUND_BASE)
        message = (self.WIDE_GAP[:-1] + " less the base's log condition number, at most "
                   "38.7$")
        for call in (lambda: exp_map(spec, self.FOUND_BASE, self.FOUND_TANGENT),
                     lambda: chart.exp(np.asarray(self.FOUND_TANGENT)),
                     lambda: exp_map(spec, [self.FOUND_BASE, [1.0, 0.0, 1.0]],
                                     [self.FOUND_TANGENT, self.FOUND_TANGENT])):
            with pytest.raises(NumericError, match=message):
                call()

    def test_conditioning_leaves_a_well_conditioned_gap(self):
        # the identity's gap is the tangent's own, and the benchmark's
        # near-identity codomain base keeps it
        for x in ([1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
                  [0.9999999999999997, -3.4287023781087593e-16, 0.9999999999999998]):
            chart = chart_at(resolve_manifold("spd:2" if len(x) == 3 else "spd:3"), x)
            assert chart.exp_gap == _EXP_GAP

    def test_conditioning_of_an_extreme_base_stays_finite(self):
        # the roots' norms multiply past the float maximum; their logs add
        chart = chart_at(resolve_manifold("spd:2"), [1.7e308, 0.0, 5e-324])
        assert math.isfinite(chart.exp_gap) and chart.exp_gap < -1000.0

    @pytest.mark.parametrize("k", [16, 24, 30, 300])
    def test_roots_of_a_wide_diagonal_keep_the_small_eigenvalue(self, k):
        # the roots of diag(1, 10^-k): alpha - gamma u would leave the small
        # one an error of about eps 10^(k/2) relative, and 0 at k = 300;
        # the projector form keeps it to the rounding of the square root
        chart = chart_at(resolve_manifold("spd:2"), [1.0, 0.0, 10.0 ** -k])
        for got, want in ((chart.root, [1.0, 10.0 ** (-k / 2)]),
                          (chart.inv_root, [1.0, 10.0 ** (k / 2)])):
            np.testing.assert_allclose(got, np.diag(want), rtol=2.0 ** -52, atol=0.0)

    def test_roots_of_an_extreme_base(self):
        # eigenvalues 1e300 and 1e-300 keep both roots, and so do 1.7e308
        # and 5e-324, where the closed form's roots had negative entries
        spd = resolve_manifold("spd:2")
        chart = chart_at(spd, [1e300, 0.0, 1e-300])
        np.testing.assert_allclose(chart.root, np.diag([1e150, 1e-150]), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(chart.inv_root, np.diag([1e-150, 1e150]), rtol=1e-15,
                                   atol=0.0)
        chart = chart_at(spd, [1.7e308, 0.0, 5e-324])
        w = np.array([1.7e308, 5e-324])
        np.testing.assert_allclose(chart.root, np.diag(np.sqrt(w)), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(chart.inv_root, np.diag(1.0 / np.sqrt(w)), rtol=1e-15,
                                   atol=0.0)

    @pytest.mark.parametrize("ident", ["spd:2", "spd:3"])
    def test_spd_kernels_take_lists_and_refuse_non_finite_entries(self, ident):
        # the order-2 kernels read entries, not matrices: they take array
        # likes as every order does, and a non-finite entry is a
        # ValidationError there too, not an overflow of the map
        spec = resolve_manifold(ident)
        base = frob_vec(np.diag([1.5, 0.5, 2.0][:int(ident[-1])]))
        chart = chart_at(spec, base)
        zero = [0.0] * spec.chart_dim
        for call, args in ((chart.exp, [zero]), (chart.log, [base]), (chart.distance, [base]),
                           (spec.exp, [base, zero]), (spec.log, [base, base])):
            want = call(*(np.array(a) for a in args))
            assert np.asarray(call(*(list(a) for a in args))).tobytes() == want.tobytes()
        np.testing.assert_allclose(chart.exp(zero), base, rtol=1e-15)
        for bad in (np.nan, np.inf, -np.inf):
            v = np.array(zero)
            v[1] = bad
            for call in (lambda: chart.exp(v), lambda: spec.exp(base, v),
                         lambda: spec.exp(v, zero)):
                with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
                    call()

    def test_exp_at_a_base_lapack_rescales_is_left_to_the_closed_form(self):
        # dsyevd scales diag(1e300, 1e-300) and underflows its small
        # eigenvalue to 0; the closed form keeps it, so exp(0) is the base
        # and log inverts exp
        chart = chart_at(resolve_manifold("spd:2"), [1e300, 0.0, 1e-300])
        np.testing.assert_allclose(chart.exp(np.zeros(3)), [1e300, 0.0, 1e-300],
                                   rtol=1e-15, atol=0.0)
        v = np.array([0.5, 0.1, -0.3])
        np.testing.assert_allclose(chart.log(chart.exp(v)), v, rtol=1e-12, atol=0.0)

    def test_exp_at_a_base_with_a_subnormal_eigenvalue_is_refused(self):
        # exp(0) is the base, whose smallest eigenvalue 5e-324 LAPACK rounds
        # to 0 and the halves of the symmetric part round away: the map
        # refuses it, where it returned 5.5e275 for that eigenvalue
        chart = chart_at(resolve_manifold("spd:2"), [1.7e308, 0.0, 5e-324])
        with pytest.raises(NumericError,
                           match="^the spd exponential map underflows the float range$"):
            chart.exp(np.zeros(3))

    @given(base=ILL_CONDITIONED)
    @example(base=(15.6875, [-1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.4597823455538521, 1.0, 0.0], 1))
    def test_exp_at_an_ill_conditioned_base_is_positive_definite_or_refused(self, base):
        k, q, seed = base
        n = round(len(q) ** 0.5)
        x = frob_vec(_rotated(np.logspace(0.0, -k, n), q))
        spec = resolve_manifold(f"spd:{n}")
        try:
            chart = chart_at(spec, x)
        except ValidationError:  # rounding left no positive definite base
            return
        v = 0.1 * np.random.default_rng(seed).standard_normal(spec.chart_dim)
        for call in (lambda: exp_map(spec, x, v), lambda: chart.exp(v)):
            try:
                y = call()
            except NumericError:
                continue
            assert np.linalg.eigvalsh(frob_unvec(y))[0] > 0.0
            chart_at(spec, y)

    def test_spd_positive_definiteness_is_found_by_the_chart(self):
        spec = resolve_manifold("spd:2")
        bad = frob_vec(np.diag([1.0, -0.5]))
        as_point(spec, bad)  # left to the decomposition, as the kernels find it
        with pytest.raises(ValidationError, match="not positive definite"):
            chart_at(spec, bad)

    def test_no_family_string_comparisons(self):
        """The kernels are picked once, by the spec's class: no
        comparison against ``.family`` or a family name may come back in
        the manifold modules."""
        families = {"euclidean", "sphere", "poincare", "spd", "gaussian", "torus", "rp"}

        def is_family_test(node):
            if isinstance(node, ast.Attribute):
                return node.attr == "family"
            if isinstance(node, ast.Constant):
                return node.value in families
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                return any(is_family_test(e) for e in node.elts)
            return False

        src = Path(gdn.__file__).parent
        found = []
        for path in sorted(src.glob("manifolds/*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare) and any(
                        is_family_test(op) for op in [node.left, *node.comparators]):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []
