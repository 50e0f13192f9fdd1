"""Polynomial utilities: polarization decomposition, monomial counting, and
the reciprocal approximant."""
import itertools

import numpy as np
import pytest

from gdn.approx.polynomials import (
    decompose_polynomial,
    monomial_counts,
    parse_poly_expr,
    poly_derivative,
    poly_eval,
    product_grid,
    reciprocal_approx,
)
from gdn.errors import DomainError, ParseError


def enumerate_monomial_slots(n, p):
    """Brute-force (k, c) lattice enumeration behind the monomial counts."""
    M = 0
    distinct = set()
    for k in itertools.product(range(n + 1), repeat=p):
        for c in itertools.product(*(range(n - ki + 1) for ki in k)):
            M += 1
            distinct.add(tuple(n - ci for ci in c))
    M0 = sum(1 for e in distinct if sum(1 for t in e if t > 0) <= 1)
    return M, M0


class TestDecompose:
    def test_univariate_passthrough(self):
        lf = decompose_polynomial({(3,): 2.0, (1,): -1.0}, 3, 1)
        assert len(lf.terms) == 1
        np.testing.assert_array_equal(lf.terms[0][0], [1.0])
        assert lf([0.7]) == pytest.approx(2 * 0.7 ** 3 - 0.7)

    def test_product_polarization(self):
        # x1 x2 = ((x1+x2)^2 - (x1-x2)^2) / 4
        lf = decompose_polynomial({(1, 1): 1.0}, 2, 2)
        assert len(lf.terms) == 2
        for x in ([0.3, -0.8], [2.0, 3.0], [0.0, 5.0]):
            assert lf(x) == pytest.approx(x[0] * x[1], abs=1e-12)

    def test_cubic_mixed_monomial_on_grid(self):
        lf = decompose_polynomial({(2, 1): 1.0}, 3, 2)
        for a in np.linspace(-1, 1, 7):
            for b in np.linspace(-1, 1, 7):
                assert lf([a, b]) == pytest.approx(a * a * b, abs=1e-10)

    def test_all_low_degree_monomials_round_trip(self):
        for p in (1, 2, 3):
            for exps in itertools.product(range(5), repeat=p):
                k = sum(exps)
                if k == 0 or k > 4:
                    continue
                lf = decompose_polynomial({exps: 1.0}, k, p)
                pts = itertools.product(np.linspace(-1, 1, 3), repeat=p)
                for pt in pts:
                    x = np.array(pt)
                    want = float(np.prod([xi ** e for xi, e in zip(x, exps)]))
                    assert lf(x) == pytest.approx(want, abs=1e-8)


def elementwise_poly_eval(coeffs, x):
    """``poly_eval`` with every power, exponent 1 included, taken per element."""
    x = np.asarray(x, dtype=float)
    x = x if x.ndim == 2 else x.ravel()
    total = None
    for exps, c in coeffs.items():
        mono = np.ones(x.shape[:-1])
        for xi, e in zip(x.T, exps):
            if e:
                mono = mono * (np.array([t ** e for t in xi]) if xi.ndim else xi ** e)
        term = np.multiply.outer(mono, np.asarray(c, dtype=float))
        total = term if total is None else total + term
    return total


class TestArrayKernels:
    def test_poly_eval_bits_with_exponent_one(self, rng):
        for trial in range(40):
            dim = int(rng.integers(1, 5))
            # scalar coefficients, then m-vector ones; exponents 0 to 2
            shape = () if trial % 2 else (int(rng.integers(1, 3)),)
            coeffs = {tuple(int(e) for e in rng.integers(0, 3, dim)): rng.standard_normal(shape)
                      for _ in range(int(rng.integers(1, 6)))}
            coeffs[(1,) * dim] = rng.standard_normal(shape)
            x = rng.standard_normal((int(rng.integers(1, 50)), dim)) * 10.0 ** rng.integers(-3, 4)
            for pts in (x, x[0], x[::2]):
                got, want = poly_eval(coeffs, pts), elementwise_poly_eval(coeffs, pts)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", [*range(2, 14), 17, 30])
    def test_poly_eval_powers_are_the_per_element_pow(self, e, rng):
        # random bit patterns of either sign whose e-th power is finite,
        # with +-0.0, subnormals, values near 1 and the largest such values;
        # on a contiguous column, on the strided middle column of a C-ordered
        # (N, 3) stack (what x.T hands over) and on single points
        top = 2.0 ** (1000 / e)
        bits = rng.integers(0, 2 ** 63, 20_000, dtype=np.uint64).view(np.float64)
        xs = bits[np.isfinite(bits) & (np.abs(bits) < top)]
        special = [t for t in (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-20,
                               1.0 - 2 ** -53, 1.0, 1.0 + 2 ** -52, 1.5, 1e25) if t < top]
        xs = np.concatenate([xs, special + [top], np.negative(special + [top])])
        want = np.array([pow(t, e) for t in xs.tolist()])
        got = poly_eval({(e,): 1.0}, xs[:, None])
        assert got.tobytes() == want.tobytes()
        stack = np.column_stack([rng.standard_normal(len(xs)), xs, rng.standard_normal(len(xs))])
        assert poly_eval({(0, e, 0): 1.0}, stack).tobytes() == want.tobytes()
        for t, w in zip(xs[-40:], want[-40:]):
            got = poly_eval({(e,): 1.0}, np.array([t]))
            assert got.shape == () and got.tobytes() == w.tobytes()

    def test_poly_eval_power_overflow_is_inf(self):
        # as numpy's scalar power gives it, where Python's float pow raises
        xs = np.array([[1e200], [-1e200], [2.0]])
        with np.errstate(over="ignore"):
            got = poly_eval({(3,): 1.0}, xs)
        assert got.tolist() == [np.inf, -np.inf, 8.0]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_product_grid_matches_itertools(self, dim):
        # the round-trip grids of decompose_polynomial, degrees 1 to 12
        for degree in range(1, 13 if dim < 4 else 5):
            axis = np.linspace(-1.0, 1.0, degree + 1)
            want = np.array(list(itertools.product(*[axis] * dim))).reshape(-1, dim)
            got = product_grid(axis, dim)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestMonomialCounts:
    def test_hand_values(self):
        assert monomial_counts(2, 1) == (6, 3, 12)
        assert monomial_counts(1, 1) == (3, 2, 3)
        assert monomial_counts(2, 2) == (36, 5, 144)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_enumeration(self, n, p):
        M, M0 = enumerate_monomial_slots(n, p)
        counts = monomial_counts(n, p)
        assert counts.M == M
        assert counts.M0 == M0
        assert counts.P1 == n * p * M


class TestReciprocal:
    def test_exact_at_one(self):
        assert reciprocal_approx(1.0, 3) == (1.0, 0.0)

    def test_hand_values(self):
        assert reciprocal_approx(0.5, 1) == (1.875, 0.125)
        r, e = reciprocal_approx(0.5, 2)
        assert r == 1.9921875
        assert e == 0.0078125

    def test_measured_error_matches_closed_form(self, rng):
        for _ in range(300):
            x = float(rng.uniform(0.05, 1.95))
            n_a = int(rng.integers(0, 7))
            r, e = reciprocal_approx(x, n_a)
            assert abs(r - 1.0 / x) == pytest.approx(e, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            reciprocal_approx(2.0, 1)
        with pytest.raises(DomainError):
            reciprocal_approx(0.0, 1)


class TestParsePoly:
    def test_simple_product(self):
        assert parse_poly_expr("x1*x2", 2) == {(1, 1): 1.0}

    def test_coefficients_signs_powers(self):
        got = parse_poly_expr("2.5*x1^2 - x2 + 3", 2)
        assert got == {(2, 0): 2.5, (0, 1): -1.0, (0, 0): 3.0}

    def test_eval_and_derivative(self):
        c = parse_poly_expr("x1^2*x2", 2)
        assert float(poly_eval(c, [2.0, 3.0])) == 12.0
        d = poly_derivative(c, 0)
        assert float(poly_eval(d, [2.0, 3.0])) == 12.0

    def test_bad_terms(self):
        with pytest.raises(ParseError):
            parse_poly_expr("x1**2", 2)
        with pytest.raises(ParseError):
            parse_poly_expr("x5", 2)

    def test_exponent_notation_coefficients(self):
        assert parse_poly_expr("1e-3*x1", 1) == {(1,): 1e-3}
        assert parse_poly_expr("2.5E+3*x1^2", 1) == {(2,): 2.5e3}
        got = parse_poly_expr("x1 - 1.5e-2*x2^2 + 2E3 - .5e+1x1*x2", 2)
        assert got == {(1, 0): 1.0, (0, 2): -1.5e-2, (0, 0): 2e3, (1, 1): -5.0}

    @pytest.mark.parametrize("expr", ["1.5.2*x1", "1e*x1", "e-3*x1", "x1 +", "x1 - - x2", "-"])
    def test_bad_numbers_and_dangling_signs(self, expr):
        with pytest.raises(ParseError):
            parse_poly_expr(expr, 2)
