"""Bernstein operator: evaluation oracles, degree selection, and the
classical error bound."""
import itertools
import math

import numpy as np
import pytest

from gdn.approx.bernstein import (
    BernsteinModel,
    bernstein_eval,
    bernstein_from_function,
    bernstein_to_coefficients,
)
from gdn.approx.modulus import LipschitzModulus
from gdn.approx.synthesis import _DEGREES, _apriori_degree
from gdn.errors import DomainError, ValidationError


def brute_bernstein_1d(f, n, x):
    return sum(f(k / n) * math.comb(n, k) * x ** k * (1 - x) ** (n - k)
               for k in range(n + 1))


class TestBernsteinEval:
    def test_partition_of_unity(self, rng):
        model = bernstein_from_function(lambda x: np.full((len(x), 1), 4.2), 5, 2, 1)
        for _ in range(20):
            x = rng.random(2)
            assert bernstein_eval(model, x)[0] == pytest.approx(4.2, abs=1e-12)

    def test_reproduces_linear(self):
        model = bernstein_from_function(lambda x: x[:, :1], 3, 1, 1)
        assert bernstein_eval(model, [0.5])[0] == pytest.approx(0.5, abs=1e-15)

    def test_square_hand_value(self):
        # B_n(x^2) = x^2 + x(1-x)/n; at n=2, x=1/2: 0.25 + 0.125 = 0.375
        model = bernstein_from_function(lambda x: x[:, :1] ** 2, 2, 1, 1)
        assert bernstein_eval(model, [0.5])[0] == pytest.approx(0.375, abs=1e-15)

    def test_matches_brute_force_sum(self, rng):
        f = lambda t: math.sin(3 * t)
        model = bernstein_from_function(lambda x: np.sin(3 * x), 7, 1, 1)
        for _ in range(25):
            x = float(rng.random())
            assert bernstein_eval(model, [x])[0] == pytest.approx(
                brute_bernstein_1d(f, 7, x), abs=1e-12)

    def test_outside_cube_rejected(self):
        model = bernstein_from_function(lambda x: np.zeros((len(x), 1)), 2, 1, 1)
        with pytest.raises(DomainError):
            bernstein_eval(model, [1.5])


class TestBernsteinEvalStack:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_rows_equal_per_point_calls(self, rng, p):
        for n in (1, 2, 5, 8):
            for m in (1, 2):
                model = BernsteinModel(n, p, rng.standard_normal((n + 1,) * p + (m,)))
                pts = rng.random((40, p))
                pts[0], pts[1] = 0.0, 1.0
                stacked = bernstein_eval(model, pts)
                assert stacked.shape == (40, m)
                for x, row in zip(pts, stacked):
                    np.testing.assert_array_equal(bernstein_eval(model, x), row)

    def test_empty_stack(self):
        model = bernstein_from_function(lambda x: x[:, :2], 2, 2, 2)
        assert bernstein_eval(model, np.zeros((0, 2))).shape == (0, 2)

    def test_off_cube_row_rejected(self):
        model = bernstein_from_function(lambda x: x[:, :1], 2, 2, 1)
        pts = np.full((5, 2), 0.5)
        pts[3, 1] = 1.5
        with pytest.raises(DomainError):
            bernstein_eval(model, pts)
        pts[3, 1] = -0.1
        with pytest.raises(DomainError):
            bernstein_eval(model, pts)

    def test_wrong_shape_rejected(self):
        model = bernstein_from_function(lambda x: x[:, :1], 2, 2, 1)
        with pytest.raises(ValidationError):
            bernstein_eval(model, np.full((5, 3), 0.5))
        with pytest.raises(ValidationError):
            bernstein_eval(model, np.full((2, 1), 0.5))
        with pytest.raises(ValidationError):
            bernstein_eval(model, [0.5, 0.5, 0.5])


class TestDegreeFor:
    """The a-priori degree: the smallest n <= 12 with m (1 + p/4)
    omega(1/sqrt(n)) within the budget."""

    def test_lipschitz_hand_values(self):
        # 1.25 / sqrt(n) <= 0.5 from n = 6.25 on; 2.5 / sqrt(n) <= 0.5 only
        # from n = 25 on, past the cap
        assert _apriori_degree(0.5, 1, 1, LipschitzModulus(1.0)) == 7
        assert _apriori_degree(0.5, 1, 2, LipschitzModulus(1.0)) is None

    def test_zero_modulus(self):
        assert _apriori_degree(0.25, 3, 2, LipschitzModulus(0.0)) == 1

    def test_minimality(self):
        n = _apriori_degree(0.5, 1, 1, LipschitzModulus(1.0))
        factor = 1.25
        assert factor / math.sqrt(n) <= 0.5
        assert factor / math.sqrt(n - 1) > 0.5


class TestBernsteinBound:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_one_dimensional_bound(self, n):
        f = lambda x: abs(x[0] - 0.5)
        model = bernstein_from_function(lambda x: np.abs(x[:, :1] - 0.5), n, 1, 1)
        grid = np.linspace(0, 1, 301)
        err = max(abs(bernstein_eval(model, [x])[0] - f([x])) for x in grid)
        assert err <= (1 + 0.25) / math.sqrt(n)

    def test_two_dimensional_bound(self):
        n = 16
        f = lambda x: abs(x[0] - 0.5)
        model = bernstein_from_function(lambda x: np.abs(x[:, :1] - 0.5), n, 2, 1)
        pts = [np.array([a, b]) for a in np.linspace(0, 1, 18)
               for b in np.linspace(0, 1, 18)]
        err = max(abs(bernstein_eval(model, x)[0] - f(x)) for x in pts)
        assert err <= 1.5 / math.sqrt(n)

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_bound_for_oscillating_surrogates(self, n):
        # x^2 and a sin-like cubic, both with Lipschitz majorants of the
        # true modulus on [0, 1]
        targets = [
            (lambda t: t * t, 2.0),
            (lambda t: t ** 3 - t ** 2 + 0.5 * t, 1.5),
        ]
        grid = np.linspace(0.0, 1.0, 401)
        for f, L in targets:
            model = bernstein_from_function(lambda x: f(x[:, :1]), n, 1, 1)
            err = max(abs(bernstein_eval(model, [x])[0] - f(x)) for x in grid)
            assert err <= 1.25 * L / math.sqrt(n)


class TestCoefficients:
    def test_product_is_recovered_exactly(self):
        model = bernstein_from_function(lambda x: x[:, :1] * x[:, 1:2], 2, 2, 1)
        coeffs = bernstein_to_coefficients(model)
        assert set(coeffs) == {(1, 1)}
        assert coeffs[(1, 1)][0] == pytest.approx(1.0, abs=1e-12)

    def test_coefficients_evaluate_like_the_operator(self, rng):
        f = lambda x: x[:, :1] ** 2 - 0.3 * x[:, :1] + 0.1
        model = bernstein_from_function(f, 4, 1, 1)
        coeffs = bernstein_to_coefficients(model)
        for _ in range(20):
            x = rng.random(1)
            val = sum(c[0] * x[0] ** e[0] for e, c in coeffs.items())
            assert val == pytest.approx(bernstein_eval(model, x)[0], abs=1e-10)


def itertools_coefficients(model):
    """``bernstein_to_coefficients`` as a loop over every lattice index."""
    acc = model.values
    T = np.zeros((model.n + 1, model.n + 1))
    for k in range(model.n + 1):
        for c in range(model.n - k + 1):
            T[k + c, k] += math.comb(model.n, k) * math.comb(model.n - k, c) * (-1.0) ** c
    for axis in range(model.p):
        acc = np.moveaxis(np.tensordot(T, np.moveaxis(acc, axis, 0), axes=(1, 0)), 0, axis)
    scale = max(float(np.max(np.abs(acc))), 1.0)
    out = {}
    for idx in itertools.product(range(model.n + 1), repeat=model.p):
        if float(np.max(np.abs(acc[idx]))) > 1e-10 * scale:
            out[idx] = np.asarray(acc[idx], dtype=float).copy()
    return out


class TestArrayLattices:
    """The lattice and the kept coefficients match the itertools loops they
    replace, bit for bit and in the same order."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", _DEGREES)
    def test_lattice_points(self, n, p):
        seen = []

        def f(x):
            seen.append(x.copy())
            return x[:, :1]

        bernstein_from_function(f, n, p, 1)
        want = np.array(list(itertools.product(range(n + 1), repeat=p)), dtype=float) / n
        assert seen[0].shape == want.shape and seen[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", _DEGREES[:5])
    def test_coefficients(self, rng, n, p):
        W = rng.standard_normal((p, 2))
        targets = [
            lambda x: np.sin(x @ W),  # dense: few coefficients dropped
            lambda x: np.column_stack([np.prod(x, axis=1), x[:, 0] ** 2]),  # sparse
            lambda x: np.zeros((len(x), 3)),  # every coefficient dropped
        ]
        for f in targets:
            model = bernstein_from_function(f, n, p, f(np.zeros((1, p))).shape[1])
            got, want = bernstein_to_coefficients(model), itertools_coefficients(model)
            assert list(got) == list(want)
            assert all(type(k) is int for key in got for k in key)
            for key in want:
                assert got[key].shape == want[key].shape
                assert got[key].tobytes() == want[key].tobytes()
