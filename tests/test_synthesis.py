"""Finite-difference synthesis: derivative stencils and shallow
compilation of polynomials and functions."""
import itertools
import math

import numpy as np
import pytest

from gdn.approx.bernstein import (
    BernsteinModel,
    bernstein_contract,
    bernstein_eval,
    bernstein_from_function,
    bernstein_weights,
)
from gdn.approx.modulus import LipschitzModulus, empirical_modulus, pair_inputs
from gdn.approx.polynomials import (
    LinearFormPoly,
    decompose_polynomial,
    poly_eval,
    poly_total_degree,
)
from gdn.approx.synthesis import (
    _DEGREE_CAP,
    _DEGREES,
    _cube_samples,
    _grid_points,
    _select_degree,
    compile_function_to_shallow,
    compile_poly_to_shallow,
    finite_diff_derivative,
    select_theta0,
)
from gdn.errors import InfeasibleDegreeError, UnsupportedError, ValidationError
from gdn.manifolds.zoo import row_norms
from gdn.network import get_activation, width
from gdn.sampling import _memo_halton, ball_points

EXP = get_activation("exp")
RELU = get_activation("relu")


class TestGridPoints:
    # (p, per_axis, lower corner) of every _grid_points call: the selection
    # grid and the audit grid, both on [0, 1]^p
    USES = sorted({(p, {1: 41, 2: 21, 3: 9}.get(p, 5), 0.0) for p in range(1, 6)}
                  | {(p, 10, 0.0) for p in range(1, 6)})

    @pytest.mark.parametrize("p, per_axis, lo", USES)
    def test_same_points_as_itertools_product(self, p, per_axis, lo):
        axes = [np.linspace(lo, 1.0, per_axis)] * p
        want = np.array(list(itertools.product(*axes))).reshape(-1, p)
        got = _grid_points(p, per_axis)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestCubeSamples:
    """The samples a compile at p <= 3 builds once per process."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_grid_contraction_equals_weighing_every_point(self, p, rng):
        # the per-prefix products give the bits of the point-by-point
        # contraction, on random lattices at scales 1e-3 to 1e3
        samples = _cube_samples(p)
        for grid in (samples.selection, samples.audit):
            weights = {n: bernstein_weights(n, p, grid.points)
                       for n in range(1, _DEGREE_CAP + 1)}
            for n, w in weights.items():
                for m in (1, 2, 3):
                    scale = 10.0 ** rng.uniform(-3.0, 3.0)
                    model = BernsteinModel(
                        n, p, scale * rng.standard_normal((n + 1,) * p + (m,)))
                    got = grid.contract(model)
                    want = bernstein_contract(model, w)
                    assert got.shape == want.shape == (len(grid.points), m)
                    assert got.tobytes() == want.tobytes()

    @staticmethod
    def memo_arrays(samples):
        # every array the cube sample memo of one p holds, and the Halton
        # samples of a compile's two ball samples (64 probe, 200 audit points)
        pairs = samples.audit_pairs
        arrays = [pairs.i, pairs.j, pairs.din, samples.stack]
        for grid in (samples.selection, samples.audit):
            arrays += [grid.points, *grid._tables.values()]
        p = samples.audit.p
        return arrays + [_memo_halton(count, p) for count in (64, 200)]

    def test_memoized_arrays_are_read_only(self):
        samples = _cube_samples(3)
        for n in (1, 4):
            for grid in (samples.selection, samples.audit):
                grid.contract(BernsteinModel(n, 3, np.zeros((n + 1,) * 3 + (1,))))
        for count in (64, 200):
            ball_points(count, 3, 1.0)
        for grid in (samples.selection, samples.audit):
            assert {1, 4} <= set(grid._tables)
        for a in self.memo_arrays(samples):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    # the candidate degrees whose lattice is a subgrid of the selection grid
    SUBGRID = {1: [1, 2, 4, 8], 2: [1, 2, 4], 3: [1, 2, 4, 8]}

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_subgrid_lattice_has_the_bits_of_a_lattice_read(self, p):
        # every degree up to the cap, so an a-priori candidate is covered too
        def f(x):
            return np.column_stack([np.sin(3.0 * x[:, 0] - x[:, -1]),
                                    np.exp(x[:, 0]) * x[:, -1] ** 3])

        grid = _cube_samples(p).selection
        rows = f(grid.points)
        read = [n for n in range(1, _DEGREE_CAP + 1)
                if grid.lattice(rows, n) is not None]
        assert [n for n in read if n in _DEGREES] == self.SUBGRID[p]
        for n in read:
            got, want = grid.lattice(rows, n), bernstein_from_function(f, n, p, 2)
            assert (got.n, got.p) == (want.n, want.p)
            assert got.values.shape == want.values.shape
            assert got.values.tobytes() == want.values.tobytes()

    def test_only_p_up_to_3_is_kept(self):
        assert _cube_samples(3) is _cube_samples(3)
        assert _cube_samples(4) is not _cube_samples(4)

    def test_retained_bytes_at_p_3(self):
        # every grid weight table a compile can build, the sorted audit
        # pairs and the Halton samples of the compile's ball samples
        samples = _cube_samples(3)
        for grid in (samples.selection, samples.audit):
            for n in range(1, _DEGREE_CAP + 1):
                grid._table(n)
        total = sum(a.nbytes for a in self.memo_arrays(samples))
        assert len(samples.audit_pairs.din) == 55_611
        assert total < 1_500_000


class TestFiniteDiff:
    def test_order_zero_is_pointwise(self):
        assert finite_diff_derivative(EXP, 0, 5.0, 0.7, 1e-3) \
            == pytest.approx(math.exp(-0.7))

    def test_exp_derivative_oracle(self):
        # d^k/dw^k exp(wz)|_0 = z^k
        assert finite_diff_derivative(EXP, 2, 2.0, 0.0, 1e-4) \
            == pytest.approx(4.0, abs=1e-3)
        assert finite_diff_derivative(EXP, 1, 3.0, 0.0, 1e-5) \
            == pytest.approx(3.0, abs=1e-4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_halving_h_halves_the_error(self, k):
        # first-order convergence: halving h should roughly halve the error
        # (h large enough that truncation dominates stencil roundoff)
        z, h = 1.3, 1e-2
        truth = z ** k  #  z^k exp(0)
        e1 = abs(finite_diff_derivative(EXP, k, z, 0.0, h) - truth)
        e2 = abs(finite_diff_derivative(EXP, k, z, 0.0, h / 2.0) - truth)
        assert 0.35 <= e2 / e1 <= 0.65


class TestSelectTheta0:
    def test_exp_keeps_registered_offset(self):
        assert select_theta0(EXP, 6) == 0.0

    def test_sigmoid_moves_off_zero(self):
        # sigma''(0) = 0 for the sigmoid, so theta0 = 0 must be rejected
        sig = get_activation("sigmoid")
        theta = select_theta0(sig, 3)
        assert theta != 0.0
        for k in range(1, 4):
            assert abs(finite_diff_derivative(sig, k, 1.0, theta, 1e-2)) > 1e-6


class TestCompilePoly:
    def test_constant_is_bias_only(self):
        lf = decompose_polynomial({(0, 0): 3.5}, 1, 2)
        net = compile_poly_to_shallow([lf], EXP, 0.0, 1e-3)
        assert width(net) == 0
        assert net([0.3, -0.8])[0] == pytest.approx(3.5)

    def test_square_width_two_and_error(self):
        lf = decompose_polynomial({(2,): 1.0}, 2, 1)
        net = compile_poly_to_shallow([lf], EXP, 0.0, 1e-3)
        assert net.layers[0].out_dim == 2
        grid = np.linspace(-1, 1, 201)
        err = max(abs(net([z])[0] - z * z) for z in grid)
        assert err <= 5e-3

    def test_product_width_four(self):
        lf = decompose_polynomial({(1, 1): 1.0}, 2, 2)
        net = compile_poly_to_shallow([lf], EXP, 0.0, 1e-3)
        assert net.layers[0].out_dim == 4

    def test_error_scales_linearly_in_h(self):
        lf = decompose_polynomial({(3,): 1.0}, 3, 1)
        grid = np.linspace(-1, 1, 101)
        errs = []
        for h in (2e-3, 1e-3, 5e-4):
            net = compile_poly_to_shallow([lf], EXP, 0.0, h)
            errs.append(max(abs(net([z])[0] - z ** 3) for z in grid))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[2] == pytest.approx(4.0, rel=0.5)

    def test_rejects_nonsmooth_activation(self):
        lf = decompose_polynomial({(1,): 1.0}, 1, 1)
        with pytest.raises(UnsupportedError):
            compile_poly_to_shallow([lf], RELU, 0.0, 1e-3)


def cube_audit_error(res, f, p):
    """Sup error of the compiled net against the target on the 10^p audit
    grid of [0, 1]^p."""
    grid = _grid_points(p, 10)
    return float(np.max(row_norms(res.net(grid) - f(grid))))


class TestCompileFunction:
    def test_constant_target(self):
        f = lambda x: np.full((len(x), 1), 2.0)
        res = compile_function_to_shallow(f, 1, 1, 0.1, EXP)
        assert cube_audit_error(res, f, 1) <= 1e-9
        assert width(res.net) == 0

    def test_identity_on_unit_interval(self):
        f = lambda x: x[:, :1]
        res = compile_function_to_shallow(f, 1, 1, 0.1, EXP,
                                          omega=LipschitzModulus(1.0))
        assert cube_audit_error(res, f, 1) <= 0.1

    def test_product_target(self):
        f = lambda x: x[:, :1] * x[:, 1:2]
        res = compile_function_to_shallow(f, 2, 1, 0.1, EXP)
        assert cube_audit_error(res, f, 2) <= 0.1
        assert res.degree == 1

    def test_two_outputs(self):
        f = lambda x: np.hstack([x[:, :1], x[:, :1] ** 2])
        res = compile_function_to_shallow(f, 1, 2, 0.1, EXP)
        assert cube_audit_error(res, f, 1) <= 0.1
        assert res.net.out_dim == 2

    def test_genuine_high_degree_synthesis(self):
        # a sine target forces Bernstein degree > 1 and a deep stencil
        f = lambda x: np.sin(3.0 * x[:, :1])
        res = compile_function_to_shallow(f, 1, 1, 0.3, EXP)
        assert res.degree > 1
        assert cube_audit_error(res, f, 1) <= 0.3

    @pytest.mark.parametrize("p, f", [
        (1, lambda x: np.sin(3.0 * x[:, :1])),
        (2, lambda x: x[:, :1] ** 2 - x[:, 1:2] ** 2 + x[:, :1] * x[:, 1:2]),
        (3, lambda x: x[:, :1] * x[:, 1:2] * x[:, 2:3]),
    ])
    def test_apriori_bound_reads_the_empirical_modulus(self, p, f):
        # without omega, the bound is the step estimate over every third
        # audit point, read at 1/sqrt(n), plus the synthesis residual: the
        # net's sup distance from the Bernstein polynomial on the audit grid
        res = compile_function_to_shallow(f, p, 1, 0.3, EXP)
        audit = _grid_points(p, 10)
        omega = empirical_modulus(pair_inputs(audit[::3]), f(audit)[::3])
        lattice = bernstein_eval(bernstein_from_function(f, res.degree, p, 1), audit)
        residual = float(np.max(row_norms(res.net(audit) - lattice)))
        want = (1.0 + p / 4.0) * omega(1.0 / math.sqrt(res.degree)) + residual
        assert res.apriori_bound == want

    def test_non_finite_audit_value_refused_by_the_modulus(self):
        # the target is the identity except at the audit point 1/3, which
        # no Bernstein lattice tried and no selection-grid point hits
        def f(x):
            return np.where(np.isclose(x[:, :1], 1.0 / 3.0), np.inf, x[:, :1])

        with pytest.raises(ValidationError, match="^distances must be finite$"):
            compile_function_to_shallow(f, 1, 1, 0.1, EXP)

    def test_oracle_runs_once_per_point(self):
        rows = []

        def f(x):
            rows.append(len(x))
            return x[:, :1] ** 2 + x[:, 1:2] ** 2 + x[:, 2:3] ** 2

        res = compile_function_to_shallow(f, 3, 1, 0.5, EXP)
        assert res.degree == 3
        # one call on the selection grid and every third audit point (the
        # samples of the empirical modulus), 9^3 + 334 rows; lattices 1 and 2
        # are subgrids of the selection grid, so only lattice 3 is read
        assert rows == [9 ** 3 + 334, 4 ** 3]

    def test_oracle_sees_no_audit_point_given_omega(self):
        rows = []

        def f(x):
            rows.append(len(x))
            return x[:, :1] ** 2 + x[:, 1:2] ** 2 + x[:, 2:3] ** 2

        omega = LipschitzModulus(2.0)
        # omega's a-priori rule holds at no degree up to the cap, so it adds
        # no candidate
        assert all(1.75 * omega(1.0 / math.sqrt(n)) > 0.25
                   for n in range(1, _DEGREE_CAP + 1))
        res = compile_function_to_shallow(f, 3, 1, 0.5, EXP, omega=omega)
        assert res.degree == 3
        # only the selection grid, then lattice 3, the one tried that is no
        # subgrid of it
        assert rows == [9 ** 3, 4 ** 3]

    def test_a_target_failing_on_an_audit_row_fails_at_the_one_read(self):
        # the audit rows are read with the selection grid, so a target that
        # fails on one of them fails at the first call, before the degree
        # stage; with a modulus no audit row is read and the compile stands
        bad = _cube_samples(2).audit.points[3, 1]
        assert not np.any(_cube_samples(2).selection.points[:, 1] == bad)
        rows = []

        def f(x):
            rows.append(len(x))
            if np.any(x[:, 1] == bad):
                raise ValidationError(f"undefined at x2 = {bad!r}")
            return x[:, :1]

        with pytest.raises(ValidationError, match="^undefined at x2"):
            compile_function_to_shallow(f, 2, 1, 0.1, EXP)
        assert rows == [21 ** 2 + 34]
        rows.clear()
        res = compile_function_to_shallow(f, 2, 1, 0.1, EXP, omega=LipschitzModulus(1.0))
        assert res.degree == 1 and rows == [21 ** 2]

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_eps_refused_before_any_oracle_call(self, eps):
        def f(x):
            raise AssertionError("called the oracle with a bad eps")

        with pytest.raises(ValidationError, match="^eps must be positive$"):
            compile_function_to_shallow(f, 1, 1, eps, EXP)

    def test_infeasible_budgets_fail_fast(self):
        import time
        f = lambda x: np.sin(3.0 * x[:, :1]) * np.cos(2.0 * x[:, 1:2])
        t0 = time.perf_counter()
        with pytest.raises(InfeasibleDegreeError):
            compile_function_to_shallow(f, 2, 1, 0.1, EXP)
        assert time.perf_counter() - t0 < 30.0


class TestFit:
    """The fit stage's contract with the realize stage."""

    @pytest.mark.parametrize("p, budget, omega, degree", [
        (1, 0.2, None, 12),
        (1, 0.3, LipschitzModulus(0.2), 6),
        (2, 0.2, None, 8),
        (3, 0.2, LipschitzModulus(0.1), 7),  # the a-priori candidate
        (3, 0.5, None, 3),
    ])
    def test_reference_is_each_polynomial_on_the_audit_grid(self, p, budget, omega,
                                                             degree):
        # any fitter must hand over rows that its polynomials give
        def f(x):
            return np.column_stack([np.sin(3.0 * x[:, 0] - x[:, -1]),
                                    np.exp(x[:, 0]) * x[:, -1] ** 3,
                                    np.full(len(x), 2.5)])

        samples = _cube_samples(p)
        fit = _select_degree(f, samples, f(samples.selection.points), budget, omega)
        assert fit.degree == degree
        points = samples.audit.points
        assert fit.reference.shape == (len(points), 3) and len(fit.polys) == 3
        scale = float(np.max(np.abs(fit.reference)))
        for j, (coeffs, total) in enumerate(fit.polys):
            assert total == poly_total_degree(coeffs)
            err = np.max(np.abs(poly_eval(coeffs, points) - fit.reference[:, j]))
            assert err <= 1e-9 * scale


class TestMultiOutput:
    FORMS = [decompose_polynomial({(1, 0): 1.0}, 1, 2),
             decompose_polynomial({(0, 0): -2.5}, 1, 2),
             decompose_polynomial({(1, 1): 1.0, (2, 0): 0.5}, 2, 2)]

    @staticmethod
    def weight_by_row(net, q):
        """Output q's nonzero weights, keyed by the hidden row they read."""
        if len(net.layers) == 1:
            return {}
        hidden, out = net.layers
        return {tuple(hidden.weights[u].tolist()): out.weights[q, u]
                for u in np.flatnonzero(out.weights[q])}

    def test_each_output_is_its_one_form_net(self, rng):
        multi = compile_poly_to_shallow(self.FORMS, EXP, 0.0, 1e-3)
        singles = [compile_poly_to_shallow([lf], EXP, 0.0, 1e-3) for lf in self.FORMS]
        assert multi.out_dim == 3
        # each output reads, bit for bit, the weights of its own net, on the
        # same rows; shared rows are one hidden unit
        rows = [tuple(r) for r in multi.layers[0].weights.tolist()]
        assert len(set(rows)) == len(rows)
        np.testing.assert_array_equal(multi.layers[0].bias, np.zeros(len(rows)))
        W, b = multi.layers[1].weights, multi.layers[1].bias
        for q, net in enumerate(singles):
            assert self.weight_by_row(multi, q) == self.weight_by_row(net, 0)
            assert b[q] == net.layers[-1].bias[0]
        x = rng.uniform(-1, 1, (10, 2))
        want = np.hstack([net(x) for net in singles])
        # the product's output weights reach 1/h^2 = 1e6 and cancel to O(1),
        # so a wider matrix product may round its sum differently
        np.testing.assert_allclose(multi(x)[:, :2], want[:, :2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(multi(x)[:, 2], want[:, 2], rtol=0, atol=1e-9)

    def test_hidden_rows_in_output_order(self):
        # rows are laid out in order of first use, outputs in order: the
        # linear form's h (1, 0), then the quadratic's rows of its terms
        # (1, -1), (1, 0), (1, 1), skipping h (1, 0), which it shares
        h = 1e-3
        multi = compile_poly_to_shallow(self.FORMS, EXP, 0.0, h)
        want = [(h, 0.0), (h, -h), (2 * h, -2 * h), (2 * h, 0.0), (h, h), (2 * h, 2 * h)]
        assert [tuple(r) for r in multi.layers[0].weights.tolist()] == want
        W = multi.layers[1].weights
        assert np.flatnonzero(W[0]).tolist() == [0]
        assert not W[1].any()
        assert np.flatnonzero(W[2]).tolist() == list(range(6))

    def test_one_output_reading_a_row_twice_sums_its_weights(self, rng):
        # x1^2 reads 2h (1, 0) at j = 2; x1^2 x2^2 polarizes onto the
        # direction (2, 0), which reads h (2, 0) at j = 1: the same row
        h = 0.05
        lf = decompose_polynomial({(2, 0): 1.0, (2, 2): 1.0}, 4, 2)
        directions = [tuple(a.tolist()) for a, _b in lf.terms]
        assert directions.index((1.0, 0.0)) < directions.index((2.0, 0.0))
        net = compile_poly_to_shallow([lf], EXP, 0.0, h)
        rows = [tuple(r) for r in net.layers[0].weights.tolist()]
        total = sum(int(np.max(np.nonzero(b)[0])) for _a, b in lf.terms)
        assert len(set(rows)) == len(rows) == total - 1
        # the shared unit's weight is the two terms' weights summed in term
        # order; every other weight is its term's own
        terms = [compile_poly_to_shallow([LinearFormPoly((t,), 2)], EXP, 0.0, h)
                 for t in lf.terms]
        parts = [self.weight_by_row(t, 0) for t in terms]
        merged = self.weight_by_row(net, 0)
        shared = (2 * h, 0.0)
        i, j = directions.index((1.0, 0.0)), directions.index((2.0, 0.0))
        assert merged[shared] == parts[i][shared] + parts[j][shared]
        for row, w in merged.items():
            if row != shared:
                assert [part[row] for part in parts if row in part] == [w]
        x = rng.uniform(-1, 1, (50, 2))
        np.testing.assert_allclose(net(x)[:, 0], sum(t(x)[:, 0] for t in terms),
                                   rtol=0, atol=1e-8)

    def test_constants_only_is_one_affine_layer(self):
        forms = [decompose_polynomial({(0,): c}, 1, 1) for c in (2.0, 3.0)]
        net = compile_poly_to_shallow(forms, EXP, 0.0, 1e-3)
        assert len(net.layers) == 1
        assert not net.layers[0].weights.any()
        assert net.layers[0].bias.tolist() == [2.0, 3.0]
