"""Moduli of continuity: estimation, inversion and averaging."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gdn.approx.modulus import (
    AnalyticModulus,
    LipschitzModulus,
    ModulusEstimate,
    _distances,
    empirical_modulus,
    empirical_modulus_at,
    modulus_from_samples,
    modulus_inverse,
    pair_inputs,
    sample_pairs,
    sampled_modulus_at,
    smooth_modulus,
)
from gdn.approx.synthesis import _DEGREES, _cube_samples, _grid_points
from gdn.errors import ValidationError

STEP = ModulusEstimate(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def per_pair_modulus(pairs):
    """Reference running-max loop over pairs sorted by input distance."""
    arr = np.asarray(pairs, dtype=float)
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    knots, values, running = [0.0], [0.0], 0.0
    for din, dout in arr:
        running = max(running, float(dout))
        if din == knots[-1]:
            if running > values[-1]:
                if din == 0.0:
                    raise ValidationError("zero input distance, positive output")
                values[-1] = running
        else:
            knots.append(float(din))
            values.append(running)
    return np.array(knots), np.array(values)


class TestEmpiricalModulus:
    def test_linear_function_on_grid(self):
        xs = np.linspace(0.0, 1.0, 21)
        pairs = [(abs(a - b), abs(2 * a - 2 * b)) for a in xs for b in xs]
        w = empirical_modulus(pairs)
        for t in (0.1, 0.35, 0.8):
            assert w(t) == pytest.approx(2.0 * w.knots[np.searchsorted(w.knots, t,
                                                                       side="right") - 1],
                                         abs=1e-12)
        assert w(1.0) == pytest.approx(2.0)

    def test_degenerate_inputs(self):
        assert empirical_modulus([(0.0, 0.0)])(5.0) == 0.0
        assert empirical_modulus([(0.3, 0.0), (0.7, 0.0)])(1.0) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            empirical_modulus([(-0.1, 0.0)])

    def test_matches_per_pair_loop_on_tied_distances(self, rng):
        for size in (1, 2, 7, 60, 500):
            # few distinct distances, so most pairs tie, some at zero
            din = rng.integers(0, 9, size) / 8.0
            dout = np.where(din == 0.0, 0.0, rng.random(size) * din)
            pairs = np.column_stack([din, dout])
            knots, values = per_pair_modulus(pairs)
            w = empirical_modulus(pairs)
            np.testing.assert_array_equal(w.knots, knots)
            np.testing.assert_array_equal(w.values, values)
            w_list = empirical_modulus([tuple(row) for row in pairs])
            np.testing.assert_array_equal(w_list.values, values)

    def test_zero_distance_with_positive_output_rejected(self):
        for pairs in ([(0.0, 0.1)],
                      [(0.5, 0.3), (0.0, 0.0), (0.0, 0.2)],
                      np.array([[0.2, 0.0], [0.0, 1e-300]])):
            with pytest.raises(ValidationError):
                empirical_modulus(pairs)

    def test_sample_pairs_match_nested_loop(self, rng):
        xs = rng.standard_normal((13, 3))
        ys = rng.standard_normal((13, 2))
        loop = [(np.linalg.norm(xs[i] - xs[j]), np.linalg.norm(ys[i] - ys[j]))
                for i in range(13) for j in range(i + 1, 13)]
        np.testing.assert_array_equal(sample_pairs(xs, ys), np.array(loop))

    def test_sample_pairs_need_two_aligned_samples(self):
        with pytest.raises(ValidationError):
            sample_pairs(np.zeros((1, 2)), np.zeros((1, 1)))
        with pytest.raises(ValidationError):
            sample_pairs(np.zeros((3, 2)), np.zeros((2, 1)))

    def test_lower_bounds_true_modulus(self, rng):
        f = lambda x: np.sin(3.0 * x)
        xs = [np.array([t]) for t in rng.uniform(0, 2, 40)]
        w = modulus_from_samples(f, xs)
        # true modulus is 3-Lipschitz
        for t in w.knots[1:]:
            assert w(float(t)) <= 3.0 * float(t) + 1e-12


class TestEmpiricalModulusAt:
    """The one-point read ``compile_function_to_shallow`` uses in place of
    building the whole estimate."""

    @staticmethod
    def read_points(pairs):
        # every knot, a point inside each gap, below the first positive knot
        # and above the last one
        knots = np.unique(np.asarray(pairs, dtype=float)[:, 0])
        inner = 0.5 * (knots[1:] + knots[:-1])
        return np.concatenate([[0.0, 0.5 * knots[knots > 0.0].min(initial=1.0)],
                               knots, inner, [knots[-1] + 1.0, 1e9]])

    def test_equals_estimate_exactly(self, rng):
        for size in (1, 2, 7, 60, 500, 3000):
            # ties: few distinct distances; zero-distance pairs with zero output
            din = rng.integers(0, 9, size) / 8.0
            dout = np.where(din == 0.0, 0.0, rng.random(size) * din)
            pairs = np.column_stack([din, dout])
            w = empirical_modulus(pairs)
            for t in self.read_points(pairs):
                assert empirical_modulus_at(pairs, float(t)) == w(float(t))

    def test_equals_estimate_on_sampled_function_pairs(self, rng):
        xs = rng.random((80, 3))
        pairs = sample_pairs(xs, np.sin(4.0 * xs[:, :1]) * xs[:, 1:2])
        w = empirical_modulus(pairs)
        for t in [*self.read_points(pairs)[::37], 1.0 / math.sqrt(3.0)]:
            assert empirical_modulus_at(pairs, float(t)) == w(float(t))

    def test_all_zero_outputs_and_distances(self):
        for pairs in ([(0.0, 0.0)], [(0.0, 0.0), (0.0, 0.0)],
                      [(0.3, 0.0), (0.7, 0.0), (0.0, 0.0)]):
            for t in (0.0, 0.2, 0.3, 0.5, 0.7, 5.0):
                got = empirical_modulus_at(pairs, t)
                assert got == empirical_modulus(pairs)(t) == 0.0

    def test_hand_values(self):
        pairs = [(0.5, 0.2), (0.25, 0.3), (0.5, 0.1), (1.0, 0.25)]
        assert empirical_modulus_at(pairs, 0.1) == 0.0
        assert empirical_modulus_at(pairs, 0.25) == 0.3
        assert empirical_modulus_at(pairs, 0.75) == 0.3
        assert empirical_modulus_at(pairs, 2.0) == 0.3

    # (pairs, message): the errors ``empirical_modulus`` raised, unchanged
    BAD_PAIRS = [
        ([], "empirical modulus needs at least one pair"),
        ([(0.1, 0.2, 0.3)], r"pairs must be \(input distance, output distance\) tuples"),
        ([(-0.1, 0.0)], "distances must be nonnegative"),
        ([(0.1, np.nan)], "distances must be finite"),
        ([(np.inf, 0.2)], "distances must be finite"),
        ([(0.3, 0.1), (0.2, np.inf)], "distances must be finite"),
        ([(0.0, 0.1)], "pairs at zero input distance must have zero output distance"),
        ([(0.5, 0.3), (0.0, 0.0), (0.0, 0.2)],
         "pairs at zero input distance must have zero output distance"),
        (np.array([[0.2, 0.0], [0.0, 1e-300]]),
         "pairs at zero input distance must have zero output distance"),
    ]

    @pytest.mark.parametrize("pairs, message", BAD_PAIRS)
    def test_bad_pairs_raise_the_estimates_errors(self, pairs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            empirical_modulus(pairs)
        for t in (0.0, 0.25, 10.0):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                empirical_modulus_at(pairs, t)

    def test_negative_argument_refused(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            empirical_modulus_at([(0.1, 0.1)], -1e-9)


def fancy_index_pairs(xs, ys):
    """The pair rows as ``sample_pairs`` built them with fancy indexing."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
    i, j = np.triu_indices(len(xs), k=1)
    din = np.sqrt(np.vecdot(xs[i] - xs[j], xs[i] - xs[j]))
    dout = np.sqrt(np.vecdot(ys[i] - ys[j], ys[i] - ys[j]))
    return np.column_stack([din, dout])


class TestSampledModulusAt:
    """The modulus read of ``compile_function_to_shallow``: from
    ``pair_inputs(xs)`` it must equal
    ``empirical_modulus_at(sample_pairs(xs, ys), t)`` bit for bit and raise
    its errors, without the (pairs, 2) array."""

    @staticmethod
    def reads(xs, ys):
        pairs = sample_pairs(xs, ys)
        ts = np.unique(pairs[:, 0])
        return pairs, [0.0, *ts[:: max(1, len(ts) // 25)], *(1.0 / np.sqrt(_DEGREES)),
                       float(ts[-1]), 1e9]

    def test_random_stacks(self, rng):
        for _ in range(60):
            n, p, m = int(rng.integers(2, 201)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            xs = rng.random((n, p))
            if rng.random() < 0.5:
                xs = np.round(xs * 4.0) / 4.0  # ties and duplicate inputs
            ys = np.sin(xs @ rng.standard_normal((p, m)))
            pairs, ts = self.reads(xs, ys)
            np.testing.assert_array_equal(pairs, fancy_index_pairs(xs, ys))
            inputs = pair_inputs(xs)
            for t in ts:
                assert sampled_modulus_at(inputs, ys, t) == empirical_modulus_at(pairs, t)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_strided_audit_views(self, p):
        # the compile's own read: every third point of the audit grid, from
        # the input side built for it once per process
        audit = _grid_points(p, 10)
        values = np.column_stack([np.prod(audit, axis=1), np.sum(audit ** 2, axis=1)])
        xs, ys = audit[::3], values[::3]
        pairs = sample_pairs(xs, ys)
        np.testing.assert_array_equal(pairs, fancy_index_pairs(xs, ys))
        for n in _DEGREES:
            t = 1.0 / math.sqrt(n)
            for inputs in (pair_inputs(xs), _cube_samples(p).audit_pairs):
                assert sampled_modulus_at(inputs, ys, t) == empirical_modulus_at(pairs, t)

    BAD = [
        (np.zeros((1, 2)), np.zeros((1, 1)), "need at least two samples, each with one output"),
        (np.zeros((3, 2)), np.zeros((2, 1)), "need at least two samples, each with one output"),
        (np.eye(3), np.array([[0.1], [np.nan], [0.3]]), "distances must be finite"),
        (np.eye(3), np.array([[0.1], [np.inf], [0.3]]), "distances must be finite"),
        (np.array([[0.0], [np.inf]]), np.zeros((2, 1)), "distances must be finite"),
        (np.array([[0.5, 0.5], [0.2, 0.1], [0.5, 0.5]]), np.array([[1.0], [0.0], [1.5]]),
         "pairs at zero input distance must have zero output distance"),
    ]

    @pytest.mark.parametrize("xs, ys, message", BAD)
    def test_same_errors(self, xs, ys, message):
        for t in (0.0, 0.25, 10.0):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                empirical_modulus_at(sample_pairs(xs, ys), t)
            with pytest.raises(ValidationError, match=f"^{message}$"):
                sampled_modulus_at(pair_inputs(xs), ys, t)

    # a bad pair beyond the read's window din <= 0.5: (0, 2) and (1, 2) are
    # 4.9 and 5 apart, and only (0, 1) lies within it
    OUTSIDE = [
        np.array([[0.0], [0.1], [1e200]]),  # outputs 1e200 apart: the square overflows
        np.array([[0.0], [0.1], [np.nan]]),
    ]

    @pytest.mark.parametrize("ys", OUTSIDE)
    def test_non_finite_distances_outside_the_window_refused(self, ys):
        xs = np.array([[0.0], [0.1], [5.0]])
        for t in (0.0, 0.05, 0.5):
            with pytest.raises(ValidationError, match="^distances must be finite$"), \
                    np.errstate(over="ignore"):
                empirical_modulus_at(sample_pairs(xs, ys), t)
            with pytest.raises(ValidationError, match="^distances must be finite$"), \
                    np.errstate(over="ignore"):
                sampled_modulus_at(pair_inputs(xs), ys, t)

    def test_outputs_past_the_bound_read_every_pair(self, rng):
        # outputs above 2^500 with finite distances between them: every pair
        # is read and checked, with the same result
        xs = np.round(rng.random((40, 2)) * 4.0) / 4.0
        ys = np.sin(xs @ rng.standard_normal((2, 1)))
        for scale in (1e151, 1e-151):
            pairs, ts = self.reads(xs, scale * ys)
            inputs = pair_inputs(xs)
            for t in ts + [math.nan]:
                assert sampled_modulus_at(inputs, scale * ys, t) \
                    == empirical_modulus_at(pairs, t)

    @pytest.mark.parametrize("scale", [1e-170, 1e-154, 1.0, 2.0 ** 499])
    def test_one_output_read_has_the_norm_bits(self, rng, scale):
        # one output is read from |dy|, without a norm per pair; it must give
        # the bits of the per-pair norms, also where dy^2 underflows to 0 or
        # to a subnormal and where differences come near 2^499, inside the
        # 2^500 output bound
        xs = np.round(rng.random((60, 2)) * 4.0) / 4.0
        ys = scale * np.sin(xs @ rng.standard_normal((2, 1)))
        inputs = pair_inputs(xs)
        for t in [0.0, 0.25, 0.5, *(1.0 / np.sqrt(_DEGREES)), 1e9]:
            k = int(np.searchsorted(inputs.din, t, side="right"))
            want = float(np.max(_distances(ys, inputs.i[:k], inputs.j[:k]), initial=0.0))
            got = sampled_modulus_at(inputs, ys, t)
            assert got == want == empirical_modulus_at(sample_pairs(xs, ys), t)
            assert math.copysign(1.0, got) == 1.0

    def test_one_output_zero_distance_check_reads_the_square(self):
        # duplicate inputs whose outputs differ by 1e-150 (a square of 1e-300)
        # are refused; by 1e-170 (a square that underflows to 0) they pass
        xs = np.array([[0.5], [0.5], [0.0]])
        with pytest.raises(ValidationError, match="zero input distance"):
            sampled_modulus_at(pair_inputs(xs), np.array([[0.0], [1e-150], [1.0]]), 0.5)
        ys = np.array([[0.0], [1e-170], [1.0]])
        assert sampled_modulus_at(pair_inputs(xs), ys, 0.5) == 1.0
        assert sampled_modulus_at(pair_inputs(xs), ys, 0.4) == 0.0
        assert empirical_modulus_at(sample_pairs(xs, ys), 0.4) == 0.0

    def test_pairs_sorted_stably_by_input_distance(self, rng):
        xs = np.round(rng.random((50, 2)) * 3.0) / 3.0
        inputs = pair_inputs(xs)
        i, j = np.triu_indices(50, k=1)
        rows = sample_pairs(xs, np.zeros((50, 1)))
        order = np.argsort(rows[:, 0], kind="stable")
        np.testing.assert_array_equal(inputs.i, i[order])
        np.testing.assert_array_equal(inputs.j, j[order])
        assert inputs.din.tobytes() == rows[order, 0].tobytes()

    def test_negative_argument_refused(self):
        xs, ys = np.eye(2), np.zeros((2, 1))
        with pytest.raises(ValidationError, match="nonnegative"):
            sampled_modulus_at(pair_inputs(xs), ys, -1e-9)

    def test_nan_argument_reads_no_pair_but_checks_zero_distances(self):
        xs = np.array([[0.5], [0.5], [0.0]])
        assert sampled_modulus_at(pair_inputs(xs), np.array([[2.0], [2.0], [1.0]]),
                                  math.nan) == 0.0
        with pytest.raises(ValidationError, match="zero input distance"):
            sampled_modulus_at(pair_inputs(xs), np.array([[2.0], [3.0], [1.0]]), math.nan)

    def test_equal_outputs_at_duplicate_inputs_pass(self):
        xs = np.array([[0.5], [0.5], [0.0]])
        ys = np.array([[2.0], [2.0], [1.0]])
        assert sampled_modulus_at(pair_inputs(xs), ys, 0.5) == 1.0
        assert sampled_modulus_at(pair_inputs(xs), ys, 0.4) == 0.0


class TestModulusInverse:
    def test_lipschitz(self):
        assert modulus_inverse(LipschitzModulus(4.0), 1.0) == 0.25

    def test_zero_modulus_is_infinite(self):
        assert modulus_inverse(LipschitzModulus(0.0), 0.5) == math.inf
        flat = ModulusEstimate(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert modulus_inverse(flat, 0.1) == math.inf

    def test_step_sublevel_sup(self):
        # {t : omega <= 1/2} = [0, 1) with the unit step at t = 1
        assert modulus_inverse(STEP, 0.5) == 1.0

    def test_bisection_matches_exact(self):
        analytic = AnalyticModulus(lambda t: 3.0 * t)
        assert modulus_inverse(analytic, 0.6) == pytest.approx(0.2, rel=1e-10)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_generalized_inverse_identity_for_lipschitz(self, L, eps):
        assert modulus_inverse(LipschitzModulus(L), eps) == pytest.approx(eps / L)

    def test_infinite_eps(self):
        assert modulus_inverse(STEP, math.inf) == math.inf


class TestSmoothModulus:
    def test_lipschitz_average_is_three_halves(self):
        w = AnalyticModulus(lambda t: 2.0 * t)
        # (1/t) int_t^{2t} 2s ds = 3t: literal average, not the raw modulus
        assert smooth_modulus(w, 0.4) == pytest.approx(1.2, rel=1e-6)

    def test_zero_cases(self):
        assert smooth_modulus(AnalyticModulus(lambda t: 0.0), 1.0) == 0.0
        assert smooth_modulus(LipschitzModulus(3.0), 0.0) == 0.0
