"""Moduli of continuity: the empirical estimate on the sorted pairs, its
windowed read, and the two modulus kinds with their exact inverses."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gdn.approx.modulus import (
    LipschitzModulus,
    ModulusEstimate,
    PairInputs,
    _distances,
    empirical_modulus,
    modulus_from_samples,
    modulus_inverse,
    pair_inputs,
    sampled_modulus_at,
)
from gdn.approx.synthesis import _DEGREES, _cube_samples, _grid_points
from gdn.errors import ValidationError

STEP = ModulusEstimate(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def lattice_points(rng, n, p, step=4.0):
    """n points of the 1/step lattice in the unit cube: most pair distances
    tie, and repeated points give pairs at zero input distance."""
    return np.round(rng.random((n, p)) * step) / step


def nested_loop_pairs(xs, ys):
    """(input distance, output distance) of every pair i < j, one norm each."""
    return np.array([(np.linalg.norm(xs[i] - xs[j]), np.linalg.norm(ys[i] - ys[j]))
                     for i in range(len(xs)) for j in range(i + 1, len(xs))])


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
        xs = np.linspace(0.0, 1.0, 21)[:, None]
        w = empirical_modulus(pair_inputs(xs), 2.0 * xs)
        for t in (0.1, 0.35, 0.8):
            below = w.knots[np.searchsorted(w.knots, t, side="right") - 1]
            assert w(t) == pytest.approx(2.0 * below, abs=1e-12)
        assert w(1.0) == pytest.approx(2.0)

    def test_degenerate_inputs(self):
        # two copies of one point, and a constant function
        assert empirical_modulus(pair_inputs(np.zeros((2, 1))), np.ones((2, 1)))(5.0) == 0.0
        w = empirical_modulus(pair_inputs(np.array([[0.0], [0.3], [1.0]])), np.ones((3, 1)))
        assert w(1.0) == 0.0

    def test_hand_values(self):
        # pairs (0.25, 0.125), (0.5, 0.5), (0.75, 0.625)
        w = empirical_modulus(pair_inputs(np.array([[0.0], [0.25], [0.75]])),
                              np.array([[0.0], [0.125], [0.625]]))
        np.testing.assert_array_equal(w.knots, [0.0, 0.25, 0.5, 0.75])
        np.testing.assert_array_equal(w.values, [0.0, 0.125, 0.5, 0.625])
        assert (w(0.1), w(0.25), w(0.6), w(2.0)) == (0.0, 0.125, 0.5, 0.625)

    def test_matches_per_pair_loop_on_tied_distances(self, rng):
        for p, m in ((1, 1), (2, 1), (2, 3), (3, 2)):
            for n in (2, 3, 7, 40, 90):
                xs = lattice_points(rng, n, p)
                ys = np.sin(xs @ rng.standard_normal((p, m)))  # equal at repeated points
                knots, values = per_pair_modulus(nested_loop_pairs(xs, ys))
                w = empirical_modulus(pair_inputs(xs), ys)
                np.testing.assert_array_equal(w.knots, knots)
                np.testing.assert_array_equal(w.values, values)

    def test_sample_pairs_match_nested_loop(self, rng):
        # pair_inputs samples the nested loop's pairs i < j, with the same
        # input distances, stably sorted by input distance
        xs = rng.standard_normal((13, 3))
        ys = rng.standard_normal((13, 2))
        loop = nested_loop_pairs(xs, ys)
        index = np.array([(i, j) for i in range(13) for j in range(i + 1, 13)])
        order = np.argsort(loop[:, 0], kind="stable")
        inputs = pair_inputs(xs)
        np.testing.assert_array_equal(np.column_stack([inputs.i, inputs.j]), index[order])
        np.testing.assert_array_equal(inputs.din, loop[order, 0])

    def test_negative_distance_rejected(self):
        # pair_inputs gives none; a hand-built input side is still checked
        inputs = PairInputs(2, np.array([0]), np.array([1]), np.array([-0.1]))
        with pytest.raises(ValidationError, match="^distances must be nonnegative$"):
            empirical_modulus(inputs, np.zeros((2, 1)))

    def test_zero_distance_with_positive_output_rejected(self):
        xs = np.array([[0.5], [0.2], [0.5]])
        for ys in ([[1.0], [0.0], [1.5]], [[0.0], [0.0], [1e-150]]):
            with pytest.raises(ValidationError, match="zero input distance"):
                empirical_modulus(pair_inputs(xs), np.array(ys))

    def test_need_two_aligned_samples(self):
        with pytest.raises(ValidationError, match="at least two samples"):
            pair_inputs(np.zeros((1, 2)))
        with pytest.raises(ValidationError, match="at least two samples"):
            empirical_modulus(pair_inputs(np.zeros((3, 2))), np.zeros((2, 1)))

    def test_lower_bounds_true_modulus(self, rng):
        f = lambda x: np.sin(3.0 * x)
        xs = [np.array([t]) for t in rng.uniform(0, 2, 40)]
        w = modulus_from_samples(f, xs)
        # true modulus is 3-Lipschitz
        for t in w.knots[1:]:
            assert w(float(t)) <= 3.0 * float(t) + 1e-12

    def test_from_samples_is_the_estimate_of_the_oracle_rows(self, rng):
        xs = lattice_points(rng, 30, 2)
        f = lambda x: np.column_stack([x[:, 0] * x[:, 1], np.cos(x[:, 0])])
        w = modulus_from_samples(f, xs)
        want = empirical_modulus(pair_inputs(xs), f(xs))
        assert w.knots.tobytes() == want.knots.tobytes()
        assert w.values.tobytes() == want.values.tobytes()


class TestSampledModulusAt:
    """The modulus read of ``compile_function_to_shallow``: from
    ``pair_inputs(xs)`` it must equal ``empirical_modulus(pairs, ys)(t)``
    bit for bit and raise its errors, without building the estimate."""

    @staticmethod
    def reads(inputs):
        ts = np.unique(inputs.din)
        return [0.0, *ts[:: max(1, len(ts) // 25)], *(1.0 / np.sqrt(_DEGREES)),
                float(ts[-1]), 1e9]

    def test_random_stacks(self, rng):
        for _ in range(60):
            n, p, m = int(rng.integers(2, 201)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            xs = rng.random((n, p))
            if rng.random() < 0.5:
                xs = np.round(xs * 4.0) / 4.0  # ties and duplicate inputs
            ys = np.sin(xs @ rng.standard_normal((p, m)))
            inputs = pair_inputs(xs)
            w = empirical_modulus(inputs, ys)
            for t in self.reads(inputs):
                assert sampled_modulus_at(inputs, ys, t) == w(t)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_strided_audit_views(self, p):
        # the compile's own read: every third point of the audit grid, from
        # the input side built for it once per process
        audit = _grid_points(p, 10)
        values = np.column_stack([np.prod(audit, axis=1), np.sum(audit ** 2, axis=1)])
        xs, ys = audit[::3], values[::3]
        w = empirical_modulus(pair_inputs(xs), ys)
        for n in _DEGREES:
            t = 1.0 / math.sqrt(n)
            for inputs in (pair_inputs(xs), _cube_samples(p).audit_pairs):
                assert sampled_modulus_at(inputs, ys, t) == w(t)

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
        with pytest.raises(ValidationError, match=f"^{message}$"):
            empirical_modulus(pair_inputs(xs), ys)
        for t in (0.0, 0.25, 10.0):
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
        with pytest.raises(ValidationError, match="^distances must be finite$"), \
                np.errstate(over="ignore"):
            empirical_modulus(pair_inputs(xs), ys)
        for t in (0.0, 0.05, 0.5):
            with pytest.raises(ValidationError, match="^distances must be finite$"), \
                    np.errstate(over="ignore"):
                sampled_modulus_at(pair_inputs(xs), ys, t)

    def test_outputs_past_the_bound_read_every_pair(self, rng):
        # outputs above 2^500 with finite distances between them: every pair
        # is read and checked, with the same result; a NaN t reads no pair
        xs = lattice_points(rng, 40, 2)
        ys = np.sin(xs @ rng.standard_normal((2, 1)))
        inputs = pair_inputs(xs)
        for scale in (1e151, 1e-151):
            w = empirical_modulus(inputs, scale * ys)
            for t in self.reads(inputs):
                assert sampled_modulus_at(inputs, scale * ys, t) == w(t)
            assert sampled_modulus_at(inputs, scale * ys, math.nan) == 0.0

    @pytest.mark.parametrize("scale", [1e-170, 1e-154, 1.0, 2.0 ** 499])
    def test_one_output_read_has_the_norm_bits(self, rng, scale):
        # one output is read from |dy|, without a norm per pair; it must give
        # the bits of the per-pair norms, also where dy^2 underflows to 0 or
        # to a subnormal and where differences come near 2^499, inside the
        # 2^500 output bound
        xs = lattice_points(rng, 60, 2)
        ys = scale * np.sin(xs @ rng.standard_normal((2, 1)))
        inputs = pair_inputs(xs)
        w = empirical_modulus(inputs, ys)
        for t in [0.0, 0.25, 0.5, *(1.0 / np.sqrt(_DEGREES)), 1e9]:
            k = int(np.searchsorted(inputs.din, t, side="right"))
            want = float(np.max(_distances(ys, inputs.i[:k], inputs.j[:k]), initial=0.0))
            got = sampled_modulus_at(inputs, ys, t)
            assert got == want == w(t)
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
        assert empirical_modulus(pair_inputs(xs), ys)(0.4) == 0.0

    def test_pairs_sorted_stably_by_input_distance(self, rng):
        xs = lattice_points(rng, 50, 2, step=3.0)
        inputs = pair_inputs(xs)
        loop = nested_loop_pairs(xs, np.zeros((50, 1)))
        order = np.argsort(loop[:, 0], kind="stable")
        i, j = np.triu_indices(50, k=1)
        np.testing.assert_array_equal(inputs.i, i[order])
        np.testing.assert_array_equal(inputs.j, j[order])
        assert inputs.din.tobytes() == loop[order, 0].tobytes()
        assert inputs.n == 50 and len(inputs) == 50 * 49 // 2

    def test_negative_argument_refused(self):
        xs, ys = np.eye(2), np.zeros((2, 1))
        with pytest.raises(ValidationError, match="nonnegative"):
            sampled_modulus_at(pair_inputs(xs), ys, -1e-9)
        with pytest.raises(ValidationError, match="nonnegative"):
            empirical_modulus(pair_inputs(xs), ys)(-1e-9)

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


class TestModulusKinds:
    def test_lipschitz_modulus_is_a_frozen_dataclass(self):
        w = LipschitzModulus(2.0)
        assert w(0.25) == 0.5 and w == LipschitzModulus(2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.L = 3.0

    @pytest.mark.parametrize("L", [-1.0, math.inf, math.nan])
    def test_lipschitz_constant_checked(self, L):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            LipschitzModulus(L)

    @pytest.mark.parametrize("knots, values", [
        ([[0.0, 1.0]], [[0.0, 1.0]]),
        ([0.0, 1.0], [[0.0], [1.0]]),
        (0.0, 0.0),
        ([], []),
        ([0.0, 1.0], [0.0]),
    ])
    def test_estimate_refuses_data_that_is_not_aligned_and_1d(self, knots, values):
        with pytest.raises(ValidationError, match="non-empty, aligned 1-D arrays"):
            ModulusEstimate(np.array(knots), np.array(values))


class TestModulusInverse:
    def test_lipschitz(self):
        assert modulus_inverse(LipschitzModulus(4.0), 1.0) == 0.25

    def test_zero_modulus_is_infinite(self):
        assert modulus_inverse(LipschitzModulus(0.0), 0.5) == math.inf
        assert modulus_inverse(LipschitzModulus(0.0), 0.0) == math.inf
        flat = ModulusEstimate(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert modulus_inverse(flat, 0.1) == math.inf

    def test_step_sublevel_sup(self):
        # {t : omega <= 1/2} = [0, 1) with the unit step at t = 1
        assert modulus_inverse(STEP, 0.5) == 1.0
        assert modulus_inverse(STEP, 0.0) == 1.0

    def test_estimate_inverse_is_the_sublevel_sup(self, rng):
        xs = lattice_points(rng, 40, 2, step=8.0)
        w = empirical_modulus(pair_inputs(xs), np.sin(3.0 * xs[:, :1]) * xs[:, 1:])
        top = w.values[-1]
        assert modulus_inverse(w, float(top)) == math.inf
        mids = 0.5 * (w.values[1:] + w.values[:-1])
        for eps in [v for v in (*w.values, *mids) if v < top]:
            r = modulus_inverse(w, float(eps))
            # the first knot whose value exceeds eps; every knot before it
            # stays within eps
            assert w(r) > eps
            assert np.all(w.values[w.knots < r] <= eps)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_generalized_inverse_identity_for_lipschitz(self, L, eps):
        assert modulus_inverse(LipschitzModulus(L), eps) == eps / L

    def test_infinite_eps(self):
        assert modulus_inverse(STEP, math.inf) == math.inf
        assert modulus_inverse(LipschitzModulus(2.0), math.inf) == math.inf

    @pytest.mark.parametrize("omega", [STEP, LipschitzModulus(1.0)])
    def test_negative_eps_refused(self, omega):
        with pytest.raises(ValidationError, match="eps must be nonnegative"):
            modulus_inverse(omega, -1e-9)
