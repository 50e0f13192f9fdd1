"""Depth-order estimators and polynomial rates on efficient datasets."""
import math

import numpy as np
import pytest

from gdn.approx.estimates import depth_estimate, efficient_complexity
from gdn.approx.modulus import LipschitzModulus
from gdn.errors import NumericError, ValidationError

LIP1 = LipschitzModulus(1.0)


class TestDepthEstimate:
    def test_smooth_row_hand_values(self):
        est = depth_estimate("smooth", 1, 1, 0.1, 0.5, LIP1, 1.0, 1.0)
        assert est.depth_order == pytest.approx(156.25, abs=1e-9)
        assert est.width == 4
        est2 = depth_estimate("smooth", 1, 1, 0.2, 0.5, LIP1, 1.0, 1.0)
        assert est2.depth_order == pytest.approx(39.0625, abs=1e-9)

    def test_poly_row_hand_value(self):
        est = depth_estimate("poly", 1, 1, 0.1, 0.5, LIP1, 1.0, 1.0)
        # m (m+p) (2 delta)^{4p+2} / (omega^{-1})^{4p+2} = 2 / 0.08^6
        assert est.depth_order == pytest.approx(2.0 / 0.08 ** 6, rel=1e-9)
        assert est.width == 5  # one extra neuron per layer

    def test_continuous_row_needs_b_and_sigma_modulus(self):
        with pytest.raises(ValidationError):
            depth_estimate("continuous", 1, 1, 0.1, 0.5, LIP1, 1.0, 1.0)
        est = depth_estimate("continuous", 1, 1, 0.1, 0.5, LIP1, 1.0, 1.0,
                             B=1.0, sigma_modulus=LIP1)
        assert est.depth_order > 0.0

    def test_strictly_decreasing_in_eps(self):
        vals = [depth_estimate("smooth", 1, 1, e, 0.5, LIP1, 1.0, 1.0).depth_order
                for e in np.linspace(0.05, 1.0, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_delta(self):
        vals = [depth_estimate("smooth", 2, 1, 0.1, d, LIP1, 1.0, 1.0).depth_order
                for d in (0.25, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_joint_scaling_invariance(self):
        # omega(t) = L t with eps and L scaled together leaves the smooth
        # row unchanged
        base = depth_estimate("smooth", 1, 1, 0.1, 0.5, LipschitzModulus(1.0),
                              1.0, 1.0).depth_order
        for c in (0.5, 2.0, 10.0):
            scaled = depth_estimate("smooth", 1, 1, c * 0.1, 0.5,
                                    LipschitzModulus(c), 1.0, 1.0).depth_order
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_singular_estimate(self):
        # eps kappa1 / (1 + p/4) = 8e-304, and omega^{-1} of it under
        # omega(t) = 1e300 t underflows to 0
        with pytest.raises(NumericError, match="modulus inverse vanished"):
            depth_estimate("smooth", 1, 1, 1e-3, 0.5, LipschitzModulus(1e300), 1e-300, 1.0)

    def test_denominator_underflow_is_an_overflow(self):
        # r = 8e-201, so (kappa2 r)^2 underflows to 0 and the depth leaves
        # the float range
        with pytest.raises(NumericError, match="^smooth estimate: depth_order overflows$"):
            depth_estimate("smooth", 1, 1, 0.1, 0.5, LipschitzModulus(1e199), 1.0, 1.0)


class TestEfficientComplexity:
    def test_hand_values(self):
        ec = efficient_complexity(1, 2, 1, 0.1)
        assert (ec.width_lo, ec.width_hi) == (2, 28)
        assert ec.depth_order == pytest.approx(2 + 2 * 0.1 ** (-1.0 / 6.0), rel=1e-12)
        assert ec.params_order == pytest.approx(6 * 0.1 ** (-1.0 / 3.0), rel=1e-12)
        assert ec.error_factor == pytest.approx(math.sqrt(2.0))

    def test_single_output_degenerate_flag(self):
        ec = efficient_complexity(2, 1, 1, 0.5)
        assert ec.params_order == 0.0
        assert ec.degenerate_params

    def test_eps_one_collapses_depth(self):
        for m in (1, 2, 5):
            ec = efficient_complexity(3, m, 2, 1.0)
            assert ec.depth_order == pytest.approx(2.0 * m)

    @pytest.mark.parametrize("p,m", [(p, m) for p in (1, 2, 3, 5) for m in (1, 2, 4, 7, 9)])
    def test_width_window_formula(self, p, m):
        ec = efficient_complexity(p, m, 1, 0.3)
        assert ec.width_lo == m
        assert ec.width_hi == m * (4 * p + 10)

    def test_eps_domain(self):
        with pytest.raises(ValidationError):
            efficient_complexity(1, 1, 1, 1.5)
