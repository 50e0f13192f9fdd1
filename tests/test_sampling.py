"""Halton points: the array form against the scalar radical-inverse loop."""
import numpy as np
import pytest

import gdn.sampling
from gdn.errors import UnsupportedError, ValidationError
from gdn.sampling import ball_points, halton

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def van_der_corput(i: int, base: int) -> float:
    """Reference: the scalar radical inverse of the index i in ``base``."""
    x, denom = 0.0, 1.0
    while i:
        denom *= base
        i, rem = divmod(i, base)
        x += rem / denom
    return x


def reference_halton(count: int, dim: int) -> np.ndarray:
    return np.array([[van_der_corput(i + 1, PRIMES[d]) for d in range(dim)]
                     for i in range(count)]).reshape(count, dim)


class TestHalton:
    @pytest.mark.parametrize("count", [0, 1, 7, 64, 200, 1000, 5000])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_scalar_radical_inverse_bit_for_bit(self, count, dim):
        got = halton(count, dim)
        want = reference_halton(count, dim)
        assert got.shape == want.shape == (count, dim)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_first_points_by_hand(self):
        np.testing.assert_array_equal(
            halton(4, 2), [[0.5, 1 / 3], [0.25, 2 / 3], [0.75, 1 / 9], [0.125, 4 / 9]])

    def test_more_dimensions_than_primes_refused(self):
        with pytest.raises(ValidationError, match="up to 8 dimensions"):
            halton(3, 9)


class TestBallPoints:
    @pytest.mark.parametrize("dim", [4, 8, 9, 40])
    def test_dimension_past_3_refused_before_any_sample(self, dim, monkeypatch):
        # one refusal at every dimension past 3, also past the Halton bases
        def unbuilt(count, d):
            raise AssertionError("a Halton sample was built")

        monkeypatch.setattr(gdn.sampling, "_memo_halton", unbuilt)
        with pytest.raises(UnsupportedError, match="^deterministic ball sampling is wired "
                                                   "for dim <= 3$"):
            ball_points(16, dim, 1.0)
