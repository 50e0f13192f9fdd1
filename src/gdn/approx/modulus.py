"""Moduli of continuity of two kinds, each with its exact generalized
inverse sup{t : omega(t) <= eps}: a Lipschitz modulus L t (``--lip``,
``--sigma-lip``) and a tabulated step estimate (``--modulus-file``, or the
running max of output over input distance on the sorted sample pairs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import ValidationError
from ..manifolds.zoo import row_norms

__all__ = [
    "ModulusEstimate",
    "LipschitzModulus",
    "empirical_modulus",
    "modulus_from_samples",
    "PairInputs",
    "pair_inputs",
    "sampled_modulus_at",
    "modulus_inverse",
]


@dataclass(frozen=True)
class ModulusEstimate:
    """Tabulated nondecreasing modulus with omega(0) = 0, evaluated as the
    right-continuous step function through its knots (the running-max
    estimate, a lower bound of the true modulus by construction).  Beyond
    the last knot the value is held constant.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or values.ndim != 1 or not 0 < knots.size == values.size:
            raise ValidationError("knots and values must be non-empty, aligned 1-D arrays")
        if knots[0] != 0.0 or values[0] != 0.0:
            raise ValidationError("a modulus estimate must start at (0, 0)")
        if np.any(np.diff(knots) <= 0.0):
            raise ValidationError("knots must be strictly increasing")
        if np.any(np.diff(values) < 0.0):
            raise ValidationError("modulus values must be nondecreasing")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValidationError("modulus data must be finite")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ValidationError("modulus argument must be nonnegative")
        k, v = self.knots, self.values
        if t >= k[-1]:
            return float(v[-1])
        return float(v[int(np.searchsorted(k, t, side="right")) - 1])

    def inverse(self, eps: float) -> float:
        """The first knot whose value exceeds eps; +inf when none does."""
        v = self.values
        if v[-1] <= eps:
            return math.inf
        return float(self.knots[int(np.searchsorted(v, eps, side="right"))])


@dataclass(frozen=True)
class LipschitzModulus:
    """omega(t) = L t."""

    L: float

    def __post_init__(self):
        if not (0.0 <= self.L < math.inf):
            raise ValidationError(
                f"Lipschitz constant must be finite and nonnegative, got {self.L!r}")

    def __call__(self, t: float) -> float:
        return float(self.L * t)

    def inverse(self, eps: float) -> float:
        """eps / L; +inf for L = 0, which never exceeds eps."""
        return eps / self.L if self.L else math.inf


Modulus = Union[ModulusEstimate, LipschitzModulus]


def modulus_inverse(omega: Modulus, eps: float) -> float:
    """Generalized inverse sup{t : omega(t) <= eps}, exact for both kinds;
    +inf when omega never exceeds eps."""
    if eps < 0.0:
        raise ValidationError("eps must be nonnegative")
    return omega.inverse(eps)


_ZERO_DISTANCE_MESSAGE = "pairs at zero input distance must have zero output distance"


def _check_distances(din: np.ndarray, dout: np.ndarray) -> None:
    # refused unless every distance is finite and nonnegative and every pair
    # at zero input distance has zero output distance
    if np.any(din < 0.0) or np.any(dout < 0.0):
        raise ValidationError("distances must be nonnegative")
    if not (np.all(np.isfinite(din)) and np.all(np.isfinite(dout))):
        raise ValidationError("distances must be finite")
    if np.any(dout[din == 0.0] > 0.0):
        raise ValidationError(_ZERO_DISTANCE_MESSAGE)


def oracle_rows(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
                m: Optional[int]) -> np.ndarray:
    """The oracle ``f`` called once on the (N, p) stack ``xs``, refused unless
    it returns an (N, m) stack (any m if None); every compile stage uses it."""
    ys = np.asarray(f(xs), dtype=float)
    if ys.ndim != 2 or len(ys) != len(xs) or m not in (None, ys.shape[1]):
        raise ValidationError(f"oracle output must have shape ({len(xs)}, {m or 'm'}) "
                              f"for a stack of {len(xs)} points, got {ys.shape}")
    return ys


@dataclass(frozen=True)
class PairInputs:
    """The input side of every pair i < j of ``n`` samples, stably sorted
    by input distance: the pair index ``i``, ``j`` and the input distances
    ``din``, all read-only.  It depends on the inputs alone, so a fixed
    sample grid builds it once and reads it with any outputs; the sort makes
    the pairs within an input distance t a prefix."""

    n: int
    i: np.ndarray
    j: np.ndarray
    din: np.ndarray

    def __len__(self) -> int:
        """The pair count, which perfbench's empirical_modulus span reads."""
        return len(self.din)


def _distances(vals: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    # |vals[i] - vals[j]| for each pair; np.take gathers the rows faster than
    # fancy indexing with the same bits, and row_norms keeps each norm's dot
    # kernel, so a pair's distance does not depend on the other pairs
    return row_norms(np.take(vals, i, axis=0) - np.take(vals, j, axis=0))


def _outputs(n: int, ys) -> np.ndarray:
    # one output row per sample, as an (n, m) stack
    if len(ys) != n:
        raise ValidationError("need at least two samples, each with one output")
    return np.asarray(ys, dtype=float).reshape(n, -1)


def pair_inputs(xs) -> PairInputs:
    """The ``PairInputs`` of the samples ``xs``, refused below two."""
    if len(xs) < 2:
        raise ValidationError("need at least two samples, each with one output")
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    i, j = np.triu_indices(len(xs), k=1)
    din = _distances(xs, i, j)
    order = np.argsort(din, kind="stable")
    i, j, din = np.take(i, order), np.take(j, order), np.take(din, order)
    for a in (i, j, din):
        a.setflags(write=False)
    return PairInputs(len(xs), i, j, din)


def empirical_modulus(pairs: PairInputs, ys) -> ModulusEstimate:
    """Running-max estimate of the samples ``xs[i] -> ys[i]`` from
    ``pairs = pair_inputs(xs)``: one knot per distinct positive input
    distance, holding the largest output distance over the pairs at most
    that far apart, a lower bound of the true modulus by construction."""
    ys = _outputs(pairs.n, ys)
    din = pairs.din
    dout = _distances(ys, pairs.i, pairs.j)
    _check_distances(din, dout)
    running = np.maximum.accumulate(dout)
    # the pairs are sorted by input distance, so each knot holds the running
    # max at the last pair of its run of ties
    keep = np.append(din[1:] != din[:-1], True) & (din != 0.0)
    knots = np.concatenate([[0.0], din[keep]])
    values = np.concatenate([[0.0], running[keep]])
    return ModulusEstimate(knots, values)


# outputs within this bound, in fewer than 2^20 columns, have only finite
# pair distances: each square is at most 2^1002, and their sum below 2^1022
_Y_BOUND = 2.0 ** 500
_M_BOUND = 2 ** 20


def sampled_modulus_at(pairs: PairInputs, ys, t: float) -> float:
    """``empirical_modulus(pairs, ys)(t)``, bit for bit and with the same
    errors (a negative t is refused first), read straight from the distance
    vectors without building the estimate.

    Only the pairs that can change the read or its checks get an output
    distance: the window din <= t, a prefix of the sorted pairs, which holds
    every pair at zero input distance.  That needs every input distance
    finite (the last sorted one is the largest or a NaN) and outputs within
    ``_Y_BOUND``, which keeps every output distance finite; otherwise every
    pair is read and checked."""
    ys = _outputs(pairs.n, ys)
    if t < 0.0:
        raise ValidationError("modulus argument must be nonnegative")
    din = pairs.din
    # a NaN t reads no pair, but the checks still see the zero-distance pairs
    k = int(np.searchsorted(din, t, side="right")) if t >= 0.0 else 0
    if (np.isfinite(din[-1]) and ys.shape[1] < _M_BOUND
            and np.all(np.abs(ys) <= _Y_BOUND)):
        z = int(np.searchsorted(din, 0.0, side="right"))
        w = max(k, z)
        if ys.shape[1] == 1:
            return _one_output_read(ys[:, 0], pairs.i[:w], pairs.j[:w], z, k)
    else:
        w = len(din)
    dout = _distances(ys, pairs.i[:w], pairs.j[:w])
    _check_distances(din[:w], dout)
    return float(np.max(dout[:k], initial=0.0))


def _one_output_read(y: np.ndarray, i: np.ndarray, j: np.ndarray, z: int, k: int) -> float:
    # the windowed read of one output, from |dy| without a norm per pair: a
    # pair's distance is sqrt(fl(dy^2)), which is monotone in |dy|, so the
    # read is sqrt(fl(max |dy|)^2), and a distance is positive exactly when
    # fl(dy^2) is.  Every distance is finite here, so of the checks only the
    # one on the z pairs at zero input distance remains
    dy = np.abs(np.take(y, i) - np.take(y, j))
    if np.any(dy[:z] * dy[:z] > 0.0):
        raise ValidationError(_ZERO_DISTANCE_MESSAGE)
    top = float(np.max(dy[:k], initial=0.0))
    return math.sqrt(top * top)


def modulus_from_samples(f: Callable[[np.ndarray], np.ndarray], xs) -> ModulusEstimate:
    """Empirical modulus of ``f``, run once on the (N, p) stack ``xs``, over
    all pairs of it (O(N^2) pairs; intended for desk-scale grids)."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    return empirical_modulus(pair_inputs(xs), oracle_rows(f, xs, None))
