"""Moduli of continuity: empirical estimation, generalized inversion and
the averaged (continuous) modulus.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ValidationError
from ..manifolds.zoo import row_norms

__all__ = [
    "ModulusEstimate",
    "AnalyticModulus",
    "LipschitzModulus",
    "empirical_modulus",
    "empirical_modulus_at",
    "modulus_from_samples",
    "PairInputs",
    "pair_inputs",
    "sample_pairs",
    "sampled_modulus_at",
    "modulus_inverse",
    "smooth_modulus",
    "smooth_modulus_inverse",
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
        knots = np.asarray(self.knots, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        if knots.size == 0 or knots.size != values.size:
            raise ValidationError("knots and values must be non-empty and aligned")
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


@dataclass(frozen=True)
class AnalyticModulus:
    """Closed-form modulus; supply ``inverse`` when it is known exactly."""

    fn: Callable[[float], float]
    inverse: Optional[Callable[[float], float]] = field(default=None, repr=False)

    def __call__(self, t: float) -> float:
        return float(self.fn(t))


def LipschitzModulus(L: float) -> AnalyticModulus:
    """omega(t) = L t with the exact generalized inverse eps / L."""
    if not (0.0 <= L < math.inf):
        raise ValidationError(
            f"Lipschitz constant must be finite and nonnegative, got {L!r}")
    if L == 0.0:
        return AnalyticModulus(lambda t: 0.0, lambda eps: math.inf)
    return AnalyticModulus(lambda t: L * t, lambda eps: eps / L)


Modulus = Union[ModulusEstimate, AnalyticModulus, Callable[[float], float]]


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


def _checked_pairs(pairs: Sequence[Tuple[float, float]]) -> np.ndarray:
    # (input distance, output distance) rows as a checked (N, 2) array
    if not len(pairs):
        raise ValidationError("empirical modulus needs at least one pair")
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("pairs must be (input distance, output distance) tuples")
    _check_distances(arr[:, 0], arr[:, 1])
    return arr


def empirical_modulus(pairs: Sequence[Tuple[float, float]]) -> ModulusEstimate:
    """Running-max estimate from (input distance, output distance) pairs.

    The estimate is piecewise constant and right-continuous, and bounds the
    true modulus from below by construction.
    """
    arr = _checked_pairs(pairs)
    order = np.argsort(arr[:, 0], kind="stable")
    din = arr[order, 0]
    running = np.maximum.accumulate(arr[order, 1])
    # one knot per distinct positive distance, holding the running max at
    # the last pair of its run of ties
    keep = np.append(din[1:] != din[:-1], True) & (din != 0.0)
    knots = np.concatenate([[0.0], din[keep]])
    values = np.concatenate([[0.0], running[keep]])
    return ModulusEstimate(knots, values)


def empirical_modulus_at(pairs: Sequence[Tuple[float, float]], t: float) -> float:
    """``empirical_modulus(pairs)(t)``, read without building the estimate:
    the largest output distance over the pairs whose input distance is at
    most ``t`` (0 when there are none), after the same checks."""
    if t < 0.0:
        raise ValidationError("modulus argument must be nonnegative")
    arr = _checked_pairs(pairs)
    return float(np.max(arr[arr[:, 0] <= t, 1], initial=0.0))


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


def _distances(vals: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    # |vals[i] - vals[j]| for each pair; np.take gathers the rows faster than
    # fancy indexing with the same bits, and row_norms keeps each norm's dot
    # kernel, so a pair's distance does not depend on the other pairs
    return row_norms(np.take(vals, i, axis=0) - np.take(vals, j, axis=0))


def _samples(vals) -> np.ndarray:
    # the samples as an (N, k) stack, refused below two
    if len(vals) < 2:
        raise ValidationError("need at least two samples, each with one output")
    return np.asarray(vals, dtype=float).reshape(len(vals), -1)


def _outputs(n: int, ys) -> np.ndarray:
    # one output row per sample, as an (n, m) stack
    if len(ys) != n:
        raise ValidationError("need at least two samples, each with one output")
    return np.asarray(ys, dtype=float).reshape(n, -1)


def pair_inputs(xs) -> PairInputs:
    """The ``PairInputs`` of the samples ``xs``."""
    xs = _samples(xs)
    i, j = np.triu_indices(len(xs), k=1)
    din = _distances(xs, i, j)
    order = np.argsort(din, kind="stable")
    i, j, din = np.take(i, order), np.take(j, order), np.take(din, order)
    for a in (i, j, din):
        a.setflags(write=False)
    return PairInputs(len(xs), i, j, din)


def sample_pairs(xs, ys) -> np.ndarray:
    """(input distance, output distance) rows for every pair i < j of the
    samples ``xs[i] -> ys[i]``, in the order (0, 1), (0, 2), ..., (1, 2), ...

    ``modulus_from_samples`` builds its estimate from these rows; a read of
    the modulus at one point goes through ``sampled_modulus_at``, which skips
    the (pairs, 2) array."""
    xs = _samples(xs)
    ys = _outputs(len(xs), ys)
    i, j = np.triu_indices(len(xs), k=1)
    return np.column_stack([_distances(xs, i, j), _distances(ys, i, j)])


# outputs within this bound, in fewer than 2^20 columns, have only finite
# pair distances: each square is at most 2^1002, and their sum below 2^1022
_Y_BOUND = 2.0 ** 500
_M_BOUND = 2 ** 20


def sampled_modulus_at(pairs: PairInputs, ys, t: float) -> float:
    """``empirical_modulus_at(sample_pairs(xs, ys), t)`` for
    ``pairs = pair_inputs(xs)``, bit for bit and with the same errors in the
    same order, read straight from the distance vectors: no (pairs, 2) copy.

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
    return empirical_modulus(sample_pairs(xs, oracle_rows(f, xs, None)))


_T_MAX = 1e18


def modulus_inverse(omega: Modulus, eps: float) -> float:
    """Generalized inverse sup{t : omega(t) <= eps}.

    Exact for tabulated estimates; bisection to 1e-12 relative accuracy for
    callables; +inf when omega never exceeds eps.
    """
    if eps < 0.0:
        raise ValidationError("eps must be nonnegative")
    if math.isinf(eps):
        return math.inf
    if isinstance(omega, AnalyticModulus) and omega.inverse is not None:
        return float(omega.inverse(eps))
    if isinstance(omega, ModulusEstimate):
        v = omega.values
        if v[-1] <= eps:
            return math.inf
        return float(omega.knots[int(np.searchsorted(v, eps, side="right"))])
    fn = omega
    if fn(1e-300) > eps:
        # the sublevel set collapses to {0}
        return 0.0
    lo, hi = 0.0, 1.0
    while fn(hi) <= eps:
        lo = hi
        hi *= 2.0
        if hi > _T_MAX:
            return math.inf
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if fn(mid) <= eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def smooth_modulus(omega: Modulus, t: float) -> float:
    """Averaged modulus (1/t') * integral_{t'}^{2t'} omega(s) ds at
    t' = t (1 + 1e-9), by the trapezoid rule on 64 panels.

    This is the literal defining average; note that for omega(t) = L t it
    evaluates to 1.5 L t, not L t.
    """
    if t < 0.0:
        raise ValidationError("argument must be nonnegative")
    if t == 0.0:
        return 0.0
    tt = t * (1.0 + 1e-9)
    ss = np.linspace(tt, 2.0 * tt, 65)
    ys = np.array([float(omega(s)) for s in ss])
    integral = float(np.trapezoid(ys, ss))
    return integral / tt


def smooth_modulus_inverse(omega: Modulus, eps: float) -> float:
    """Generalized inverse of the averaged modulus (bisection)."""
    return modulus_inverse(lambda t: smooth_modulus(omega, t), eps)

