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


def _check_distances(din: np.ndarray, dout: np.ndarray) -> None:
    # refused unless every distance is finite and nonnegative and every pair
    # at zero input distance has zero output distance
    if np.any(din < 0.0) or np.any(dout < 0.0):
        raise ValidationError("distances must be nonnegative")
    if not (np.all(np.isfinite(din)) and np.all(np.isfinite(dout))):
        raise ValidationError("distances must be finite")
    if np.any(dout[din == 0.0] > 0.0):
        raise ValidationError(
            "pairs at zero input distance must have zero output distance"
        )


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
    """The input side of every pair i < j of ``n`` samples, in the order
    (0, 1), (0, 2), ..., (1, 2), ...: the pair index ``i``, ``j`` and the
    input distances ``din``, all read-only.  It depends on the inputs alone,
    so a fixed sample grid builds it once and reads it with any outputs."""

    n: int
    i: np.ndarray
    j: np.ndarray
    din: np.ndarray


def pair_inputs(xs) -> PairInputs:
    """The ``PairInputs`` of the samples ``xs``; np.take gathers the rows
    faster than fancy indexing with the same bits, and row_norms keeps each
    norm's dot kernel."""
    if len(xs) < 2:
        raise ValidationError("need at least two samples, each with one output")
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    i, j = np.triu_indices(len(xs), k=1)
    din = row_norms(np.take(xs, i, axis=0) - np.take(xs, j, axis=0))
    for a in (i, j, din):
        a.setflags(write=False)
    return PairInputs(len(xs), i, j, din)


def _output_distances(pairs: PairInputs, ys) -> np.ndarray:
    # the output distance of every pair, from one output row per sample
    if len(ys) != pairs.n:
        raise ValidationError("need at least two samples, each with one output")
    ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
    return row_norms(np.take(ys, pairs.i, axis=0) - np.take(ys, pairs.j, axis=0))


def sample_pairs(xs, ys) -> np.ndarray:
    """(input distance, output distance) rows for every pair i < j of the
    samples ``xs[i] -> ys[i]``, in the order (0, 1), (0, 2), ..., (1, 2), ...

    ``modulus_from_samples`` builds its estimate from these rows; a read of
    the modulus at one point goes through ``sampled_modulus_at``, which skips
    the (pairs, 2) array."""
    pairs = pair_inputs(xs)
    return np.column_stack([pairs.din, _output_distances(pairs, ys)])


def sampled_modulus_at(pairs: PairInputs, ys, t: float) -> float:
    """``empirical_modulus_at(sample_pairs(xs, ys), t)`` for
    ``pairs = pair_inputs(xs)``, bit for bit and with the same errors in the
    same order, read straight from the two distance vectors: no (pairs, 2)
    copy and no second pass over it."""
    dout = _output_distances(pairs, ys)
    if t < 0.0:
        raise ValidationError("modulus argument must be nonnegative")
    _check_distances(pairs.din, dout)
    # a boolean gather reads twice as fast as np.max(..., where=...)
    return float(np.max(dout[pairs.din <= t], initial=0.0))


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

