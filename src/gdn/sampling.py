"""Deterministic low-discrepancy sampling of geodesic balls.

Audit grids are Halton points in the tangent ball pushed through the
exponential map; the mapping is closed-form for intrinsic dimension up to
three, which covers the desk-scale experiments.  ``halton`` builds each
coordinate for all indices at once, with the bits of the scalar radical
inverse, and the exponential map runs once on the whole stack of tangents.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UnsupportedError, ValidationError
from .manifolds.zoo import Chart

__all__ = ["halton", "ball_points", "geodesic_ball_points"]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def halton(count: int, dim: int) -> np.ndarray:
    """First ``count`` Halton points in [0,1]^dim (bases 2,3,5,...), from
    index 1: the all-zero point at index 0 is skipped.

    Each base's radical inverse runs on the whole index array at once,
    digit by digit, in the order of the scalar recurrence
    ``denom *= base; i, rem = divmod(i, base); x += rem / denom``, so each
    coordinate has that recurrence's bits; an index out of digits adds 0.
    """
    if dim > len(_PRIMES):
        raise ValidationError(f"halton supports up to {len(_PRIMES)} dimensions")
    out = np.zeros((count, dim))
    for d, base in enumerate(_PRIMES[:dim]):
        x = out[:, d]  # a view: the sums land in out
        i, denom = np.arange(1, count + 1), 1.0
        while np.any(i):
            denom *= base
            i, rem = np.divmod(i, base)
            x += rem / denom
    return out


@lru_cache(maxsize=8)
def _memo_halton(count: int, dim: int) -> np.ndarray:
    # a compile samples the same few (count, dim) shapes (its probe and its
    # audit), so each is built once and kept read-only
    u = halton(count, dim)
    u.setflags(write=False)
    return u


def ball_points(count: int, dim: int, radius: float) -> np.ndarray:
    """Halton points mapped into the solid Euclidean ball of ``radius``;
    the Halton sample of each (count, dim) is built once per process.
    Dimensions above 3 are refused before any sample is built."""
    if dim > 3:
        raise UnsupportedError("deterministic ball sampling is wired for dim <= 3")
    u = _memo_halton(count, dim)
    r = radius * u[:, 0] ** (1.0 / dim)
    if dim == 1:
        signs = np.where(_memo_halton(count, 2)[:, 1] < 0.5, -1.0, 1.0)
        return (r * signs)[:, None]
    if dim == 2:
        ang = 2.0 * math.pi * u[:, 1]
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    cos_t = 2.0 * u[:, 1] - 1.0
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t ** 2))
    phi = 2.0 * math.pi * u[:, 2]
    return np.stack([r * sin_t * np.cos(phi), r * sin_t * np.sin(phi), r * cos_t], axis=1)


def geodesic_ball_points(chart: Chart, radius: float, count: int) -> np.ndarray:
    """Deterministic samples of the closed geodesic ball about the base
    point of ``chart``, as a (count, point_dim) stack: tangent-ball Halton
    points pushed through the exponential map."""
    tangents = ball_points(count, chart.spec.dim, radius)
    # one matrix-vector product per tangent, as E @ t: a single matrix
    # product over the whole stack rounds differently
    return chart.exp((chart.frame @ tangents[:, :, None])[..., 0])

