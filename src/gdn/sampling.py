"""Deterministic low-discrepancy sampling of geodesic balls.

Audit grids are Halton points in the tangent ball pushed through the
exponential map; the mapping is closed-form for intrinsic dimension up to
three, which covers the desk-scale experiments.
"""
from __future__ import annotations

import math
from typing import List

import numpy as np

from .errors import UnsupportedError, ValidationError
from .manifolds.core import ManifoldSpec
from .manifolds.zoo import exp_map, tangent_basis

__all__ = ["halton", "ball_points", "geodesic_ball_points"]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _van_der_corput(i: int, base: int) -> float:
    x, denom = 0.0, 1.0
    while i:
        denom *= base
        i, rem = divmod(i, base)
        x += rem / denom
    return x


def halton(count: int, dim: int, skip: int = 1) -> np.ndarray:
    """First ``count`` Halton points in [0,1]^dim (bases 2,3,5,...)."""
    if dim > len(_PRIMES):
        raise ValidationError(f"halton supports up to {len(_PRIMES)} dimensions")
    return np.array([
        [_van_der_corput(i + skip, _PRIMES[d]) for d in range(dim)]
        for i in range(count)
    ])


def ball_points(count: int, dim: int, radius: float) -> np.ndarray:
    """Halton points mapped into the solid Euclidean ball of ``radius``."""
    u = halton(count, dim)
    r = radius * u[:, 0] ** (1.0 / dim)
    if dim == 1:
        signs = np.where(halton(count, 2)[:, 1] < 0.5, -1.0, 1.0)
        return (r * signs)[:, None]
    if dim == 2:
        ang = 2.0 * math.pi * u[:, 1]
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    if dim == 3:
        cos_t = 2.0 * u[:, 1] - 1.0
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t ** 2))
        phi = 2.0 * math.pi * u[:, 2]
        return np.stack([r * sin_t * np.cos(phi), r * sin_t * np.sin(phi),
                         r * cos_t], axis=1)
    raise UnsupportedError("deterministic ball sampling is wired for dim <= 3")


def geodesic_ball_points(spec: ManifoldSpec, base, radius: float,
                         count: int) -> List[np.ndarray]:
    """Deterministic samples of the closed geodesic ball about ``base``:
    tangent-ball Halton points pushed through the exponential map."""
    E = tangent_basis(spec, base)
    tangents = ball_points(count, spec.dim, radius)
    # one matrix-vector product per tangent, as E @ t: a single matrix
    # product over the whole stack rounds differently
    return list(exp_map(spec, base, (E @ tangents[:, :, None])[..., 0]))

