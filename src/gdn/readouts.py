"""Readout maps with known right-inverses: the softmax simplex chart, gauge
(Minkowski functional) charts onto convex bodies, and the metric projection
onto the probability simplex.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "softmax_chart",
    "gauge_chart",
    "project_convex",
    "Simplex",
]


def _vec(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise ValidationError("input has non-finite entries")
    return v


# -- softmax -----------------------------------------------------------------

def softmax_chart(direction: str, v) -> np.ndarray:
    """Softmax chart of the open simplex.

    forward: R^{C-1} -> int(simplex_C), v -> softmax(v_1, ..., v_{C-1}, 1).
    inverse: y -> (ln y_c - ln y_C + 1)_{c<C}; exact right inverse of the
    forward map on the open simplex.
    """
    v = _vec(v)
    if direction == "forward":
        z = np.concatenate([v, [1.0]])
        z = z - np.max(z)
        e = np.exp(z)
        return e / e.sum()
    if direction == "inverse":
        if v.size < 2:
            raise ValidationError("simplex point needs at least 2 coordinates")
        if abs(float(v.sum()) - 1.0) > 1e-12:
            raise ValidationError("simplex point must sum to 1")
        if np.any(v <= 0.0):
            raise DomainError("softmax inverse is undefined on the simplex boundary")
        logs = np.log(v)
        return logs[:-1] - logs[-1] + 1.0
    raise ValidationError(f"direction must be 'forward' or 'inverse', got {direction!r}")


# -- gauge -------------------------------------------------------------------

def gauge_chart(mu: Callable[[np.ndarray], float], direction: str, v) -> np.ndarray:
    """Gauge chart of a convex body containing 0.

    forward: y -> y / (1 + mu(y)) maps onto the interior (mu < 1);
    inverse: z -> z / (1 - mu(z)), defined for mu(z) < 1.
    """
    v = _vec(v)
    g = float(mu(v))
    if g < 0.0 or not math.isfinite(g):
        raise ValidationError(f"gauge value must be finite and nonnegative, got {g!r}")
    if direction == "forward":
        return v / (1.0 + g)
    if direction == "inverse":
        if g >= 1.0:
            raise DomainError(f"gauge inverse needs mu(v) < 1, got {g!r}")
        return v / (1.0 - g)
    raise ValidationError(f"direction must be 'forward' or 'inverse', got {direction!r}")


# -- metric projection -------------------------------------------------------

@dataclass(frozen=True)
class Simplex:
    C: int

    def __post_init__(self):
        if self.C < 1:
            raise ValidationError("simplex needs C >= 1")


def _project_simplex(y: np.ndarray, C: int) -> np.ndarray:
    # sort-and-threshold Euclidean projection onto the probability simplex
    if y.size != C:
        raise ValidationError(f"expected a length-{C} vector, got {y.size}")
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, C + 1)
    cond = u - (css - 1.0) / ks > 0.0
    rho = int(np.nonzero(cond)[0][-1]) + 1
    tau = (css[rho - 1] - 1.0) / rho
    return np.maximum(y - tau, 0.0)


def project_convex(shape: Simplex, y) -> np.ndarray:
    """Euclidean metric projection onto the probability simplex."""
    y = _vec(y)
    if isinstance(shape, Simplex):
        return _project_simplex(y, shape.C)
    raise ValidationError(f"unsupported shape {shape!r}")
