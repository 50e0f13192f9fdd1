"""Manifold resolution, curvature-derived radii, and the universality-radius
calculus.  ``resolve_manifold`` parses an identifier into the zoo's
``ManifoldSpec`` of its family.

Extended reals are plain Python floats with ``math.inf`` as the maximal
element; no wrapper type is used.
"""
from __future__ import annotations

import math
import re
from typing import Callable

from ..errors import ParseError, ValidationError
from .zoo import FAMILIES, ManifoldSpec

__all__ = [
    "resolve_manifold",
    "k_star",
    "exp_chart_lipschitz",
    "log_chart_lipschitz",
    "universality_radius",
]

_ID_RE = re.compile(rf"^({'|'.join(FAMILIES)}):(\d+)(?::([0-9.eE+-]+))?$")

_VALID_FORMS = (
    "euclidean:p, sphere:p, poincare:p:c, spd:n, gaussian:n, torus:m, rp:m "
    "(positive integer parameters, c > 0)"
)


def resolve_manifold(identifier: str) -> ManifoldSpec:
    """Parse a manifold identifier into its spec.

    Raises
    ------
    ParseError
        Not a string, or unknown identifier shape or family.
    ValidationError
        Nonpositive dimension, or a curvature parameter that is not positive
        or whose square is not finite.
    """
    if not isinstance(identifier, str):
        raise ParseError(f"a manifold identifier must be a string, got {identifier!r}")
    m = _ID_RE.match(identifier.strip())
    if m is None:
        raise ParseError(
            f"unrecognized manifold identifier {identifier!r}; valid forms: {_VALID_FORMS}"
        )
    family, p_str, c_str = m.group(1), m.group(2), m.group(3)
    curved, make = FAMILIES[family]
    p = int(p_str)
    if p < 1:
        raise ValidationError(f"manifold parameter must be positive, got {p}")
    c, ident = None, f"{family}:{p}"
    if curved:
        if c_str is None:
            raise ParseError(f"{family} requires a curvature parameter: {family}:p:c")
        c = float(c_str)
        if not (c > 0.0 and math.isfinite(c)):
            raise ValidationError(f"{family} curvature must be finite and > 0, got {c}")
        if not math.isfinite(c * c):  # the Moebius sums square c
            raise ValidationError(
                f"{family} curvature must have a finite square, got {c}")
        ident = f"{ident}:{c!r}"  # repr round-trips the curvature exactly
    elif c_str is not None:
        raise ParseError(f"{family} takes a single integer parameter")
    spec = make(p, c)
    spec.id, spec.family = ident, family
    return spec


def k_star(K: float) -> float:
    """Map a curvature value to the radius cap pi/(4 sqrt(K)), +inf for K <= 0."""
    if not math.isfinite(K):
        raise ValidationError("k_star expects a finite curvature value")
    if K > 0.0:
        return math.pi / (4.0 * math.sqrt(K))
    return math.inf


def exp_chart_lipschitz(spec: ManifoldSpec, r: float) -> float:
    """Certified Lipschitz constant of the exponential chart on the tangent
    ball of radius r: sinh(s)/s with s = sqrt(k) r when sec >= -k, k > 0,
    and 1 when the curvature is nonnegative (Rauch comparison, do Carmo,
    *Riemannian Geometry*, ch. 10).  On positively curved members r must
    stay below the conjugate radius pi/sqrt(K)."""
    s = math.sqrt(max(-spec.curvature_min, 0.0)) * r
    return math.sinh(s) / s if s > 0.0 else 1.0


def log_chart_lipschitz(spec: ManifoldSpec, r: float) -> float:
    """Certified Lipschitz constant of the log chart on the geodesic ball of
    radius r, max |v1 - v2| / d(Exp v1, Exp v2) over tangents of norm <= r:
    s/sin(s) with s = sqrt(K) r when sec <= K, K > 0, and 1 when the
    curvature is nonpositive (Rauch, as in ``exp_chart_lipschitz``), or a
    quotient's ``wrap_ratio`` if larger.  Its reciprocal is the smallest
    exp-chart expansion on the ball."""
    if not (0.0 <= r < spec.inj_lower):
        raise ValidationError(
            f"r must satisfy 0 <= r < inj({spec.inj_lower!r}), got {r!r}")
    s = math.sqrt(max(spec.curvature_max, 0.0)) * r
    return max(s / math.sin(s) if s > 0.0 else 1.0, spec.wrap_ratio(r))


def universality_radius(inj_x: float, inj_fx: float,
                        modulus_inv: Callable[[float], float]) -> float:
    """min of the domain injectivity radius and the modulus-inverse of the
    codomain injectivity radius; +inf propagates through both branches."""
    if not (inj_x > 0.0 and inj_fx > 0.0):
        raise ValidationError("injectivity radii must be positive")
    return min(inj_x, modulus_inv(inj_fx))
