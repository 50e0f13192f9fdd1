"""Built-in target functions for the command-line experiments.

Each target is a closed-form map between zoo manifolds with a known
evaluation oracle, so compiled models can be audited against ground truth:

* ``rotation[:angle]`` - sphere-to-sphere rotation about the axis through
  the base point (default angle pi/4).
* ``mobius-shift[:t]`` - hyperbolic translation x -> a (+) x with
  a = t * e1 (default t = 0.3 / sqrt(c)).
* ``spd-congruence[:seed]`` - A -> X^T A X for a seeded random orthogonal X.
* ``poly:EXPR`` - Euclidean polynomial target, e.g. ``poly:x1*x2``.

Each ``Target.fn`` takes one point or an (N, point_dim) stack, row for row
bit-identical to one call per row, as the chart kernels do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .approx.polynomials import parse_poly_expr, poly_eval
from .errors import ParseError, ValidationError
from .manifolds.sym import frob_unvec, frob_vec
from .manifolds.zoo import ManifoldSpec, as_point, mobius_add

__all__ = ["Target", "resolve_target"]


@dataclass(frozen=True)
class Target:
    fn: Callable[[np.ndarray], np.ndarray]


def _rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix in R^3 about a unit axis."""
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _number(kind: str, arg: str, convert: Callable[[str], object]):
    try:
        return convert(arg)
    except ValueError as e:
        raise ParseError(f"bad {kind} target argument {arg!r}: {e}") from e


def resolve_target(name: str, domain: ManifoldSpec, base_x,
                   seed: int = 0) -> Target:
    """Build a target oracle acting on points of ``domain`` (or stacks)."""
    if not isinstance(name, str):
        raise ParseError(f"a target name must be a string, got {name!r}")
    kind, _, arg = name.partition(":")

    if kind == "rotation":
        if domain.family != "sphere" or domain.dim != 2:
            raise ValidationError("rotation target requires domain sphere:2")
        angle = _number(kind, arg, float) if arg else math.pi / 4.0
        base = as_point(domain, base_x)
        R = _rotation_about_axis(base, angle)
        # matrix-vector products row by row: one matrix product rounds differently
        return Target(lambda x: (R @ np.asarray(x, dtype=float)[..., None])[..., 0])

    if kind == "mobius-shift":
        if domain.family != "poincare":
            raise ValidationError("mobius-shift target requires a poincare domain")
        c = domain.param
        t = _number(kind, arg, float) if arg else 0.3 / math.sqrt(c)
        a = np.zeros(domain.point_dim)
        a[0] = t
        if c * float(a @ a) >= 1.0:
            raise ValidationError("mobius shift lies outside the ball")
        return Target(lambda x: mobius_add(a, np.asarray(x, dtype=float), c))

    if kind == "spd-congruence":
        if domain.family != "spd":
            raise ValidationError("spd-congruence target requires an spd domain")
        n = int(domain.param)
        rng = np.random.default_rng(_number(kind, arg, int) if arg else seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))

        def congruence(x: np.ndarray) -> np.ndarray:
            A = frob_unvec(np.asarray(x, dtype=float))
            return frob_vec(Q.T @ A @ Q)

        return Target(congruence)

    if kind == "poly":
        if domain.family != "euclidean":
            raise ValidationError("poly targets require a euclidean domain")
        if not arg:
            raise ParseError("poly target needs an expression, e.g. poly:x1*x2")
        exprs = arg.split(",")
        polys = [parse_poly_expr(e, domain.dim) for e in exprs]

        def evaluate(x: np.ndarray) -> np.ndarray:
            # a power past the float range gives inf (and inf - inf NaN),
            # refused here rather than as a non-finite codomain point
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.stack([poly_eval(c, x) for c in polys], axis=-1)
            if not np.isfinite(out).all():
                finite = np.isfinite(out).all(axis=-1).ravel()
                point = np.reshape(x, (-1, domain.point_dim))[np.argmin(finite)]
                raise ValidationError(f"target {name} overflows at {point.tolist()}")
            return out

        return Target(evaluate)

    raise ParseError(
        f"unknown target {name!r}; expected rotation, mobius-shift, "
        "spd-congruence, or poly:EXPR"
    )
