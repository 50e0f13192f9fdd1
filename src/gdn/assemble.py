"""End-to-end GDN compilation: pull a manifold target back through the
basepoint charts, compile the resulting cube function into a shallow core,
and wrap it with the chart embeddings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .approx.modulus import Modulus, oracle_rows
from .approx.synthesis import compile_function_to_shallow, cube_points
from .errors import ValidationError
from .manifolds.core import exp_chart_lipschitz
from .manifolds.zoo import Chart, ManifoldSpec, as_point, chart_at, sup_norm
from .model import GDNModel, gdn_eval
from .network import ActivationInfo, AffineLayer, FeedforwardNet
from .sampling import ball_points, geodesic_ball_points

__all__ = ["CompiledGDN", "compile_gdn", "audit_gdn", "pullback"]


@dataclass(frozen=True)
class CompiledGDN:
    model: GDNModel
    degree: int
    audit_error: float
    apriori_bound: float


def pullback(chart_x: Chart, chart_y: Chart,
             target: Callable[[np.ndarray], np.ndarray],
             radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """The target pulled back to the unit cube: t in [0,1]^p maps to the
    intrinsic tangent coordinates, about the base of ``chart_y``, of the
    target at Exp_{base_x}(radius (2t - 1)).  Like ``target``, it maps one
    point or an (N, p) stack with one target call, each row bit for bit its
    value alone.  Each call checks only the target's output."""
    codomain = chart_y.spec
    E_dom, E_cod = chart_x.frame, chart_y.frame

    def pulled_back(t: np.ndarray) -> np.ndarray:
        u = radius * (2.0 * np.asarray(t, dtype=float) - 1.0)
        # matrix-vector products row by row: one matrix product rounds differently
        x = chart_x.exp((E_dom @ u[..., None])[..., 0])
        w = chart_y.log(as_point(codomain, target(x)))
        return (E_cod.T @ w[..., None])[..., 0]

    return pulled_back


def compile_gdn(domain: ManifoldSpec, codomain: ManifoldSpec,
                base_x, base_y,
                target: Callable[[np.ndarray], np.ndarray],
                radius: float, eps: float, sigma: ActivationInfo,
                omega: Optional[Modulus] = None,
                audit_count: int = 200) -> CompiledGDN:
    """Compile a manifold-to-manifold target into a GDN on the geodesic
    ball of ``radius`` about ``base_x``, mapped into the codomain about
    ``base_y``, a point or "auto".

    The target is pulled back to intrinsic tangent coordinates, rescaled to
    the unit cube, compiled to a shallow core with an error budget deflated
    by the closed-form, curvature-derived Lipschitz constant of the codomain
    exponential chart (``exp_chart_lipschitz``), and audited
    geodesically on a deterministic ball sample of ``audit_count`` points;
    ``audit_error``, the measured sup geodesic error that the theorem
    bounds, is the check of the compile.  ``target`` maps one point or an
    (N, point_dim) stack, like ``exp_map``.  Through the pullback it is
    called once on the stack of every fixed sample: 64 ball points (the
    reached tangent range) first, then the core's ``cube_points`` (the
    selection grid and, without ``omega``, every third cube audit point),
    whose rows ``compile_function_to_shallow`` takes; so a target that
    fails on any of them fails there, and an error that names a point names
    the first one of the stack.  It is called again on each Bernstein
    lattice tried that is not a subgrid of the selection grid, and once on
    the geodesic audit sample.  ``base_x``, eps and ``audit_count`` (which
    must be positive and keep the audit's arrays within ``_AUDIT_BUDGET``)
    are checked once, here, before any oracle call, and so are the radius
    (its cube corners, at tangent norm radius * sqrt(p), must lie within
    the domain's injectivity radius, and the cube rescale 1 / (2 radius)
    must be finite) and the activation (synthesis needs a smooth
    non-polynomial one).  Only then is ``base_y`` checked, and a ``base_y``
    of "auto" is the target's value at ``base_x``, one more call.  The
    charts the base points are bound to serve every later stage and the
    model.
    """
    chart_x = chart_at(domain, base_x)
    if not (0.0 < radius < domain.inj_lower):
        raise ValidationError(
            f"radius must satisfy 0 < radius < inj({domain.inj_lower!r}), got {radius!r}"
        )
    if not math.isfinite(0.5 / radius):
        raise ValidationError(
            f"radius {radius!r} is too small: the cube rescale 1 / (2 radius) "
            f"passes the float range")
    p, m = domain.dim, codomain.dim
    corner = radius * math.sqrt(p)
    if corner >= domain.inj_lower:
        raise ValidationError(
            f"radius * sqrt(p) must be below inj({domain.inj_lower!r}), since the "
            f"pullback reads the cube corners at that tangent norm; got {corner!r} "
            f"(radius {radius!r}, p = {p})")
    _check_audit_count(audit_count, domain, codomain)
    if not (0.0 < eps < math.inf):
        raise ValidationError(f"eps must be positive and finite, got {eps!r}")
    if sigma.cls != "smooth-nonpoly":
        raise ValidationError(
            f"shallow synthesis needs a smooth non-polynomial activation, got {sigma.cls}")
    if isinstance(base_y, str) and base_y == "auto":
        base_y = target(chart_x.x)
    chart_y = chart_at(codomain, base_y)
    pulled_back = pullback(chart_x, chart_y, target, radius)

    # geodesic error <= exp-chart expansion * core chart error; the
    # expansion is bounded on the tangent range the target actually reaches
    probe = 0.5 * (ball_points(64, p, radius) / radius + 1.0)
    # one oracle read of the probe and the core's fixed cube samples
    rows = oracle_rows(pulled_back,
                       np.concatenate([probe, cube_points(p, omega is None)]), m)
    reach = sup_norm(rows[:len(probe)])
    rad_cod = max(min(1.2 * reach + 1e-6, 0.95 * codomain.inj_lower), 1e-3)
    expansion = exp_chart_lipschitz(codomain, rad_cod)
    core_eps = eps / expansion

    result = compile_function_to_shallow(pulled_back, p, m, core_eps, sigma,
                                         omega=omega, rows=rows[len(probe):])

    # absorb cube rescale and chart embeddings into the first/last layers
    E_dom, E_cod = chart_x.frame, chart_y.frame
    W_pre = E_dom.T / (2.0 * radius)
    b_pre = np.full(p, 0.5)
    layers = list(result.net.layers)
    first = layers[0]
    layers[0] = AffineLayer(first.weights @ W_pre,
                            first.weights @ b_pre + first.bias)
    last = layers[-1]
    layers[-1] = AffineLayer(E_cod @ last.weights, E_cod @ last.bias)
    core = FeedforwardNet(tuple(layers), result.net.activation)
    model = GDNModel(chart_x, chart_y, core)

    audit_error = audit_gdn(model, target, radius, audit_count)
    return CompiledGDN(model, result.degree, audit_error,
                       expansion * result.apriori_bound)


# the most bytes the arrays of one geodesic audit may hold
_AUDIT_BUDGET = 2 ** 28


def _check_audit_count(count: int, domain: ManifoldSpec, codomain: ManifoldSpec) -> None:
    """Refuse an audit sample that is empty or whose arrays would pass
    ``_AUDIT_BUDGET``, before any is allocated.  Per point, the audit holds
    the Halton sample and its tangent (dim floats each), the frame image
    (chart_dim), the ball point (point_dim), the target's and the model's
    outputs (codomain point_dim each) and the distance."""
    if count < 1:
        raise ValidationError(f"the audit needs at least 1 point, got {count!r}")
    per_point = (2 * domain.dim + domain.chart_dim + domain.point_dim
                 + 2 * codomain.point_dim + 1)
    nbytes = 8 * per_point * count
    if nbytes > _AUDIT_BUDGET:
        raise ValidationError(
            f"an audit of {count} points would hold {nbytes} bytes of arrays, "
            f"past the budget of {_AUDIT_BUDGET} bytes")


def audit_gdn(model: GDNModel, target: Callable[[np.ndarray], np.ndarray],
              radius: float, count: int) -> float:
    """Measured sup geodesic error of a GDN against a target oracle over the
    deterministic ball sample of ``count`` points: the oracle, the model
    and the distance each run once on the (count, point_dim) stack."""
    codomain = model.codomain
    _check_audit_count(count, model.domain, codomain)
    points = geodesic_ball_points(model.chart_x, radius, count)
    want = as_point(codomain, oracle_rows(target, points, codomain.point_dim))
    return float(np.max(codomain.distance(want, gdn_eval(model, points))))
