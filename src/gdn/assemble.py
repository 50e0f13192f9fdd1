"""End-to-end GDN compilation: pull a manifold target back through the
basepoint charts, compile the resulting cube function into a shallow core,
and wrap it with the chart embeddings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .approx.modulus import Modulus
from .approx.synthesis import CompileResult, compile_function_to_shallow
from .errors import ValidationError
from .manifolds.core import ManifoldSpec
from .manifolds.zoo import (
    check_point,
    distance,
    exp_map,
    log_map,
    random_tangent,
    tangent_basis,
)
from .model import GDNModel, gdn_eval
from .network import ActivationInfo, AffineLayer, FeedforwardNet
from .sampling import ball_points, geodesic_ball_points

__all__ = ["CompiledGDN", "compile_gdn", "audit_gdn", "pullback",
           "estimate_chart_lipschitz", "estimate_exp_lipschitz"]


@dataclass(frozen=True)
class CompiledGDN:
    model: GDNModel
    compile_result: CompileResult
    audit_error: float
    apriori_bound: float
    audit_count: int


def pullback(domain: ManifoldSpec, codomain: ManifoldSpec, base_x, base_y,
             target: Callable[[np.ndarray], np.ndarray],
             radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """The target pulled back to the unit cube: t in [0,1]^p maps to the
    intrinsic tangent coordinates, about ``base_y``, of the target at
    Exp_{base_x}(radius (2t - 1))."""
    E_dom = tangent_basis(domain, base_x)
    E_cod = tangent_basis(codomain, base_y)

    def pulled_back(t: np.ndarray) -> np.ndarray:
        u = radius * (2.0 * np.asarray(t, dtype=float) - 1.0)
        x = exp_map(domain, base_x, E_dom @ u)
        w = log_map(codomain, base_y, np.asarray(target(x), dtype=float))
        return E_cod.T @ w

    return pulled_back


def _sample_pairs(spec: ManifoldSpec, base, radius: float, pairs: int,
                  seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Tangent gaps |v1 - v2| and geodesic distances d(Exp v1, Exp v2) of
    ``pairs`` random tangent pairs in the ball of ``radius`` about ``base``.

    The tangents are drawn pair by pair, v1 then v2, so the draws do not
    depend on how the pairs are used; the charts run once on each stack.
    """
    base = check_point(spec, base)
    rng = np.random.default_rng(seed)
    draws = np.array([random_tangent(spec, base, rng, radius)
                      for _ in range(2 * pairs)]).reshape(2 * pairs, spec.chart_dim)
    v1, v2 = draws[0::2], draws[1::2]
    diff = v1 - v2
    gap = np.sqrt(np.vecdot(diff, diff))
    return gap, distance(spec, exp_map(spec, base, v1), exp_map(spec, base, v2))


def estimate_chart_lipschitz(spec: ManifoldSpec, base, radius: float,
                             pairs: int = 10_000,
                             seed: int = 0) -> Tuple[float, float]:
    """Sampled Lipschitz data of the basepoint charts on the working ball.

    Returns (kappa1, kappa2): kappa1 inflates the largest observed
    difference quotient of the log chart by 1.1, kappa2 deflates the
    smallest observed expansion of the exp chart by 1.1.  These are
    estimates, not certified constants.
    """
    gap, d = _sample_pairs(spec, base, radius, pairs, seed)
    ok = (gap >= 1e-9) & (d >= 1e-12)
    if not ok.any():
        raise ValidationError("could not sample enough separated pairs for kappa")
    gap, d = gap[ok], d[ok]
    return 1.1 * float((gap / d).max()), float((d / gap).min()) / 1.1


def estimate_exp_lipschitz(spec: ManifoldSpec, base, radius: float,
                           pairs: int = 2000, seed: int = 1) -> float:
    """Sampled Lipschitz constant of the exponential chart on the tangent
    ball (at least 1, inflated by 1.1); bounds geodesic error by core
    chart error."""
    gap, d = _sample_pairs(spec, base, radius, pairs, seed)
    ok = gap >= 1e-9
    return 1.1 * float((d[ok] / gap[ok]).max(initial=1.0))


def compile_gdn(domain: ManifoldSpec, codomain: ManifoldSpec,
                base_x, base_y,
                target: Callable[[np.ndarray], np.ndarray],
                radius: float, eps: float, sigma: ActivationInfo,
                omega: Optional[Modulus] = None,
                audit_count: int = 200,
                seed: int = 0, **compile_kwargs) -> CompiledGDN:
    """Compile a manifold-to-manifold target into a GDN on the geodesic
    ball of ``radius`` about ``base_x``.

    The target is pulled back to intrinsic tangent coordinates, rescaled to
    the unit cube, compiled to a shallow core with an error budget deflated
    by the sampled expansion of the codomain exponential, and audited
    geodesically on a deterministic ball sample; ``audit_error`` is the
    measured supremum.
    """
    base_x = check_point(domain, base_x)
    base_y = check_point(codomain, base_y)
    inj = domain.inj_lower(base_x)
    if not (0.0 < radius < inj):
        raise ValidationError(
            f"radius must satisfy 0 < radius < inj({inj!r}), got {radius!r}"
        )
    p, m = domain.dim, codomain.dim
    pulled_back = pullback(domain, codomain, base_x, base_y, target, radius)

    # geodesic error <= exp-chart expansion * core chart error; the
    # expansion is sampled on the tangent range the target actually reaches
    probe = ball_points(64, p, radius)
    reach = max(float(np.linalg.norm(pulled_back(0.5 * (t / radius + 1.0))))
                for t in probe)
    inj_cod = codomain.inj_lower(base_y)
    rad_cod = max(min(1.2 * reach + 1e-6, 0.95 * inj_cod), 1e-3)
    expansion = estimate_exp_lipschitz(codomain, base_y, rad_cod, seed=seed + 1)
    core_eps = eps / expansion

    result = compile_function_to_shallow(pulled_back, p, m, core_eps, sigma,
                                         omega=omega, **compile_kwargs)

    # absorb cube rescale and chart embeddings into the first/last layers
    E_dom = tangent_basis(domain, base_x)
    E_cod = tangent_basis(codomain, base_y)
    W_pre = E_dom.T / (2.0 * radius)
    b_pre = np.full(p, 0.5)
    layers = list(result.net.layers)
    first = layers[0]
    layers[0] = AffineLayer(first.weights @ W_pre,
                            first.weights @ b_pre + first.bias)
    last = layers[-1]
    layers[-1] = AffineLayer(E_cod @ last.weights, E_cod @ last.bias)
    core = FeedforwardNet(tuple(layers), result.net.activation)
    model = GDNModel(domain, codomain, base_x, base_y, core)

    audit_error = audit_gdn(model, target, radius, audit_count)
    return CompiledGDN(model, result, audit_error,
                       expansion * result.apriori_bound, audit_count)


def audit_gdn(model: GDNModel, target: Callable[[np.ndarray], np.ndarray],
              radius: float, count: int) -> float:
    """Measured sup geodesic error of a GDN against a target oracle over the
    deterministic ball sample: the oracle runs once per point, the model
    and the distance once on the stack."""
    points = np.array(geodesic_ball_points(model.domain, model.base_x, radius, count))
    want = np.array([np.asarray(target(x), dtype=float).ravel() for x in points])
    return float(np.max(distance(model.codomain, want, gdn_eval(model, points))))
