"""Dataset efficiency certification.

Given manifold data pulled back through the basepoint charts, the
certifier checks normalizability (chart image inside the unit cube) and,
on one-dimensional charts, builds the interpolating polynomial witness by
one Vandermonde solve.  One polynomial shared by every point satisfies
the pairwise compatibility conditions trivially, so the certificate
checks the interpolation residual and the shared derivative bound M.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError, NumericError, UnsupportedError, ValidationError
from ..manifolds.zoo import ManifoldSpec, as_point, chart_at
from .polynomials import poly_derivative, poly_eval

__all__ = ["EfficiencyCertificate", "certify_efficient"]


@dataclass(frozen=True)
class EfficiencyCertificate:
    """Outcome of the dataset-efficiency check.

    ``normalizable`` reports whether the chart image sits inside the unit
    cube (with the witness bounding box when it does not); ``n`` and ``M``
    are the certified efficiency order and shared derivative bound when all
    conditions pass; ``notes`` lists the violated conditions otherwise.
    """

    normalizable: bool
    witness_base: List[float]
    n: Optional[int] = None
    M: Optional[float] = None
    C: Optional[int] = None
    C_star: Optional[int] = None
    interpolation_residual: Optional[float] = None
    witness_box: Optional[List[Tuple[float, float]]] = None
    notes: List[str] = field(default_factory=list)
    polynomial: Optional[List[List[float]]] = None

    @property
    def certified(self) -> bool:
        return self.normalizable and self.n is not None and not self.notes

    def to_dict(self) -> dict:
        return {**asdict(self), "certified": self.certified}


def _stack(points: Sequence, spec: ManifoldSpec) -> np.ndarray:
    # the points as one (N, point_dim) stack
    rows = [np.asarray(pt, dtype=float).ravel() for pt in points]
    if any(r.size != spec.point_dim for r in rows):
        raise ValidationError(f"points of {spec.id} must have length {spec.point_dim}")
    return np.stack(rows)


def certify_efficient(dataset: Sequence, values: Sequence,
                      domain: ManifoldSpec, codomain: ManifoldSpec,
                      base_x, base_y) -> EfficiencyCertificate:
    """Certify a finite dataset as n-efficient for the sampled map.

    The certifier pulls the data back through the basepoint charts and
    checks normalizability.  On a one-dimensional chart it solves the
    Vandermonde system for the monomial coefficients of the polynomial
    through the chart data, computes the shared derivative bound M from
    that one polynomial, and emits n = #dataset - 1; a residual above 1e-10
    or an M that is not finite leaves the certificate uncertified.  Higher
    dimensions are not implemented.
    """
    if len(dataset) == 0 or len(dataset) != len(values):
        raise ValidationError("dataset and values must be non-empty and aligned")
    p = domain.dim
    # each base is checked once, as it is bound to its chart
    chart_x, chart_y = chart_at(domain, base_x), chart_at(codomain, base_y)

    xs, ys = _stack(dataset, domain), _stack(values, codomain)
    dx = chart_x.distance(as_point(domain, xs))
    dy = chart_y.distance(as_point(codomain, ys))
    far_x = dx >= domain.inj_lower
    far_y = dy >= codomain.inj_lower
    if far_x.any() or far_y.any():
        # the first failing index; there the dataset point goes first
        i = int(np.argmax(far_x | far_y))
        if far_x[i]:
            raise DomainError(
                f"dataset point {i} at distance {float(dx[i])!r} is outside the "
                "basepoint's injectivity ball"
            )
        raise DomainError(
            f"value {i} at distance {float(dy[i])!r} is outside the codomain "
            "basepoint's injectivity ball"
        )
    # intrinsic tangent coordinates (identity for flat charts; orthonormal
    # frames for ambient representations like the sphere), with one
    # matrix-vector product per row, which rounds like E.T @ v on a single
    # point
    X = (chart_x.frame.T @ chart_x.log(xs)[..., None])[..., 0]
    Y = (chart_y.frame.T @ chart_y.log(ys)[..., None])[..., 0]
    base_list = chart_x.x.tolist()

    lo = np.minimum(X.min(axis=0), 0.0)
    hi = np.maximum(X.max(axis=0), 0.0)
    if np.any(X < -1e-12) or np.any(X > 1.0 + 1e-12):
        return EfficiencyCertificate(
            normalizable=False, witness_base=base_list,
            witness_box=[(float(a), float(b)) for a, b in zip(lo, hi)],
            notes=["chart image outside the unit cube"],
        )
    if p != 1:
        raise UnsupportedError(
            f"certification is implemented on one-dimensional charts only, not p = {p}"
        )

    count = len(dataset)
    n_eff = max(count - 1, 1)
    C = n_eff + 1  # C(p + n p, p) at p = 1
    xs1 = X[:, 0]
    if np.unique(xs1).size != count:
        raise ValidationError("chart abscissae must be distinct for interpolation")
    try:
        # LU with partial pivoting is backward stable (Higham 2002, ch. 22):
        # the coefficients solve a nearby system, so the residual is that of
        # rounding the terms c_d x^d
        coeff_rows = np.linalg.solve(np.vander(xs1, count, increasing=True), Y)
    except np.linalg.LinAlgError as e:
        raise NumericError(
            f"the Vandermonde matrix of the {count} chart abscissae is singular"
        ) from e
    poly = {(d,): coeff_rows[d] for d in range(count)
            if np.any(coeff_rows[d] != 0.0) or d == 0}
    # coefficients past the float range leave inf or NaN, which the gates
    # below refuse
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.max(np.abs(poly_eval(poly, X) - Y)))
        deriv_sum = 0.0
        dpoly = poly
        for _order in range(count):
            dpoly = poly_derivative(dpoly, 0)
            deriv_sum += float(np.max(np.abs(poly_eval(dpoly, X))))
        diam = float(np.max(xs1) - np.min(xs1))  # the largest |xs1[i] - xs1[j]|
        span = float(np.max(np.abs(xs1)))
        zs = np.linspace(-span, span, 201)
        sup_val = float(np.max(np.abs(poly_eval(poly, zs[:, None]))))
        M = 2.0 * diam * sup_val + deriv_sum
    notes: List[str] = []
    if not resid <= 1e-10:
        notes.append(f"interpolation residual {resid:.3e} exceeds 1e-10")
    # every summand of M is >= 0, so a finite M bounds each derivative
    if not math.isfinite(M):
        notes.append(f"derivative bound M is {M}")
    # ln C* = min(ln #X, 2^C ln(C+1)), and C >= #X here, so C* = #X
    return EfficiencyCertificate(
        normalizable=True, witness_base=base_list, n=n_eff,
        M=M, C=C, C_star=count,
        interpolation_residual=resid, notes=notes,
        polynomial=coeff_rows.tolist(),
    )
