"""Dataset efficiency certification.

Given manifold data pulled back through the basepoint charts, the
certifier checks normalizability (chart image inside the unit cube),
constructs the interpolating polynomial witness in the one-dimensional
case, and verifies the Whitney-type compatibility conditions against
user-supplied candidate polynomials otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError, UnsupportedError, ValidationError
from ..manifolds.core import ManifoldSpec
from ..manifolds.zoo import as_point, chart_at
from .polynomials import poly_derivative, poly_eval, poly_total_degree

__all__ = ["EfficiencyCertificate", "certify_efficient"]

PolyDict = Dict[Tuple[int, ...], np.ndarray]


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
        return {
            "normalizable": self.normalizable,
            "certified": self.certified,
            "witness_base": self.witness_base,
            "n": self.n,
            "M": self.M,
            "C": self.C,
            "C_star": self.C_star,
            "interpolation_residual": self.interpolation_residual,
            "witness_box": self.witness_box,
            "notes": list(self.notes),
            "polynomial": self.polynomial,
        }


def _c_star(count: int, C: int) -> int:
    # ln(C*) = min(ln(#X), 2^C ln(C+1)); saturated at #X before exponentiating
    if C >= 60:
        return count
    threshold = (2.0 ** C) * math.log(C + 1.0)
    if math.log(max(count, 1)) <= threshold:
        return count
    return int(math.floor(math.exp(threshold)))


def _multi_indices(p: int, max_order: int):
    for beta in product(range(max_order + 1), repeat=p):
        if sum(beta) <= max_order:
            yield beta


def _derivative_table(poly: PolyDict, p: int, max_order: int):
    table: Dict[Tuple[int, ...], PolyDict] = {(0,) * p: poly}
    for beta in sorted(_multi_indices(p, max_order), key=sum):
        if beta in table:
            continue
        axis = next(i for i, b in enumerate(beta) if b > 0)
        parent = list(beta)
        parent[axis] -= 1
        table[beta] = poly_derivative(table[tuple(parent)], axis)
    return table


def _lagrange_1d(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Coefficient rows (ascending degree) of the interpolating polynomial
    through (xs, ys[:, j]) for each output component j."""
    N, m = ys.shape
    coeffs = np.zeros((N, m))
    for c in range(N):
        others = np.delete(xs, c)
        basis = np.poly(others) if others.size else np.array([1.0])  # descending
        denom = float(np.prod(xs[c] - others)) if others.size else 1.0
        coeffs += np.outer(basis[::-1] / denom, ys[c])[:N]
    return coeffs


def _stack(points: Sequence, spec: ManifoldSpec) -> np.ndarray:
    # the points as one (N, point_dim) stack
    rows = [np.asarray(pt, dtype=float).ravel() for pt in points]
    if any(r.size != spec.point_dim for r in rows):
        raise ValidationError(f"points of {spec.id} must have length {spec.point_dim}")
    return np.stack(rows)


def certify_efficient(dataset: Sequence, values: Sequence,
                      domain: ManifoldSpec, codomain: ManifoldSpec,
                      base_x, base_y,
                      candidates: Optional[Sequence[PolyDict]] = None,
                      n: Optional[int] = None) -> EfficiencyCertificate:
    """Certify a finite dataset as n-efficient for the sampled map.

    Without candidates (one-dimensional charts only) the certifier builds
    the Lagrange interpolant through the chart data, computes the shared
    derivative bound M, and emits n = #dataset - 1.  With candidates it
    verifies interpolation (to 1e-8), the shared derivative bound, and the
    pairwise compatibility inequalities with exponent n p - |beta|.
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

    count = len(dataset)

    if candidates is None:
        if p != 1:
            raise UnsupportedError(
                "the constructive interpolation path is one-dimensional only; "
                "supply candidate polynomials for p > 1"
            )
        n_eff = max(count - 1, 1)
        C = math.comb(p + n_eff * p, p)
        xs1 = X[:, 0]
        if np.unique(xs1).size != count:
            raise ValidationError("chart abscissae must be distinct for interpolation")
        coeff_rows = _lagrange_1d(xs1, Y)
        poly: PolyDict = {(d,): coeff_rows[d] for d in range(count)
                          if np.any(coeff_rows[d] != 0.0) or d == 0}
        resid = float(np.max(np.abs(poly_eval(poly, X) - Y)))
        max_order = p * count
        table = _derivative_table(poly, p, max_order)
        deriv_sum = 0.0
        deriv_max = 0.0
        for beta, dpoly in table.items():
            if sum(beta) == 0:
                continue
            biggest = float(np.max(np.abs(poly_eval(dpoly, X))))
            deriv_sum += biggest
            deriv_max = max(deriv_max, biggest)
        diam = float(np.max(xs1) - np.min(xs1))  # the largest |xs1[i] - xs1[j]|
        span = float(np.max(np.abs(xs1))) if count else 1.0
        zs = np.linspace(-span, span, 201)
        sup_val = float(np.max(np.abs(poly_eval(poly, zs[:, None]))))
        M = 2.0 * diam * sup_val + deriv_sum
        notes: List[str] = []
        if resid > 1e-10:
            notes.append(f"interpolation residual {resid:.3e} exceeds 1e-10")
        if deriv_max > M + 1e-12:
            notes.append("derivative bound M does not dominate the derivatives")
        return EfficiencyCertificate(
            normalizable=True, witness_base=base_list, n=n_eff,
            M=M, C=C, C_star=_c_star(count, C),
            interpolation_residual=resid, notes=notes,
            polynomial=coeff_rows.tolist(),
        )

    # -- candidate verification path ------------------------------------
    if n is None:
        raise ValidationError("candidate verification requires the efficiency order n")
    if len(candidates) != count:
        raise ValidationError("one candidate polynomial per dataset point is required")
    max_order = n * p
    C = math.comb(p + max_order, p)
    c_star = _c_star(count, C)
    notes = []

    for i, cand in enumerate(candidates):
        if poly_total_degree({k: 0.0 for k in cand}) > max_order:
            notes.append(f"candidate {i} exceeds degree {max_order}")
    resid = max(
        float(np.max(np.abs(np.asarray(poly_eval(candidates[c], X[c]), dtype=float)
                            - Y[c])))
        for c in range(count)
    )
    if resid > 1e-8:
        notes.append(f"interpolation residual {resid:.3e} exceeds 1.0e-08")

    tables = [_derivative_table(cand, p, max_order) for cand in candidates]
    M = 0.0
    for c in range(count):
        for beta, dpoly in tables[c].items():
            M = max(M, float(np.max(np.abs(np.asarray(
                poly_eval(dpoly, X[c]), dtype=float)))))

    def incompatible(c: int, j: int, beta: Tuple[int, ...]) -> bool:
        gap = float(np.linalg.norm(X[c] - X[j]))
        dc = np.asarray(poly_eval(tables[c][beta], X[c]), dtype=float)
        dj = np.asarray(poly_eval(tables[j][beta], X[c]), dtype=float)
        return float(np.max(np.abs(dc - dj))) > M * gap ** (max_order - sum(beta)) + 1e-12

    failed = next(((c, j, beta) for c in range(count) for j in range(count) if c != j
                   for beta in _multi_indices(p, max_order) if incompatible(c, j, beta)),
                  None)
    if failed is not None:
        c, j, beta = failed
        notes.append(f"compatibility failed for pair ({c},{j}) at |beta|={sum(beta)}")

    return EfficiencyCertificate(
        normalizable=True, witness_base=base_list,
        n=None if notes else n, M=M, C=C, C_star=c_star,
        interpolation_residual=resid, notes=notes,
    )
