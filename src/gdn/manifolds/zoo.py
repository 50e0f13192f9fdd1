"""Closed-form exponential/logarithm maps and geodesic distances for the
manifold zoo: euclidean:p, sphere:p, poincare:p:c, spd:n, gaussian:n,
torus:m, rp:m.

Representation conventions
--------------------------
* Sphere and real-projective points are ambient unit (p+1)-vectors; their
  tangents are ambient vectors orthogonal to the base point.
* Poincare ball points live in the open ball c|x|^2 < 1; the exponential
  map is the Moebius-translation convention Exp_x(v) = x (+) Exp_0(v),
  which is the unique convention satisfying the radial isometry
  d(x, Exp_x(v)) = |v| against the closed-form ball distance.
* SPD points and tangents are Frobenius-isometric upper-triangle vectors
  (off-diagonals scaled by sqrt 2).  Tangent coordinates are metric-normal:
  the coordinate vector v represents the ambient tangent matrix
  sqrt(A) Sym(v) sqrt(A), so Exp_A(v) = sqrt(A) exp(Sym(v)) sqrt(A) and the
  affine-invariant distance |log(sqrt(A)^-1 B sqrt(A)^-1)|_F is symmetric
  while radial isometry holds in the plain Euclidean tangent norm.  At the
  identity basepoint this coincides with the ambient-coordinate convention.
* Gaussian points are mean/log-covariance chart vectors; the zoo geometry
  on them is the flat pullback through that chart (exp/log are chart
  translations), matching the global-chart network construction for
  Gaussian data.  The Wasserstein-2 distance is a separate operation.
* Torus points are lattice-quotient representatives; exp wraps mod 1.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import (
    DomainError,
    OutOfInjectivityError,
    UnsupportedError,
    ValidationError,
)
from .core import ManifoldSpec
from .sym import eigh, frob_unvec, frob_vec, spd_log, spectral, sym_exp

__all__ = [
    "exp_map",
    "log_map",
    "distance",
    "inj_lower",
    "check_point",
    "random_point",
    "random_tangent",
    "tangent_basis",
    "mobius_add",
]

_UNIT_TOL = 1e-9


# -- stacks ------------------------------------------------------------------
#
# exp_map, log_map and distance take a single point or a 2-D stack of rows.
# A single point is a stack without its leading axis: the same kernel runs
# the same operations on it, with every per-row quantity (a norm, a dot
# product) a scalar instead of an (N,) column.  That keeps one code path per
# family and a single point as cheap as scalar code, and each row of a
# stack rounds exactly as the same row given alone.

def _rows(x, length: int, what: str) -> np.ndarray:
    """``x`` as a float array: an (N, length) stack if 2-D, otherwise one
    point, flattened."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        a = a.ravel()
    if a.shape[-1] != length:
        got = a.shape[-1] if a.ndim == 2 else a.size
        raise ValidationError(f"{what} must have length {length}, got {got}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValidationError(f"{what} has non-finite entries")
    return a


def _col(s):
    # a per-row quantity as a column that broadcasts against the rows
    return s[..., None] if s.ndim else s


def _norms(a: np.ndarray):
    # row norms; the same dot kernel as np.linalg.norm on one vector
    return np.sqrt(np.vecdot(a, a))


def _any(mask) -> bool:
    # the cheapest reduction on the few entries of a single point
    return np.count_nonzero(mask) > 0


def _first(values, mask) -> float:
    # the first offending value, for an error message
    return float(np.extract(mask, values)[0])


def _scalar_map(fn, a):
    # numpy's tanh, arctanh and arcsin differ from math's in the last bit on
    # part of their inputs; the charts keep the scalar results, so that the
    # stacked kernels give the same bits as the per-point ones they replace
    if a.ndim == 0:
        return fn(float(a))
    return np.array(list(map(fn, a.tolist())), dtype=float)


def _stacked(x: np.ndarray, y: np.ndarray) -> bool:
    # a single row broadcasts against a stack; two stacks must agree
    if x.ndim == 2 and y.ndim == 2 and len(x) != len(y):
        raise ValidationError(f"stacks of {len(x)} and {len(y)} rows do not match")
    return x.ndim == 2 or y.ndim == 2


def check_point(spec: ManifoldSpec, x, deep: bool = True) -> np.ndarray:
    """Validate a point of ``spec``, or an (N, point_dim) stack of points,
    and return it as a float vector (or stack).

    ``deep=False`` skips the SPD eigenvalue check; internal callers that
    eigendecompose anyway use it to avoid duplicate work (positivity is
    still enforced by the decomposition itself).
    """
    x = _rows(x, spec.point_dim, f"point of {spec.id}")
    fam = spec.family
    if fam in ("sphere", "rp"):
        nrm = _norms(x)
        bad = abs(nrm - 1.0) > _UNIT_TOL
        if _any(bad):
            raise ValidationError(
                f"point of {spec.id} must be unit norm, got |x|={_first(nrm, bad)!r}")
    elif fam == "poincare":
        if _any(spec.param * np.vecdot(x, x) >= 1.0):
            raise ValidationError(f"point of {spec.id} must satisfy c|x|^2 < 1")
    elif fam == "spd" and deep:
        _spd_sqrt(x)  # raises if not SPD
    return x


# -- SPD helpers -------------------------------------------------------------

def _spd_sqrt(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    # Frobenius vectors -> the square roots (or inverse square roots) of the
    # matrices, from one (stacked) eigendecomposition
    w, V = eigh(frob_unvec(x))
    lowest = w[..., 0]
    bad = lowest <= 0.0
    if _any(bad):
        raise ValidationError(
            f"spd point is not positive definite: min eigenvalue {_first(lowest, bad):.6e}")
    s = np.sqrt(w)
    return spectral(V, 1.0 / s if inverse else s)


def _spd_log_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # normal-coordinate log: log(sqrt(A)^-1 B sqrt(A)^-1); its Frobenius
    # norm is the affine-invariant distance, making the chart radially
    # isometric in plain Euclidean tangent coordinates
    isA = _spd_sqrt(x, inverse=True)
    inner = isA @ frob_unvec(y) @ isA
    inner = 0.5 * (inner + inner.swapaxes(-1, -2))
    try:
        return spd_log(inner)
    except DomainError as e:
        raise ValidationError(f"target of spd log map is not SPD: {e}") from e


# -- Poincare helpers --------------------------------------------------------

def mobius_add(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Moebius addition on the curvature-c ball, row-wise on stacks."""
    xy = _col(np.vecdot(x, y))
    x2 = _col(np.vecdot(x, x))
    y2 = _col(np.vecdot(y, y))
    a = 1.0 + 2.0 * c * xy
    return ((a + c * y2) * x + (1.0 - c * x2) * y) / (a + c * c * x2 * y2)


def _poincare_exp0(v: np.ndarray, c: float) -> np.ndarray:
    sc = math.sqrt(c)
    nv = _norms(v)
    zero = nv == 0.0
    t = sc * (nv + zero)  # a zero row divides by sc, not by 0
    u = _col(_scalar_map(math.tanh, t / 2.0) / t) * v
    return np.where(_col(zero), 0.0, u) if _any(zero) else u


def _poincare_log0(y: np.ndarray, c: float) -> np.ndarray:
    sc = math.sqrt(c)
    ny = _norms(y)
    zero = ny == 0.0
    n = ny + zero  # a zero row divides by 1, not by 0
    s = (2.0 / sc) * _scalar_map(math.atanh, np.minimum(sc * n, 1.0 - 1e-16)) / n
    u = _col(s) * y
    return np.where(_col(zero), 0.0, u) if _any(zero) else u


# -- sphere helpers ----------------------------------------------------------

def _check_tangent_norms(nv, inj: float, what: str) -> None:
    far = nv >= inj
    if _any(far):
        raise OutOfInjectivityError(f"tangent norm {_first(nv, far)!r} is outside {what}")


def _sphere_exp(x: np.ndarray, v: np.ndarray, inj: float) -> np.ndarray:
    nv = _norms(v)
    if _any(abs(np.vecdot(x, v)) > _UNIT_TOL * np.maximum(1.0, nv)):
        raise ValidationError("sphere tangent must be orthogonal to the base point")
    _check_tangent_norms(nv, inj, f"the injectivity radius {inj!r}")
    zero = nv == 0.0
    n = _col(nv + zero)  # a zero row divides by 1, not by 0
    y = np.cos(n) * x + np.sin(n) * (v / n)
    y = y / _col(_norms(y))
    # a zero tangent gives the base point itself, unnormalized
    return np.where(_col(zero), x, y) if _any(zero) else y


def _sphere_distance(x: np.ndarray, y: np.ndarray):
    # chordal form: accurate at both ends of [0, pi], exactly 0 for x == y
    c1 = 0.5 * _norms(x - y)
    c2 = 0.5 * _norms(x + y)
    half = 2.0 * _scalar_map(math.asin, np.minimum(np.minimum(c1, c2), 1.0))
    return np.where(c1 <= c2, half, math.pi - half)


def _sphere_log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    dot = np.clip(np.vecdot(x, y), -1.0, 1.0)
    if _any(dot <= -1.0 + 1e-12):
        raise OutOfInjectivityError("antipodal pair: sphere log map undefined")
    w = y - _col(dot) * x
    nw = _norms(w)
    small = nw < 1e-15
    n = _col(nw + small)  # a vanishing row divides by about 1, not by 0
    u = _col(_sphere_distance(x, y)) * (w / n)
    # a vanishing normal component gives the zero tangent
    return np.where(_col(small), 0.0, u) if _any(small) else u


def _rp_canonical(z: np.ndarray) -> np.ndarray:
    # the representative whose first non-negligible entry is positive,
    # row-wise on stacks
    nz = np.abs(z) > 1e-14
    lead = np.take_along_axis(z, nz.argmax(axis=-1)[..., None], axis=-1)
    return np.where(nz.any(axis=-1)[..., None] & (lead < 0.0), -z, z)


# -- torus helpers -----------------------------------------------------------

def _torus_wrap(d: np.ndarray) -> np.ndarray:
    # shortest lattice representative of a displacement, in [-0.5, 0.5]
    return d - np.round(d)


def _torus_distance(y1: np.ndarray, y2: np.ndarray):
    d = np.abs(y1 - y2)
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


def torus_closed_distance(y1: np.ndarray, y2: np.ndarray) -> float:
    return float(_torus_distance(y1, y2))


# -- public dispatch ---------------------------------------------------------

def inj_lower(spec: ManifoldSpec, x) -> float:
    """Lower bound on the injectivity radius at ``x`` (a constant per zoo
    member: +inf on the Cartan-Hadamard side, pi on spheres, pi/2 on real
    projective space, 1/2 on the flat torus)."""
    check_point(spec, x)
    return spec.inj_lower


def exp_map(spec: ManifoldSpec, x, v) -> np.ndarray:
    """Riemannian exponential at ``x`` applied to tangent coordinates ``v``.

    Either argument may be a 2-D stack of rows: an (N, chart_dim) stack of
    tangents at one base point, N base points with one tangent each, or N
    pairs.  A stack gives an (N, point_dim) result, each row bit for bit
    the result of that row alone.
    """
    x = check_point(spec, x, deep=False)
    v = _rows(v, spec.chart_dim, f"tangent of {spec.id}")
    _stacked(x, v)  # rejects two stacks of different lengths
    fam = spec.family
    if fam in ("euclidean", "gaussian"):
        return x + v
    if fam == "torus":
        return np.mod(x + v, 1.0)
    if fam == "sphere":
        return _sphere_exp(x, v, math.pi)
    if fam == "rp":
        _check_tangent_norms(_norms(v), math.pi / 2.0,
                             "the projective injectivity radius pi/2")
        return _rp_canonical(_sphere_exp(x, v, math.pi))
    if fam == "poincare":
        return mobius_add(x, _poincare_exp0(v, spec.param), spec.param)
    if fam == "spd":
        sA = _spd_sqrt(x)
        M = sA @ sym_exp(frob_unvec(v)) @ sA
        return frob_vec(0.5 * (M + M.swapaxes(-1, -2)))
    raise UnsupportedError(f"exp_map not implemented for {spec.id}")


def log_map(spec: ManifoldSpec, x, y) -> np.ndarray:
    """Inverse exponential: tangent coordinates of ``y`` about ``x``.

    Either argument may be a 2-D stack of points, as in ``exp_map``; a
    stack gives an (N, chart_dim) result, each row bit for bit the result
    of that row alone.
    """
    x = check_point(spec, x, deep=False)
    y = check_point(spec, y, deep=False)
    _stacked(x, y)  # rejects two stacks of different lengths
    fam = spec.family
    if fam in ("euclidean", "gaussian"):
        return y - x
    if fam == "torus":
        return _torus_wrap(y - x)
    if fam == "sphere":
        return _sphere_log(x, y)
    if fam == "rp":
        yy = np.where(_col(np.vecdot(x, y) >= 0.0), y, -y)
        if _any(abs(np.vecdot(x, yy)) <= 1e-12):
            raise OutOfInjectivityError("projective cut locus: log map undefined")
        return _sphere_log(x, yy)
    if fam == "poincare":
        return _poincare_log0(mobius_add(-x, y, spec.param), spec.param)
    if fam == "spd":
        return frob_vec(_spd_log_matrix(x, y))
    raise UnsupportedError(f"log_map not implemented for {spec.id}")


def distance(spec: ManifoldSpec, x, y):
    """Geodesic distance between two points of ``spec``.

    Either argument may be a 2-D stack of points, as in ``exp_map``; a
    stack gives an (N,) array, two points give a float.
    """
    x = check_point(spec, x, deep=False)
    y = check_point(spec, y, deep=False)
    stacked = _stacked(x, y)
    fam = spec.family
    if fam in ("euclidean", "gaussian"):
        d = _norms(y - x)
    elif fam == "torus":
        d = _torus_distance(np.mod(x, 1.0), np.mod(y, 1.0))
    elif fam == "sphere":
        d = _sphere_distance(x, y)
    elif fam == "rp":
        # arccos|x.y| realized on the sign-aligned representative, which
        # keeps the chordal form's accuracy near coincident classes
        d = _sphere_distance(x, np.where(_col(np.vecdot(x, y) >= 0.0), y, -y))
    elif fam == "poincare":
        c = spec.param
        sc = math.sqrt(c)
        n = _norms(mobius_add(-x, y, c))
        d = (2.0 / sc) * _scalar_map(math.atanh, np.minimum(sc * n, 1.0 - 1e-16))
    elif fam == "spd":
        L = _spd_log_matrix(x, y)
        d = _norms(L.reshape(L.shape[:-2] + (-1,)))
    else:
        raise UnsupportedError(f"distance not implemented for {spec.id}")
    return d if stacked else float(d)


def tangent_basis(spec: ManifoldSpec, x) -> np.ndarray:
    """Orthonormal basis of the tangent space at ``x`` as a
    (chart_dim, dim) matrix; identity when chart and intrinsic dimensions
    coincide."""
    x = check_point(spec, x)
    if spec.chart_dim == spec.dim:
        return np.eye(spec.dim)
    # ambient representation (sphere / rp): complete x to an orthonormal frame
    basis = []
    for i in range(spec.point_dim):
        e = np.zeros(spec.point_dim)
        e[i] = 1.0
        w = e - (e @ x) * x
        for b in basis:
            w = w - (w @ b) * b
        nw = float(np.linalg.norm(w))
        if nw > 1e-8:
            basis.append(w / nw)
        if len(basis) == spec.dim:
            break
    return np.stack(basis, axis=1)


def random_point(spec: ManifoldSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a generic point of ``spec`` (for tests and audits)."""
    fam = spec.family
    if fam in ("euclidean", "gaussian"):
        return rng.standard_normal(spec.point_dim)
    if fam == "torus":
        return rng.random(spec.point_dim)
    if fam in ("sphere", "rp"):
        z = rng.standard_normal(spec.point_dim)
        z /= np.linalg.norm(z)
        return _rp_canonical(z) if fam == "rp" else z
    if fam == "poincare":
        z = rng.standard_normal(spec.point_dim)
        z /= np.linalg.norm(z)
        r = 0.9 * rng.random() ** (1.0 / spec.dim) / math.sqrt(spec.param)
        return r * z
    if fam == "spd":
        n = int(spec.param)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(0.4, 2.5, size=n)
        A = (Q * w) @ Q.T
        return frob_vec(0.5 * (A + A.T))
    raise UnsupportedError(f"random_point not implemented for {spec.id}")


def random_tangent(spec: ManifoldSpec, x, rng: np.random.Generator,
                   radius: float | None = None) -> np.ndarray:
    """Draw a tangent vector at ``x`` with norm below ``radius``
    (default 0.9 of the injectivity radius, capped at 2)."""
    x = check_point(spec, x, deep=False)
    if radius is None:
        radius = min(0.9 * spec.inj_lower, 2.0)
    v = rng.standard_normal(spec.chart_dim)
    if spec.family in ("sphere", "rp"):
        v = v - (v @ x) * x
    nv = float(np.linalg.norm(v))
    scale = radius * rng.random() ** (1.0 / spec.dim)
    return (scale / nv) * v
