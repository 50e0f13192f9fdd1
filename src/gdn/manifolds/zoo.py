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
from .sym import frob_unvec, frob_vec, jacobi_eigh, spd_log, sym_exp

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


def _as_vec(x, length: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != length:
        raise ValidationError(f"{what} must have length {length}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{what} has non-finite entries")
    return x


def check_point(spec: ManifoldSpec, x, deep: bool = True) -> np.ndarray:
    """Validate a point of ``spec`` and return it as a float vector.

    ``deep=False`` skips the SPD eigenvalue check; internal callers that
    eigendecompose anyway use it to avoid duplicate work (positivity is
    still enforced by the decomposition itself).
    """
    x = _as_vec(x, spec.point_dim, f"point of {spec.id}")
    fam = spec.family
    if fam in ("sphere", "rp"):
        nrm = float(np.linalg.norm(x))
        if abs(nrm - 1.0) > _UNIT_TOL:
            raise ValidationError(f"point of {spec.id} must be unit norm, got |x|={nrm!r}")
    elif fam == "poincare":
        c = spec.param
        if c * float(x @ x) >= 1.0:
            raise ValidationError(f"point of {spec.id} must satisfy c|x|^2 < 1")
    elif fam == "spd" and deep:
        _spd_decompose(x)  # raises if not SPD
    return x


# -- SPD helpers -------------------------------------------------------------

def _spd_decompose(x: np.ndarray):
    A = frob_unvec(x)
    w, V = jacobi_eigh(A)
    if w[0] <= 0.0:
        raise ValidationError(f"spd point is not positive definite: min eigenvalue {w[0]:.6e}")
    sqrtA = (V * np.sqrt(w)) @ V.T
    isqrtA = (V / np.sqrt(w)) @ V.T
    return A, 0.5 * (sqrtA + sqrtA.T), 0.5 * (isqrtA + isqrtA.T)


def _spd_log_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # normal-coordinate log: log(sqrt(A)^-1 B sqrt(A)^-1); its Frobenius
    # norm is the affine-invariant distance, making the chart radially
    # isometric in plain Euclidean tangent coordinates
    _, _, isA = _spd_decompose(x)
    B = frob_unvec(y)
    inner = isA @ B @ isA
    inner = 0.5 * (inner + inner.T)
    try:
        L = spd_log(inner)
    except DomainError as e:
        raise ValidationError(f"target of spd log map is not SPD: {e}") from e
    return L


# -- Poincare helpers --------------------------------------------------------

def mobius_add(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Moebius addition on the curvature-c ball."""
    xy = float(x @ y)
    x2 = float(x @ x)
    y2 = float(y @ y)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    den = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    return num / den


def _poincare_exp0(v: np.ndarray, c: float) -> np.ndarray:
    sc = math.sqrt(c)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return np.zeros_like(v)
    return math.tanh(sc * nv / 2.0) / (sc * nv) * v


def _poincare_log0(y: np.ndarray, c: float) -> np.ndarray:
    sc = math.sqrt(c)
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        return np.zeros_like(y)
    return (2.0 / sc) * math.atanh(min(sc * ny, 1.0 - 1e-16)) / ny * y


# -- sphere helpers ----------------------------------------------------------

def _sphere_exp(x: np.ndarray, v: np.ndarray, inj: float) -> np.ndarray:
    nv = float(np.linalg.norm(v))
    if abs(float(x @ v)) > _UNIT_TOL * max(1.0, nv):
        raise ValidationError("sphere tangent must be orthogonal to the base point")
    if nv >= inj:
        raise OutOfInjectivityError(
            f"tangent norm {nv!r} is outside the injectivity radius {inj!r}"
        )
    if nv == 0.0:
        return x.copy()
    y = math.cos(nv) * x + math.sin(nv) * (v / nv)
    return y / float(np.linalg.norm(y))


def _sphere_distance(x: np.ndarray, y: np.ndarray) -> float:
    # chordal form: accurate at both ends of [0, pi], exactly 0 for x == y
    c1 = 0.5 * float(np.linalg.norm(x - y))
    c2 = 0.5 * float(np.linalg.norm(x + y))
    if c1 <= c2:
        return 2.0 * math.asin(min(c1, 1.0))
    return math.pi - 2.0 * math.asin(min(c2, 1.0))


def _sphere_log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    dot = float(np.clip(x @ y, -1.0, 1.0))
    if dot <= -1.0 + 1e-12:
        raise OutOfInjectivityError("antipodal pair: sphere log map undefined")
    w = y - dot * x
    nw = float(np.linalg.norm(w))
    if nw < 1e-15:
        return np.zeros_like(x)
    return _sphere_distance(x, y) * (w / nw)


def _rp_canonical(z: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(z) > 1e-14)[0]
    if nz.size and z[nz[0]] < 0.0:
        return -z
    return z.copy()


# -- torus helpers -----------------------------------------------------------

def _torus_wrap(d: np.ndarray) -> np.ndarray:
    # shortest lattice representative of a displacement, in [-0.5, 0.5]
    return d - np.round(d)


def torus_closed_distance(y1: np.ndarray, y2: np.ndarray) -> float:
    d = np.abs(y1 - y2)
    d = np.minimum(d, 1.0 - d)
    return float(np.sqrt(np.sum(d * d)))


# -- public dispatch ---------------------------------------------------------

def inj_lower(spec: ManifoldSpec, x) -> float:
    """Lower bound on the injectivity radius at ``x`` (a constant per zoo
    member: +inf on the Cartan-Hadamard side, pi on spheres, pi/2 on real
    projective space, 1/2 on the flat torus)."""
    check_point(spec, x)
    return spec.inj_lower(np.asarray(x, dtype=float))


def exp_map(spec: ManifoldSpec, x, v) -> np.ndarray:
    """Riemannian exponential at ``x`` applied to tangent coordinates ``v``."""
    x = check_point(spec, x, deep=False)
    v = _as_vec(v, spec.chart_dim, f"tangent of {spec.id}")
    fam = spec.family
    if fam in ("euclidean", "gaussian"):
        return x + v
    if fam == "torus":
        return np.mod(x + v, 1.0)
    if fam == "sphere":
        return _sphere_exp(x, v, math.pi)
    if fam == "rp":
        nv = float(np.linalg.norm(v))
        if nv >= math.pi / 2.0:
            raise OutOfInjectivityError(
                f"tangent norm {nv!r} is outside the projective injectivity radius pi/2"
            )
        return _rp_canonical(_sphere_exp(x, v, math.pi))
    if fam == "poincare":
        return mobius_add(x, _poincare_exp0(v, spec.param), spec.param)
    if fam == "spd":
        _, sA, _ = _spd_decompose(x)
        E = sym_exp(frob_unvec(v))
        M = sA @ E @ sA
        return frob_vec(0.5 * (M + M.T))
    raise UnsupportedError(f"exp_map not implemented for {spec.id}")


def log_map(spec: ManifoldSpec, x, y) -> np.ndarray:
    """Inverse exponential: tangent coordinates of ``y`` about ``x``."""
    x = check_point(spec, x, deep=False)
    y = check_point(spec, y, deep=False)
    fam = spec.family
    if fam in ("euclidean", "gaussian"):
        return y - x
    if fam == "torus":
        return _torus_wrap(y - x)
    if fam == "sphere":
        return _sphere_log(x, y)
    if fam == "rp":
        yy = y if float(x @ y) >= 0.0 else -y
        if abs(float(x @ yy)) <= 1e-12:
            raise OutOfInjectivityError("projective cut locus: log map undefined")
        return _sphere_log(x, yy)
    if fam == "poincare":
        return _poincare_log0(mobius_add(-x, y, spec.param), spec.param)
    if fam == "spd":
        return frob_vec(_spd_log_matrix(x, y))
    raise UnsupportedError(f"log_map not implemented for {spec.id}")


def distance(spec: ManifoldSpec, x, y) -> float:
    """Geodesic distance between two points of ``spec``."""
    x = check_point(spec, x, deep=False)
    y = check_point(spec, y, deep=False)
    fam = spec.family
    if fam in ("euclidean", "gaussian"):
        return float(np.linalg.norm(y - x))
    if fam == "torus":
        return torus_closed_distance(np.mod(x, 1.0), np.mod(y, 1.0))
    if fam == "sphere":
        return _sphere_distance(x, y)
    if fam == "rp":
        # arccos|x.y| realized on the sign-aligned representative, which
        # keeps the chordal form's accuracy near coincident classes
        return _sphere_distance(x, y if float(x @ y) >= 0.0 else -y)
    if fam == "poincare":
        c = spec.param
        sc = math.sqrt(c)
        n = float(np.linalg.norm(mobius_add(-x, y, c)))
        return (2.0 / sc) * math.atanh(min(sc * n, 1.0 - 1e-16))
    if fam == "spd":
        return float(np.linalg.norm(_spd_log_matrix(x, y)))
    raise UnsupportedError(f"distance not implemented for {spec.id}")


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
        radius = min(0.9 * spec.inj_lower(x), 2.0)
    v = rng.standard_normal(spec.chart_dim)
    if spec.family in ("sphere", "rp"):
        v = v - (v @ x) * x
    nv = float(np.linalg.norm(v))
    scale = radius * rng.random() ** (1.0 / spec.dim)
    return (scale / nv) * v
