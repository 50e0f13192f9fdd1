"""Closed-form exponential/logarithm maps and geodesic distances for the
manifold zoo: euclidean:p, sphere:p, poincare:p:c, spd:n, gaussian:n,
torus:m, rp:m.

Each family is one small geometry class next to its kernels: ``Flat``
(euclidean and gaussian), ``Torus``, ``Sphere``, ``Projective`` (rp),
``Poincare`` and ``SPD``.  It holds the constants ``resolve_manifold``
copies into the spec and the kernels; ``FAMILIES`` is the one table from
family name to class, and each spec holds its instance as ``spec.geometry``.
The kernels trust their arguments.  A point is checked in one of two ways:
a point or a stack of points by ``as_point``, which the public functions
at the end of this module call once per argument, or a base point by
``chart_at``, which checks it once and returns it bound to its kernels as a
read-only ``Chart``.  The chart records the spec and builds the tangent
frame the first time it is asked for; a bound SPD chart keeps the base's
sqrt(A) and sqrt(A)^-1, from one spectral computation, so no evaluation
computes them again.  A compile binds each of its two base points
once, and a ``GDNModel`` holds the two charts.

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

import contextlib
import math
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..errors import OutOfInjectivityError, ValidationError
from .sym import _FUNCS, check_finite, frob_entries, frob_unvec, spectral, sym_dim, symmetric_eigh

if TYPE_CHECKING:  # core imports this module for FAMILIES
    from .core import ManifoldSpec

__all__ = [
    "exp_map",
    "log_map",
    "distance",
    "as_point",
    "chart_at",
    "random_point",
    "random_tangent",
    "mobius_add",
    "row_norms",
]

_UNIT_TOL = 1e-9


# -- stacks ------------------------------------------------------------------
#
# The kernels take a single point or a 2-D stack of rows.  A single point is
# a stack without its leading axis: the same kernel runs the same operations
# on it, with every per-row quantity (a norm, a dot product) a scalar instead
# of an (N,) column.  That keeps one code path per family and a single point
# as cheap as scalar code, and each row of a stack rounds exactly as the
# same row given alone.

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


def row_norms(a: np.ndarray):
    """The Euclidean norm of each row of a 2-D array, or of one vector.

    ``np.vecdot`` runs the same dot kernel as ``np.linalg.norm`` does on a
    single vector, so each entry is bit-identical to the per-row norm.
    """
    return np.sqrt(np.vecdot(a, a))


def _any(mask) -> bool:
    # the cheapest reduction on the few entries of a single point; a scalar
    # (one point's matrix, or a dot product) needs none
    return bool(mask) if mask.ndim == 0 else np.count_nonzero(mask) > 0


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


def _check_tangent_norms(nv, inj: float, what: str) -> None:
    far = nv >= inj
    if _any(far):
        raise OutOfInjectivityError(f"tangent norm {_first(nv, far)!r} is outside {what}")


# -- the geometry classes ----------------------------------------------------

class Chart:
    """A checked base point ``x`` of ``spec`` with its geometry's kernels
    bound to it: ``exp(v)``, ``log(y)`` and ``distance(y)`` give the
    unbound kernels' results about ``x``, bit for bit.  Built by
    ``chart_at``; a family with work that depends on ``x`` alone does it in
    its chart's constructor, once."""

    def __init__(self, spec: ManifoldSpec, x: np.ndarray):
        self.spec, self.geometry, self.x = spec, spec.geometry, x

    def __repr__(self):
        return f"{type(self).__name__}({self.spec.id}, {self.x.tolist()})"

    @cached_property
    def frame(self) -> np.ndarray:
        """The read-only tangent frame at ``x`` (``tangent_basis``), built
        on first use: evaluating a model never needs it."""
        frame = self.geometry.tangent_basis(self.x)
        frame.flags.writeable = False
        return frame

    def exp(self, v):
        return self.geometry.exp(self.x, v)

    def log(self, y):
        return self.geometry.log(self.x, y)

    def distance(self, y):
        return self.geometry.distance(self.x, y)


class Geometry:
    """One family at one size: the constants of its spec and its kernels.
    A kernel takes finite float rows of the right length, or stacks of
    them, and points that pass ``check``; it checks tangents itself."""

    curvature_bound = curvature_max = curvature_min = 0.0
    inj_lower = math.inf
    param = 0.0
    chart = Chart  # the class ``chart_at`` binds a point of the family to

    def __init__(self, dim: int, chart_dim: int):
        self.dim = dim
        self.chart_dim = self.point_dim = chart_dim

    def check(self, x: np.ndarray, what: str) -> None:
        """Raise ValidationError for a row of ``x`` off the manifold that
        the kernels do not find themselves."""

    def project(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The tangent at the single point ``x`` nearest to ``v``."""
        return v

    def tangent_basis(self, x: np.ndarray) -> np.ndarray:
        """An orthonormal basis of the tangent space at the single point
        ``x``, as a (chart_dim, dim) matrix."""
        return np.eye(self.dim)

    def wrap_ratio(self, r: float) -> float:
        """max |v1 - v2| / d(Exp v1, Exp v2) over tangents of norm <= r whose
        images meet round a quotient; 0 where nothing wraps."""
        return 0.0


class Flat(Geometry):
    """R^d in its identity chart: euclidean:p, and gaussian:n through its
    mean/log-covariance chart (d = n + n(n+1)/2)."""

    def __init__(self, dim: int, param: float):
        super().__init__(dim, dim)
        self.param = param

    def exp(self, x, v):
        return x + v

    def log(self, x, y):
        return y - x

    def distance(self, x, y):
        return row_norms(y - x)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.point_dim)


def _torus_distance(y1: np.ndarray, y2: np.ndarray):
    d = np.abs(y1 - y2)
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


class Torus(Geometry):
    """The flat torus R^m / Z^m on representatives; exp wraps mod 1."""

    inj_lower = 0.5

    def __init__(self, m: int):
        super().__init__(m, m)

    def exp(self, x, v):
        return np.mod(x + v, 1.0)

    def log(self, x, y):
        # the shortest lattice representative of the displacement
        d = y - x
        return d - np.round(d)

    def distance(self, x, y):
        return _torus_distance(np.mod(x, 1.0), np.mod(y, 1.0))

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.point_dim)

    def wrap_ratio(self, r):
        # x + re and x - re are 1 - 2r apart through the opposite face
        return 2.0 * r / (1.0 - 2.0 * r)


class Sphere(Geometry):
    """S^p as unit vectors of R^(p+1)."""

    curvature_bound = curvature_max = curvature_min = 1.0
    inj_lower = math.pi

    def __init__(self, p: int):
        super().__init__(p, p + 1)

    def check(self, x, what):
        nrm = row_norms(x)
        bad = abs(nrm - 1.0) > _UNIT_TOL
        if _any(bad):
            raise ValidationError(f"{what} must be unit norm, got |x|={_first(nrm, bad)!r}")

    def exp(self, x, v):
        nv = row_norms(v)
        if _any(abs(np.vecdot(x, v)) > _UNIT_TOL * np.maximum(1.0, nv)):
            raise ValidationError("sphere tangent must be orthogonal to the base point")
        _check_tangent_norms(nv, math.pi, f"the injectivity radius {math.pi!r}")
        zero = nv == 0.0
        n = _col(nv + zero)  # a zero row divides by 1, not by 0
        y = np.cos(n) * x + np.sin(n) * (v / n)
        y = y / _col(row_norms(y))
        # a zero tangent gives the base point itself, unnormalized
        return np.where(_col(zero), x, y) if _any(zero) else y

    def log(self, x, y):
        dot = np.clip(np.vecdot(x, y), -1.0, 1.0)
        if _any(dot <= -1.0 + 1e-12):
            raise OutOfInjectivityError("antipodal pair: sphere log map undefined")
        w = y - _col(dot) * x
        nw = row_norms(w)
        small = nw < 1e-15
        n = _col(nw + small)  # a vanishing row divides by about 1, not by 0
        u = _col(Sphere.distance(self, x, y)) * (w / n)
        # a vanishing normal component gives the zero tangent
        return np.where(_col(small), 0.0, u) if _any(small) else u

    def distance(self, x, y):
        # chordal form: accurate at both ends of [0, pi], exactly 0 for x == y
        c1 = 0.5 * row_norms(x - y)
        c2 = 0.5 * row_norms(x + y)
        half = 2.0 * _scalar_map(math.asin, np.minimum(np.minimum(c1, c2), 1.0))
        return np.where(c1 <= c2, half, math.pi - half)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(self.point_dim)
        z /= np.linalg.norm(z)
        return z

    def project(self, x, v):
        return v - (v @ x) * x

    def tangent_basis(self, x):
        # complete x to an orthonormal frame of the ambient space
        basis = []
        for i in range(self.point_dim):
            e = np.zeros(self.point_dim)
            e[i] = 1.0
            w = e - (e @ x) * x
            for b in basis:
                w = w - (w @ b) * b
            nw = float(np.linalg.norm(w))
            if nw > 1e-8:
                basis.append(w / nw)
            if len(basis) == self.dim:
                break
        return np.stack(basis, axis=1)


def _rp_canonical(z: np.ndarray) -> np.ndarray:
    # the representative whose first non-negligible entry is positive,
    # row-wise on stacks
    nz = np.abs(z) > 1e-14
    lead = np.take_along_axis(z, nz.argmax(axis=-1)[..., None], axis=-1)
    return np.where(nz.any(axis=-1)[..., None] & (lead < 0.0), -z, z)


class Projective(Sphere):
    """RP^m: sphere points modulo sign, kept on the canonical representative."""

    inj_lower = math.pi / 2.0

    def exp(self, x, v):
        _check_tangent_norms(row_norms(v), math.pi / 2.0,
                             "the projective injectivity radius pi/2")
        return _rp_canonical(super().exp(x, v))

    def log(self, x, y):
        yy = np.where(_col(np.vecdot(x, y) >= 0.0), y, -y)  # y's class on x's side
        if _any(abs(np.vecdot(x, yy)) <= 1e-12):
            raise OutOfInjectivityError("projective cut locus: log map undefined")
        return super().log(x, yy)

    def distance(self, x, y):
        # arccos|x.y| realized on the sign-aligned representative, which
        # keeps the chordal form's accuracy near coincident classes
        return super().distance(x, np.where(_col(np.vecdot(x, y) >= 0.0), y, -y))

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return _rp_canonical(super().random_point(rng))

    def wrap_ratio(self, r):
        # Exp(re) and Exp(-re) are 2r apart on the sphere, pi - 2r as classes
        return 2.0 * r / (math.pi - 2.0 * r)


def mobius_add(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Moebius addition on the curvature-c ball, row-wise on stacks."""
    xy = _col(np.vecdot(x, y))
    x2 = _col(np.vecdot(x, x))
    y2 = _col(np.vecdot(y, y))
    a = 1.0 + 2.0 * c * xy
    return ((a + c * y2) * x + (1.0 - c * x2) * y) / (a + c * c * x2 * y2)


def _poincare_log0_scale(n, c: float):
    # 2/sqrt(c) atanh(sqrt(c) n), the distance from 0 at ball norm n
    sc = math.sqrt(c)
    return (2.0 / sc) * _scalar_map(math.atanh, np.minimum(sc * n, 1.0 - 1e-16))


class Poincare(Geometry):
    """The Poincare ball c|x|^2 < 1 of curvature -c."""

    def __init__(self, p: int, c: float):
        super().__init__(p, p)
        self.param = c
        self.curvature_bound, self.curvature_max, self.curvature_min = c, -c, -c

    def check(self, x, what):
        if _any(self.param * np.vecdot(x, x) >= 1.0):
            raise ValidationError(f"{what} must satisfy c|x|^2 < 1")

    def exp(self, x, v):
        c = self.param
        sc = math.sqrt(c)
        nv = row_norms(v)
        zero = nv == 0.0
        t = sc * (nv + zero)  # a zero row divides by sc, not by 0
        u = _col(_scalar_map(math.tanh, t / 2.0) / t) * v
        return mobius_add(x, np.where(_col(zero), 0.0, u) if _any(zero) else u, c)

    def log(self, x, y):
        z = mobius_add(-x, y, self.param)
        nz = row_norms(z)
        zero = nz == 0.0
        n = nz + zero  # a zero row divides by 1, not by 0
        u = _col(_poincare_log0_scale(n, self.param) / n) * z
        return np.where(_col(zero), 0.0, u) if _any(zero) else u

    def distance(self, x, y):
        return _poincare_log0_scale(row_norms(mobius_add(-x, y, self.param)), self.param)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(self.point_dim)
        z /= np.linalg.norm(z)
        r = 0.9 * rng.random() ** (1.0 / self.dim) / math.sqrt(self.param)
        return r * z


def _positive(lowest, what: str) -> None:
    # the message names the smallest eigenvalue of the first matrix that is
    # not positive definite
    bad = ~(lowest > 0.0)
    if _any(bad):
        raise ValidationError(f"{what} {_first(lowest, bad):.6e}")


def _two_sum(x, y):
    # s = fl(x + y) and the rounding error err, with x + y = s + err exactly
    # (Knuth's TwoSum)
    s = x + y
    z = s - x
    return s, (x - (s - z)) + (y - z)


def _spd_functions(S: np.ndarray, *kinds: str, positive: str | None = None) -> list:
    """The matrix functions ``kinds`` ("exp", "log", "sqrt", "invsqrt") of
    a symmetric matrix or (N, n, n) stack ``S`` that is exactly symmetric
    by construction, each exactly symmetric.  With ``positive`` the
    matrices must be positive definite: the error gives that text and the
    smallest eigenvalue of the first matrix that is not.

    Order 2 has closed forms.  S = m I + r N with N = [[u, v], [v, -u]],
    (u, v) a unit vector, has eigenvalues m -+ r, so f(S) = alpha I +
    gamma N with alpha the mean and gamma the half-difference of f at
    them, each in a form that stays finite and accurate where the plain
    one does not.  Larger orders go through one LAPACK eigendecomposition.
    """
    if S.shape[-1] != 2:
        w, V = symmetric_eigh(S)
        if positive is not None:
            _positive(w[..., 0], positive)
        return [spectral(V, _FUNCS[kind][0](w)) for kind in kinds]
    check_finite(S)
    a, b, c = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    # halved first, so that no sum overflows (a subnormal half may round)
    ha, hc = 0.5 * a, 0.5 * c
    m, d = ha + hc, ha - hc
    r = np.hypot(d, b)
    r1 = r + (r == 0.0)  # r = 0 leaves d = b = 0: divide by 1, not by 0
    hi = m + r
    if positive is not None or "exp" not in kinds:
        # the small eigenvalue as LAPACK's dlaev2 gets it, without m - r's
        # cancellation.  Positivity is decided on the mean eigenvalue m, not
        # on hi: where m <= 0 the matrix is not positive definite, m + r may
        # round to either sign, and the smallest eigenvalue m - r has no
        # cancellation.  |m| + r is hi where m > 0 and keeps the quotients
        # finite elsewhere (the zero matrix divides by 1)
        h = abs(m) + r
        h = h + (h == 0.0)
        lo = (np.maximum(a, c) / h) * np.minimum(a, c) - (b / h) * b
        if positive is not None and _any(~((m > 0.0) & (lo > 0.0))):
            _positive(np.where(m > 0.0, lo, m - r), positive)
    u, v = d / r1, b / r1
    out = []
    for kind in kinds:
        if kind == "exp":
            # e^m cosh r and e^m sinh r from e^hi and expm1(-2r): e^m alone
            # may underflow where cosh r overflows.  e^hi has the relative
            # error of hi's absolute one, so the rounding errors of m and
            # m + r scale it by e^err = 1 + err, leaving r's own
            err = _two_sum(m, r)[1] + _two_sum(ha, hc)[1]
            e = np.expm1(-2.0 * r)
            top = np.exp(hi) * (1.0 + err)
            alpha, gamma = top * (1.0 + 0.5 * e), -0.5 * top * e
        elif kind == "log":
            # (log hi - log lo)/2 = atanh(r/m) = log1p(2r/lo)/2, which stays
            # finite where r/m rounds to 1; where 2r/lo overflows, log1p of
            # it is log 2 + log r - log lo.  2r/lo < 2^1023 where lo >=
            # 2^-1016 r (and for every r < 2^-51), so only a condition
            # number past 2^1016 pays for silencing the overflow
            with (np.errstate(over="ignore") if _any(lo < r * 2.0 ** -1016)
                  else contextlib.nullcontext()):
                x = 2.0 * r / lo
            g = np.log1p(x)
            if _any(x == np.inf):
                g = np.where(x == np.inf, math.log(2.0) + np.log(r) - np.log(lo), g)
            alpha, gamma = 0.5 * (np.log(hi) + np.log(lo)), 0.5 * g
        else:
            sh, sl = np.sqrt(hi), np.sqrt(lo)
            if kind == "sqrt":
                alpha, gamma = 0.5 * (sh + sl), r / (sl + sh)
            else:
                # sqrt's gamma over sl sh, whose product stays in range
                # where (sl + sh) sl sh does not
                alpha, gamma = 0.5 * (1.0 / sh + 1.0 / sl), -(r / (sl + sh)) / (sl * sh)
        F = np.empty(S.shape)
        F[..., 0, 0] = alpha + gamma * u
        F[..., 1, 1] = alpha - gamma * u
        F[..., 0, 1] = F[..., 1, 0] = gamma * v
        out.append(F)
    return out


def _spd_roots(x: np.ndarray, *kinds: str) -> list:
    # the roots ("sqrt", "invsqrt") of the matrices of Frobenius vectors x,
    # which must be positive definite
    return _spd_functions(frob_unvec(x), *kinds,
                          positive="spd point is not positive definite: min eigenvalue")


def _spd_exp(sA: np.ndarray, v: np.ndarray) -> np.ndarray:
    # sqrt(A) exp(Sym(v)) sqrt(A), from the root sA of the base
    M = sA @ _spd_functions(frob_unvec(v), "exp")[0] @ sA
    # an overflowing exponential leaves non-finite entries
    return frob_entries(check_finite(0.5 * (M + M.swapaxes(-1, -2))))


def _spd_log_matrix(isA: np.ndarray, y: np.ndarray) -> np.ndarray:
    # normal-coordinate log: log(sqrt(A)^-1 B sqrt(A)^-1), from the inverse
    # root isA of the base; its Frobenius norm is the affine-invariant
    # distance, making the chart radially isometric in plain Euclidean
    # tangent coordinates
    inner = isA @ frob_unvec(y) @ isA
    return _spd_functions(0.5 * (inner + inner.swapaxes(-1, -2)), "log",
                          positive="target of spd log map is not SPD: matrix function "
                                   "'log' requires SPD input: smallest eigenvalue")[0]


def _spd_distance(isA: np.ndarray, y: np.ndarray):
    L = _spd_log_matrix(isA, y)
    return row_norms(L.reshape(L.shape[:-2] + (-1,)))


class _SPDChart(Chart):
    """The SPD kernels about a base A, on its stored read-only ``root``
    sqrt(A) and ``inv_root`` sqrt(A)^-1, from the one spectral computation
    that also checks that A is positive definite."""

    def __init__(self, spec: ManifoldSpec, x: np.ndarray):
        super().__init__(spec, x)
        root, inv_root = _spd_roots(x, "sqrt", "invsqrt")
        root.flags.writeable = inv_root.flags.writeable = False
        self.root, self.inv_root = root, inv_root

    def exp(self, v):
        return _spd_exp(self.root, v)

    def log(self, y):
        return frob_entries(_spd_log_matrix(self.inv_root, y))

    def distance(self, y):
        return _spd_distance(self.inv_root, y)


class SPD(Geometry):
    """n x n SPD matrices, affine-invariant: -1/2 <= K <= 0, with flat
    directions.  The kernels build every matrix they take a function of
    exactly symmetric, so it needs no ``check_symmetric``."""

    curvature_bound, curvature_max, curvature_min = 0.5, 0.0, -0.5
    chart = _SPDChart

    def __init__(self, n: int):
        super().__init__(sym_dim(n), sym_dim(n))
        self.param = float(n)

    def exp(self, x, v):
        return _spd_exp(_spd_roots(x, "sqrt")[0], v)

    def log(self, x, y):
        return frob_entries(_spd_log_matrix(_spd_roots(x, "invsqrt")[0], y))

    def distance(self, x, y):
        return _spd_distance(_spd_roots(x, "invsqrt")[0], y)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        n = int(self.param)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(0.4, 2.5, size=n)
        A = (Q * w) @ Q.T
        return frob_entries(0.5 * (A + A.T))


# family -> (whether its identifier carries a curvature, its geometry from
# the integer parameter and the curvature)
FAMILIES = {
    "euclidean": (False, lambda p, c: Flat(p, 0.0)),
    "gaussian": (False, lambda p, c: Flat(p + sym_dim(p), float(p))),
    "torus": (False, lambda p, c: Torus(p)),
    "sphere": (False, lambda p, c: Sphere(p)),
    "rp": (False, lambda p, c: Projective(p)),
    "poincare": (True, Poincare),
    "spd": (False, lambda p, c: SPD(p)),
}


# -- the public functions: check once, then run the kernel ------------------

def as_point(spec: ManifoldSpec, x) -> np.ndarray:
    """``x`` as a point of ``spec``, or an (N, point_dim) stack, checked as
    the chart functions check it: all but SPD positive definiteness, which
    the SPD kernels find themselves."""
    x = _rows(x, spec.point_dim, f"point of {spec.id}")
    spec.geometry.check(x, f"point of {spec.id}")
    return x


def chart_at(spec: ManifoldSpec, x) -> Chart:
    """The point ``x`` of ``spec``, checked, as a read-only copy bound to
    the kernels: ``as_point``'s checks, that ``x`` is one point and not a
    stack, and SPD positive definiteness from the decomposition the SPD
    chart keeps."""
    x = as_point(spec, x).copy()
    if x.ndim == 2:
        raise ValidationError(f"base point of {spec.id} must be one point, "
                              f"got a stack of {len(x)}")
    x.flags.writeable = False
    return spec.geometry.chart(spec, x)


def exp_map(spec: ManifoldSpec, x, v) -> np.ndarray:
    """Riemannian exponential at ``x`` applied to tangent coordinates ``v``.

    Either argument may be a 2-D stack of rows: an (N, chart_dim) stack of
    tangents at one base point, N base points with one tangent each, or N
    pairs.  A stack gives an (N, point_dim) result, each row bit for bit
    the result of that row alone.
    """
    x = as_point(spec, x)
    v = _rows(v, spec.chart_dim, f"tangent of {spec.id}")
    _stacked(x, v)  # rejects two stacks of different lengths
    return spec.geometry.exp(x, v)


def log_map(spec: ManifoldSpec, x, y) -> np.ndarray:
    """Inverse exponential: tangent coordinates of ``y`` about ``x``.

    Either argument may be a 2-D stack of points, as in ``exp_map``; a
    stack gives an (N, chart_dim) result, each row bit for bit the result
    of that row alone.
    """
    x = as_point(spec, x)
    y = as_point(spec, y)
    _stacked(x, y)  # rejects two stacks of different lengths
    return spec.geometry.log(x, y)


def distance(spec: ManifoldSpec, x, y):
    """Geodesic distance between two points of ``spec``.

    Either argument may be a 2-D stack of points, as in ``exp_map``; a
    stack gives an (N,) array, two points give a float.
    """
    x = as_point(spec, x)
    y = as_point(spec, y)
    stacked = _stacked(x, y)
    d = spec.geometry.distance(x, y)
    return d if stacked else float(d)


def random_point(spec: ManifoldSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a generic point of ``spec`` (for tests and audits)."""
    return spec.geometry.random_point(rng)


def random_tangent(spec: ManifoldSpec, x, rng: np.random.Generator,
                   radius: float | None = None) -> np.ndarray:
    """Draw a tangent vector at ``x`` with norm below ``radius``
    (default 0.9 of the injectivity radius, capped at 2)."""
    x = as_point(spec, x)
    if radius is None:
        radius = min(0.9 * spec.inj_lower, 2.0)
    v = spec.geometry.project(x, rng.standard_normal(spec.chart_dim))
    nv = float(np.linalg.norm(v))
    scale = radius * rng.random() ** (1.0 / spec.dim)
    return (scale / nv) * v
