"""Closed-form exponential/logarithm maps and geodesic distances for the
manifold zoo: euclidean:p, sphere:p, poincare:p:c, spd:n, gaussian:n,
torus:m, rp:m.

Each family is one small ``ManifoldSpec`` subclass next to its kernels:
``Flat`` (euclidean and gaussian), ``Torus``, ``Sphere``, ``Projective``
(rp), ``Poincare`` and ``SPD``.  An instance is one manifold, with the
constants of the theorem's radius and the kernels; ``resolve_manifold``
builds it from ``FAMILIES``, the one table from family name to class.
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

import math
import sys
from functools import cached_property

import numpy as np

from ..errors import DomainError, NumericError, OutOfInjectivityError, RangeError, ValidationError
from .sym import (_FUNCS, _SQRT2, check_finite, frob_entries, frob_unvec, spectral, sym,
                  sym_dim, symmetric_eigh)

__all__ = [
    "ManifoldSpec",
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
    # (one point's entry, or a dot product), numpy's or Python's, needs none
    return np.count_nonzero(mask) > 0 if getattr(mask, "ndim", 0) else bool(mask)


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


def _check_domain(d, inj: float) -> None:
    # a model's input check, on the distances d of its rows from the base
    far = d >= inj
    if _any(far):
        raise DomainError(f"input at distance {_first(d, far)!r} from the basepoint is "
                          f"outside the injectivity ball of radius {inj!r}")


def _check_range(nw, inj: float) -> None:
    # a model's check on the norms nw of its core outputs
    far = nw >= inj
    if _any(far):
        raise RangeError(f"core output norm {_first(nw, far)!r} is outside the codomain "
                         f"chart ball of radius {inj!r}; the model is undefined there")


# -- the manifold classes ----------------------------------------------------

class Chart:
    """A checked base point ``x`` of ``spec`` with its kernels bound to
    it: ``exp(v)``, ``log(y)`` and ``distance(y)`` give the
    unbound kernels' results about ``x``, bit for bit.  Built by
    ``chart_at``; a family with work that depends on ``x`` alone does it in
    its chart's constructor, once.

    ``log_within(y)`` and ``exp_within(w)`` are ``log`` and ``exp`` behind
    the ball checks of a model evaluation: a ``DomainError`` for a point at
    or past the injectivity radius ``inj_lower`` from ``x``, a
    ``RangeError`` for a tangent of norm at or past it.  On an infinite
    radius nothing is checked, and they are ``log`` and ``exp`` themselves.
    """

    def __init__(self, spec: ManifoldSpec, x: np.ndarray):
        self.spec, self.x = spec, x
        if not math.isfinite(spec.inj_lower):
            # no ball to leave: the checked kernels are the kernels, with no
            # call, compare or dispatch between them
            self.log_within, self.exp_within = self.log, self.exp

    def __repr__(self):
        return f"{type(self).__name__}({self.spec.id}, {self.x.tolist()})"

    @cached_property
    def frame(self) -> np.ndarray:
        """The read-only tangent frame at ``x`` (``tangent_basis``), built
        on first use: evaluating a model never needs it."""
        frame = self.spec.tangent_basis(self.x)
        frame.flags.writeable = False
        return frame

    def exp(self, v):
        return self.spec.exp(self.x, v)

    def log(self, y):
        return self.spec.log(self.x, y)

    def distance(self, y):
        return self.spec.distance(self.x, y)

    def log_within(self, y):
        _check_domain(self.distance(y), self.spec.inj_lower)
        return self.log(y)

    def exp_within(self, w):
        _check_range(row_norms(w), self.spec.inj_lower)
        return self.exp(w)


class ManifoldSpec:
    """One manifold of the zoo, built by ``resolve_manifold``: its kernels
    and the constants of its universality radius.  ``id`` is the canonical
    identifier (``"sphere:2"``, ``"poincare:3:0.5"``), by which specs
    compare and hash; ``dim`` is the intrinsic dimension p, ``chart_dim``
    that of a tangent (ambient p+1 on sphere and rp) and ``point_dim`` the
    length of a point.  ``curvature_max`` and ``curvature_min`` bound the
    sectional curvature (1 on sphere and rp, -c on poincare, 0 and -1/2 on
    spd, else 0): ``log_chart_lipschitz`` and the K-star map take the upper
    bound, ``exp_chart_lipschitz`` the lower.  ``inj_lower`` is a closed-form
    lower bound on the injectivity radius, in (0, +inf], at every point;
    ``param`` the order n of spd and gaussian, the curvature c of poincare,
    else 0; ``chart`` the ``Chart`` class ``chart_at`` binds a point to.  A
    kernel takes finite float rows of the right length, or stacks of them,
    and points that pass ``check``; it checks tangents itself."""

    id: str
    family: str
    curvature_max = curvature_min = 0.0
    inj_lower = math.inf
    param = 0.0
    chart = Chart

    def __init__(self, dim: int, chart_dim: int):
        self.dim = dim
        self.chart_dim = self.point_dim = chart_dim

    def __eq__(self, other):
        return isinstance(other, ManifoldSpec) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

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


class Flat(ManifoldSpec):
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


class Torus(ManifoldSpec):
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


def _off_tangent(x, v, nv):
    # the rows of v that are not orthogonal to x, from their norms nv
    return abs(np.vecdot(x, v)) > _UNIT_TOL * np.maximum(1.0, nv)


class _SphereChart(Chart):
    """The sphere family's checks hand the distance and the tangent norms
    they compute to the kernels they guard, so that a model evaluation
    computes each once per row."""

    def log_within(self, y):
        d = self.distance(y)
        _check_domain(d, self.spec.inj_lower)
        return self.spec.log(self.x, y, d)

    def exp_within(self, w):
        nw = row_norms(w)
        _check_range(nw, self.spec.inj_lower)
        try:
            return self.spec.exp(self.x, w, nw)
        except ValidationError:
            # the kernel's one check on a tangent: a core output off the
            # tangent space is a computational failure, not a bad argument
            off = _off_tangent(self.x, w, nw)
            raise RangeError(
                "core output w is not tangent at the codomain base point y: "
                f"|y.w| = {_first(abs(np.vecdot(self.x, w)), off)!r} at |w| = "
                f"{_first(nw, off)!r}; the model is undefined there") from None


class Sphere(ManifoldSpec):
    """S^p as unit vectors of R^(p+1)."""

    curvature_max = curvature_min = 1.0
    inj_lower = math.pi
    chart = _SphereChart

    def __init__(self, p: int):
        super().__init__(p, p + 1)

    def check(self, x, what):
        nrm = row_norms(x)
        bad = abs(nrm - 1.0) > _UNIT_TOL
        if _any(bad):
            raise ValidationError(f"{what} must be unit norm, got |x|={_first(nrm, bad)!r}")

    def exp(self, x, v, nv=None):
        # nv, where given, is row_norms(v), which the caller has checked
        # inside the injectivity ball
        checked = nv is not None
        if not checked:
            nv = row_norms(v)
        if _any(_off_tangent(x, v, nv)):
            raise ValidationError("sphere tangent must be orthogonal to the base point")
        if not checked:
            _check_tangent_norms(nv, math.pi, f"the injectivity radius {math.pi!r}")
        zero = nv == 0.0
        n = _col(nv + zero)  # a zero row divides by 1, not by 0
        y = np.cos(n) * x + np.sin(n) * (v / n)
        y = y / _col(row_norms(y))
        # a zero tangent gives the base point itself, unnormalized
        return np.where(_col(zero), x, y) if _any(zero) else y

    def log(self, x, y, d=None):
        # d, where given, is Sphere.distance(x, y)
        dot = np.clip(np.vecdot(x, y), -1.0, 1.0)
        if _any(dot <= -1.0 + 1e-12):
            raise OutOfInjectivityError("antipodal pair: sphere log map undefined")
        w = y - _col(dot) * x
        nw = row_norms(w)
        small = nw < 1e-15
        n = _col(nw + small)  # a vanishing row divides by about 1, not by 0
        u = _col(Sphere.distance(self, x, y) if d is None else d) * (w / n)
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


def _aligned(x, y):
    # y's class on x's side, and |x.y|, which is x's dot product with it
    dot = np.vecdot(x, y)
    return np.where(_col(dot >= 0.0), y, -y), abs(dot)


class _ProjectiveChart(_SphereChart):
    """rp's domain check aligns y to the base's side of its class once: the
    distance, the cut-locus test and the log all take that representative."""

    def log_within(self, y):
        yy, dot = _aligned(self.x, y)
        d = Sphere.distance(self.spec, self.x, yy)
        _check_domain(d, self.spec.inj_lower)
        return self.spec.log_aligned(self.x, yy, dot, d)


class Projective(Sphere):
    """RP^m: sphere points modulo sign, kept on the canonical representative."""

    inj_lower = math.pi / 2.0
    chart = _ProjectiveChart

    def exp(self, x, v, nv=None):
        if nv is None:
            nv = row_norms(v)
            _check_tangent_norms(nv, math.pi / 2.0, "the projective injectivity radius pi/2")
        return _rp_canonical(super().exp(x, v, nv))

    def log(self, x, y, d=None):
        # d, where given, is distance(x, y)
        return self.log_aligned(x, *_aligned(x, y), d)

    def log_aligned(self, x, yy, dot, d=None):
        # the log of y from its class yy on x's side and |x.y| (``_aligned``)
        if _any(dot <= 1e-12):
            raise OutOfInjectivityError("projective cut locus: log map undefined")
        return Sphere.log(self, x, yy, d)

    def distance(self, x, y):
        # arccos|x.y| realized on the sign-aligned representative, which
        # keeps the chordal form's accuracy near coincident classes
        return super().distance(x, _aligned(x, y)[0])

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


class Poincare(ManifoldSpec):
    """The Poincare ball c|x|^2 < 1 of curvature -c."""

    def __init__(self, p: int, c: float):
        super().__init__(p, p)
        self.param = c
        self.curvature_max = self.curvature_min = -c

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


# the eigen-gap past which e^lo is below 64 ulps of e^hi, so that the
# rounding of exp's entries may pass its small eigenvalue
_EXP_GAP = -math.log(64.0 * sys.float_info.epsilon)
# the ratio of the square roots of two eigenvalues below which alpha - gamma
# u keeps fewer than half the digits of the small one
_ROOT_RATIO = math.sqrt(sys.float_info.epsilon)


def _projectors(top, bottom, u, v):
    # the entries (f00, f01, f11) of f(hi) P_hi + f(lo) P_lo, from top =
    # f(hi) and bottom = f(lo), with P_hi = (I + N)/2 and P_lo = (I - N)/2 =
    # (hi I - S)/2r.  The diagonal entries are sums of nonnegative terms, and
    # the small diagonal entry of each projector, (1 - |u|)/2, is taken as
    # v^2/4 over the large one, (1 + |u|)/2, without the cancellation of
    # 1 - |u|
    big = 0.5 + 0.5 * abs(u)
    small = (0.25 * v * v) / big
    hi0, hi1 = np.where(u >= 0.0, big, small), np.where(u >= 0.0, small, big)
    return top * hi0 + bottom * hi1, (top - bottom) * (0.5 * v), top * hi1 + bottom * hi0


def _spd2(a, b, c, *kinds: str, positive: str | None = None,
          exp_floor: float | np.ndarray | None = None,
          exp_gap: float | np.ndarray = _EXP_GAP) -> list:
    """``_spd_functions`` at order 2, on the entries of S = [[a, b], [b,
    c]]: floats for one matrix, (N,) columns for a stack, all finite.  Each
    function comes back as the entries (f00, f01, f11) of its matrix, in
    the same form.

    S = m I + r N with N = [[u, v], [v, -u]], (u, v) a unit vector, has
    eigenvalues m -+ r, so f(S) = alpha I + gamma N with alpha the mean and
    gamma the half-difference of f at them, each in a form that stays
    finite and accurate where the plain one does not.  Where f's values at
    the two eigenvalues are far apart, alpha - gamma cancels to far less
    than the small one, and the function takes the projector form f(hi)
    P_hi + f(lo) P_lo instead: exp past an eigen-gap of ``_EXP_GAP``, where
    e^lo is below 64 ulps of e^hi, and sqrt and sqrt^-1, whose results a
    chart keeps for every evaluation, where the small root is below
    ``_ROOT_RATIO`` of the large one.
    """
    # halved first, so that no sum overflows (a subnormal half may round)
    ha, hc = 0.5 * a, 0.5 * c
    m, d = ha + hc, ha - hc
    # r may pass the float maximum only where |d| or |b| passes 2^1022; the
    # compares cost less than an errstate on every call of this hot path.
    # exp overflows there whatever r does, and runs under its caller's
    # errstate (``_spd_exp``)
    wide = "exp" not in kinds and (_any(abs(d) > 2.0 ** 1022) or _any(abs(b) > 2.0 ** 1022))
    if wide:
        with np.errstate(over="ignore"):
            r = np.hypot(d, b)
    else:
        r = np.hypot(d, b)
    undo = None
    if "exp" not in kinds and (wide or _any(m > 2.0 ** 1022)):
        # the large eigenvalue m + r may pass the float maximum (r < m where
        # S is positive definite), and r itself may.  The rows where either
        # does take the forms on S / 4, exactly, and the scale is undone
        # below: log adds log 4 to alpha, sqrt doubles alpha and gamma and
        # sqrt^-1 halves them.  exp of such a matrix overflows either way
        with np.errstate(over="ignore"):
            over = m + r == np.inf
        if _any(over):
            scale = np.where(over, 0.25, 1.0)
            a, b, c, m, d = (scale * t for t in (a, b, c, m, d))
            r = np.hypot(d, b)
            undo = np.where(over, 2.0, 1.0)
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
        if isinstance(a, float):
            # one matrix's floats: max and min pick the second of a tie, as
            # np.maximum and np.minimum do, at a tenth of their cost
            lo = (max(c, a) / h) * min(c, a) - (b / h) * b
        else:
            lo = (np.maximum(a, c) / h) * np.minimum(a, c) - (b / h) * b
        # every entry, and so lo, is finite here
        if positive is not None and (_any(m <= 0.0) or _any(lo <= 0.0)):
            low = np.where(m > 0.0, lo, m - r)
            if undo is not None:
                # an eigenvalue past the float range is named as -inf
                with np.errstate(over="ignore"):
                    low = low * undo * undo
            _positive(low, positive)
    u, v = d / r1, b / r1
    out = []
    for kind in kinds:
        far = False
        if kind == "exp":
            # e^m cosh r and e^m sinh r from e^hi and expm1(-2r): e^m alone
            # may underflow where cosh r overflows.  e^hi has the relative
            # error of hi's absolute one, so the rounding errors of m and
            # m + r scale it by e^err = 1 + err, leaving r's own
            err = _two_sum(m, r)[1] + _two_sum(ha, hc)[1]
            e = np.expm1(-2.0 * r)
            top = np.exp(hi) * (1.0 + err)
            alpha, gamma = top * (1.0 + 0.5 * e), -0.5 * top * e
            if _any(far := r > 0.5 * _EXP_GAP):
                # e^lo from lo = m - r, scaled by its rounding error as e^hi is
                bottom = np.exp(m - r) * (1.0 + _two_sum(m, -r)[1] + _two_sum(ha, hc)[1])
        elif kind == "log":
            # (log hi - log lo)/2 = atanh(r/m) = log1p(2r/lo)/2, which stays
            # finite where r/m rounds to 1; where 2r/lo overflows, log1p of
            # it is log 2 + log r - log lo.  2r/lo < 2^1023 where lo >=
            # 2^-1016 r (and for every r < 2^-51), so only a condition
            # number past 2^1016 pays for silencing the overflow
            if _any(lo < r * 2.0 ** -1016):
                with np.errstate(over="ignore"):
                    x = 2.0 * r / lo
            else:
                x = 2.0 * r / lo
            g = np.log1p(x)
            if _any(x == np.inf):
                g = np.where(x == np.inf, math.log(2.0) + np.log(r) - np.log(lo), g)
            alpha, gamma = 0.5 * (np.log(hi) + np.log(lo)), 0.5 * g
            if undo is not None:
                alpha = alpha + 2.0 * np.log(undo)
        else:
            sh, sl = np.sqrt(hi), np.sqrt(lo)
            far = sl < _ROOT_RATIO * sh
            if kind == "sqrt":
                top, bottom = sh, sl
                alpha, gamma = 0.5 * (sh + sl), r / (sl + sh)
            else:
                # sqrt's gamma over sl sh, whose product stays in range
                # where (sl + sh) sl sh does not
                top, bottom = 1.0 / sh, 1.0 / sl
                alpha, gamma = 0.5 * (top + bottom), -(r / (sl + sh)) / (sl * sh)
            if undo is not None:
                scaled = (alpha, gamma, top, bottom)
                alpha, gamma, top, bottom = ((t * undo for t in scaled) if kind == "sqrt"
                                             else (t / undo for t in scaled))
        F = alpha + gamma * u, gamma * v, alpha - gamma * u
        if _any(far):
            F = tuple(np.where(far, p, f) for p, f in zip(_projectors(top, bottom, u, v), F))
        out.append(F)
    if exp_floor is None:
        return out
    # exp is asked for alone; the small eigenvalue m - r is compared
    # without the difference, which may overflow
    return out + [m < exp_floor + r, r > 0.5 * exp_gap]


def _spd_functions(S: np.ndarray, *kinds: str, positive: str | None = None,
                   exp_floor: float | np.ndarray | None = None,
                   exp_gap: float | np.ndarray = _EXP_GAP) -> list:
    """The matrix functions ``kinds`` ("exp", "log", "sqrt", "invsqrt") of
    a symmetric matrix or (N, n, n) stack ``S`` that is exactly symmetric
    by construction, each exactly symmetric.  With ``positive`` the
    matrices must be positive definite: the error gives that text and the
    smallest eigenvalue of the first matrix that is not.  With
    ``exp_floor`` (``_exp_floor``), "exp" is asked for alone and comes back
    next to two masks: of the matrices whose smallest eigenvalue is below
    the floor, and of those whose eigen-gap is past ``exp_gap``
    (``_exp_gap``).

    Order 2 has closed forms (``_spd2``), larger orders go through one
    LAPACK eigendecomposition.
    """
    if S.shape[-1] != 2:
        w, V = symmetric_eigh(S)
        if positive is not None:
            _positive(w[..., 0], positive)
        out = [spectral(V, _FUNCS[kind][0](w)) for kind in kinds]
        if exp_floor is None:
            return out
        return out + [w[..., 0] < exp_floor, w[..., -1] > w[..., 0] + exp_gap]
    check_finite(S)
    out = _spd2(S[..., 0, 0], S[..., 0, 1], S[..., 1, 1], *kinds, positive=positive,
                exp_floor=exp_floor, exp_gap=exp_gap)
    return [_matrix2(S.shape[:-2], *F) for F in out[:len(kinds)]] + out[len(kinds):]


# -- spd:2 on entries -------------------------------------------------------
#
# The order-2 kernels run the closed forms on the three entries of each
# matrix: floats for one point, read off with ``tolist``, and (N,) columns
# for a stack.  A matrix is assembled only for the products with a root of
# the base, which must stay matrix products: BLAS rounds them with fused
# multiply-adds.

def _frob_parts2(v) -> tuple:
    # the lead shape of the Frobenius vector v as ``frob_unvec`` reads it,
    # () for one vector and (N,) for an (N, 3) stack, and the entries (a,
    # b, c) of its matrix, floats or columns, divided as ``frob_unvec``
    # divides them
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        a, b, c = v.ravel().tolist()
        return (), a, b / _SQRT2, c
    a, b, c = v.T
    return v.shape[:-1], a, b / _SQRT2, c


def _sym_parts2(P: np.ndarray) -> tuple:
    # the entries (a, b, c) of sym(P) for a 2x2 product P, or the columns of
    # an (N, 2, 2) stack: the sums of the halves of P's entries, as ``sym``
    # takes them
    H = 0.5 * P
    h00, h01, h10, h11 = H.ravel().tolist() if P.ndim == 2 else H.reshape(len(P), 4).T
    return h00 + h00, h01 + h10, h11 + h11


def _vector2(lead: tuple, f00, f01, f11) -> np.ndarray:
    # the Frobenius vector of [[f00, f01], [f01, f11]] as ``frob_entries``
    # weighs it, or the (N, 3) stack of them (lead = (N,))
    if not lead:
        return np.array((f00, f01 * _SQRT2, f11))
    out = np.empty(lead + (3,))
    out[..., 0], out[..., 1], out[..., 2] = f00, f01 * _SQRT2, f11
    return out


def _matrix2(lead: tuple, f00, f01, f11) -> np.ndarray:
    # the matrix [[f00, f01], [f01, f11]], or the (N, 2, 2) stack of them
    if not lead:
        return np.array(((f00, f01), (f01, f11)))
    F = np.empty(lead + (2, 2))
    F[..., 0, 0], F[..., 0, 1], F[..., 1, 0], F[..., 1, 1] = f00, f01, f01, f11
    return F


_POINT_REFUSAL = "spd point is not positive definite: min eigenvalue"


def _spd_roots(x: np.ndarray, *kinds: str) -> list:
    # the roots ("sqrt", "invsqrt") of the matrices of Frobenius vectors x,
    # which must be positive definite
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        return _spd_functions(frob_unvec(x), *kinds, positive=_POINT_REFUSAL)
    lead, *parts = _frob_parts2(check_finite(x))
    return [_matrix2(lead, *F) for F in _spd2(*parts, *kinds, positive=_POINT_REFUSAL)]


# the smallest argument of exp whose exp is a normal float
_LOG_TINY = math.log(sys.float_info.min)


def _exp_floor(isA: np.ndarray) -> float | np.ndarray:
    """The exponent above which sqrt(A) exp(S) sqrt(A), from the inverse
    root isA of A (or per inverse root of a stack) and a symmetric S whose
    eigenvalues stay over it, keeps a normal smallest eigenvalue: that is
    at least e^min(eig S) / ||isA||_2^2 >= e^min(eig S) / (n max|isA|)^2,
    and the factor 4 leaves room for rounding."""
    scale = np.maximum(isA.shape[-1] * np.abs(isA).max(axis=(-2, -1)), 1.0)
    return _LOG_TINY + math.log(4.0) + 2.0 * np.log(scale)


def _norm1(M: np.ndarray):
    # the largest absolute column sum, per matrix of a stack: at least the
    # 2-norm, and equal to it on a diagonal matrix
    return np.abs(M).sum(axis=-2).max(axis=-1)


def _exp_gap(sA: np.ndarray, isA: np.ndarray) -> float | np.ndarray:
    """The eigen-gap of a symmetric S past which rounding may pass the
    smallest eigenvalue of sqrt(A) exp(S) sqrt(A), from the roots sA and
    isA of A (or per pair of roots of a stack).  The product scales the
    ratio of exp(S)'s extreme eigenvalues by up to cond(A), so the gap is
    ``_EXP_GAP`` less log cond(A) <= 2 log(||sA||_1 ||isA||_1), a bound
    that is exact on a diagonal A: at the identity it is ``_EXP_GAP``."""
    return _EXP_GAP - 2.0 * (np.log(_norm1(sA)) + np.log(_norm1(isA)))


# the range of the largest entry in which LAPACK's dsyevd leaves a matrix
# unscaled: sqrt(safmin / eps) and its reciprocal, 2^-485 and 2^485
_EIGH_UNSCALED = (2.0 ** -485, 2.0 ** 485)


def _refused(P: np.ndarray, flag) -> np.ndarray:
    """The mask of the matrices of ``P`` (one symmetric matrix, or a
    stack), among those ``flag`` marks, that are not positive definite for
    LAPACK's eigenvalues or for the test that ``chart_at`` and the log map
    apply to a point (``_spd_functions`` with ``positive``, a closed form
    at order 2).  The two differ in the last bits, and a point that either
    refuses is refused.  At order 2, a matrix whose largest entry dsyevd
    would rescale, where its small eigenvalue may underflow to 0, is left
    to the closed form alone."""
    good = np.linalg.eigvalsh(P)[..., 0] > 0.0
    if P.shape[-1] == 2:
        top = np.abs(P).max(axis=(-2, -1))
        good |= (top < _EIGH_UNSCALED[0]) | (top > _EIGH_UNSCALED[1])
    bad = np.array(~good)
    flag = np.broadcast_to(flag, bad.shape)
    for i in np.ndindex(bad.shape):
        if flag[i] and not bad[i]:
            try:
                _spd_functions(P[i], positive="")
            except ValidationError:
                bad[i] = True
    return bad & flag


def _spd_exp(sA: np.ndarray, v: np.ndarray, floor: float | np.ndarray,
             gap: float | np.ndarray) -> np.ndarray:
    # sqrt(A) exp(Sym(v)) sqrt(A), from the root sA of the base and the
    # base's ``_exp_floor`` and ``_exp_gap``.  The steps run once with the
    # warnings off; the result stands where it stays finite and, where the
    # small eigenvalue may pass the floor or be passed by rounding, the
    # point it is returned as is positive definite
    with np.errstate(all="ignore"):
        if sA.shape[-1] == 2:
            lead, *parts = _frob_parts2(v)
            E, low, wide = _spd2(*parts, "exp", exp_floor=floor, exp_gap=gap)
            P = sA @ _matrix2(lead, *E) @ sA
            y = _vector2(P.shape[:-2], *_sym_parts2(P))
        else:
            E, low, wide = _spd_functions(frob_unvec(v), "exp", exp_floor=floor, exp_gap=gap)
            y = frob_entries(sym(sA @ E @ sA))
    if np.count_nonzero(np.isfinite(y)) != y.size:
        # a non-finite tangent gives a non-finite result: it is refused as
        # such, as the larger orders' ``_spd_functions`` refuses it up front
        check_finite(np.asarray(v, dtype=float))
        raise NumericError("the spd exponential map overflows the float range")
    flagged = low | wide
    if _any(flagged):
        bad = _refused(frob_unvec(y), flagged)
        if _any(low & bad):
            raise NumericError("the spd exponential map underflows the float range")
        if _any(bad):
            message = ("the spd exponential map is not positive definite: rounding passes "
                       f"its smallest eigenvalue past an eigen-gap of {_EXP_GAP:.4g}")
            log_cond = _EXP_GAP - _first(np.broadcast_to(gap, bad.shape), bad)
            if log_cond > 0.0:
                message += (" less the base's log condition number, at most "
                            f"{log_cond:.4g}")
            raise NumericError(message)
    return y


_LOG_REFUSAL = ("target of spd log map is not SPD: matrix function 'log' requires SPD "
                "input: smallest eigenvalue")


def _spd_log(isA: np.ndarray, y: np.ndarray, matrix: bool = False) -> np.ndarray:
    # normal-coordinate log: log(sqrt(A)^-1 B sqrt(A)^-1), from the inverse
    # root isA of the base, as a Frobenius vector, or as the matrix with
    # ``matrix``; its Frobenius norm is the affine-invariant distance,
    # making the chart radially isometric in plain Euclidean tangent
    # coordinates
    if isA.shape[-1] != 2:
        L = _spd_functions(sym(isA @ frob_unvec(y) @ isA), "log", positive=_LOG_REFUSAL)[0]
        return L if matrix else frob_entries(L)
    lead, *parts = _frob_parts2(y)
    P = check_finite(isA @ _matrix2(lead, *parts) @ isA)
    (F,) = _spd2(*_sym_parts2(P), "log", positive=_LOG_REFUSAL)
    return (_matrix2 if matrix else _vector2)(P.shape[:-2], *F)


def _spd_distance(isA: np.ndarray, y: np.ndarray):
    L = _spd_log(isA, y, matrix=True)
    return row_norms(L.reshape(L.shape[:-2] + (-1,)))


class _SPDChart(Chart):
    """The SPD kernels about a base A, on its stored read-only ``root``
    sqrt(A) and ``inv_root`` sqrt(A)^-1, from the one spectral computation
    that also checks that A is positive definite, and on the base's
    ``_exp_floor`` and ``_exp_gap``, built on the first exp."""

    def __init__(self, spec: ManifoldSpec, x: np.ndarray):
        super().__init__(spec, x)
        root, inv_root = _spd_roots(x, "sqrt", "invsqrt")
        root.flags.writeable = inv_root.flags.writeable = False
        self.root, self.inv_root = root, inv_root

    @cached_property
    def exp_floor(self) -> float:
        return float(_exp_floor(self.inv_root))

    @cached_property
    def exp_gap(self) -> float:
        return float(_exp_gap(self.root, self.inv_root))

    def exp(self, v):
        return _spd_exp(self.root, v, self.exp_floor, self.exp_gap)

    def log(self, y):
        return _spd_log(self.inv_root, y)

    def distance(self, y):
        return _spd_distance(self.inv_root, y)


class SPD(ManifoldSpec):
    """n x n SPD matrices, affine-invariant: -1/2 <= K <= 0, with flat
    directions.  The kernels build every matrix they take a function of
    exactly symmetric, so it needs no ``check_symmetric``."""

    curvature_max, curvature_min = 0.0, -0.5
    chart = _SPDChart

    def __init__(self, n: int):
        super().__init__(sym_dim(n), sym_dim(n))
        self.param = float(n)

    def exp(self, x, v):
        sA, isA = _spd_roots(x, "sqrt", "invsqrt")
        return _spd_exp(sA, v, _exp_floor(isA), _exp_gap(sA, isA))

    def log(self, x, y):
        return _spd_log(_spd_roots(x, "invsqrt")[0], y)

    def distance(self, x, y):
        return _spd_distance(_spd_roots(x, "invsqrt")[0], y)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        n = int(self.param)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(0.4, 2.5, size=n)
        return frob_entries(sym((Q * w) @ Q.T))


# family -> (whether its identifier carries a curvature, its spec from the
# integer parameter and the curvature)
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
    spec.check(x, f"point of {spec.id}")
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
    return spec.chart(spec, x)


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
    return spec.exp(x, v)


def log_map(spec: ManifoldSpec, x, y) -> np.ndarray:
    """Inverse exponential: tangent coordinates of ``y`` about ``x``.

    Either argument may be a 2-D stack of points, as in ``exp_map``; a
    stack gives an (N, chart_dim) result, each row bit for bit the result
    of that row alone.
    """
    x = as_point(spec, x)
    y = as_point(spec, y)
    _stacked(x, y)  # rejects two stacks of different lengths
    return spec.log(x, y)


def distance(spec: ManifoldSpec, x, y):
    """Geodesic distance between two points of ``spec``.

    Either argument may be a 2-D stack of points, as in ``exp_map``; a
    stack gives an (N,) array, two points give a float.
    """
    x = as_point(spec, x)
    y = as_point(spec, y)
    stacked = _stacked(x, y)
    d = spec.distance(x, y)
    return d if stacked else float(d)


def random_point(spec: ManifoldSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a generic point of ``spec`` (for tests and audits)."""
    return spec.random_point(rng)


def random_tangent(spec: ManifoldSpec, x, rng: np.random.Generator,
                   radius: float | None = None) -> np.ndarray:
    """Draw a tangent vector at ``x`` with norm below ``radius``
    (default 0.9 of the injectivity radius, capped at 2)."""
    x = as_point(spec, x)
    if radius is None:
        radius = min(0.9 * spec.inj_lower, 2.0)
    v = spec.project(x, rng.standard_normal(spec.chart_dim))
    nv = float(np.linalg.norm(v))
    scale = radius * rng.random() ** (1.0 / spec.dim)
    return (scale / nv) * v
