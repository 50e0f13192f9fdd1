"""Quotient metric spaces generated by isometry groups, canonical
representatives, sample-based group-axiom checking, and product metrics.

The two built-in quotients are the flat torus (Euclidean space modulo
integer lattice translations) and real projective space (the sphere modulo
the antipodal map).  Arbitrary finite lists of isometries are supported
through the ``finite-list`` action kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import UnsupportedError, ValidationError
from .manifolds.core import ManifoldSpec, resolve_manifold
from .manifolds.zoo import _rp_canonical, _torus_distance, check_point, distance

__all__ = [
    "GroupAction",
    "lattice_action",
    "antipodal_action",
    "finite_list_action",
    "QuotientSpace",
    "ProductSpace",
    "resolve_quotient",
    "quotient_distance",
    "canonical_rep",
    "check_group_axioms",
    "GroupAxiomReport",
    "product_distance",
    "component_distance",
]

Element = Tuple[str, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class GroupAction:
    """A set of isometries acting on a base manifold.

    ``kind`` is one of ``lattice-translation``, ``antipodal`` or
    ``finite-list``.  ``enumerate_near(z1, z2)`` returns finitely many
    candidate elements sufficient to realize the infimum of
    d(z1, g(z2)); for the axis-aligned lattice this is the +-1 shift
    window around the rounded displacement.
    """

    kind: str
    apply: Callable[[Element, np.ndarray], np.ndarray] = field(repr=False)
    enumerate_near: Callable[[np.ndarray, np.ndarray], List[Element]] = field(repr=False)
    elements: Optional[Callable[[], List[Element]]] = field(default=None, repr=False)


def lattice_action(m: int) -> GroupAction:
    """Integer lattice translations of R^m."""

    def apply(g: Element, z: np.ndarray) -> np.ndarray:
        return z + np.asarray(g[1], dtype=float)

    def near(z1: np.ndarray, z2: np.ndarray) -> List[Element]:
        base = np.round(z1 - z2)
        out: List[Element] = []
        for offset in np.ndindex(*(3,) * m):
            k = base + np.asarray(offset) - 1
            out.append((f"shift{tuple(int(t) for t in k)}", k))
        return out

    return GroupAction("lattice-translation", apply, near,
                       lambda: near(np.zeros(m), np.zeros(m)))


def antipodal_action(m: int) -> GroupAction:
    """{identity, x -> -x} on the sphere S^m."""
    els: List[Element] = [("id", lambda z: z), ("neg", lambda z: -z)]

    return GroupAction("antipodal",
                       lambda g, z: g[1](z),
                       lambda z1, z2: list(els),
                       lambda: list(els))


def finite_list_action(maps: Sequence[Callable[[np.ndarray], np.ndarray]],
                       names: Optional[Sequence[str]] = None) -> GroupAction:
    """A user-supplied finite list of maps; the first entry should be the
    identity."""
    if not maps:
        raise ValidationError("finite-list action needs at least one map")
    if names is None:
        names = [f"g{i}" for i in range(len(maps))]
    els: List[Element] = list(zip(names, maps))

    return GroupAction("finite-list",
                       lambda g, z: g[1](z),
                       lambda z1, z2: list(els),
                       lambda: list(els))


@dataclass(frozen=True)
class QuotientSpace:
    """A base manifold together with an isometry-group action."""

    base: ManifoldSpec
    action: GroupAction
    id: str = ""

    @property
    def dim(self) -> int:
        return self.base.dim


# the group a quotient family divides its base family by
_ACTIONS = {"euclidean": lattice_action, "sphere": antipodal_action}


def resolve_quotient(identifier: str) -> QuotientSpace:
    """Build the torus:m or rp:m quotient from its shared identifier."""
    spec = resolve_manifold(identifier)
    base = spec.geometry.quotient_of
    if base is None:
        raise ValidationError(f"{identifier!r} is not a quotient identifier (torus:m or rp:m)")
    return QuotientSpace(resolve_manifold(f"{base}:{spec.dim}"), _ACTIONS[base](spec.dim),
                         spec.id)


def _check_rep(Q: QuotientSpace, y) -> np.ndarray:
    y = np.asarray(y, dtype=float).ravel()
    if Q.action.kind == "lattice-translation":
        if y.size != Q.base.dim:
            raise ValidationError(f"torus representative must have length {Q.base.dim}")
        if not np.all(np.isfinite(y)):
            raise ValidationError("torus representative has non-finite entries")
        if np.any(y < 0.0) or np.any(y >= 1.0):
            raise ValidationError("torus representative must lie in [0,1)^m")
        return y
    return check_point(Q.base, y)


def quotient_distance(Q: QuotientSpace, y1, y2) -> float:
    """inf over group elements g of d_base(y1, g(y2)).

    Torus and projective space use their exact closed forms; a finite-list
    action minimizes over its listed elements.
    """
    y1 = _check_rep(Q, y1)
    y2 = _check_rep(Q, y2)
    kind = Q.action.kind
    if kind == "lattice-translation":
        return float(_torus_distance(y1, y2))
    if kind == "antipodal":
        # arccos|x.y|, realized as the base distance to the sign-aligned
        # representative (analytically the two-element infimum), picked by
        # the ``Projective`` kernel's own test
        return distance(Q.base, y1, y2 if np.vecdot(y1, y2) >= 0.0 else -y2)
    best = math.inf
    for g in Q.action.enumerate_near(y1, y2):
        best = min(best, distance(Q.base, y1, Q.action.apply(g, y2)))
    return best


def canonical_rep(Q: QuotientSpace, z) -> np.ndarray:
    """Canonical class representative: fractional parts for the torus,
    sign-fixed unit vector for projective space; the identity otherwise."""
    z = np.asarray(z, dtype=float).ravel()
    if not np.all(np.isfinite(z)):
        raise ValidationError("point has non-finite entries")
    if Q.action.kind == "lattice-translation":
        return np.mod(z, 1.0)
    if Q.action.kind == "antipodal":
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            raise ValidationError("zero vector has no projective representative")
        return _rp_canonical(z / nz)
    return z.copy()


@dataclass(frozen=True)
class GroupAxiomReport:
    ok: bool
    violated: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_group_axioms(action: GroupAction, sample: Sequence[np.ndarray],
                       base: Optional[ManifoldSpec] = None) -> GroupAxiomReport:
    """Sample-based verification of the group/compatibility axioms, to an
    absolute tolerance of 1e-9.

    Checks, in order: identity membership, closure under g1 o g2^{-1},
    isometry of every listed element, and fixed-point freeness of
    non-identity elements.  The first violated axiom is reported.  Lattice
    actions are checked on the +-1 window; their closure is verified
    structurally (compositions displace by a constant integer vector).
    """
    sample = [np.asarray(z, dtype=float).ravel() for z in sample]
    if not sample:
        raise ValidationError("axiom check needs a non-empty sample")
    if action.elements is None:
        raise UnsupportedError("axiom check requires an enumerable action")
    els = action.elements()
    tol = 1e-9

    def dist(a: np.ndarray, b: np.ndarray) -> float:
        if base is not None:
            return distance(base, a, b)
        return float(np.linalg.norm(a - b))

    def is_identity(g: Element) -> bool:
        return all(float(np.linalg.norm(action.apply(g, z) - z)) <= tol for z in sample)

    # identity membership
    if not any(is_identity(g) for g in els):
        return GroupAxiomReport(False, "identity", "no listed element fixes the sample")

    if action.kind == "lattice-translation":
        # closure: each element displaces by a constant integer vector, and
        # differences of integer vectors are integer vectors
        for g in els:
            disps = [action.apply(g, z) - z for z in sample]
            d0 = disps[0]
            if any(float(np.linalg.norm(d - d0)) > tol for d in disps):
                return GroupAxiomReport(False, "closure",
                                        f"{g[0]} is not a translation on the sample")
            if float(np.linalg.norm(d0 - np.round(d0))) > tol:
                return GroupAxiomReport(False, "closure",
                                        f"{g[0]} displacement is not an integer vector")
    else:
        # closure under g1 o g2^{-1} within the listed elements
        def matches(f: Callable[[np.ndarray], np.ndarray], g: Element) -> bool:
            return all(float(np.linalg.norm(f(z) - action.apply(g, z))) <= tol
                       for z in sample)

        inverses = {}
        for i, g in enumerate(els):
            inv = None
            for h in els:
                composed = lambda z, g=g, h=h: action.apply(h, action.apply(g, z))
                if all(float(np.linalg.norm(composed(z) - z)) <= tol for z in sample):
                    inv = h
                    break
            if inv is None:
                return GroupAxiomReport(False, "closure", f"{g[0]} has no listed inverse")
            inverses[i] = inv
        for g1 in els:
            for i, g2 in enumerate(els):
                comp = lambda z, g1=g1, inv=inverses[i]: action.apply(
                    g1, action.apply(inv, z))
                if not any(matches(comp, h) for h in els):
                    return GroupAxiomReport(
                        False, "closure",
                        f"{g1[0]} o {g2[0]}^-1 is not among the listed elements")

    # isometry on sampled pairs
    for g in els:
        for i in range(len(sample)):
            for j in range(i + 1, len(sample)):
                d0 = dist(sample[i], sample[j])
                d1 = dist(action.apply(g, sample[i]), action.apply(g, sample[j]))
                if abs(d0 - d1) > tol * max(1.0, d0):
                    return GroupAxiomReport(False, "isometry",
                                            f"{g[0]} distorts a sampled pair")

    # fixed-point freeness of non-identity elements
    for g in els:
        if is_identity(g):
            continue
        for z in sample:
            if float(np.linalg.norm(action.apply(g, z) - z)) <= tol:
                return GroupAxiomReport(False, "free-action",
                                        f"{g[0]} fixes a sampled point")
    return GroupAxiomReport(True)


Component = Union[ManifoldSpec, QuotientSpace]


@dataclass(frozen=True)
class ProductSpace:
    """Finite product of manifolds and quotient spaces under the max metric."""

    components: Tuple[Component, ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("a product space needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))


def component_distance(comp: Component, a, b) -> float:
    if isinstance(comp, QuotientSpace):
        return quotient_distance(comp, a, b)
    return distance(comp, a, b)


def product_distance(P: ProductSpace, a: Sequence, b: Sequence) -> float:
    """max over components of the component distances."""
    if len(a) != len(P.components) or len(b) != len(P.components):
        raise ValidationError(
            f"tuple arity {len(a)}/{len(b)} does not match {len(P.components)} components"
        )
    return max(component_distance(c, ai, bi)
               for c, ai, bi in zip(P.components, a, b))
