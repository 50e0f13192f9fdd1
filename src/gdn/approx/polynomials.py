"""Multivariate polynomial utilities: sparse exponent-dict polynomials, the
polarization-based decomposition into univariate polynomials of linear
forms, monomial/multiplication counting, and the squared-difference
reciprocal approximant.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product
from typing import Dict, NamedTuple, Tuple

import numpy as np

from ..errors import DomainError, NumericError, ParseError, ValidationError

__all__ = [
    "product_grid",
    "poly_eval",
    "poly_derivative",
    "poly_total_degree",
    "parse_poly_expr",
    "LinearFormPoly",
    "decompose_polynomial",
    "MonomialCounts",
    "monomial_counts",
    "reciprocal_approx",
]

Coeffs = Dict[Tuple[int, ...], float]


def product_grid(axis, p: int) -> np.ndarray:
    """Every point of ``axis``^p as a C-ordered (len(axis)^p, p) stack, in
    lexicographic order (the last coordinate varies fastest), which is the
    order of ``itertools.product(axis, repeat=p)``."""
    axis = np.asarray(axis, dtype=float)
    k = len(axis)
    # coordinate d broadcasts along lattice axis d; unlike np.meshgrid, this
    # has no fixed cost that outweighs itertools on the small lattices
    grid = np.empty((k,) * p + (p,))
    for d in range(p):
        grid[..., d] = axis.reshape((k,) + (1,) * (p - 1 - d))
    return grid.reshape(-1, p)


def poly_eval(coeffs: Dict[Tuple[int, ...], object], x) -> np.ndarray:
    """Evaluate a sparse exponent-dict polynomial, with scalar or vector
    coefficients, at a point or at each row of an (N, dim) stack.

    A power above 1 is ``np.float_power``, whose float64 loop calls libm's
    ``pow`` per element, so each row has the bits of Python's ``pow`` on
    that coordinate (``np.power`` and repeated products round differently
    on some doubles); an overflow gives inf.  A power of 1 is the
    coordinate itself."""
    x = np.asarray(x, dtype=float)
    x = x if x.ndim == 2 else x.ravel()
    total = None
    for exps, c in coeffs.items():
        mono = np.ones(x.shape[:-1])
        for xi, e in zip(x.T, exps):
            if e == 1:
                mono = mono * xi
            elif e:
                mono = mono * np.float_power(xi, e)
        term = np.multiply.outer(mono, np.asarray(c, dtype=float))
        total = term if total is None else total + term
    if total is None:
        return np.zeros(x.shape[:-1])[()]
    return total


def poly_derivative(coeffs: Dict[Tuple[int, ...], object],
                    axis: int) -> Dict[Tuple[int, ...], object]:
    """Partial derivative along one axis."""
    out: Dict[Tuple[int, ...], object] = {}
    for exps, c in coeffs.items():
        e = exps[axis]
        if e == 0:
            continue
        new = list(exps)
        new[axis] = e - 1
        key = tuple(new)
        add = np.asarray(c, dtype=float) * e
        out[key] = out[key] + add if key in out else add
    return out


def poly_total_degree(coeffs: Coeffs) -> int:
    return max((sum(e) for e in coeffs), default=0)


_TERM_RE = re.compile(
    r"^\s*([0-9.]+(?:[eE][+-]?[0-9]+)?)?\s*\*?\s*((?:x\d+(?:\^\d+)?\s*\*?\s*)*)$")
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")
# a sign that starts a term, not the exponent sign of a number such as 1e-3
_SIGN_RE = re.compile(r"(?<![0-9.][eE])([+-])")


def parse_poly_expr(expr: str, dim: int) -> Coeffs:
    """Parse expressions like ``"x1*x2 + 0.5*x1^2 - 2e-3"`` into an
    exponent dict over ``dim`` variables (variables are 1-indexed)."""
    parts = _SIGN_RE.split(expr)
    coeffs: Coeffs = {}
    # parts alternate term, sign, term, ...; the first term has no sign
    for n, (sign, raw) in enumerate(zip(["+"] + parts[1::2], parts[0::2])):
        term = raw.strip()
        if not term:
            if n == 0:
                continue
            raise ParseError(f"polynomial {expr.strip()!r} has a sign with no term after it")
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"cannot parse polynomial term {term!r}")
        try:
            coef = float(m.group(1)) if m.group(1) else 1.0
        except ValueError:
            raise ParseError(f"cannot parse the number {m.group(1)!r} in polynomial "
                             f"term {term!r}") from None
        exps = [0] * dim
        for vm in _VAR_RE.finditer(m.group(2) or ""):
            i = int(vm.group(1))
            if not (1 <= i <= dim):
                raise ParseError(f"variable x{i} outside dimension {dim}")
            exps[i - 1] += int(vm.group(2)) if vm.group(2) else 1
        key = tuple(exps)
        coeffs[key] = coeffs.get(key, 0.0) + (-coef if sign == "-" else coef)
    return {k: v for k, v in coeffs.items() if v != 0.0}


@dataclass(frozen=True)
class LinearFormPoly:
    """Sum of univariate polynomials of linear forms:
    h(x) = sum_i p_i(<a_i, x>), with p_i given by its coefficient vector
    (constant term first)."""

    terms: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    dim: int

    def __post_init__(self):
        # the directions as a (T, dim) stack and the coefficient vectors as
        # (T, width) rows; a shorter vector is padded with zero leading
        # coefficients, which keep Horner's running value at +0.0
        bs = [b for _a, b in self.terms]
        B = np.zeros((len(bs), max(map(len, bs), default=1)))
        for i, b in enumerate(bs):
            B[i, :len(b)] = b
        A = np.array([a for a, _b in self.terms], dtype=float).reshape(-1, self.dim)
        object.__setattr__(self, "_stacked", (A, B))

    def __call__(self, x):
        """h at a point, or at each row of an (N, dim) stack.

        Bit for bit the per-term sum of ``np.polyval(b[::-1], np.vecdot(x,
        a))`` in term order: one ``vecdot`` per (row, term) pair, Horner's
        loop over every term at once (``np.polyval``'s own loop), then one
        addition per term, not ``np.sum``, whose pairwise sum rounds
        differently."""
        x = np.asarray(x, dtype=float)
        x = x if x.ndim == 2 else x.ravel()
        A, B = self._stacked
        z = np.vecdot(x[..., None, :], A)
        y = np.zeros_like(z)
        for coefficients in B.T[::-1]:
            y = y * z + coefficients
        total = np.zeros(x.shape[:-1])
        for term in y.T:
            total = total + term
        return total if x.ndim == 2 else float(total)


def _canonical_direction(a: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    # +-a as the one whose first nonzero component is positive, with the sign
    if next(t for t in a if t) < 0:
        return tuple(-t for t in a), -1
    return a, 1


def decompose_polynomial(coeffs: Coeffs, degree: int, dim: int) -> LinearFormPoly:
    """Rewrite a multivariate polynomial as a sum of univariate polynomials
    of linear forms.

    Mixed monomials go through the polarization identity
    y_1...y_d = 2^{-d} (d!)^{-1} sum_{e in {+-1}^d} (prod e) (sum_j e_j y_j)^d,
    with +-a directions merged; pure powers and affine terms map directly.
    Sign patterns are aggregated per coordinate (a monomial x^alpha needs
    only prod_i (alpha_i + 1) distinct directions, not 2^degree patterns).
    The result is verified against the source, to 1e-8 relative to the
    largest coefficient, on a (degree+1)^dim grid of [-1, 1]^dim.
    """
    if poly_total_degree(coeffs) > degree:
        raise ValidationError("declared degree is below the polynomial's total degree")
    acc: Dict[Tuple[int, ...], np.ndarray] = {}
    constant = 0.0

    def add(direction: Tuple[int, ...], d: int, c: float):
        if direction not in acc:
            acc[direction] = np.zeros(degree + 1)
        acc[direction][d] += c

    for exps, coef in coeffs.items():
        d = sum(exps)
        if d == 0:
            constant += coef
            continue
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            add(tuple(int(i == support[0]) for i in range(dim)), d, coef)
            continue
        # polarization, aggregated: choosing j_i of the alpha_i copies of
        # coordinate i to carry +1 gives direction component 2 j_i - alpha_i
        # with multiplicity C(alpha_i, j_i) and sign (-1)^{alpha_i - j_i}
        norm = coef / (2.0 ** d * math.factorial(d))
        alphas = [exps[i] for i in support]
        for js in product(*(range(a_i + 1) for a_i in alphas)):
            a = [0] * dim
            weight = 1.0
            for i, a_i, j_i in zip(support, alphas, js):
                a[i] = 2 * j_i - a_i
                weight *= math.comb(a_i, j_i) * (-1.0) ** (a_i - j_i)
            if not any(a):
                continue
            key, flip = _canonical_direction(tuple(a))
            add(key, d, norm * weight * (flip ** d))

    terms = []
    for key, b in sorted(acc.items()):
        if np.any(np.abs(b) > 0.0):
            terms.append((np.array(key, dtype=float), b.copy()))
    if constant != 0.0:
        if terms:
            terms[0][1][0] += constant
        else:
            a = np.zeros(dim)
            a[0] = 1.0
            b = np.zeros(degree + 1)
            b[0] = constant
            terms.append((a, b))

    result = LinearFormPoly(tuple(terms), dim)

    # round-trip audit on the test grid
    grid = product_grid(np.linspace(-1.0, 1.0, degree + 1), dim)
    scale = max(1.0, max((abs(float(np.asarray(c))) for c in coeffs.values()), default=1.0))
    want, got = poly_eval(coeffs, grid), result(grid)
    bad = np.flatnonzero(np.abs(want - got) > 1e-8 * scale)
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"polarization decomposition failed audit at {grid[i]}: {got[i]} vs {want[i]}"
        )
    return result


class MonomialCounts(NamedTuple):
    M: int
    M0: int
    P1: int


def monomial_counts(n: int, p: int) -> MonomialCounts:
    """Monomial and multiplication counts for the degree-n Bernstein
    expansion in dimension p.

    M  = ((n/2 + 1)(n + 1))^p lattice monomial slots,
    M0 = n p + 1 monomials with at most one active coordinate,
    P1 = n p M leading multiplication count.
    """
    if n < 1 or p < 1:
        raise ValidationError("n and p must be >= 1")
    slot = (n + 1) * (n + 2) // 2
    M = slot ** p
    return MonomialCounts(M, n * p + 1, n * p * M)


def reciprocal_approx(x: float, n_a: int) -> Tuple[float, float]:
    """Bounded-width reciprocal approximant
    r(x) = (2 - x) prod_{i=1..n_a} (1 + (1 - x)^(2^i)) with its closed-form
    error |(1 - x)^(2^(n_a+1)) / x|."""
    if not (0.0 < x < 2.0):
        raise DomainError(f"reciprocal approximant requires x in (0, 2), got {x!r}")
    if n_a < 0:
        raise ValidationError("n_a must be nonnegative")
    u = 1.0 - x
    r = 2.0 - x
    power = u * u
    for _ in range(n_a):
        r *= 1.0 + power
        power = power * power
    # after the loop, power == (1-x)^(2^(n_a+1))
    return r, abs(power / x)
