"""Multidimensional Bernstein operator on the unit cube: evaluation over
the (n+1)^p coefficient lattice and conversion to monomial coefficients
for network synthesis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Tuple

import numpy as np

from ..errors import DomainError, ValidationError
from .modulus import oracle_rows
from .polynomials import product_grid

__all__ = [
    "BernsteinModel",
    "bernstein_eval",
    "bernstein_weights",
    "bernstein_contract",
    "bernstein_from_function",
    "bernstein_to_coefficients",
]


@dataclass(frozen=True)
class BernsteinModel:
    """Lattice of target values f(k_1/n, ..., k_p/n) with m outputs.

    ``values`` has shape (n+1, ..., n+1, m): one axis per input dimension in
    lexicographic lattice order, one trailing output axis.
    """

    n: int
    p: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValidationError("Bernstein degree and dimension must be >= 1")
        values = np.asarray(self.values, dtype=float)
        expected = (self.n + 1,) * self.p
        if values.shape[:-1] != expected or values.ndim != self.p + 1:
            raise ValidationError(
                f"values must have shape {expected + ('m',)}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("lattice values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[-1]


@lru_cache(maxsize=64)
def _binomial_row(n: int) -> np.ndarray:
    row = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    row.setflags(write=False)
    return row


def _basis_weights(n: int, x: np.ndarray) -> np.ndarray:
    # p_{n,k}(x) = C(n,k) x^k (1-x)^(n-k) for k = 0..n, on a new last axis
    ks = np.arange(n + 1)
    x = x[..., None]
    return _binomial_row(n) * np.power(x, ks) * np.power(1.0 - x, n - ks)


def bernstein_weights(n: int, p: int, pts) -> np.ndarray:
    """The degree-n basis weights p_{n,k}(x_i) = C(n,k) x_i^k (1-x_i)^(n-k)
    of each row of an (N, p) stack of points of the unit cube, as an
    (N, p, n+1) stack, after checking the rows."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[1] != p:
        raise ValidationError(f"point must have length {p}, got {pts.shape[1]}")
    if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
        raise DomainError("Bernstein evaluation requires a point of the unit cube")
    return _basis_weights(n, np.clip(pts, 0.0, 1.0))


def bernstein_contract(model: BernsteinModel, weights: np.ndarray) -> np.ndarray:
    """The Bernstein sum of each row of ``bernstein_weights(model.n,
    model.p, pts)``, shape (N, m).

    Each row is contracted one axis at a time by its own vector-matrix
    product, so a row's value does not depend on the rest of the stack.
    """
    n1 = model.n + 1
    # the lattice is one (1, n+1, rest) block shared by every row; after the
    # first contraction each row carries its own (1, rest) partial sum
    acc = model.values
    for i in range(model.p):
        rest = n1 ** (model.p - 1 - i) * model.m
        acc = np.matmul(weights[:, i, None, :], acc.reshape(-1, n1, rest))
    return acc.reshape(len(weights), model.m)


def bernstein_eval(model: BernsteinModel, x) -> np.ndarray:
    """Exact finite Bernstein sum at a point of the unit cube, shape (m,);
    or at each row of an (N, p) stack of such points, shape (N, m): the
    contraction of the rows' checked basis weights."""
    x = np.asarray(x, dtype=float)
    pts = x if x.ndim == 2 else x.reshape(1, -1)
    out = bernstein_contract(model, bernstein_weights(model.n, model.p, pts))
    return out if x.ndim == 2 else out[0]


def bernstein_from_function(f: Callable[[np.ndarray], np.ndarray],
                            n: int, p: int, m: int) -> BernsteinModel:
    """Sample an oracle on the degree-n lattice of the unit cube: one call
    on the ((n+1)^p, p) stack of lattice points k / n in lexicographic
    order, which must return an ((n+1)^p, m) stack."""
    lattice = product_grid(np.arange(n + 1) / n, p)
    values = oracle_rows(f, lattice, m)
    return BernsteinModel(n, p, values.reshape((n + 1,) * p + (m,)))


def _bernstein_to_monomial_matrix(n: int) -> np.ndarray:
    # T[d, k]: coefficient of x^d in p_{n,k}(x)
    T = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        cnk = math.comb(n, k)
        for c in range(n - k + 1):
            T[k + c, k] += cnk * math.comb(n - k, c) * (-1.0) ** c
    return T


def bernstein_to_coefficients(model: BernsteinModel) -> Dict[Tuple[int, ...], np.ndarray]:
    """Monomial coefficients of the Bernstein polynomial.

    Returns a map exponent-tuple -> m-vector; entries below 1e-10 relative
    to the largest coefficient are dropped.  Intended for the desk-scale
    degrees used in synthesis (binomial growth makes the conversion
    ill-conditioned for large n).
    """
    T = _bernstein_to_monomial_matrix(model.n)
    acc = model.values
    for axis in range(model.p):
        acc = np.moveaxis(np.tensordot(T, np.moveaxis(acc, axis, 0), axes=(1, 0)), 0, axis)
    scale = max(float(np.max(np.abs(acc))), 1.0)
    # kept exponents in C (lexicographic) order, each with its m-vector
    keep = np.max(np.abs(acc), axis=-1) > 1e-10 * scale
    return dict(zip(map(tuple, np.argwhere(keep).tolist()), acc[keep]))

