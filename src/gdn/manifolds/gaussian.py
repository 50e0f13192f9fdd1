"""Gaussian measures: the mean/log-covariance chart and the closed-form
Wasserstein-2 distance between non-degenerate Gaussians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from .sym import (
    check_spd,
    eigh,
    sym,
    sym_chart_decode,
    sym_chart_encode,
    sym_dim,
    sym_matrix_function,
)

__all__ = ["GaussianParam", "gaussian_chart_encode", "gaussian_chart_decode",
           "wasserstein2"]


@dataclass(frozen=True)
class GaussianParam:
    """Mean vector and SPD covariance of a non-degenerate Gaussian."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = check_spd(self.cov)
        if cov.shape[0] != mean.size:
            raise ValidationError(
                f"covariance order {cov.shape[0]} does not match mean length {mean.size}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def order(self) -> int:
        return self.mean.size


def gaussian_chart_encode(g: GaussianParam) -> np.ndarray:
    """Gaussian -> (mean block, upper-triangle block of log(cov))."""
    return np.concatenate([g.mean, sym_chart_encode(sym_matrix_function("log", g.cov))])


def gaussian_chart_decode(v: np.ndarray) -> GaussianParam:
    """(mu block, s block) -> Gaussian with covariance exp of the symmetric
    matrix parameterized by the s block."""
    v = np.asarray(v, dtype=float).ravel()
    n = _order_from_chart_dim(v.size)
    mu = v[:n]
    S = sym_chart_decode(v[n:])
    return GaussianParam(mu, sym_matrix_function("exp", S))


def _order_from_chart_dim(d: int) -> int:
    # solve n + n(n+1)/2 = d
    n = int((math.isqrt(9 + 8 * d) - 3) // 2)
    if n + sym_dim(n) != d:
        raise ValidationError(f"length {d} is not of the form n + n(n+1)/2")
    return n


def wasserstein2(a: GaussianParam, b: GaussianParam) -> float:
    """Wasserstein-2 distance between non-degenerate Gaussians.

    W2^2 = |mu1 - mu2|^2 + tr(S1) + tr(S2) - 2 tr((S1^{1/2} S2 S1^{1/2})^{1/2}),
    with the cross term in its symmetrized form.  The covariance part is
    evaluated as the squared Frobenius norm |S1^{1/2} - S2^{1/2} U|_F^2 with
    U the polar factor of S2^{1/2} S1^{1/2} (equal by expanding the square),
    which avoids the trace cancellation that otherwise floors the distance
    near coincident inputs.
    """
    if a.order != b.order:
        raise ValidationError(f"order mismatch: {a.order} vs {b.order}")
    s1 = sym_matrix_function("sqrt", a.cov)
    s2 = sym_matrix_function("sqrt", b.cov)
    # G = S1^{1/2} S2 S1^{1/2}; its eigen-sqrt gives the singular data of
    # M = S2^{1/2} S1^{1/2}
    G = s1 @ b.cov @ s1
    w, W = eigh(sym(G))
    svals = np.sqrt(np.maximum(w, 0.0))
    M = s2 @ s1
    V = (M @ W) / np.maximum(svals, 1e-300)
    U = V @ W.T
    D = s1 - s2 @ U
    dmu = a.mean - b.mean
    val = float(dmu @ dmu) + float(np.sum(D * D))
    return math.sqrt(max(val, 0.0))
