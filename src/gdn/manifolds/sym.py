"""Symmetric-matrix kernels: the eigendecomposition behind every SPD chart,
spectral matrix functions, and the two vectorizations of symmetric
matrices used across the package.

The hot path is ``eigh``: LAPACK's ``np.linalg.eigh`` on one matrix or on
an (N, n, n) stack, after the symmetry check.  The spectral functions and
the SPD charts all go through it, so a stack of points costs one LAPACK
call and one array operation per step.  ``jacobi_eigh``, a pure-Python
cyclic Jacobi solver, is kept as the reference the tests compare against.

Two vector layouts coexist on purpose:

* ``sym_chart`` is the plain row-wise upper-triangle parameterization
  (a11, a12, ..., a1p, a22, ..., app) <-> symmetric matrix.  It is the
  parameterization used by the Gaussian feature chart.
* ``frob_vec``/``frob_unvec`` scale off-diagonal entries by sqrt(2) so the
  Euclidean norm of the vector equals the Frobenius norm of the matrix.
  The spd manifold represents points and tangents this way, which is what
  makes the radial-isometry identity d(A, Exp_A(V)) = |v| hold in plain
  Euclidean norm on the tangent coordinates.
"""
from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

from ..errors import DomainError, NumericError, ValidationError

__all__ = [
    "eigh",
    "spectral",
    "jacobi_eigh",
    "check_symmetric",
    "check_spd",
    "sym_dim",
    "order_from_sym_dim",
    "sym_chart_encode",
    "sym_chart_decode",
    "sym_chart",
    "frob_vec",
    "frob_unvec",
    "sym_matrix_function",
    "spd_sqrt",
    "spd_invsqrt",
    "spd_log",
    "sym_exp",
]

_SQRT2 = math.sqrt(2.0)


def check_symmetric(A: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate symmetry up to ``tol`` relative skew and return the exact
    symmetrization (A + A^T)/2.  ``A`` is one square matrix or an
    (N, n, n) stack, each matrix judged against its own scale."""
    A = np.asarray(A, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    if np.count_nonzero(np.isfinite(A)) != A.size:
        raise ValidationError("matrix entries must be finite")
    At = A.swapaxes(-1, -2)
    # the ufunc reductions skip numpy's Python-level wrappers, which cost
    # more than the reduction itself on the 2x2 matrices of a chart call
    skew = np.maximum.reduce(np.abs(A - At), axis=(-2, -1), initial=0.0)
    scale = np.maximum.reduce(np.abs(A), axis=(-2, -1), initial=1.0)
    bad = skew > tol * scale
    if np.count_nonzero(bad):
        raise ValidationError(f"matrix is not symmetric: max skew {skew[bad].max():.3e}")
    return 0.5 * (A + At)


def eigh(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, or of an (N, n, n) stack,
    by LAPACK.

    Returns eigenvalues ascending along the last axis and the matching
    orthonormal eigenvector columns.  Symmetry is checked first, as in
    ``jacobi_eigh``, which is the reference this is tested against.
    """
    A = check_symmetric(A)
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"eigendecomposition failed: {e}") from e


def spectral(V: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """V diag(fw) V^T, symmetrized, for one eigenbasis or a stack of them
    (``fw`` holds the function values of the eigenvalues)."""
    M = (V * fw[..., None, :]) @ V.swapaxes(-1, -2)
    return 0.5 * (M + M.swapaxes(-1, -2))


def jacobi_eigh(A: np.ndarray, tol: float = 1e-12,
                max_sweeps: int = 30) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues ascending and the matching orthonormal eigenvector
    columns.  Terminates when the off-diagonal Frobenius norm drops below
    ``tol`` times the matrix norm; raises after ``max_sweeps`` sweeps.
    This is the reference solver for ``eigh``; no chart calls it.
    """
    A = check_symmetric(A)
    if A.ndim != 2:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    V = np.eye(n)
    if n == 1:
        return A.diagonal().copy(), V
    norm = max(float(np.linalg.norm(A)), np.finfo(float).tiny)
    upper = np.triu_indices(n, k=1)
    for _ in range(max_sweeps):
        off = math.sqrt(2.0) * float(np.linalg.norm(A[upper]))
        if off <= tol * norm:
            w = A.diagonal().copy()
            order = np.argsort(w, kind="stable")
            return w[order], V[:, order]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 0.25 * tol * norm / (n * n):
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # A <- J^T A J with the (p,q)-plane rotation J = [[c,s],[-s,c]]
                J = np.array([[c, s], [-s, c]])
                A[[p, q], :] = J.T @ A[[p, q], :]
                A[:, [p, q]] = A[:, [p, q]] @ J
                # re-symmetrize the rotated pair against roundoff drift
                A[p, q] = A[q, p] = 0.5 * (A[p, q] + A[q, p])
                V[:, [p, q]] = V[:, [p, q]] @ J
    raise NumericError(f"Jacobi failed to converge in {max_sweeps} sweeps")


def check_spd(A: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate symmetry and strict positive-definiteness (via ``eigh``)."""
    A = check_symmetric(A, tol)
    w, _ = eigh(A)
    _require_positive(w, "matrix is not SPD")
    return A


def _require_positive(w: np.ndarray, what: str) -> None:
    # w holds ascending spectra, so the first column is each matrix's minimum
    lowest = w[..., 0]
    if (lowest <= 0.0).any():
        raise DomainError(f"{what}: smallest eigenvalue {lowest.min():.6e}")


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def order_from_sym_dim(d: int) -> int:
    n = int((math.isqrt(8 * d + 1) - 1) // 2)
    if sym_dim(n) != d:
        raise ValidationError(f"length {d} is not of the form n(n+1)/2")
    return n


@functools.lru_cache(maxsize=None)
def _triu_indices(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of order ``n``, and the
    Frobenius weights of its entries (1 on the diagonal, sqrt 2 off it).
    Built once per order and read-only, since every caller shares them."""
    iu, ju = np.triu_indices(n)
    weight = np.where(iu == ju, 1.0, _SQRT2)
    for a in (iu, ju, weight):
        a.flags.writeable = False
    return iu, ju, weight


def sym_chart_decode(v: np.ndarray) -> np.ndarray:
    """Row-wise upper-triangle vector -> symmetric matrix."""
    v = np.asarray(v, dtype=float).ravel()
    n = order_from_sym_dim(v.size)
    A = np.zeros((n, n))
    iu, ju, _ = _triu_indices(n)
    A[iu, ju] = v
    A[ju, iu] = v
    return A


def sym_chart_encode(A: np.ndarray) -> np.ndarray:
    """Symmetric matrix -> row-wise upper-triangle vector (exact inverse of
    ``sym_chart_decode`` on symmetric matrices)."""
    A = check_symmetric(A)
    if A.ndim != 2:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    iu, ju, _ = _triu_indices(A.shape[0])
    return A[iu, ju].copy()


def sym_chart(direction: str, arg):
    """Dispatching form of the symmetrization chart.

    ``direction="encode"`` expects a vector of length p(p+1)/2 and returns
    the symmetric matrix; ``"decode"`` inverts it.
    """
    if direction == "encode":
        return sym_chart_decode(arg)
    if direction == "decode":
        return sym_chart_encode(arg)
    raise ValidationError(f"direction must be 'encode' or 'decode', got {direction!r}")


def frob_unvec(v: np.ndarray) -> np.ndarray:
    """Frobenius-isometric vector -> symmetric matrix (off-diagonals /sqrt2).

    A 2-D ``v`` is an (N, d) stack of vectors and gives an (N, n, n) stack;
    any other shape is flattened to one vector.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        v = v.ravel()
    n = order_from_sym_dim(v.shape[-1])
    iu, ju, weight = _triu_indices(n)
    vals = v / weight
    A = np.zeros(v.shape[:-1] + (n, n))
    A[..., iu, ju] = vals
    A[..., ju, iu] = vals
    return A


def frob_vec(A: np.ndarray) -> np.ndarray:
    """Symmetric matrix -> Frobenius-isometric vector (off-diagonals *sqrt2),
    so that ||frob_vec(A)||_2 == ||A||_F.  An (N, n, n) stack gives an
    (N, d) stack."""
    A = check_symmetric(A)
    iu, ju, weight = _triu_indices(A.shape[-1])
    return A[..., iu, ju] * weight


_FUNCS = {
    "sqrt": (np.sqrt, True),
    "invsqrt": (lambda w: 1.0 / np.sqrt(w), True),
    "log": (np.log, True),
    "exp": (np.exp, False),
}


def sym_matrix_function(fn: str, A: np.ndarray) -> np.ndarray:
    """Apply sqrt / invsqrt / log / exp to a symmetric matrix, or to an
    (N, n, n) stack, spectrally.

    sqrt, invsqrt and log require strict positive definiteness; exp accepts
    any symmetric matrix.
    """
    if fn not in _FUNCS:
        raise ValidationError(f"unknown matrix function {fn!r}; expected one of {sorted(_FUNCS)}")
    func, needs_spd = _FUNCS[fn]
    w, V = eigh(A)
    if needs_spd:
        _require_positive(w, f"matrix function {fn!r} requires SPD input")
    return spectral(V, func(w))


def spd_sqrt(A: np.ndarray) -> np.ndarray:
    return sym_matrix_function("sqrt", A)


def spd_invsqrt(A: np.ndarray) -> np.ndarray:
    return sym_matrix_function("invsqrt", A)


def spd_log(A: np.ndarray) -> np.ndarray:
    return sym_matrix_function("log", A)


def sym_exp(A: np.ndarray) -> np.ndarray:
    return sym_matrix_function("exp", A)
