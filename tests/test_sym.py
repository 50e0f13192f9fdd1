"""Eigensolvers, symmetric chart, and spectral matrix functions."""
import math

import numpy as np
import pytest

from conftest import random_orthogonal, random_spd
from gdn.errors import DomainError, ValidationError
from gdn.manifolds.sym import (
    eigh,
    frob_unvec,
    frob_vec,
    jacobi_eigh,
    sym_chart,
    sym_matrix_function,
)


def _with_spectrum(w, seed: int) -> np.ndarray:
    Q = random_orthogonal(len(w), np.random.default_rng(seed))
    A = (Q * np.asarray(w, dtype=float)) @ Q.T
    return 0.5 * (A + A.T)


# Spectra the solvers must agree on: every order from 1 to 8, repeated
# eigenvalues, and condition number 1e8.  All positive, so the same
# matrices also serve the SPD round trips.
SPECTRA = {
    **{f"order{n}": list(np.linspace(0.3, 3.0, n) + 0.1 * np.arange(n) ** 2)
       for n in range(1, 9)},
    "repeated-pair": [0.5, 2.0, 2.0],
    "repeated-triple": [1.5, 1.5, 1.5, 4.0],
    "scalar-matrix": [2.0] * 5,
    "cond-1e8": [1e-4, 0.03, 7.0, 1e4],
    "cond-1e8-repeated": [1e-4, 1e-4, 1.0, 1e4, 1e4],
}
SPD_CASES = [pytest.param(_with_spectrum(w, seed), id=name)
             for seed, (name, w) in enumerate(SPECTRA.items())]


class TestJacobi:
    def test_matches_reference_solver(self, rng):
        for n in (2, 3, 5, 8):
            for _ in range(25):
                A = random_spd(n, rng, lo=-2.0, hi=2.0)
                w, V = jacobi_eigh(A)
                np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(A),
                                           atol=1e-10)
                np.testing.assert_allclose((V * w) @ V.T, A, atol=1e-10)
                np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("A", SPD_CASES)
    def test_eigh_matches_jacobi(self, A):
        # eigenvectors of a repeated eigenvalue are not unique, so compare
        # spectra and reconstructions, not the vectors themselves
        n = A.shape[0]
        scale = max(1.0, float(np.linalg.norm(A)))
        w_ref, V_ref = jacobi_eigh(A)
        w, V = eigh(A)
        np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=1e-12 * scale)
        for vals, vecs in ((w, V), (w_ref, V_ref)):
            np.testing.assert_allclose((vecs * vals) @ vecs.T, A, atol=1e-11 * scale)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)

    def test_eigh_stack_matches_single_calls(self, rng):
        A = np.stack([random_spd(3, rng, lo=-2.0, hi=2.0) for _ in range(40)])
        w, V = eigh(A)
        for i in range(len(A)):
            wi, Vi = eigh(A[i])
            np.testing.assert_array_equal(w[i], wi)
            np.testing.assert_array_equal(V[i], Vi)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_eigh_rejects_asymmetric_matrix_and_stack_row(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        for A in (bad, np.stack([np.eye(2), bad])):
            with pytest.raises(ValidationError, match="not symmetric"):
                eigh(A)


class TestSymChart:
    def test_encode_layout(self):
        M = sym_chart("encode", [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(M, [[1.0, 2.0], [2.0, 3.0]])

    def test_decode_inverse(self):
        v = sym_chart("decode", np.array([[1.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_round_trips_exact(self, rng):
        for n in (1, 2, 4):
            v = rng.standard_normal(n * (n + 1) // 2)
            np.testing.assert_array_equal(sym_chart("decode", sym_chart("encode", v)), v)
            A = random_spd(n, rng)
            np.testing.assert_array_equal(sym_chart("encode", sym_chart("decode", A)), A)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(sym_chart("encode", np.zeros(6)), np.zeros((3, 3)))


class TestFrobeniusVectorization:
    def test_norm_isometry(self, rng):
        for n in (2, 3, 5):
            A = random_spd(n, rng, lo=-2.0, hi=2.0)
            v = frob_vec(A)
            assert float(np.linalg.norm(v)) == pytest.approx(
                float(np.linalg.norm(A)), rel=1e-14)
            np.testing.assert_allclose(frob_unvec(v), A, atol=1e-15)


class TestMatrixFunctions:
    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(
            sym_matrix_function("sqrt", np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
            atol=1e-12)

    def test_log_identity(self):
        np.testing.assert_allclose(
            sym_matrix_function("log", np.eye(3)), np.zeros((3, 3)), atol=1e-12)

    def test_exp_hadamard(self):
        # eigenvalues +-1 with Hadamard eigenvectors
        E = sym_matrix_function("exp", np.array([[0.0, 1.0], [1.0, 0.0]]))
        want = np.array([[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]])
        np.testing.assert_allclose(E, want, atol=1e-12)

    def test_exp_log_and_sqrt_square_round_trips(self, rng):
        for n in (2, 3, 4):
            A = random_spd(n, rng, lo=0.1, hi=5.0)
            np.testing.assert_allclose(
                sym_matrix_function("exp", sym_matrix_function("log", A)), A, atol=1e-8)
            S = sym_matrix_function("sqrt", A)
            np.testing.assert_allclose(S @ S, A, atol=1e-8)
            np.testing.assert_allclose(
                sym_matrix_function("invsqrt", A) @ S, np.eye(n), atol=1e-8)

    @pytest.mark.parametrize("A", SPD_CASES)
    def test_round_trips_on_reference_spectra(self, A):
        n = A.shape[0]
        np.testing.assert_allclose(
            sym_matrix_function("exp", sym_matrix_function("log", A)), A, atol=1e-8)
        S = sym_matrix_function("sqrt", A)
        np.testing.assert_allclose(S @ S, A, atol=1e-8)
        # invsqrt(A) sqrt(A) = I loses up to cond(A)^(1/2) relative accuracy
        np.testing.assert_allclose(
            sym_matrix_function("invsqrt", A) @ S, np.eye(n), atol=1e-8)

    def test_stack_matches_single_calls(self, rng):
        A = np.stack([random_spd(3, rng, lo=0.1, hi=5.0) for _ in range(30)])
        for fn in ("sqrt", "invsqrt", "log", "exp"):
            F = sym_matrix_function(fn, A)
            for i in range(len(A)):
                np.testing.assert_array_equal(F[i], sym_matrix_function(fn, A[i]))

    def test_stack_rejects_one_non_spd_matrix(self):
        A = np.stack([np.eye(2), np.diag([1.0, -2.0]), np.eye(2)])
        with pytest.raises(DomainError, match="smallest eigenvalue"):
            sym_matrix_function("log", A)

    def test_high_condition_round_trips(self, rng):
        # condition number up to 1e6
        for _ in range(10):
            A = random_spd(4, rng, lo=1e-4, hi=100.0)
            S = sym_matrix_function("sqrt", A)
            np.testing.assert_allclose(S @ S, A, atol=1e-8)
            np.testing.assert_allclose(
                sym_matrix_function("exp", sym_matrix_function("log", A)), A,
                atol=1e-8)

    def test_non_spd_reports_smallest_eigenvalue(self):
        with pytest.raises(DomainError, match="smallest eigenvalue"):
            sym_matrix_function("sqrt", np.diag([1.0, -2.0]))
