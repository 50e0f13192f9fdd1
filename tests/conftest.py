import functools

import numpy as np
import pytest

import gdn.approx.synthesis as synthesis


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def fresh_cube_samples(monkeypatch):
    """An empty per-process cube sample memo for the test, so that its first
    compile at each dimension builds the samples; the process memo is left
    as it was."""
    monkeypatch.setattr(synthesis, "_memo_samples",
                        functools.lru_cache(maxsize=None)(synthesis._CubeSamples))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_spd(n: int, rng: np.random.Generator,
               lo: float = 0.3, hi: float = 3.0) -> np.ndarray:
    Q = random_orthogonal(n, rng)
    w = rng.uniform(lo, hi, size=n)
    A = (Q * w) @ Q.T
    return 0.5 * (A + A.T)
