import functools
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import gdn.approx.synthesis as synthesis

# Tier-1 draws the same hypothesis examples on every run and keeps no
# example database, so its result is deterministic; pytest's
# --hypothesis-profile=default draws fresh ones
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # hypothesis caches the constants of the source it reads in its storage
    # directory, database or not, from test collection on; in a temporary
    # directory removed after the run, a run writes no .hypothesis/ into the
    # checkout
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


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
