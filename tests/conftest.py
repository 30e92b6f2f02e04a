import os
from pathlib import Path

import numpy as np
import pytest

import langevin_lab


def philox(seed: int, salt: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, salt], dtype=np.uint64)))


def make_spd(rng: np.random.Generator, p: int, lo: float = 1.0, hi: float = 10.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (q * rng.uniform(lo, hi, p)) @ q.T
    return (a + a.T) / 2.0


def subprocess_env(**overrides: str) -> dict:
    """The environment for a child interpreter: this one's with the package's src/ first on PYTHONPATH.

    pytest's pythonpath setting reaches only its own process, so without this
    `python -m langevin_lab` or a script would fail to import the package.
    """
    src = str(Path(langevin_lab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **overrides}


@pytest.fixture
def rng() -> np.random.Generator:
    return philox(20240901)
