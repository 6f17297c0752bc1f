import os
from pathlib import Path

import numpy as np
import pytest

import colltherm


@pytest.fixture
def rng():
    """Fresh seeded generator per test; keep failures reproducible."""
    return np.random.default_rng(20250825)


@pytest.fixture
def rng2():
    """Second stream for tests that need independent draws."""
    return np.random.default_rng(4242)


@pytest.fixture
def src_env():
    """Environment for a fresh interpreter that imports this checkout's
    package ahead of any installed copy."""
    src = str(Path(colltherm.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
