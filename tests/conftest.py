import os
from pathlib import Path

import numpy as np
import pytest

import colltherm
from colltherm import channels, protocols


@pytest.fixture(autouse=True)
def empty_stream_prefix():
    """Every test starts with no stored marginal-stream prefix, so what a
    test counts or patches inside the engine does not depend on the tests
    run before it."""
    protocols._stream_prefix = None


@pytest.fixture
def stages_built(monkeypatch):
    """The number of stages each marginal-stream call builds and runs, in
    call order: the length of the unitary stack ``channels._ancilla_map``
    is built from (``collision_maps`` calls it too)."""
    built, ancilla_map = [], channels._ancilla_map

    def counting(u):
        built.append(len(u))
        return ancilla_map(u)

    monkeypatch.setattr(channels, "_ancilla_map", counting)
    monkeypatch.setattr(protocols, "_ancilla_map", counting)
    return built


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
