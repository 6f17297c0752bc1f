import os
from pathlib import Path

import numpy as np
import pytest

import colltherm
from colltherm import protocols


@pytest.fixture
def stages_built(monkeypatch):
    """The number of stages each marginal-stream call builds and runs, in
    call order: the stages whose collision maps ``protocols._stage_maps``
    contracts from the table."""
    built, stage_maps = [], protocols._stage_maps

    def counting(config, *args):
        maps = stage_maps(config, *args)
        built.append(len(maps))
        return maps

    monkeypatch.setattr(protocols, "_stage_maps", counting)
    return built


@pytest.fixture
def probe_products_built(monkeypatch):
    """The probe products the joint simulation builds, in call order:
    ``"gibbs"`` for the probes' Gibbs register and ``"therm"`` for their
    rethermalization product, as ``protocols._probe_product`` forms them."""
    built, probe_product = [], protocols._probe_product

    def counting(pairs, shape):
        built.append("therm" if shape[2:] == (2, 2) else "gibbs")
        return probe_product(pairs, shape)

    monkeypatch.setattr(protocols, "_probe_product", counting)
    return built


@pytest.fixture
def stream_baths_built(monkeypatch):
    """The bath pieces the marginal stream builds, in call order: per
    ``protocols._stream_baths`` call, whether it built the probes'
    rethermalizations along with their Gibbs tangents."""
    built, stream_baths = [], protocols._stream_baths

    def counting(config, *args):
        probes, therm = stream_baths(config, *args)
        built.append(therm is not None)
        return probes, therm

    monkeypatch.setattr(protocols, "_stream_baths", counting)
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
