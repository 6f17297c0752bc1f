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


def _count_bath_pieces(monkeypatch, correlated, record):
    """Hook ``protocols._bath_pieces``, the one builder of what the baths
    fix for an evaluation: each call for an engine of ``correlated`` passes
    its (thermal, probes, therm) to ``record``."""
    bath_pieces = protocols._bath_pieces

    def counting(config, *args, **kwargs):
        pieces = bath_pieces(config, *args, **kwargs)
        if config.correlated == correlated:
            record(pieces)
        return pieces

    monkeypatch.setattr(protocols, "_bath_pieces", counting)


@pytest.fixture
def probe_products_built(monkeypatch):
    """The probe products the joint simulation builds, in call order:
    ``"gibbs"`` for the probes' Gibbs register and ``"therm"`` for their
    rethermalization product, as each ``protocols._bath_pieces`` call of
    a correlated config builds them."""
    built = []
    _count_bath_pieces(monkeypatch, True,
                       lambda pieces: built.extend(["gibbs"] + ["therm"] * (pieces[2] is not None)))
    return built


@pytest.fixture
def stream_baths_built(monkeypatch):
    """The bath pieces the marginal stream builds, in call order: per
    ``protocols._bath_pieces`` call of an uncorrelated config, whether it
    built the probes' rethermalizations along with their Gibbs tangents."""
    built = []
    _count_bath_pieces(monkeypatch, False, lambda pieces: built.append(pieces[2] is not None))
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
