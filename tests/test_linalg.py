"""Vectorization convention, Choi matrices.  The checked eigendecomposition
of states (Hermiticity, non-finite entries, residual, unit trace,
positivity) lives in ``qfim_stack`` and is tested with it."""

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from colltherm.linalg import choi_matrix


def test_unitary_conjugation_superop_matches_convention(rng):
    """kron(U, U*) acting on the row-major vec(rho) must equal vec(U rho U^dag)."""
    for dim in (2, 3):
        u = oracles.random_unitary(rng, dim)
        rho = oracles.random_density(rng, dim)
        lhs = (np.kron(u, u.conj()) @ rho.reshape(-1)).reshape(dim, dim)
        npt.assert_allclose(lhs, u @ rho @ u.conj().T, atol=1e-13)


def test_choi_matrix_of_unitary_is_rank_one(rng):
    u = oracles.random_unitary(rng, 3)
    ch = choi_matrix(np.kron(u, u.conj()), 3)
    w = np.linalg.eigvalsh(ch)
    assert w[-1] == pytest.approx(3.0, abs=1e-12)  # = dim, the vec norm
    assert np.all(np.abs(w[:-1]) < 1e-12)
    vec_u = u.reshape(-1)
    npt.assert_allclose(ch, np.outer(vec_u, vec_u.conj()), atol=1e-12)
