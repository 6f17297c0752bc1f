"""Vectorization convention, eigensolver contract, Choi matrices.  The
state checks (unit trace, positivity) live in ``qfim_stack`` and are tested
with it."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from colltherm.linalg import choi_matrix, herm_eig


def test_unitary_conjugation_superop_matches_convention(rng):
    """kron(U, U*) acting on the row-major vec(rho) must equal vec(U rho U^dag)."""
    for dim in (2, 3):
        u = oracles.random_unitary(rng, dim)
        rho = oracles.random_density(rng, dim)
        lhs = (np.kron(u, u.conj()) @ rho.reshape(-1)).reshape(dim, dim)
        npt.assert_allclose(lhs, u @ rho @ u.conj().T, atol=1e-13)


def test_herm_eig_reconstruction_and_order(rng):
    for dim in (2, 3, 6):
        h = oracles.random_herm_traceless(rng, dim)
        w, v = herm_eig(h)
        assert np.all(np.diff(w) >= -1e-14)
        npt.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
        npt.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
        npt.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12)


def test_herm_eig_rejects_non_hermitian(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(m)


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_herm_eig_rejects_non_finite(rng, entry, action):
    """An inf or NaN entry, on the diagonal, in a mirrored pair or beside a
    finite mirror, is named, not passed on to the eigensolver, whether or
    not warnings are errors: it makes the Hermiticity defect inf or NaN, and
    inf - inf also warns."""
    h = oracles.random_herm_traceless(rng, 3)
    for where in ([(1, 1)], [(0, 2), (2, 0)], [(0, 2)]):
        m = np.array([h, h])
        for i, j in where:
            m[1, i, j] = entry
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match="input not finite"):
                herm_eig(m)


def test_choi_matrix_of_unitary_is_rank_one(rng):
    u = oracles.random_unitary(rng, 3)
    ch = choi_matrix(np.kron(u, u.conj()), 3)
    w = np.linalg.eigvalsh(ch)
    assert w[-1] == pytest.approx(3.0, abs=1e-12)  # = dim, the vec norm
    assert np.all(np.abs(w[:-1]) < 1e-12)
    vec_u = u.reshape(-1)
    npt.assert_allclose(ch, np.outer(vec_u, vec_u.conj()), atol=1e-12)
