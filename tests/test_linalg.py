"""Vectorization, state invariants, eigensolver contract, Choi matrices."""

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from colltherm.linalg import (
    DensityMatrix,
    choi_matrix,
    devectorize,
    herm_eig,
    kron,
    vectorize,
)


def test_vectorize_basis_convention():
    # |i><j| must land on component D*i + j (row-major), D = 3 here
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1.0
            v = vectorize(e)
            assert v[3 * i + j] == 1.0
            assert np.count_nonzero(v) == 1


def test_vectorize_round_trip(rng):
    for dim in (2, 3, 4, 6):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        npt.assert_array_equal(devectorize(vectorize(m)), m)
        npt.assert_array_equal(devectorize(vectorize(m), dim), m)


def test_devectorize_rejects_bad_length():
    with pytest.raises(ValueError):
        devectorize(np.zeros(5))


def test_unitary_conjugation_superop_matches_convention(rng):
    """kron(U, U*) acting on vec(rho) must equal vec(U rho U^dag)."""
    for dim in (2, 3):
        u = oracles.random_unitary(rng, dim)
        rho = oracles.random_density(rng, dim)
        lhs = devectorize(kron(u, u.conj()) @ vectorize(rho), dim)
        npt.assert_allclose(lhs, u @ rho @ u.conj().T, atol=1e-13)


class TestDensityMatrix:
    def test_accepts_valid_state(self, rng):
        rho = oracles.random_density(rng, 4)
        dm = DensityMatrix(rho, (2, 2))
        assert dm.dim == 4
        assert dm.dims == (2, 2)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex), (2,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4) / 4.0, (2, 3))


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


def test_choi_matrix_of_unitary_is_rank_one(rng):
    u = oracles.random_unitary(rng, 3)
    ch = choi_matrix(np.kron(u, u.conj()), 3)
    w = np.linalg.eigvalsh(ch)
    assert w[-1] == pytest.approx(3.0, abs=1e-12)  # = dim, the vec norm
    assert np.all(np.abs(w[:-1]) < 1e-12)
    vec_u = u.reshape(-1)
    npt.assert_allclose(ch, np.outer(vec_u, vec_u.conj()), atol=1e-12)
