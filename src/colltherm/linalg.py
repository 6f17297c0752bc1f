"""Dense real or complex linear algebra for small multipartite Hilbert spaces.

All heavy lifting happens on plain ``numpy`` arrays (dimension <= 2**11, so
dense is fine everywhere).  The one convention that matters throughout the
package is fixed here once:

    vectorization is row-major,  |i><j|  ->  component D*i + j,

i.e. ``vec(rho) == rho.reshape(-1)`` in C order, and ``v.reshape(D, D)``
undoes it.  Under this convention the superoperator of a unitary conjugation
``rho -> U rho U^dag`` is ``np.kron(U, U.conj())`` and the superoperator of
``rho -> A rho B`` is ``np.kron(A, B.T)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EIG_HERM_TOL",
    "EIG_RESIDUAL_TOL",
    "herm_eig",
    "choi_matrix",
]

EIG_HERM_TOL = 1e-10   # max-norm Hermiticity defect allowed in herm_eig input
EIG_RESIDUAL_TOL = 1e-10


def herm_eig(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, or of a stack ``(..., d, d)``
    of them.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``V``, stacked like the input, real for a real input.
    Raises if any entry is not finite, if any matrix is not Hermitian to
    :data:`EIG_HERM_TOL` or if the largest reconstruction residual exceeds
    :data:`EIG_RESIDUAL_TOL`.  An inf or NaN entry makes the Hermiticity
    defect inf or NaN, which fails the check and is then named.  An inf
    meeting an inf in ``h - h^dag`` also warns; where that warning is an
    error, it is caught and the input named the same way.

    :func:`colltherm.estimation.qfim_stack` checks its states' Hermiticity
    in its own pass over the whole stack; it shares the checked eigensolver
    (:func:`_eigh`) and the messages (:func:`_refuse_input`,
    :func:`_refuse_residual`) with this function.
    """
    h = np.asarray(h)
    try:
        defect = np.abs(h - h.swapaxes(-1, -2).conj()).max()
    except RuntimeWarning:
        defect = np.nan
    if not defect <= EIG_HERM_TOL:
        _refuse_input(h, defect)
    w, V, resid = _eigh(h)
    if not resid.max() <= EIG_RESIDUAL_TOL:
        _refuse_residual(resid)
    return w, V


def _eigh(h: np.ndarray):
    """``np.linalg.eigh`` of a stack of Hermitian matrices, with the
    reconstruction residual max |h V - V diag(w)| of each matrix:
    ``(w, V, resid)``.  The caller compares ``resid`` with
    :data:`EIG_RESIDUAL_TOL`."""
    w, V = np.linalg.eigh(h)
    return w, V, np.maximum.reduce(np.abs(h @ V - V * w[..., None, :]), axis=(-2, -1))


def _refuse_input(h: np.ndarray, defect: float):
    """Raise for a stack ``h`` whose Hermiticity defect ``defect``, its
    largest over the stack, failed :data:`EIG_HERM_TOL`: it is not finite,
    or not Hermitian."""
    if not np.isfinite(h).all():
        raise ValueError("input not finite")
    raise ValueError(f"input not Hermitian: defect {defect:.3e} > {EIG_HERM_TOL}")


def _refuse_residual(resid: np.ndarray):
    """Raise for residuals of :func:`_eigh` of which some failed
    :data:`EIG_RESIDUAL_TOL`, naming the largest."""
    raise ValueError(f"eigendecomposition residual {np.max(resid):.3e} > {EIG_RESIDUAL_TOL}")


def choi_matrix(sop: np.ndarray, dim: int) -> np.ndarray:
    """Choi matrix of a superoperator in the row-major convention.

    For ``S = sum_k np.kron(K_k, K_k.conj())`` this equals
    ``sum_k vec(K_k) vec(K_k)^dag`` up to index grouping; complete positivity
    of the channel is equivalent to this matrix being PSD.
    """
    s = np.asarray(sop).reshape(dim, dim, dim, dim)
    return s.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
