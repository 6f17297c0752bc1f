"""Dense complex linear algebra for small multipartite Hilbert spaces.

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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERM_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "EIG_RESIDUAL_TOL",
    "DensityMatrix",
    "herm_eig",
    "choi_matrix",
]

HERM_TOL = 1e-12       # max-norm Hermiticity defect allowed in a state
TRACE_TOL = 1e-12      # |Tr rho - 1| allowed in a state
PSD_TOL = -1e-10       # most negative eigenvalue allowed in a state
EIG_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A state together with its tensor-factor dimensions.

    Invariants (checked on construction): square with dimension
    ``prod(dims)``, Hermitian to 1e-12, unit trace to 1e-12, and positive
    semidefinite to -1e-10 (eigensolver noise floor).
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        d = int(np.prod(self.dims))
        if mat.shape != (d, d):
            raise ValueError(
                f"state shape {mat.shape} does not match factor dims {self.dims}"
            )
        self.validate()

    def validate(self) -> None:
        mat = self.mat
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERM_TOL:
            raise ValueError(f"state not Hermitian: defect {herm:.3e} > {HERM_TOL}")
        tr = abs(mat.trace() - 1.0)
        if tr > TRACE_TOL:
            raise ValueError(f"state trace defect {tr:.3e} > {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < PSD_TOL:
            raise ValueError(f"state not PSD: min eigenvalue {lo:.3e} < {PSD_TOL}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def herm_eig(h: np.ndarray, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix, or of a stack ``(..., d, d)``
    of them.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``V``, stacked like the input.  Raises if any matrix
    is not Hermitian to ``tol`` or if the largest reconstruction residual
    exceeds 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    defect = np.abs(h - h.swapaxes(-1, -2).conj()).max()
    if defect > tol:
        raise ValueError(f"input not Hermitian: defect {defect:.3e} > {tol}")
    w, V = np.linalg.eigh(h)
    resid = np.abs(h @ V - V * w[..., None, :]).max()
    if resid > EIG_RESIDUAL_TOL:
        raise ValueError(f"eigendecomposition residual {resid:.3e} > {EIG_RESIDUAL_TOL}")
    return w, V


def choi_matrix(sop: np.ndarray, dim: int) -> np.ndarray:
    """Choi matrix of a superoperator in the row-major convention.

    For ``S = sum_k np.kron(K_k, K_k.conj())`` this equals
    ``sum_k vec(K_k) vec(K_k)^dag`` up to index grouping; complete positivity
    of the channel is equivalent to this matrix being PSD.
    """
    s = np.asarray(sop).reshape(dim, dim, dim, dim)
    return s.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
