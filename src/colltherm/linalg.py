"""The vectorization convention of the package, and the Choi matrix.

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

__all__ = ["choi_matrix"]


def choi_matrix(sop: np.ndarray, dim: int) -> np.ndarray:
    """Choi matrix of a superoperator in the row-major convention.

    For ``S = sum_k np.kron(K_k, K_k.conj())`` this equals
    ``sum_k vec(K_k) vec(K_k)^dag`` up to index grouping; complete positivity
    of the channel is equivalent to this matrix being PSD.
    """
    s = np.asarray(sop).reshape(dim, dim, dim, dim)
    return s.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
