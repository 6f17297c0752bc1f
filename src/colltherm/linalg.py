"""Dense complex linear algebra for small multipartite Hilbert spaces.

All heavy lifting happens on plain ``numpy`` arrays (dimension <= 2**8, so
dense is fine everywhere).  The one convention that matters throughout the
package is fixed here once:

    vectorization is row-major,  |i><j|  ->  component D*i + j,

i.e. ``vectorize(rho) == rho.reshape(-1)`` in C order.  Under this convention
the superoperator of a unitary conjugation ``rho -> U rho U^dag`` is
``kron(U, U.conj())`` and the superoperator of ``rho -> A rho B`` is
``kron(A, B.T)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "HERM_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "EIG_RESIDUAL_TOL",
    "DensityMatrix",
    "dag",
    "kron",
    "kron_all",
    "vectorize",
    "devectorize",
    "herm_eig",
    "matrix_exp",
    "partial_trace",
    "trace_out",
    "apply_unitary_local",
    "apply_superop_local",
    "choi_matrix",
]

HERM_TOL = 1e-12       # max-norm Hermiticity defect allowed in a state
TRACE_TOL = 1e-12      # |Tr rho - 1| allowed in a state
PSD_TOL = -1e-10       # most negative eigenvalue allowed in a state
EIG_RESIDUAL_TOL = 1e-10


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (first factor owns the most significant index)."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron_all(*ops: np.ndarray) -> np.ndarray:
    out = np.asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A state together with its tensor-factor dimensions.

    Invariants (checked on construction): square with dimension
    ``prod(dims)``, Hermitian to 1e-12, unit trace to 1e-12, and positive
    semidefinite to -1e-10 (eigensolver noise floor).
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    _checked: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        d = int(np.prod(self.dims))
        if mat.shape != (d, d):
            raise ValueError(
                f"state shape {mat.shape} does not match factor dims {self.dims}"
            )
        if self._checked:
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


def vectorize(rho: np.ndarray | DensityMatrix) -> np.ndarray:
    """Flatten a matrix row-major: |i><j| -> component D*i + j."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return mat.reshape(-1)


def devectorize(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`; bit-exact round trip."""
    v = np.asarray(v)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"length {v.size} is not a perfect square for dim {dim}")
    return v.reshape(dim, dim)


def herm_eig(h: np.ndarray, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``V``.  Each eigenvector's phase is fixed so that its
    first component of non-negligible magnitude is real and positive, which
    makes downstream constructions (SLDs in particular) reproducible across
    runs and BLAS builds.  Raises if the input is not Hermitian to ``tol`` or
    if the reconstruction residual exceeds 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    defect = np.max(np.abs(h - h.conj().T))
    if defect > tol:
        raise ValueError(f"input not Hermitian: defect {defect:.3e} > {tol}")
    w, V = np.linalg.eigh(h)
    lead = V[np.argmax(np.abs(V) > 1e-12, axis=0), np.arange(V.shape[1])]
    V = V * (lead / np.abs(lead)).conj()
    resid = np.max(np.abs(h @ V - V * w[None, :]))
    if resid > EIG_RESIDUAL_TOL:
        raise ValueError(f"eigendecomposition residual {resid:.3e} > {EIG_RESIDUAL_TOL}")
    return w, V


def matrix_exp(m: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * m) by scaling-and-squaring (scipy's Pade implementation)."""
    return scipy.linalg.expm(scale * np.asarray(m, dtype=complex))


def _ptrace_arr(arr: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace over the factors *not* in ``keep`` (raw-array core)."""
    dims = tuple(int(d) for d in dims)
    m = len(dims)
    keep = tuple(sorted(keep))
    if not keep:
        raise ValueError("keep must be a nonempty subset of factor indices")
    for i in keep:
        if not 0 <= i < m:
            raise IndexError(f"factor index {i} out of range for {m} factors")
    t = arr.reshape(dims + dims)
    # einsum with integer labels: row axis j gets label j; the matching column
    # axis gets m+j if kept (stays free) or j if traced (contracts).
    row = list(range(m))
    col = [m + j if j in keep else j for j in range(m)]
    out_labels = [j for j in keep] + [m + j for j in keep]
    red = np.einsum(t, row + col, out_labels)
    dkeep = int(np.prod([dims[i] for i in keep]))
    return red.reshape(dkeep, dkeep)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept factors (trace over the rest)."""
    red = _ptrace_arr(rho.mat, rho.dims, keep)
    kept_dims = tuple(rho.dims[i] for i in sorted(keep))
    return DensityMatrix(red, kept_dims)


def trace_out(arr: np.ndarray, dims, keep) -> np.ndarray:
    """Raw-array partial trace (no DensityMatrix wrapping, for hot loops)."""
    return _ptrace_arr(np.asarray(arr), dims, keep)


def apply_unitary_local(arr: np.ndarray, dims, u: np.ndarray, targets) -> np.ndarray:
    """Apply ``u`` acting on the ``targets`` factors to a joint state.

    ``u`` is a unitary on the tensor product of the target factors, in the
    order given by ``targets``.  Returns ``U rho U^dag`` without ever forming
    the full-space matrix of ``U``.
    """
    dims = tuple(int(d) for d in dims)
    m = len(dims)
    targets = tuple(targets)
    tdims = tuple(dims[t] for t in targets)
    ut = np.asarray(u).reshape(tdims + tdims)
    nt = len(targets)

    t = arr.reshape(dims + dims)
    # row action: contract u's input legs with the target row axes
    t = np.tensordot(ut, t, axes=(range(nt, 2 * nt), targets))
    t = np.moveaxis(t, range(nt), targets)
    # column action with u*: contract with the target column axes
    col_targets = tuple(m + tt for tt in targets)
    t = np.tensordot(ut.conj(), t, axes=(range(nt, 2 * nt), col_targets))
    t = np.moveaxis(t, range(nt), col_targets)
    d = int(np.prod(dims))
    return t.reshape(d, d)


def apply_superop_local(arr: np.ndarray, dims, sop: np.ndarray, target: int) -> np.ndarray:
    """Apply a d^2 x d^2 superoperator to a single factor of a joint state."""
    dims = tuple(int(d) for d in dims)
    m = len(dims)
    d = dims[target]
    t = arr.reshape(dims + dims)
    # bring the target's (row, col) axes to the front, fuse, multiply, unfuse
    t = np.moveaxis(t, (target, m + target), (0, 1))
    rest = t.shape[2:]
    t = t.reshape(d * d, -1)
    t = np.asarray(sop) @ t
    t = t.reshape((d, d) + rest)
    t = np.moveaxis(t, (0, 1), (target, m + target))
    dd = int(np.prod(dims))
    return t.reshape(dd, dd)


def choi_matrix(sop: np.ndarray, dim: int) -> np.ndarray:
    """Choi matrix of a superoperator in the row-major convention.

    For ``S = sum_k kron(K_k, K_k.conj())`` this equals
    ``sum_k vec(K_k) vec(K_k)^dag`` up to index grouping; complete positivity
    of the channel is equivalent to this matrix being PSD.
    """
    s = np.asarray(sop).reshape(dim, dim, dim, dim)
    return s.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
