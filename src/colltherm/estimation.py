"""Fisher-information machinery.

Symmetric logarithmic derivatives (SLDs), the quantum Fisher information
matrix (QFIM), the thermal-equilibrium benchmark matrix, the two figures of
merit and the rank-deficiency (singularity) test for two-parameter qubit
families.  The state derivatives come from the protocol evaluators, which
propagate them exactly; the test suite cross-checks them against finite
differences.

Notation: for a state family rho(T_1, ..., T_N), the SLD L_mu solves

    d rho / d T_mu = (L_mu rho + rho L_mu) / 2

and the QFIM is F_ij = Re Tr[rho L_i L_j] (equivalently the symmetrized
form).  In the eigenbasis rho = sum_j a_j |j><j| the solution is

    <j| L_mu |k> = 2 <j| d_mu rho |k> / (a_j + a_k),

with terms omitted when a_j + a_k falls below the support cutoff 1e-12
(Moore-Penrose treatment of rank-deficient states).

F is formed in that eigenbasis, without rotating the SLDs back (Liu, Yuan,
Lu & Wang, J. Phys. A 53, 023001 (2020)):

    F_mu,nu = sum_jk a_j Re(<j|L_mu|k> conj(<j|L_nu|k>)).

:func:`qfim_stack` does this for a stack of K states at once, with one
stacked eigendecomposition; it is the one QFIM and SLD routine, and
:meth:`QfimStack.slds` rotates one state's SLDs back to the computational
basis.

Figures of merit against the thermal benchmark F_th = diag(F_th^i), held
as the per-bath vector of :func:`thermal_fim`, formed with the singular
flag by :func:`build_report` alone:

    eta_joint = Tr F_Q / Tr F_th
    eta_acc   = ln( det F_Q / det F_th )     (-inf when F_Q is singular)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import BathSpec
from .linalg import herm_eig

__all__ = [
    "SUPPORT_CUTOFF",
    "KERNEL_WEIGHT_TOL",
    "Qfim",
    "QfimStack",
    "EstimationReport",
    "qfim_stack",
    "thermal_fim",
    "singularity_test",
    "build_report",
]

SUPPORT_CUTOFF = 1e-12        # eigenvalue-sum cutoff in the SLD construction
KERNEL_WEIGHT_TOL = 1e-8      # allowed derivative weight inside ker(rho) x ker(rho)
DERIV_HERM_TOL = 1e-9
DERIV_TRACE_TOL = 1e-9
# |Tr rho - 1| allowed in a state.  The evaluators keep traces at rounding:
# 3.3e-16 over 10^4 ancillas of a three-probe qutrit marginal stream, whose
# probes never propagate their trace
STATE_TRACE_TOL = 1e-9
STATE_PSD_TOL = 1e-10         # most negative state eigenvalue allowed (eigensolver noise)


def _check_derivs(derivs: np.ndarray) -> None:
    """Derivatives stacked as (K, N, d, d) must be Hermitian and traceless;
    the message names the first offending one in stack order."""
    herm = np.abs(derivs - derivs.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
    trace = np.abs(derivs.trace(axis1=-2, axis2=-1))
    bad = (herm > DERIV_HERM_TOL) | (trace > DERIV_TRACE_TOL)
    if bad.any():
        k, mu = np.argwhere(bad)[0]
        if herm[k, mu] > DERIV_HERM_TOL:
            raise ValueError(f"derivative {mu} not Hermitian: defect {herm[k, mu]:.3e}")
        raise ValueError(f"derivative {mu} not traceless: |trace| {trace[k, mu]:.3e}")


def _check_qfim(m: np.ndarray) -> None:
    """A QFIM, or a stack (..., N, N) of them, must be symmetric to 1e-9
    relative to its largest entry and PSD down to -1e-8."""
    mt = m.swapaxes(-1, -2)
    asym = np.abs(m - mt).max(axis=(-2, -1), initial=0.0)
    bad = asym > 1e-9 * np.abs(m).max(axis=(-2, -1), initial=0.0)
    if bad.any():
        raise ValueError(f"QFIM not symmetric: defect {asym[bad].flat[0]:.3e}")
    lo = float(np.linalg.eigvalsh((m + mt) / 2).min(initial=0.0))
    if lo < -1e-8:
        raise ValueError(f"QFIM not PSD: min eigenvalue {lo:.3e}")


@dataclass(frozen=True, slots=True)
class Qfim:
    """QFIM with the SLDs it was built from.

    A plain record: :func:`qfim_stack` has checked the matrix.  ``slds`` may
    be empty: for additively composed matrices (product-state streams) the
    logarithmic derivatives live block-locally on the individual factors
    and only their matrix sum is meaningful, and the reports of
    :func:`colltherm.protocols.evaluate` keep only the SLD commutator norm.
    """

    matrix: np.ndarray
    slds: tuple[np.ndarray, ...] = ()
    support_dim: int = 0

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True, slots=True)
class QfimStack:
    """The per-state results of :func:`qfim_stack` for K state families.

    ``matrices`` (K, N, N) are the QFIMs, ``support_dims`` the ranks of the
    states (eigenvalues above the support cutoff) and ``commutator_norms``
    (K,) the largest ||[L_i, L_j]||_F of each state's SLDs.  ``eigvecs``
    (K, d, d) and ``eigen_slds`` (K, N, d, d) hold the SLDs in each state's
    eigenbasis; :meth:`slds` rotates one state's back.
    """

    matrices: np.ndarray
    support_dims: tuple[int, ...]
    commutator_norms: np.ndarray
    eigvecs: np.ndarray
    eigen_slds: np.ndarray

    def slds(self, k: int) -> tuple[np.ndarray, ...]:
        """The SLDs of state ``k`` in the computational basis."""
        v = self.eigvecs[k]
        return tuple(v @ self.eigen_slds[k] @ v.conj().T)


@dataclass(frozen=True, slots=True)
class EstimationReport:
    """Everything a protocol run reports about one parameter point.

    ``thermal`` is the (N,) vector of per-bath benchmarks F_th^i.
    ``eta_acc`` is -inf exactly when ``singular`` is true (the rule is
    :func:`build_report`'s).
    """

    qfim: Qfim
    thermal: np.ndarray
    eta_joint: float
    eta_acc: float
    sld_commutator_norm: float
    singular: bool


def qfim_stack(stacks) -> QfimStack:
    """QFIMs of K state families at once, each in its state's eigenbasis.

    ``stacks`` is (K, 1 + N, d, d): per family the state rho and its N
    derivatives.  One stacked eigendecomposition rho = V diag(lambda) V^dag
    serves all K; with D_i = V^dag (d_i rho) V the SLDs in the eigenbasis
    are L_i[a, b] = 2 D_i[a, b] / (lambda_a + lambda_b) where that sum
    reaches :data:`SUPPORT_CUTOFF` (zero elsewhere), and

        F_ij = sum_ab lambda_a Re(L_i[a, b] conj(L_j[a, b])).

    The commutator norm ||[L_i, L_j]||_F is taken in the eigenbasis too: the
    Frobenius norm is unitarily invariant, and for Hermitian L_i the
    commutator is P - P^dag with P = L_i L_j.

    Raises, naming the same quantities as for a single state, if any
    derivative is not Hermitian or traceless, any state is not Hermitian or
    its eigendecomposition inexact, any derivative has weight above 1e-8 in
    the kernel-kernel block of its state (the family leaves its support, and
    no SLD reproduces it), or any F is not symmetric PSD.  Every state must
    also have unit trace to :data:`STATE_TRACE_TOL` and no eigenvalue below
    ``-STATE_PSD_TOL``; both are read off the eigenvalues the QFIM needs
    anyway, and the message names the offending state's stack index.
    """
    stacks = np.asarray(stacks, dtype=complex)
    derivs = stacks[:, 1:]
    _check_derivs(derivs)
    w, v = herm_eig(stacks[:, 0])
    trace_defect = np.abs(w.sum(axis=-1) - 1.0)
    lowest = w[:, 0]
    bad = ~((trace_defect <= STATE_TRACE_TOL) & (lowest >= -STATE_PSD_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        if not trace_defect[k] <= STATE_TRACE_TOL:
            raise ValueError(
                f"state {k} of the stack: trace defect {trace_defect[k]:.3e} > {STATE_TRACE_TOL}"
            )
        raise ValueError(
            f"state {k} of the stack not PSD: min eigenvalue {lowest[k]:.3e} < -{STATE_PSD_TOL}"
        )
    dr = v.conj().swapaxes(-1, -2)[:, None] @ derivs @ v[:, None]
    s = w[:, :, None] + w[:, None, :]
    support = s >= SUPPORT_CUTOFF
    kernel_weight = float(np.abs(dr).max(where=~support[:, None], initial=0.0))
    if kernel_weight > KERNEL_WEIGHT_TOL:
        raise ValueError(
            "derivative has weight "
            f"{kernel_weight:.3e} connecting the kernel of the state to itself; "
            "the family leaves its support"
        )
    lt = dr * np.divide(2.0, s, out=np.zeros_like(s), where=support)[:, None]
    f = np.einsum("ka,kiab,kjab->kij", w, lt, lt.conj()).real
    _check_qfim(f)
    f = (f + f.swapaxes(-1, -2)) / 2.0
    comm = np.zeros(len(w))
    for i, j in itertools.combinations(range(lt.shape[1]), 2):
        p = lt[:, i] @ lt[:, j]
        comm = np.maximum(comm, np.linalg.norm(p - p.conj().swapaxes(-1, -2), axis=(-2, -1)))
    support_dims = tuple((w > SUPPORT_CUTOFF).sum(axis=-1).tolist())
    return QfimStack(f, support_dims, comm, v, lt)


def thermal_fim(baths: list[BathSpec] | tuple[BathSpec, ...]) -> np.ndarray:
    """The (N,) benchmark vector of F_th^i, the energy-measurement Fisher
    information of each probe at equilibrium:

        F_th = Var(H) / T^4 = omega^2 sech^2(omega / 2T) / (4 T^4).
    """
    vals = []
    for b in baths:
        x = b.omega / b.temperature
        q = math.exp(-x)  # sech^2(x/2) = 4 q / (1 + q)^2 without overflow
        sech2 = 4.0 * q / (1.0 + q) ** 2
        vals.append(sech2 * x / b.temperature * x / b.temperature / 4.0)
    return np.array(vals)


def singularity_test(stack) -> tuple[bool, float | None]:
    """Rank-deficiency test for two-parameter qubit families.

    ``stack`` is (3, 2, 2): the state rho and its derivatives d1 rho and
    d2 rho, which must be Hermitian and traceless.  The QFIM of a qubit
    family rho(T_1, T_2) is singular exactly when d1 rho = c * d2 rho for a
    real c.  Tested as Cauchy-Schwarz equality of the Frobenius inner
    product within 1e-10 relative, with the ratio required real to 1e-10; a
    vanishing derivative is the trivial singular case and reports c = 0.

    Returns ``(singular, c)`` where ``c`` is None for nonsingular input.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (2, 2):
        raise ValueError("singularity test is defined for qubit states (dimension 2)")
    if len(stack) != 3:
        raise ValueError("singularity test needs exactly two parameters")
    _check_derivs(stack[None, 1:])
    d1, d2 = stack[1:]
    n1 = float(np.real(np.trace(d1 @ d1)))  # Hermitian: Frobenius norm squared
    n2 = float(np.real(np.trace(d2 @ d2)))
    if n1 <= 1e-28 or n2 <= 1e-28:
        return True, 0.0
    inner = complex(np.trace(d2 @ d1))  # <d2, d1>_F for Hermitian arguments
    cs_defect = abs(abs(inner) ** 2 - n1 * n2) / (n1 * n2)
    ratio = inner / n2
    if cs_defect <= 1e-10 and abs(ratio.imag) <= 1e-10 * max(abs(ratio), 1e-30):
        return True, float(ratio.real)
    return False, None


def build_report(
    qf: Qfim,
    thermal: np.ndarray,
    sld_commutator_norm: float = 0.0,
) -> EstimationReport:
    """Assemble an :class:`EstimationReport` from a QFIM and the benchmark
    vector of :func:`thermal_fim`: the one place the merits and the
    singular flag are formed.  Raises for a degenerate benchmark.

    The point is singular when det F_Q <= 1e-12 max(1, ||F_Q||_F)^N, and
    then eta_acc is -inf; otherwise eta_acc = ln(det F_Q / det F_th).  The
    determinant of an N x N matrix, and its rounding floor, scale as the
    norm's N-th power, so a fixed cutoff would misclassify large-norm
    rank-deficient matrices; at O(1) norm the rule is a plain 1e-12.
    """
    tr_th, det_th = float(thermal.sum()), float(thermal.prod())
    if not (tr_th > 0 and det_th > 0):
        raise ValueError("degenerate thermal benchmark (zero trace or determinant)")
    det = qf.det
    singular = det <= 1e-12 * max(1.0, float(np.linalg.norm(qf.matrix))) ** len(qf.matrix)
    return EstimationReport(
        qfim=qf,
        thermal=thermal,
        eta_joint=qf.trace / tr_th,
        eta_acc=float("-inf") if singular else math.log(det / det_th),
        sld_commutator_norm=float(sld_commutator_norm),
        singular=singular,
    )
