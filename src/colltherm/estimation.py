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
(Moore-Penrose treatment of rank-deficient states).  Only a state with a
kernel has such a pair, so the support mask and its kernel check run only
for a stack that holds one; a stack of full-support states skips them.

F is formed in that eigenbasis, without rotating the SLDs back (Liu, Yuan,
Lu & Wang, J. Phys. A 53, 023001 (2020)):

    F_mu,nu = sum_jk a_j Re(<j|L_mu|k> conj(<j|L_nu|k>)).

:func:`qfim_stack` does this for a stack of K states at once, with one
stacked eigendecomposition; it is the one QFIM and SLD routine, and
:meth:`QfimStack.slds` rotates one state's SLDs back to the computational
basis.  Its checks cost more than its arithmetic at the stream's sizes, so
each of its three stages (the stack before the eigendecomposition, the
states after it, the QFIMs after the contraction) gathers its defects in one
array and decides pass or fail by one comparison with their bounds, which a
NaN fails; the per-entry code that names the first offender runs only when
that comparison fails.

Figures of merit against the thermal benchmark F_th = diag(F_th^i), held
as the per-bath vector of :func:`thermal_fim`, formed with the singular
flag by :func:`build_report` alone:

    eta_joint = Tr F_Q / Tr F_th
    eta_acc   = ln( det F_Q / det F_th )     (-inf when F_Q is singular)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import BathSpec, _gibbs
from .linalg import EIG_HERM_TOL, EIG_RESIDUAL_TOL, _eigh, _refuse_input, _refuse_residual

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
# the bounds of _eig_states' defects: residual, |Tr rho - 1|, -(lowest eigenvalue)
_STATE_TOLERANCES = np.array([[EIG_RESIDUAL_TOL], [STATE_TRACE_TOL], [STATE_PSD_TOL]])
# the bounds of _check_qfim's defects: asymmetry (1e-9 x the largest entry,
# set per QFIM), largest entry (finite), -(lowest eigenvalue)
_QFIM_TOLERANCES = np.array([np.nan, np.finfo(float).max, 1e-8])


def _within(defect: np.ndarray, tol: np.ndarray) -> bool:
    """Whether every defect is at most its tolerance: the one comparison
    each stage of :func:`qfim_stack` decides by.  A NaN defect fails."""
    ok = defect <= tol
    return np.count_nonzero(ok) == ok.size


def _check_derivs(derivs: np.ndarray) -> None:
    """Derivatives stacked as (K, N, d, d) must be Hermitian and traceless;
    the message names the first offending one in stack order.  An inf or NaN
    entry makes its defects NaN, and the checks are written so that NaN fails."""
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.abs(derivs - derivs.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
        trace = np.abs(derivs.trace(axis1=-2, axis2=-1))
    bad = ~((herm <= DERIV_HERM_TOL) & (trace <= DERIV_TRACE_TOL))
    if bad.any():
        k, mu = np.argwhere(bad)[0]
        if not np.isfinite(derivs[k, mu]).all():
            raise ValueError(f"derivative {mu} not finite")
        if not herm[k, mu] <= DERIV_HERM_TOL:
            raise ValueError(f"derivative {mu} not Hermitian: defect {herm[k, mu]:.3e}")
        raise ValueError(f"derivative {mu} not traceless: |trace| {trace[k, mu]:.3e}")


@functools.lru_cache
def _stack_tolerances(n: int) -> np.ndarray:
    """The (2, 1, 1 + n) bounds of :func:`_check_stack`'s defects, the
    Hermiticity defect and the |trace| of a state and its n derivatives.  A
    state's trace is read off its eigenvalues instead, so its bound here is
    inf, which only a NaN fails."""
    tol = np.array([[EIG_HERM_TOL] + [DERIV_HERM_TOL] * n, [np.inf] + [DERIV_TRACE_TOL] * n])
    tol = tol[:, None]
    tol.flags.writeable = False
    return tol


def _check_stack(stacks: np.ndarray) -> None:
    """The checks before the eigendecomposition, in one pass over the
    (K, 1 + N, d, d) stack: every state Hermitian to
    :data:`colltherm.linalg.EIG_HERM_TOL`, every derivative Hermitian and
    traceless to 1e-9.  Only when that fails are the offenders named:
    derivatives first (:func:`_check_derivs`), then the states, as
    :func:`colltherm.linalg.herm_eig` names them.  An inf or NaN entry
    makes a defect NaN, which fails; an inf meeting an inf also warns, and
    where that warning is an error it is caught and the entry named."""
    k, m, d = stacks.shape[:3]
    defect = np.empty((2, k, m))
    try:
        np.maximum.reduce(np.abs(stacks - stacks.swapaxes(-1, -2).conj()), axis=(-2, -1),
                          out=defect[0])
        # the trace: every (d + 1)-th of a matrix's row-major entries is diagonal
        np.abs(np.add.reduce(stacks.reshape(k, m, d * d)[..., :: d + 1], axis=-1),
               out=defect[1])
    except RuntimeWarning:
        defect[:] = np.nan
    if not _within(defect, _stack_tolerances(m - 1)):
        _check_derivs(stacks[:, 1:])
        rho = stacks[:, 0]
        with np.errstate(invalid="ignore", over="ignore"):
            herm = np.abs(rho - rho.swapaxes(-1, -2).conj()).max(initial=0.0)
        if not herm <= EIG_HERM_TOL:
            _refuse_input(rho, herm)
        # else only a state's trace overflowed, and its eigenvalues name it


def _eig_states(rho: np.ndarray):
    """``(w, V)`` of the (K, d, d) states, with the checks after the
    eigendecomposition in one comparison: the residual, each state's unit
    trace to :data:`STATE_TRACE_TOL` and its lowest eigenvalue down to
    ``-STATE_PSD_TOL``.  Only when that fails are the offenders named: the
    largest residual, then the first failing state in stack order, trace
    before positivity."""
    w, v, resid = _eigh(rho)
    defect = np.empty((3, len(w)))
    defect[0] = resid
    np.abs(np.add.reduce(w, axis=-1) - 1.0, out=defect[1])
    np.negative(w[:, 0], out=defect[2])
    if not _within(defect, _STATE_TOLERANCES):
        if not _within(resid, EIG_RESIDUAL_TOL):
            _refuse_residual(resid)
        trace_defect, lowest = defect[1], w[:, 0]
        k = int(np.argmax(~((trace_defect <= STATE_TRACE_TOL) & (lowest >= -STATE_PSD_TOL))))
        if not trace_defect[k] <= STATE_TRACE_TOL:
            raise ValueError(
                f"state {k} of the stack: trace defect {trace_defect[k]:.3e} > {STATE_TRACE_TOL}"
            )
        raise ValueError(
            f"state {k} of the stack not PSD: min eigenvalue {lowest[k]:.3e} < -{STATE_PSD_TOL}"
        )
    return w, v


def _check_qfim(m: np.ndarray) -> np.ndarray:
    """A QFIM, or a stack (..., N, N) of them, must be finite, symmetric to
    1e-9 relative to its largest entry and PSD down to -1e-8.  Returns the
    symmetric part (m + m^T) / 2 whose eigenvalues the PSD check reads.
    One comparison decides all three; only when it fails is the first
    failing check named, in that order (:func:`_name_qfim_defect`)."""
    mt = m.swapaxes(-1, -2)
    table = np.empty(m.shape[:-2] + (2, 3))  # the defects, then their bounds
    defect, tol = table[..., 0, :], table[..., 1, :]
    try:
        sym = (m + mt) / 2
        np.maximum.reduce(np.abs(m - mt), axis=(-2, -1), initial=0.0, out=defect[..., 0])
        np.maximum.reduce(np.abs(m), axis=(-2, -1), initial=0.0, out=defect[..., 1])
        np.negative(np.linalg.eigvalsh(sym)[..., 0], out=defect[..., 2])
    except (RuntimeWarning, np.linalg.LinAlgError):  # inf or NaN entries
        return _name_qfim_defect(m)
    tol[...] = _QFIM_TOLERANCES
    np.multiply(defect[..., 1], 1e-9, out=tol[..., 0])
    return sym if _within(defect, tol) else _name_qfim_defect(m)


def _name_qfim_defect(m: np.ndarray) -> np.ndarray:
    """:func:`_check_qfim` check by check: raise naming the first that
    fails, or return the symmetric part if none does."""
    if not np.isfinite(m).all():
        raise ValueError("QFIM not finite")
    mt = m.swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        asym = np.abs(m - mt).max(axis=(-2, -1), initial=0.0)
        sym = (m + mt) / 2
    bad = ~(asym <= 1e-9 * np.abs(m).max(axis=(-2, -1), initial=0.0))
    if bad.any():
        raise ValueError(f"QFIM not symmetric: defect {asym[bad].flat[0]:.3e}")
    if not np.isfinite(sym).all():
        raise ValueError("QFIM not finite")
    lo = float(np.linalg.eigvalsh(sym).min(initial=0.0))
    if lo < -1e-8:
        raise ValueError(f"QFIM not PSD: min eigenvalue {lo:.3e}")
    return sym


@dataclass(frozen=True, slots=True)
class Qfim:
    """QFIM with the SLDs it was built from.

    A plain record: :func:`qfim_stack` has checked the matrix.  ``slds`` may
    be empty: for additively composed matrices (product-state streams) the
    logarithmic derivatives live block-locally on the individual factors
    and only their matrix sum is meaningful, so the reports of
    :func:`colltherm.protocols.evaluate` keep none.
    ``det`` and ``trace`` are formed once, at construction, so the report,
    the merit row and the summary share one factorisation.
    """

    matrix: np.ndarray
    slds: tuple[np.ndarray, ...] = ()
    support_dim: int = 0
    det: float = field(init=False)
    trace: float = field(init=False)

    def __post_init__(self):
        # an LU pivot that underflows to 0 (entries down in the subnormal
        # range) makes numpy take log(0) and warn; its det, 0, is right
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "det", float(np.linalg.det(self.matrix)))
        object.__setattr__(self, "trace", float(np.trace(self.matrix)))


@dataclass(frozen=True, slots=True)
class QfimStack:
    """The per-state results of :func:`qfim_stack` for K state families.

    ``matrices`` (K, N, N) are the QFIMs and ``support_dims`` the ranks of
    the states: the levels the SLDs keep, those whose own pair sum 2 lambda
    reaches the support cutoff, so a level that carries QFI is never counted
    outside the support.  ``eigvecs``
    (K, d, d) and ``eigen_slds`` (K, N, d, d) hold the SLDs in each state's
    eigenbasis; :meth:`slds` rotates one state's back.
    """

    matrices: np.ndarray
    support_dims: tuple[int, ...]
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
    :func:`build_report`'s).  The QFIM bound is attainable when the SLDs
    commute weakly, Tr rho [L_i, L_j] = 0; every engine state is real in
    its gauge, so that trace vanishes and no report carries it.
    """

    qfim: Qfim
    thermal: np.ndarray
    eta_joint: float
    eta_acc: float
    singular: bool


def qfim_stack(stacks) -> QfimStack:
    """QFIMs of K state families at once, each in its state's eigenbasis.

    ``stacks`` is (K, 1 + N, d, d): per family the state rho and its N
    derivatives, real or complex (a real stack stays real throughout).  One
    stacked eigendecomposition rho = V diag(lambda) V^dag serves all K;
    with D_i = V^dag (d_i rho) V the SLDs in the eigenbasis are
    L_i[a, b] = 2 D_i[a, b] / (lambda_a + lambda_b) where that sum reaches
    :data:`SUPPORT_CUTOFF` (zero elsewhere), and

        F_ij = sum_ab lambda_a Re(L_i[a, b] conj(L_j[a, b])).

    The weights 2 / (lambda_a + lambda_b) are one formula for every pair.
    Only when some state of the stack has a pair sum below the cutoff (a
    kernel) is the kernel weight checked and those pairs' sums set to inf,
    so that their weights are 0; a full-support state gets the same bits
    either way.

    Raises, naming the same quantities as for a single state, if any
    derivative is not finite, Hermitian or traceless, any state is not
    Hermitian or its eigendecomposition inexact, any derivative has weight
    above 1e-8 in the kernel-kernel block of its state (the family leaves its
    support, and no SLD reproduces it), or any F is not finite ("QFIM not
    finite": the derivatives are large enough for F to overflow) or not
    symmetric PSD.  Every state must also have unit trace to
    :data:`STATE_TRACE_TOL` and no eigenvalue below ``-STATE_PSD_TOL``; both
    are read off the eigenvalues the QFIM needs anyway, and the message
    names the offending state's stack index.  A state with an inf or NaN
    entry is refused as ``input not finite``, as :func:`herm_eig` refuses
    it.  Each of the three stages, before the eigendecomposition
    (:func:`_check_stack`), after it (:func:`_eig_states`) and after the
    contraction (:func:`_check_qfim`), decides with one comparison of its
    defects against their bounds, and names the first offender only when
    that comparison fails.
    """
    stacks = np.asarray(stacks)
    _check_stack(stacks)
    w, v = _eig_states(stacks[:, 0])
    dr = v.conj().swapaxes(-1, -2)[:, None] @ stacks[:, 1:] @ v[:, None]
    s = w[:, :, None] + w[:, None, :]
    # a level is in the support when the SLD keeps its own pair, 2 lambda >=
    # cutoff; the smallest pair sum is 2 min(w), so below the cutoff some
    # state has a kernel, and otherwise every level of every state counts
    if 2.0 * np.minimum.reduce(w[:, 0]) < SUPPORT_CUTOFF:
        kernel = s < SUPPORT_CUTOFF
        kernel_weight = float(np.abs(dr).max(where=kernel[:, None], initial=0.0))
        if kernel_weight > KERNEL_WEIGHT_TOL:
            raise ValueError(
                "derivative has weight "
                f"{kernel_weight:.3e} connecting the kernel of the state to itself; "
                "the family leaves its support"
            )
        s[kernel] = np.inf  # weight 2 / inf = 0: the pair leaves the SLD
        support_dims = tuple((2.0 * w >= SUPPORT_CUTOFF).sum(axis=-1).tolist())
    else:
        support_dims = w.shape[-1:] * len(w)
    lt = dr * (2.0 / s)[:, None]
    f = _check_qfim(np.einsum("ka,kiab,kjab->kij", w, lt, lt.conj()).real)
    return QfimStack(f, support_dims, v, lt)


def thermal_fim(baths: list[BathSpec] | tuple[BathSpec, ...]) -> np.ndarray:
    """The (N,) benchmark vector of F_th^i, the energy-measurement Fisher
    information of each probe at equilibrium, with d lambda_0/dT from
    :func:`colltherm.channels._gibbs`:

        F_th = (omega/T^2) d lambda_0/dT = omega^2 sech^2(omega / 2T) / (4 T^4).

    T^2 is written T * T: a float ``**`` raises ``OverflowError`` past
    T ~ 1.3e154, where the product gives inf and F_th underflows to 0.
    Where d lambda_0/dT is exactly 0 (omega/T past about 745), F_th is 0,
    though omega / T^2 overflows to inf (T^2 subnormal) or divides by 0 (T^2
    underflowed): :func:`build_report` then refuses the benchmark by name.
    """
    return _thermal_fim(baths, [_gibbs(b.omega, b.temperature) for b in baths])


def _thermal_fim(baths, gibbs) -> np.ndarray:
    """:func:`thermal_fim` from the baths' :func:`colltherm.channels._gibbs`
    numbers, for a caller that has them already."""
    return np.array([b.omega / (b.temperature * b.temperature) * g[2] if g[2] else 0.0
                     for b, g in zip(baths, gibbs)])


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


def build_report(qf: Qfim, thermal: np.ndarray) -> EstimationReport:
    """Assemble an :class:`EstimationReport` from a QFIM and the benchmark
    vector of :func:`thermal_fim`: the one place the merits and the
    singular flag are formed.  Raises for a degenerate benchmark.

    The point is singular when det F_Q <= 1e-12 max(1, ||F_Q||_F)^N, and
    then eta_acc is -inf; otherwise eta_acc = ln(det F_Q / det F_th).  The
    determinant of an N x N matrix, and its rounding floor, scale as the
    norm's N-th power, so a fixed cutoff would misclassify large-norm
    rank-deficient matrices; at O(1) norm the rule is a plain 1e-12.
    """
    th = thermal.tolist()
    tr_th, det_th = sum(th), math.prod(th)
    if not (tr_th > 0 and det_th > 0):
        raise ValueError("degenerate thermal benchmark (zero trace or determinant)")
    det = qf.det
    m = qf.matrix.ravel()  # ||F_Q||_F as the dot product np.linalg.norm takes
    singular = det <= 1e-12 * max(1.0, math.sqrt(m @ m)) ** len(qf.matrix)
    return EstimationReport(
        qfim=qf,
        thermal=thermal,
        eta_joint=qf.trace / tr_th,
        eta_acc=float("-inf") if singular else math.log(det / det_th),
        singular=singular,
    )
