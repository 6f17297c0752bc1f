"""Fisher-information machinery.

Symmetric logarithmic derivatives (SLDs), the quantum Fisher information
matrix (QFIM), the classical Fisher information of a given POVM, the
thermal-equilibrium benchmark matrix, the two figures of merit, the
rank-deficiency (singularity) test for two-parameter qubit families, and a
finite-difference derivative route.  The protocol evaluators propagate exact
derivatives; :func:`finite_diff_derivatives` is the independent reference
they are cross-checked against.

Notation: for a state family rho(T_1, ..., T_N), the SLD L_mu solves

    d rho / d T_mu = (L_mu rho + rho L_mu) / 2

and the QFIM is F_ij = Re Tr[rho L_i L_j] (equivalently the symmetrized
form).  In the eigenbasis rho = sum_j a_j |j><j| the solution is

    <j| L_mu |k> = 2 <j| d_mu rho |k> / (a_j + a_k),

with terms omitted when a_j + a_k falls below the support cutoff 1e-12
(Moore-Penrose treatment of rank-deficient states).

Figures of merit against the thermal benchmark F_th:

    eta_joint = Tr F_Q / Tr F_th
    eta_acc   = ln( det F_Q / det F_th )     (-inf when F_Q is singular)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import BathSpec
from .linalg import DensityMatrix, herm_eig

__all__ = [
    "SUPPORT_CUTOFF",
    "KERNEL_WEIGHT_TOL",
    "ETA_ACC_DET_SENTINEL",
    "ParamDerivatives",
    "Qfim",
    "ThermalFim",
    "EstimationReport",
    "sld",
    "qfim",
    "classical_fim",
    "thermal_fim",
    "eta_metrics",
    "det_singular_threshold",
    "singularity_test",
    "finite_diff_derivatives",
    "build_report",
]

SUPPORT_CUTOFF = 1e-12        # eigenvalue-sum cutoff in the SLD construction
KERNEL_WEIGHT_TOL = 1e-8      # allowed derivative weight inside ker(rho) x ker(rho)
ETA_ACC_DET_SENTINEL = 1e-14  # det(F_Q) at or below this -> eta_acc = -inf
DERIV_HERM_TOL = 1e-9
DERIV_TRACE_TOL = 1e-9


def _as_mat(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


@dataclass(frozen=True)
class ParamDerivatives:
    """A state and its derivatives with respect to each parameter."""

    rho: np.ndarray
    derivs: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "rho", _as_mat(self.rho))
        object.__setattr__(self, "derivs", tuple(np.asarray(d, dtype=complex) for d in self.derivs))
        if not self.derivs:
            return
        stack = np.array(self.derivs)
        herms = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
        traces = np.abs(np.trace(stack, axis1=1, axis2=2))
        for mu, (herm, tr) in enumerate(zip(herms, traces)):
            if herm > DERIV_HERM_TOL:
                raise ValueError(f"derivative {mu} not Hermitian: defect {herm:.3e}")
            if tr > DERIV_TRACE_TOL:
                raise ValueError(f"derivative {mu} not traceless: |trace| {tr:.3e}")

    @property
    def n_params(self) -> int:
        return len(self.derivs)


@dataclass(frozen=True, slots=True)
class Qfim:
    """QFIM with the SLDs it was built from.

    ``slds`` may be empty: for additively composed matrices (product-state
    streams) the logarithmic derivatives live block-locally on the
    individual factors and only their matrix sum is meaningful, and the
    reports of :func:`colltherm.protocols.evaluate` drop the SLDs after
    taking their commutator norm.
    """

    matrix: np.ndarray
    slds: tuple[np.ndarray, ...] = ()
    support_dim: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        asym = np.max(np.abs(m - m.T)) if m.size else 0.0
        if asym > 1e-9:
            raise ValueError(f"QFIM not symmetric: defect {asym:.3e}")
        if m.size:
            lo = float(np.linalg.eigvalsh((m + m.T) / 2)[0])
            if lo < -1e-8:
                raise ValueError(f"QFIM not PSD: min eigenvalue {lo:.3e}")

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True, slots=True)
class ThermalFim:
    """Diagonal benchmark matrix of per-bath equilibrium Fisher informations."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - np.diag(np.diag(m)))) > 0:
            raise ValueError("thermal benchmark must be diagonal")
        if np.any(np.diag(m) < 0):
            raise ValueError("thermal benchmark entries must be nonnegative")

    @property
    def det(self) -> float:
        return float(np.prod(np.diag(self.matrix)))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True, slots=True)
class EstimationReport:
    """Everything a protocol run reports about one parameter point.

    ``eta_acc`` is -inf exactly when ``singular`` is true (the flag uses the
    scaled determinant threshold of :func:`det_singular_threshold`, which is
    at least as strict as the raw eta-metric sentinel).
    """

    qfim: Qfim
    thermal: ThermalFim
    eta_joint: float
    eta_acc: float
    sld_commutator_norm: float
    singular: bool


def sld(rho, drho, support_cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Symmetric logarithmic derivative of a state family.

    Solves (L rho + rho L)/2 = drho on the support of rho via the
    eigendecomposition formula; eigenvalue pairs with a_j + a_k below
    ``support_cutoff`` are omitted.  Raises if ``drho`` carries weight larger
    than 1e-8 inside the kernel-kernel block, which means the derivative
    leaves the family's support and no SLD reproduces it.
    """
    w, v = herm_eig(_as_mat(rho))
    return _slds_eigen(w, v, np.asarray(drho, dtype=complex)[None], support_cutoff)[0]


def _slds_eigen(
    w: np.ndarray, v: np.ndarray, derivs: np.ndarray, support_cutoff: float
) -> np.ndarray:
    """:func:`sld` of a stack of derivatives ``(k, d, d)``, given the
    eigendecomposition ``(w, v)`` of the state."""
    vh = v.conj().T
    dr = vh @ derivs @ v
    s = w[:, None] + w[None, :]
    support = s >= support_cutoff
    kernel_weight = float(np.max(np.abs(dr[:, ~support]), initial=0.0))
    if kernel_weight > KERNEL_WEIGHT_TOL:
        raise ValueError(
            "derivative has weight "
            f"{kernel_weight:.3e} connecting the kernel of the state to itself; "
            "the family leaves its support"
        )
    lmat = np.where(support, 2.0 * dr / np.where(support, s, 1.0), 0.0)
    return v @ lmat @ vh


def qfim(pd: ParamDerivatives, support_cutoff: float = SUPPORT_CUTOFF) -> Qfim:
    """Quantum Fisher information matrix F_ij = Re Tr[rho L_i L_j]."""
    rho = pd.rho
    w, v = herm_eig(rho)
    d = rho.shape[0]
    slds = _slds_eigen(w, v, np.array(pd.derivs).reshape(pd.n_params, d, d), support_cutoff)
    f = np.einsum("iab,jba->ij", rho @ slds, slds).real
    support = int(np.sum(w > support_cutoff))
    return Qfim((f + f.T) / 2.0, tuple(slds), support)


def classical_fim(rho_fn, theta, povm, h: float | None = None) -> np.ndarray:
    """Classical Fisher information matrix of a POVM measurement.

    ``rho_fn(theta_vector) -> state`` defines the family; probabilities
    p_j = Tr[rho Pi_j] are differentiated by central differences (step per
    coordinate ``max(1e-5, 1e-6 |theta_mu|)`` unless ``h`` is given).
    Outcomes with p_j < 1e-12 are skipped.
    """
    theta = np.asarray(theta, dtype=float)
    effects = [np.asarray(p, dtype=complex) for p in povm]
    d = effects[0].shape[0]
    total = sum(effects)
    if np.max(np.abs(total - np.eye(d))) > 1e-10:
        raise ValueError("POVM effects do not sum to the identity")
    for k, e in enumerate(effects):
        if float(np.linalg.eigvalsh((e + e.conj().T) / 2)[0]) < -1e-10:
            raise ValueError(f"POVM effect {k} is not PSD")

    def probs(t):
        r = _as_mat(rho_fn(t))
        return np.array([float(np.real(np.trace(r @ e))) for e in effects])

    p0 = probs(theta)
    n = theta.size
    grads = np.zeros((n, len(effects)))
    for mu in range(n):
        step = h if h is not None else max(1e-5, 1e-6 * abs(theta[mu]))
        tp, tm = theta.copy(), theta.copy()
        tp[mu] += step
        tm[mu] -= step
        grads[mu] = (probs(tp) - probs(tm)) / (2 * step)
    f = np.zeros((n, n))
    for j, pj in enumerate(p0):
        if pj < 1e-12:
            continue
        f += np.outer(grads[:, j], grads[:, j]) / pj
    return f


def thermal_fim(baths: list[BathSpec] | tuple[BathSpec, ...]) -> ThermalFim:
    """Benchmark matrix diag(F_th^i), the energy-measurement Fisher
    information of each probe at equilibrium:

        F_th = Var(H) / T^4 = omega^2 sech^2(omega / 2T) / (4 T^4).
    """
    vals = []
    for b in baths:
        if not b.temperature > 0:
            raise ValueError(f"temperature: must be > 0, got {b.temperature}")
        x = b.omega / b.temperature
        q = math.exp(-x)  # sech^2(x/2) = 4 q / (1 + q)^2 without overflow
        sech2 = 4.0 * q / (1.0 + q) ** 2
        vals.append(sech2 * x / b.temperature * x / b.temperature / 4.0)
    return ThermalFim(np.diag(vals))


def eta_metrics(qf, thermal: ThermalFim) -> tuple[float, float]:
    """(eta_joint, eta_acc) of a QFIM against the thermal benchmark.

    eta_acc uses the natural log and returns -inf when det(F_Q) falls at or
    below the 1e-14 sentinel.  Raises for a degenerate benchmark.
    """
    fmat = qf.matrix if isinstance(qf, Qfim) else np.asarray(qf, dtype=float)
    tr_th = thermal.trace
    det_th = thermal.det
    if not (tr_th > 0 and det_th > 0):
        raise ValueError("degenerate thermal benchmark (zero trace or determinant)")
    eta_joint = float(np.trace(fmat)) / tr_th
    det_q = float(np.linalg.det(fmat))
    if det_q <= ETA_ACC_DET_SENTINEL:
        return eta_joint, float("-inf")
    return eta_joint, math.log(det_q / det_th)


def det_singular_threshold(fmat: np.ndarray) -> float:
    """Determinant threshold below which the QFIM counts as singular.

    1e-12 scaled by max(1, ||F||_F)^N: the determinant of an N x N matrix
    has the norm's N-th power as its natural magnitude, and its rounding
    floor grows the same way, so a fixed cutoff would misclassify
    large-norm rank-deficient matrices.  For the O(1)-norm matrices the
    protocols produce this reduces to a plain 1e-12.
    """
    fmat = np.asarray(fmat, dtype=float)
    n = fmat.shape[0]
    return 1e-12 * max(1.0, float(np.linalg.norm(fmat))) ** n


def singularity_test(pd: ParamDerivatives) -> tuple[bool, float | None]:
    """Rank-deficiency test for two-parameter qubit families.

    The QFIM of a qubit family rho(T_1, T_2) is singular exactly when
    d1 rho = c * d2 rho for a real c.  Tested as Cauchy-Schwarz equality of
    the Frobenius inner product within 1e-10 relative, with the ratio
    required real to 1e-10; a vanishing derivative is the trivial singular
    case and reports c = 0.

    Returns ``(singular, c)`` where ``c`` is None for nonsingular input.
    """
    if pd.rho.shape != (2, 2):
        raise ValueError("singularity test is defined for qubit states (dimension 2)")
    if pd.n_params != 2:
        raise ValueError("singularity test needs exactly two parameters")
    d1, d2 = pd.derivs
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


def finite_diff_derivatives(rho_fn, theta, h=None) -> ParamDerivatives:
    """Central-difference derivatives of a parametrized state family.

    ``rho_fn(theta_vector) -> state``.  Step per coordinate defaults to
    ``max(1e-5, 1e-6 |theta_mu|)``.  Each derivative is computed at the step
    and at half the step (Richardson consistency check): the two must agree
    to 1e-6 relative to the derivative scale (floored at 1 for the O(1)
    parameter magnitudes used here), else the evaluator is reported as
    non-smooth.  The half-step estimate is returned.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    if h is None:
        steps = [max(1e-5, 1e-6 * abs(t)) for t in theta]
    elif np.isscalar(h):
        steps = [float(h)] * n
    else:
        steps = [float(x) for x in h]

    base = _as_mat(rho_fn(theta))

    def central(mu, step):
        tp, tm = theta.copy(), theta.copy()
        tp[mu] += step
        tm[mu] -= step
        return (_as_mat(rho_fn(tp)) - _as_mat(rho_fn(tm))) / (2.0 * step)

    derivs = []
    for mu in range(n):
        d_full = central(mu, steps[mu])
        d_half = central(mu, steps[mu] / 2.0)
        scale = max(float(np.max(np.abs(d_half))), 1.0)
        err = float(np.max(np.abs(d_full - d_half)))
        if err > 1e-6 * scale:
            raise ValueError(
                f"finite-difference check failed for parameter {mu}: halving the "
                f"step changed the derivative by {err:.3e} (scale {scale:.3e}); "
                "the state family is not smooth at this point"
            )
        d_half = (d_half + d_half.conj().T) / 2.0  # strip rounding skew
        derivs.append(d_half)
    return ParamDerivatives(base, tuple(derivs))


def build_report(
    fmat: np.ndarray | Qfim,
    thermal: ThermalFim,
    sld_commutator_norm: float = 0.0,
    slds: tuple[np.ndarray, ...] = (),
    support_dim: int = 0,
) -> EstimationReport:
    """Assemble an :class:`EstimationReport` from a QFIM and its benchmark.

    The singular flag uses the scaled determinant threshold; when set,
    eta_acc is forced to -inf so that the report invariant "eta_acc finite
    iff det above threshold" holds even in the sliver between the raw
    eta-metric sentinel (1e-14) and the flag threshold.
    """
    qf = fmat if isinstance(fmat, Qfim) else Qfim(np.asarray(fmat, float), slds, support_dim)
    eta_joint, eta_acc = eta_metrics(qf, thermal)
    singular = qf.det <= det_singular_threshold(qf.matrix)
    if singular:
        eta_acc = float("-inf")
    return EstimationReport(
        qfim=qf,
        thermal=thermal,
        eta_joint=eta_joint,
        eta_acc=eta_acc,
        sld_commutator_norm=float(sld_commutator_norm),
        singular=singular,
    )
