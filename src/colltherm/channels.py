"""Physical maps of the collisional protocol.

This module builds every channel the protocol composes:

* thermal probe states (Gibbs states of ``H = omega*sigma_z/2``),
* probe-ancilla collision unitaries for the excitation-exchange coupling
  ``H_int = g (sigma_+ (x) A_- + sigma_- (x) A_+)`` with a qubit or a spin-1
  (qutrit) ancilla,
* the collision as two bilinear maps of (probe, ancilla), one giving the
  ancilla and one the probe (:func:`collision_maps`), which the marginal
  stream runs, and the ancilla channel of one collision with a thermal
  probe, that same ancilla map contracted with the Gibbs state
  (:func:`collision_superoperator`),
* ancilla rotations ``exp(-i theta G_axis)`` and their superoperators,
* the partial-thermalization channel generated by the standard two-level
  GKSL generator with rates ``gamma (nbar + 1)`` (decay) and ``gamma nbar``
  (excitation): a generalized amplitude-damping channel, written in closed
  form, whose unique fixed point is the thermal state.  It depends on the
  rate and the time only through their product gamma*t, so a bath carries
  that product alone (:attr:`BathSpec.therm_time`).

Temperatures enter the protocol only through the thermal probe state and the
partial-thermalization channel.  The Gibbs weights and d lambda_0/dT are
written once (:func:`_gibbs`), and the channel is built together with its
exact temperature derivative (:func:`_gad_pair`); the evaluators run those
two.  Gibbs quantities are written through ``exp(-omega/T)``, which
underflows to 0 at low temperature instead of overflowing.

Superoperators use the row-major vectorization of :mod:`colltherm.linalg`:
``|i><j|`` is component ``D*i + j`` of ``rho.reshape(-1)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import operators

__all__ = [
    "BathSpec",
    "RotationSpec",
    "thermal_populations",
    "thermal_state",
    "nbar",
    "collision_unitary",
    "collision_maps",
    "collision_superoperator",
    "rotation_superoperator",
    "thermalization_channel",
]


def _check_finite(**fields: float) -> None:
    """Reject a non-finite value, naming its field."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name}: must be finite, got {value}")


def _as_float(name: str, value) -> float:
    """``value`` as a finite float, refusing a bool, a non-real or a
    non-finite value by name, so that a field's bits, not the type it came
    in as, decide what the maps built from it compute."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: must be a real number, got {value!r}")
    value = float(value)
    _check_finite(**{name: value})
    return value


@dataclass(frozen=True)
class BathSpec:
    """One bath and its probe: temperature (units of hbar*omega/k_B), probe
    frequency, and ``therm_time``, the dimensionless rethermalization
    strength gamma*t (probe-bath coupling rate times the time granted
    between successive ancilla collisions)."""

    temperature: float
    omega: float = 1.0
    therm_time: float = 0.5

    def __post_init__(self):
        for name in ("temperature", "omega", "therm_time"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not self.temperature > 0:
            raise ValueError(f"temperature: must be > 0, got {self.temperature}")
        if not self.omega > 0:
            raise ValueError(f"omega: must be > 0, got {self.omega}")
        if self.therm_time < 0:
            raise ValueError(f"therm_time: must be >= 0, got {self.therm_time}")

    def at_temperature(self, T: float) -> "BathSpec":
        return BathSpec(T, self.omega, self.therm_time)


@dataclass(frozen=True)
class RotationSpec:
    """Ancilla rotation ``exp(-i theta G)`` with G the Pauli (qubit) or
    spin-1 (qutrit) operator along ``axis``, by default pi/4 about x."""

    theta: float = math.pi / 4
    axis: str = "x"

    def __post_init__(self):
        object.__setattr__(self, "theta", _as_float("theta", self.theta))
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"axis: must be one of x, y, z, got {self.axis!r}")

    def unitary(self, dim: int) -> np.ndarray:
        """exp(-i theta G) in closed form: ``cos(theta) I - i sin(theta) G``
        for a Pauli G (G^2 = I), ``I - i sin(theta) G + (cos(theta) - 1) G^2``
        for spin 1 (G^3 = G; Curtright, Fairlie & Zachos, SIGMA 10, 084
        (2014))."""
        if dim not in operators.GENERATORS:
            raise ValueError(f"no rotation generator for ancilla dimension {dim}")
        g = operators.GENERATORS[dim][self.axis]
        c, s = math.cos(self.theta), math.sin(self.theta)
        if dim == 2:
            return c * np.eye(2) - 1j * s * g
        return np.eye(3) - 1j * s * g + (c - 1.0) * (g @ g)


def _gibbs(omega: float, T: float) -> tuple[float, float, float]:
    """(lambda_0, lambda_1, d lambda_0/dT), overflow-free for omega > 0, with
    d lambda_0/dT = (omega/T^2) lambda_0 lambda_1.  The one place that
    derivative is written: the probe tangents, :func:`_gad_pair` and the
    thermal benchmark F_th = (omega/T^2) d lambda_0/dT all read it."""
    _check_finite(omega=omega, temperature=T)
    if not T > 0:
        raise ValueError(f"temperature: must be > 0, got {T}")
    x = omega / T
    b = math.exp(-x)
    lam0, lam1 = b / (1.0 + b), 1.0 / (1.0 + b)
    return lam0, lam1, lam0 * lam1 * x / T


def thermal_populations(omega: float, T: float) -> tuple[float, float]:
    """(lambda_0, lambda_1) = (excited, ground) Gibbs populations.

    With energies E = (+omega/2, -omega/2) for basis (|0>, |1>):
    lambda_0 = 1/(1 + e^{omega/T}) < lambda_1.
    """
    return _gibbs(omega, T)[:2]


def thermal_state(omega: float, T: float) -> np.ndarray:
    """Gibbs state of ``H = omega*sigma_z/2`` at temperature T (qubit), a
    2 x 2 complex array."""
    lam0, lam1 = thermal_populations(omega, T)
    return np.array([[lam0, 0.0], [0.0, lam1]], dtype=complex)


def nbar(omega: float, T: float) -> float:
    """Bose occupation of the bath mode at the probe frequency."""
    _check_finite(omega=omega, temperature=T)
    if not T > 0:
        raise ValueError(f"temperature: must be > 0, got {T}")
    x = omega / T
    return math.exp(-x) / -math.expm1(-x)


# per ancilla dimension: g*tau over each sector's angle, and the sectors' index pairs
_EXCHANGE_SECTORS = {2: (1.0, ((1, 2),)), 3: (math.sqrt(2.0), ((3, 1), (4, 2)))}


def collision_unitary(angle: float, ancilla_dim: int = 2) -> np.ndarray:
    """exp(-i H tau) for the exchange H = g(s+ A- + s- A+) of the probe qubit
    with a qubit (A = s) or qutrit (A = Q) ancilla, as a function of the
    collision angle g*tau; probe factor first.

    H conserves the total excitation, so the unitary is the identity plus
    the block [[c, -is], [-is, c]] on each excitation sector of
    ``_EXCHANGE_SECTORS`` (both off-diagonals carry -i, as unitarity
    requires).  Qubit: |01>, |10> at g*tau.  Qutrit, with (probe level, m)
    at index 3*level + (1 - m): |1,+1>, |0,0> and |1,0>, |0,-1> at the
    Q-matrix element g*tau/sqrt(2); |0,+1> and |1,-1> are left alone.
    """
    if ancilla_dim not in _EXCHANGE_SECTORS:
        raise ValueError(f"no collision unitary for ancilla dimension {ancilla_dim}")
    _check_finite(angle=angle)
    scale, sectors = _EXCHANGE_SECTORS[ancilla_dim]
    a = angle / scale
    c, s = math.cos(a), math.sin(a)
    u = np.eye(2 * ancilla_dim, dtype=complex)
    for i, j in sectors:
        u[i, i] = u[j, j] = c
        u[i, j] = u[j, i] = -1j * s
    return u


# Pauli coefficients (I, X, Z) in and out: vec(p) = _PAULI_HALF^T c, c = 2 _PAULI_HALF vec(p)
_PAULI_HALF = 0.5 * operators.PAULI.reshape(3, 4)


def _ancilla_map(u: np.ndarray) -> np.ndarray:
    """The ancilla map of :func:`collision_maps` alone."""
    d, batch = u.shape[-1] // 2, u.shape[:-2]
    u4 = u.reshape(batch + (2, d, 2, d))
    # u (x) u* traced over the probe's output pair: [.., P, Q, a, c, A, C]
    m = np.einsum("...xaPA,...xcQC->...PQacAC", u4, u4.conj())
    return (_PAULI_HALF @ m.reshape(batch + (4, d**4))).reshape(batch + (3, d * d, d * d))


def collision_maps(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The collision ``X -> u X u^dag`` on probe (x) ancilla as two bilinear
    maps of (probe, ancilla): the probe in its Pauli coefficients
    ``c_mu = Tr(sigma_mu p)`` over (I, X, Z) (:data:`colltherm.operators.PAULI`),
    the ancilla vectorized.

    ``u`` is a (..., 2d, 2d) stack of unitaries, probe factor first.  The
    ancilla map ``A``, shaped (..., 3, d^2, d^2), gives the ancilla after
    the collision, ``vec(a') = sum_mu c_mu A[mu] vec(a)``; the probe map
    ``B``, shaped (..., 3, 3, d^2), gives the probe's Pauli coefficients,
    ``c'_nu = B[nu, mu, j] c_mu vec(a)_j``.  Both are read off the joint
    state ``u (sigma_mu / 2 (x) |A><C|) u^dag`` of every input pair, which
    is ``u (x) u*`` applied to that input, and both are linear in each
    factor, so a tangent stack goes through them by the product rule.
    A real probe has Y coefficient 0.  ``A`` is exact for any ``u``; ``B``
    drops the outgoing probe's Y coefficient, exact for a real ``u`` and real
    inputs (the evaluators' phase gauge), where both maps are real.
    """
    d, batch = u.shape[-1] // 2, u.shape[:-2]
    u4 = u.reshape(batch + (2, d, 2, d))
    # the partial trace of u (x) u* over the ancilla's output pair, indexed
    # [.., p, q, P, Q, A, C] by the probe's output pair, then the input pairs
    to_probe = np.einsum("...pbPA,...qbQC->...pqPQAC", u4, u4.conj())
    to_probe = operators.PAULI.reshape(3, 4) @ to_probe.reshape(batch + (4, 4 * d * d))
    return _ancilla_map(u), _PAULI_HALF @ to_probe.reshape(batch + (3, 4, d * d))


def collision_superoperator(angle: float, bath: BathSpec, ancilla_dim: int = 2) -> np.ndarray:
    """Vectorized collision channel of angle g*tau on the ancilla, with a
    thermal probe: the ancilla map of :func:`collision_maps` contracted
    with the Gibbs state's Pauli coefficients (1, 0, lambda_0 - lambda_1).
    """
    lam0, lam1 = thermal_populations(bath.omega, bath.temperature)
    to_ancilla = _ancilla_map(collision_unitary(angle, ancilla_dim))
    return to_ancilla[0] + (lam0 - lam1) * to_ancilla[2]


def rotation_superoperator(spec: RotationSpec, dim: int = 2) -> np.ndarray:
    """Vectorized unitary rotation: kron(U, U*)."""
    u = spec.unitary(dim)
    return np.kron(u, u.conj())


def _gad_pair(bath: BathSpec) -> np.ndarray:
    """The partial-thermalization channel and its T-derivative, stacked as
    (2, 4, 4) real, in one pass: each maps the populations (rho_00, rho_11)
    by a 2x2 matrix and scales both coherences.  Populations relax toward
    the Gibbs weights by e = exp(-Gamma t), Gamma t = gamma t (2 nbar + 1)
    with gamma t = ``bath.therm_time``; coherences decay by sqrt(e).
    """
    lam0, lam1, dlam0 = _gibbs(bath.omega, bath.temperature)
    n, x = nbar(bath.omega, bath.temperature), bath.omega / bath.temperature
    gt = bath.therm_time
    e = math.exp(-gt * (2.0 * n + 1.0))
    dlog = -2.0 * gt * (n * (n + 1.0) * x / bath.temperature)  # d ln(e) / dT
    a, de, r = dlam0 * (1.0 - e), e * dlog, math.sqrt(e)
    return np.array([
        [[p00, 0, 0, p03], [0, coh, 0, 0], [0, 0, coh, 0], [p30, 0, 0, p33]]
        for p00, p03, p30, p33, coh in (
            (e + lam0 * (1.0 - e), lam0 * (1.0 - e), lam1 * (1.0 - e), e + lam1 * (1.0 - e), r),
            (a + lam1 * de, a - lam0 * de, -a - lam1 * de, -a + lam0 * de, 0.5 * r * dlog),
        )
    ])


def thermalization_channel(bath: BathSpec) -> np.ndarray:
    """Partial-thermalization channel exp(L t) (4x4 superoperator), with
    gamma*t = ``bath.therm_time``: the generalized amplitude-damping closed
    form, slice 0 of :func:`_gad_pair`."""
    return _gad_pair(bath)[0]
