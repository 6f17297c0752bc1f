"""Physical maps of the collisional protocol.

This module builds every channel the protocol composes:

* thermal probe states (Gibbs states of ``H = omega*sigma_z/2``),
* probe-ancilla collision unitaries for the excitation-exchange coupling
  ``H_int = g (sigma_+ (x) A_- + sigma_- (x) A_+)`` with a qubit or a spin-1
  (qutrit) ancilla,
* the collision step itself, :func:`collide`, which the marginal stream
  runs, and the ancilla channel of one collision with a thermal probe,
  read off that same step (:func:`collision_superoperator`),
* ancilla rotations ``exp(-i theta G_axis)`` and their superoperators,
* the partial-thermalization channel generated by the standard two-level
  GKSL generator with rates ``gamma (nbar + 1)`` (decay) and ``gamma nbar``
  (excitation): a generalized amplitude-damping channel, written in closed
  form, whose unique fixed point is the thermal state.  It depends on the
  rate and the time only through their product gamma*t, so a bath carries
  that product alone (:attr:`BathSpec.therm_time`).

Temperatures enter the protocol only through the thermal probe state and the
partial-thermalization channel, so those two also come with their exact
temperature derivatives (:func:`thermal_state_dT`,
:func:`thermalization_channel_dT`).  Gibbs quantities are written through
``exp(-omega/T)``, which underflows to 0 at low temperature instead of
overflowing.

Superoperators use the row-major vectorization of :mod:`colltherm.linalg`:
``|i><j|`` is component ``D*i + j`` of ``rho.reshape(-1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators

__all__ = [
    "BathSpec",
    "RotationSpec",
    "thermal_populations",
    "thermal_state",
    "thermal_state_dT",
    "nbar",
    "collision_unitary_qubit",
    "collision_unitary_qubit_qutrit",
    "collision_unitary",
    "collide",
    "collision_superoperator",
    "rotation_superoperator",
    "thermalization_channel",
    "thermalization_channel_dT",
]


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
    spin-1 (qutrit) operator along ``axis``."""

    theta: float
    axis: str = "x"

    def __post_init__(self):
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
    """(lambda_0, lambda_1, omega/T), overflow-free for omega > 0."""
    if not T > 0:
        raise ValueError(f"temperature: must be > 0, got {T}")
    x = omega / T
    b = math.exp(-x)
    return b / (1.0 + b), 1.0 / (1.0 + b), x


def thermal_populations(omega: float, T: float) -> tuple[float, float]:
    """(lambda_0, lambda_1) = (excited, ground) Gibbs populations.

    With energies E = (+omega/2, -omega/2) for basis (|0>, |1>):
    lambda_0 = 1/(1 + e^{omega/T}) < lambda_1.
    """
    lam0, lam1, _ = _gibbs(omega, T)
    return lam0, lam1


def thermal_state(omega: float, T: float) -> np.ndarray:
    """Gibbs state of ``H = omega*sigma_z/2`` at temperature T (qubit), a
    2 x 2 complex array."""
    lam0, lam1 = thermal_populations(omega, T)
    return np.array([[lam0, 0.0], [0.0, lam1]], dtype=complex)


def thermal_state_dT(omega: float, T: float) -> np.ndarray:
    """d/dT of the qubit Gibbs state: diag(1, -1) d lambda_0/dT, with
    d lambda_0/dT = (omega/T^2) lambda_0 lambda_1."""
    lam0, lam1, x = _gibbs(omega, T)
    d = lam0 * lam1 * x / T
    return np.array([[d, 0.0], [0.0, -d]], dtype=complex)


def nbar(omega: float, T: float) -> float:
    """Bose occupation of the bath mode at the probe frequency."""
    if not T > 0:
        raise ValueError(f"temperature: must be > 0, got {T}")
    x = omega / T
    return math.exp(-x) / -math.expm1(-x)


def collision_unitary_qubit(angle: float) -> np.ndarray:
    """exp(-i H tau) for the qubit-qubit exchange H = g(s+ s- + s- s+), as a
    function of the collision angle g*tau.

    H couples only |01> and |10>, so the exponential is the 2x2-rotation
    block form [[1,0,0,0],[0,c,-is,0],[0,-is,c,0],[0,0,0,1]] with
    c = cos(g tau), s = sin(g tau): both off-diagonal entries carry -i, as
    required by unitarity of the exponential of a real-symmetric coupling.
    """
    c, s = math.cos(angle), math.sin(angle)
    return np.array(
        [[1, 0, 0, 0], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [0, 0, 0, 1]], dtype=complex
    )


def collision_unitary_qubit_qutrit(angle: float) -> np.ndarray:
    """exp(-i H tau) for the qubit-qutrit exchange H = g(s+ Q- + s- Q+), as a
    function of the collision angle g*tau.

    Probe factor first (2 x 3 = 6 dimensional).  H commutes with the total
    excitation operator sigma_z/2 (x) I + I (x) S_z, so the unitary is block
    diagonal in excitation sectors; each two-dimensional sector rotates by
    the Q-matrix element g*tau/sqrt(2).  With (probe level, qutrit m) at
    index 3*level + (1 - m), the sectors |1,+1>, |0,0> and |1,0>, |0,-1> are
    the index pairs (3, 1) and (4, 2), each the block [[c, -is], [-is, c]];
    |0,+1> and |1,-1> are left alone.
    """
    a = angle / math.sqrt(2.0)
    c, s = math.cos(a), math.sin(a)
    u = np.eye(6, dtype=complex)
    for i, j in ((3, 1), (4, 2)):
        u[i, i] = u[j, j] = c
        u[i, j] = u[j, i] = -1j * s
    return u


def collision_unitary(angle: float, ancilla_dim: int = 2) -> np.ndarray:
    if ancilla_dim == 2:
        return collision_unitary_qubit(angle)
    if ancilla_dim == 3:
        return collision_unitary_qubit_qutrit(angle)
    raise ValueError(f"no collision unitary for ancilla dimension {ancilla_dim}")


def collide(probe: np.ndarray, ancilla: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One collision ``U (probe (x) ancilla) U^dag`` on tangent stacks.

    ``probe`` is a (1 + N, 2, 2) stack and ``ancilla`` a (1 + N, d, d) one:
    a state and its derivatives along N directions.  The joint stack before
    the collision follows the product rule, entry 0 ``p_0 (x) a_0`` and
    entry k ``p_k (x) a_0 + p_0 (x) a_k``; ``u`` acts on probe (x) ancilla.
    Returns the joint stack after the collision, shaped (1 + N, 2, d, 2, d)
    as [entry, probe row, ancilla row, probe column, ancilla column], so a
    caller traces out only the factor it no longer needs.
    """
    nt, d = ancilla.shape[0], ancilla.shape[-1]
    joint = probe[:, :, None, :, None] * ancilla[0][:, None, :]
    joint[1:] += probe[0][:, None, :, None] * ancilla[1:, None, :, None, :]
    return (u @ joint.reshape(nt, 2 * d, 2 * d) @ u.conj().T).reshape(nt, 2, d, 2, d)


def collision_superoperator(angle: float, bath: BathSpec, ancilla_dim: int = 2) -> np.ndarray:
    """Vectorized collision channel of angle g*tau on the ancilla, with a
    thermal probe, read off :func:`collide`.

    The channel is linear in the ancilla, so :func:`collide` maps derivative
    entries like states: with entry 0 the thermal probe and a zero ancilla,
    and the d^2 matrix units ``|j><k|`` as the ancilla's other entries,
    output entry ``1 + d*j + k`` is ``Phi(|j><k|)``, column ``d*j + k``.
    """
    d = ancilla_dim
    probe = np.zeros((1 + d * d, 2, 2), dtype=complex)
    probe[0] = thermal_state(bath.omega, bath.temperature)
    units = np.zeros((1 + d * d, d * d), dtype=complex)
    units[1:] = np.eye(d * d)
    joint = collide(probe, units.reshape(1 + d * d, d, d), collision_unitary(angle, d))
    return (joint[1:, 0, :, 0] + joint[1:, 1, :, 1]).reshape(d * d, d * d).T


def rotation_superoperator(spec: RotationSpec, dim: int = 2) -> np.ndarray:
    """Vectorized unitary rotation: kron(U, U*)."""
    u = spec.unitary(dim)
    return np.kron(u, u.conj())


def _damping(bath: BathSpec) -> tuple[float, float, float, float, float]:
    """Closed-form data of the partial-thermalization channel.

    Returns (lambda_0, lambda_1, e, d lambda_0/dT, d ln(e)/dT) with
    e = exp(-Gamma t) the population damping factor and
    Gamma t = gamma t (2 nbar + 1), gamma t being ``bath.therm_time``.
    """
    lam0, lam1, x = _gibbs(bath.omega, bath.temperature)
    n = nbar(bath.omega, bath.temperature)
    gt = bath.therm_time
    dn = n * (n + 1.0) * x / bath.temperature
    e = math.exp(-gt * (2.0 * n + 1.0))
    return lam0, lam1, e, lam0 * lam1 * x / bath.temperature, -2.0 * gt * dn


def _population_coherence_map(p00, p03, p30, p33, coh) -> np.ndarray:
    """4x4 superoperator that maps the populations (rho_00, rho_11) by
    [[p00, p03], [p30, p33]] and scales both coherences by ``coh``."""
    return np.array(
        [[p00, 0, 0, p03], [0, coh, 0, 0], [0, 0, coh, 0], [p30, 0, 0, p33]], dtype=complex
    )


def thermalization_channel(bath: BathSpec) -> np.ndarray:
    """Partial-thermalization channel exp(L t) (4x4 superoperator), with
    gamma*t = ``bath.therm_time``.

    The generalized amplitude-damping closed form: populations relax toward
    the Gibbs weights by the factor e = exp(-Gamma t), coherences decay by
    sqrt(e).
    """
    lam0, lam1, e, _, _ = _damping(bath)
    return _population_coherence_map(
        e + lam0 * (1.0 - e), lam0 * (1.0 - e), lam1 * (1.0 - e), e + lam1 * (1.0 - e), math.sqrt(e)
    )


def thermalization_channel_dT(bath: BathSpec) -> np.ndarray:
    """Temperature derivative of :func:`thermalization_channel`, entrywise."""
    lam0, lam1, e, dlam0, dlog = _damping(bath)
    a, de = dlam0 * (1.0 - e), e * dlog
    return _population_coherence_map(
        a + lam1 * de, a - lam0 * de, -a - lam1 * de, -a + lam0 * de, 0.5 * math.sqrt(e) * dlog
    )
