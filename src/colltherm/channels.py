"""Physical maps of the collisional protocol.

This module builds every channel the protocol composes:

* thermal probe states (Gibbs states of ``H = omega*sigma_z/2``),
* probe-ancilla collision unitaries for the excitation-exchange coupling
  ``H_int = g (sigma_+ (x) A_- + sigma_- (x) A_+)`` with a qubit or a spin-1
  (qutrit) ancilla,
* the collision as two bilinear maps of the vectorized (probe, ancilla),
  one giving the ancilla and one the probe (:func:`collision_maps`), from
  which the marginal stream's tables are made, and the ancilla channel of
  one collision with a thermal probe, that same ancilla map contracted
  with the Gibbs state (:func:`collision_superoperator`),
* ancilla rotations ``exp(-i theta G_axis)`` and their superoperators,
* the partial-thermalization channel generated by the standard two-level
  GKSL generator with rates ``gamma (nbar + 1)`` (decay) and ``gamma nbar``
  (excitation): a generalized amplitude-damping channel, written in closed
  form, whose unique fixed point is the thermal state.  It depends on the
  rate and the time only through their product gamma*t, so a bath carries
  that product alone (:attr:`BathSpec.therm_time`).

Temperatures enter the protocol only through :func:`_gibbs`, which writes
the Gibbs weights, the Bose occupation and their T-derivatives once.  The
thermal probe state and the partial-thermalization channel with its exact
T-derivative read them: the channel's decay (:func:`_gad_decay`) and its
nonzero entries (:func:`_gad_entries`) are closed forms in one bath's
numbers, which the evaluators build from, and :func:`_gad_pairs` stacks
the channels of many baths.  They are written through ``exp(-omega/T)``,
which underflows to 0 at low temperature instead of overflowing.

The exchange (:func:`_exchange_stack`) and the rotation
(:func:`_rotation_stack`, qubit and qutrit alike) are each one closed form
over tables made at import: complex ones for the public maps, real gauged
ones for the evaluators.

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
    in as, decide what the maps built from it compute.  An exact, finite
    ``float`` is returned at once, before the slower ``numbers.Real`` check."""
    if type(value) is float and math.isfinite(value):
        return value
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
        """exp(-i theta G), the one-angle case of :func:`_rotation_stack`."""
        if dim not in _ROTATION_TABLES:
            raise ValueError(f"no rotation generator for ancilla dimension {dim}")
        return _rotation_stack((self.theta,), _ROTATION_TABLES[dim][self.axis])[0]


# per ancilla dimension and axis, the rotation's table (I - G^2, G^2, -i G)
_ROTATION_TABLES = {d: {axis: np.array([np.eye(d) - g @ g, g @ g, -1j * g])
                        for axis, g in gens.items()}
                    for d, gens in operators.GENERATORS.items()}


def _rotation_coefficients(thetas) -> np.ndarray:
    """The rows (1, cos theta, sin theta) of each angle, stacked as (len(thetas), 3)."""
    return np.array([(1.0, math.cos(t), math.sin(t)) for t in thetas])


def _rotation_stack(thetas, table: np.ndarray) -> np.ndarray:
    """exp(-i theta G) per angle, (len(thetas), d, d): ``(I - G^2) +
    cos(theta) G^2 - i sin(theta) G`` over ``table`` = (I - G^2, G^2, -i G)
    (:data:`_ROTATION_TABLES` or the evaluators' real gauged y table), for
    any G with G^3 = G: spin 1, and a Pauli G, where I - G^2 = 0 (Curtright,
    Fairlie & Zachos, SIGMA 10, 084 (2014)).  Summed entrywise, not by a
    matmul, so complex and real tables round alike; theta = 0 gives I exactly."""
    r = _rotation_coefficients(thetas)[:, :, None, None]
    return (r * table).sum(axis=1)


def _gibbs(omega: float, T: float) -> tuple[float, float, float, float, float]:
    """(lambda_0, lambda_1, d lambda_0/dT, nbar, d nbar/dT), overflow-free
    for omega > 0, with x = omega/T, d lambda_0/dT = (x/T) lambda_0 lambda_1,
    nbar = e^{-x} / (1 - e^{-x}) and d nbar/dT = (x/T) nbar (nbar + 1).  The
    one place temperature enters the model and the one check of (omega, T):
    the evaluators' bath pieces, :func:`nbar`, :func:`_gad_pairs` and the
    thermal benchmark F_th = (omega/T^2) d lambda_0/dT all read it."""
    _check_finite(omega=omega, temperature=T)
    if not T > 0:
        raise ValueError(f"temperature: must be > 0, got {T}")
    x = omega / T
    b = math.exp(-x)
    lam0, lam1 = b / (1.0 + b), 1.0 / (1.0 + b)
    n = b / -math.expm1(-x)
    return lam0, lam1, lam0 * lam1 * x / T, n, n * ((n + 1.0) * x) / T


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
    """Bose occupation at the probe frequency, as :func:`_gibbs` checks and writes it."""
    return _gibbs(omega, T)[3]


# per ancilla dimension: g*tau over each sector's angle, and the sectors' index pairs
_EXCHANGE_SECTORS = {2: (1.0, ((1, 2),)), 3: (math.sqrt(2.0), ((3, 1), (4, 2)))}


def _exchange_masks(dim: int) -> np.ndarray:
    """The exchange on probe (x) ancilla as the rows (B, D, O) of a (3,
    4d^2) matrix: the identity off the sectors, the sectors' diagonal, and
    their off-diagonal times -i."""
    diag, off = np.zeros((2, 2 * dim, 2 * dim), dtype=complex)
    for i, j in _EXCHANGE_SECTORS[dim][1]:
        diag[(i, j), (i, j)], off[(i, j), (j, i)] = 1.0, -1j
    return np.array([np.eye(2 * dim) - diag, diag, off]).reshape(3, -1)


_EXCHANGE_MASKS = {d: _exchange_masks(d) for d in _EXCHANGE_SECTORS}


def _exchange_coefficients(angles, dim: int) -> np.ndarray:
    """The rows (1, cos a, sin a) of each collision angle, a the angle over
    the sectors' scale, stacked as (len(angles), 3): the exchange is linear
    in them over the masks (B, D, O)."""
    scale = _EXCHANGE_SECTORS[dim][0]
    return np.array([(1.0, math.cos(g / scale), math.sin(g / scale)) for g in angles])


def _exchange_stack(angles, dim: int, masks: np.ndarray) -> np.ndarray:
    """``B + cos(a) D + sin(a) O`` for each collision angle, stacked as
    (len(angles), 2d, 2d): one matmul of :func:`_exchange_coefficients`
    with ``masks`` = (B, D, O), :data:`_EXCHANGE_MASKS` or the evaluators'
    gauged ones.  Each entry is one term times 1 or +-1 plus zeros, so each
    cosine and sine lands exact (``I + (c - 1) D`` would round the cosine)."""
    return (_exchange_coefficients(angles, dim) @ masks).reshape(-1, 2 * dim, 2 * dim)


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
    return _exchange_stack((angle,), ancilla_dim, _EXCHANGE_MASKS[ancilla_dim])[0]


def collision_maps(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The collision ``X -> u X u^dag`` on probe (x) ancilla as two bilinear
    maps of the vectorized (probe, ancilla), exact for any ``u``.

    ``u`` is a (..., 2d, 2d) stack of unitaries, probe factor first.  The
    ancilla map ``A``, shaped (..., 4, d^2, d^2), gives the ancilla after
    the collision, ``vec(a') = sum_m vec(p)_m A[m] vec(a)``; the probe map
    ``B``, shaped (..., 4, 4, d^2), gives the probe,
    ``vec(p')_l = B[l, m, j] vec(p)_m vec(a)_j``.  They are the partial
    traces of ``u (p (x) a) u^dag``, read off ``u (x) u*`` for every input
    pair, and both are linear in each factor, so a tangent stack goes
    through them by the product rule.  Both are quadratic in ``u``: the
    marginal stream's tables are these maps of pair sums of basis
    unitaries (see :mod:`colltherm.protocols`).
    """
    d, batch = u.shape[-1] // 2, u.shape[:-2]
    u4 = u.reshape(batch + (2, d, 2, d))
    # u (x) u* traced over the probe's output pair: [.., P, Q, a, c, A, C]
    to_ancilla = np.einsum("...xaPA,...xcQC->...PQacAC", u4, u4.conj())
    # u (x) u* traced over the ancilla's output pair: [.., p, q, P, Q, A, C]
    to_probe = np.einsum("...pbPA,...qbQC->...pqPQAC", u4, u4.conj())
    return (to_ancilla.reshape(batch + (4, d * d, d * d)),
            to_probe.reshape(batch + (4, 4, d * d)))


def collision_superoperator(angle: float, bath: BathSpec, ancilla_dim: int = 2) -> np.ndarray:
    """Vectorized collision channel of angle g*tau on the ancilla, with a
    thermal probe: the ancilla map of :func:`collision_maps` contracted
    with the Gibbs state diag(lambda_0, lambda_1).
    """
    lam0, lam1 = thermal_populations(bath.omega, bath.temperature)
    to_ancilla = collision_maps(collision_unitary(angle, ancilla_dim))[0]
    return lam0 * to_ancilla[0] + lam1 * to_ancilla[3]


def rotation_superoperator(spec: RotationSpec, dim: int = 2) -> np.ndarray:
    """Vectorized unitary rotation: kron(U, U*)."""
    u = spec.unitary(dim)
    return np.kron(u, u.conj())


# the entries of a GAD superoperator: (rho_00, rho_11) -> (rho_00, rho_11) by
# a 2x2 matrix, and the two coherences (0, 1) and (1, 0) scaled alike
_GAD_ENTRIES = np.array([0, 0, 3, 3, 1, 2]), np.array([0, 3, 0, 3, 1, 2])


def _gad_decay(gibbs, therm_time: float) -> tuple[float, float, float, float]:
    """(e, d e/dT, sqrt(e), d sqrt(e)/dT) of a bath's partial
    thermalization from its :func:`_gibbs` numbers: populations relax by e
    = exp(-Gamma t), Gamma t = gamma t (2 nbar + 1) with gamma t =
    ``therm_time``, and coherences decay by sqrt(e)."""
    n, dn = gibbs[3:]
    e = math.exp(-therm_time * (2.0 * n + 1.0))
    dlog = -2.0 * therm_time * dn  # d ln(e) / dT
    r = math.sqrt(e)
    return e, e * dlog, r, 0.5 * r * dlog


def _gad_entries(gibbs, therm_time: float) -> tuple[float, ...]:
    """The six entries (at :data:`_GAD_ENTRIES`) of a bath's partial
    thermalization, then the six of its T-derivative, from its
    :func:`_gibbs` numbers: populations relax toward the Gibbs weights by e
    and coherences decay by sqrt(e) (:func:`_gad_decay`)."""
    lam0, lam1, dlam0 = gibbs[:3]
    e, de, r, dr = _gad_decay(gibbs, therm_time)
    a = dlam0 * (1.0 - e)
    return (e + lam0 * (1.0 - e), lam0 * (1.0 - e), lam1 * (1.0 - e), e + lam1 * (1.0 - e),
            r, r, a + lam1 * de, a - lam0 * de, -a - lam1 * de, -a + lam0 * de, dr, dr)


def _gad_pairs(baths) -> np.ndarray:
    """Per bath, the partial-thermalization channel and its T-derivative,
    stacked as (N, 2, 4, 4) real: each maps the populations (rho_00,
    rho_11) by a 2x2 matrix and scales both coherences
    (:func:`_gad_entries`).  Every temperature-dependent number of a bath
    comes from one :func:`_gibbs` call; one array takes them all.
    """
    entries = [_gad_entries(_gibbs(b.omega, b.temperature), b.therm_time) for b in baths]
    out = np.zeros((len(baths), 2, 4, 4))
    out[:, :, _GAD_ENTRIES[0], _GAD_ENTRIES[1]] = np.reshape(entries, (-1, 2, 6))
    return out


def thermalization_channel(bath: BathSpec) -> np.ndarray:
    """Partial-thermalization channel exp(L t) (4x4 superoperator), with
    gamma*t = ``bath.therm_time``: the generalized amplitude-damping closed
    form, the value of :func:`_gad_pairs` for one bath."""
    return _gad_pairs((bath,))[0, 0]
