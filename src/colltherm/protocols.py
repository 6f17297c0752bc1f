"""Protocol evaluators: collision streams composed into estimation reports.

Four experiment families share one physical loop.  A stream of identically
prepared ancillas passes, one at a time, through every probe in order; a
local rotation follows each collision but the last (a fixed unitary there
cannot change a QFIM); each probe partially rethermalizes toward its bath,
with strength gamma*t (``BathSpec.therm_time``), between consecutive ancillas.
At the end the ancillas are measured, and the temperature vector of the
baths is what the measurement estimates.

One switch picks the engine: ``ProtocolConfig.correlated``.  Off, the
marginal stream runs; on, the joint simulation.  The four families are the
scenarios a caller may name to have a config checked against:

* ``single`` — one ancilla; the probes are fresh and thermal, so its state
  is exactly the composition of the reduced collision channels.
  :func:`single_run` evaluates it too and also returns the final state (a
  d x d array, checked like every state inside
  :func:`colltherm.estimation.qfim_stack`) and the SLDs.
* ``uncorrelated`` — sequential stream that tracks the single-system
  marginals of probes and ancillas only; the n-ancilla state is taken to be
  the tensor product of the recorded ancilla marginals, so the QFIM is the
  sum of per-ancilla QFIMs.  It runs stage by stage, every ancilla at once,
  with each probe carried as its Pauli coefficients (see
  :func:`_stream_tangents`).  Each ancilla meets the probe marginals rather
  than the probes' joint state, so the recorded ancilla marginals are the
  true ones only while the probes stay uncorrelated: for two probes and
  qubit ancillas whose first collision is a full swap (g1 = pi/2, as in
  fig2-fig4).  Otherwise they are an approximation to the joint
  simulation's single-ancilla marginals; at n = 2 the second one is off by
  4.85e-3 (largest entry) at g1 = g2 = 0.3 pi, T = (2, 1), and by 2.4e-3 in
  fig5's three-bath qutrit base config.
* ``correlated`` — full joint simulation of probes and ancillas, probes
  traced out only at the end; keeps the ancilla-ancilla correlations the
  product-of-marginals mode discards.  The register grows: each ancilla
  joins when it arrives, its whole pass through the probes composed into
  one isometry, and the last two ancillas act through one map that ends
  in the probe trace (see :func:`_joint_tangents`).
* ``qutrit`` — three probes with a qutrit ancilla stream
  (product-of-marginals mode); a qubit ancilla is accepted as the
  diagnostic that shows why a two-level carrier cannot jointly resolve
  three temperatures well.

Temperature derivatives are exact.  The temperatures enter only through the
probes' Gibbs states and the rethermalization channels; every other map is
linear in the state, or bilinear in (probe, ancilla) at a marginal-stream
collision.  So each evaluator carries the stack (rho, d_1 rho, ..., d_N rho)
through one pass of the same maps: the product rule at each collision, and
d_i Phi_i (rho) added to d_i rho wherever probe i rethermalizes.  The
states reach :func:`colltherm.estimation.qfim_stack` as plain arrays, and
it checks each one's trace and positivity on the eigenvalues it computes.

Every engine runs in real arithmetic, in the phase gauge T = diag(i^level)
on each ancilla: each -i sin of the exchange becomes a real +-sin and
T G_x T^dag = G_y, so every stage unitary, state and derivative is real, and
a fixed unitary leaves the QFIM alone.  A y rotation runs as the gauged x one
(the gauge's phase can move onto the probes instead, whose states and
rethermalizations it leaves alone), a z rotation, such a phase itself, as
theta = 0; :func:`single_run` turns the state and SLDs it returns back.
The gauged exchange masks and y-rotation table are made once, at import;
each evaluation, or a sweep once for its points, builds its
rethermalizations (:func:`colltherm.channels._gad_pairs`) as a stack, and
the joint simulation its stage unitaries (:func:`_stage_unitaries`).
Every stage is built one way: its collision, then a rotation at the
stage's angle (:func:`_stage_thetas`), which is 0, the identity exactly,
on the last stage.  A stage unitary is linear in the 9 products of (1,
cos a, sin a) over the gauged exchange masks with (1, cos theta, sin
theta) over the gauged y table, and its collision maps are quadratic in
the unitary.  So the marginal stream reads each stage's maps off one
table per ancilla dimension, of every pair of basis unitaries, made once
at import from :func:`colltherm.channels.collision_maps`
(:data:`_STAGE_TABLES`), with one contraction per call
(:func:`_stage_maps`).

In the marginal stream stage i reads only bath i, angle i, the rotation
and the sizes, so a :func:`sweep` along stage s's angle runs the stages
before s once and hands their ancilla stacks to each point's
:func:`evaluate`.  A point along the last stage's angle, which every preset
sweeps, runs that stage alone.  What the baths alone decide, a sweep along
any axis but ``gamma_t`` builds once and hands to each point the same way:
the marginal stream's probe tangents and rethermalizations
(:func:`_stream_baths`), the joint simulation's probes' Gibbs register and
rethermalization product (:func:`_probe_products`).  No axis moves T or
omega, so every sweep computes the thermal benchmark once.  Nothing either
call computes outlives it.

A scenario name only states what the caller expects: one table maps each
name to its precondition, and :func:`check_scenario` is the one place that
rejects an unknown name or a config its scenario cannot evaluate.
:func:`evaluate` checks a scenario when one is named, :func:`single_run`
always checks ``single``.  :func:`point` and :func:`sweep`, which take
none, turn reports into the merit rows (:data:`MERIT_COLUMNS`) the CLI writes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    _EXCHANGE_MASKS,
    _ROTATION_TABLES,
    BathSpec,
    RotationSpec,
    _as_float,
    _exchange_coefficients,
    _exchange_stack,
    _gad_pairs,
    _gibbs,
    _rotation_coefficients,
    _rotation_stack,
    collision_maps,
)
from .estimation import EstimationReport, Qfim, build_report, qfim_stack, thermal_fim
from .operators import SX, SZ

__all__ = [
    "SIM_DIM_CAP",
    "ProtocolConfig",
    "SweepGrid",
    "SWEEP_AXES",
    "sweep_values",
    "single_run",
    "MERIT_COLUMNS",
    "check_scenario",
    "evaluate",
    "point",
    "sweep",
]

# Joint-simulation Hilbert-space cap: 2 probes x 9 qubit ancillas, 3 x 8, or 5
# qutrit ancillas.  It bounds the correlated mode's dense work: its largest
# arrays (the register with probes after n - 2 ancillas, (1 + N) D^2 / d^4
# numbers at joint dimension D, and the (1 + N) d^2n output) and the
# eigendecomposition of the d^n x d^n ancilla state the QFIM reads.
SIM_DIM_CAP = 2**11

# the phase gauge T = diag(i^level) per ancilla dimension (module docstring);
# T u T^dag on probe (x) ancilla is u times the phases t_a conj(t_b)
_GAUGE = {d: 1j ** np.arange(d) for d in (2, 3)}
_GAUGE_PHASES = {d: np.tile(np.outer(t, t.conj()), (2, 2)) for d, t in _GAUGE.items()}
# the stage unitaries' tables in the gauge, made once: the exchange's masks
# (B, D, O) times the phases, real part (B and D sit on the diagonal, where the
# phases are 1), and the y rotation's Re(I - G_y^2, G_y^2, -i G_y)
_GAUGED_EXCHANGE = {d: (m * _GAUGE_PHASES[d].reshape(-1)).real for d, m in _EXCHANGE_MASKS.items()}
_GAUGED_Y = {d: _ROTATION_TABLES[d]["y"].real for d in _GAUGE}

# (I, X, Z), flattened: the marginal stream carries a real probe p as its Pauli
# coefficients c = _PAULI vec(p), vec(p) = _PAULI^T c / 2 (its Y one is 0)
_PAULI = np.array([np.eye(2), SX, SZ]).real.reshape(3, 4)


def _pauli_maps(us: np.ndarray) -> np.ndarray:
    """The maps of :func:`colltherm.channels.collision_maps` for a (K, 2d,
    2d) stack, with the probe in Pauli coefficients, flattened per unitary
    as (K, 3 d^4 + 9 d^2): first the ancilla map as the (3 d^2, d^2) matrix
    the stream right-multiplies, then the probe map (3, 3, d^2), identity
    row kept."""
    to_ancilla, to_probe = collision_maps(us)
    k, dd = len(us), to_probe.shape[-1]
    half = 0.5 * _PAULI
    to_probe = half @ (_PAULI @ to_probe.reshape(k, 4, 4 * dd)).reshape(k, 3, 4, dd)
    to_ancilla = (half @ to_ancilla.reshape(k, 4, dd * dd)).reshape(k, 3, dd, dd)
    return np.concatenate((to_ancilla.swapaxes(2, 3).reshape(k, -1), to_probe.reshape(k, -1)), 1)


# the pairs a <= b of the 9 stage basis unitaries: a stage's maps are sum_ab c_a c_b T_ab
_PAIRS = np.array([(a, b) for a in range(9) for b in range(a, 9)]).T


def _stage_table(d: int) -> np.ndarray:
    """The stage maps' table of ancilla dimension d.  Every stage's unitary
    is r_j c_k (I (x) R_j) E_k over the gauged exchange masks E = (B, D, O)
    and the gauged y table R = (I - G_y^2, G_y^2, -i G_y), with c = (1, cos
    a, sin a) and r = (1, cos theta, sin theta).  Over that basis M, the
    maps of sum_a c_a M_a (:func:`_pauli_maps`) are sum_ab c_a c_b T_ab over
    the pairs a <= b of :data:`_PAIRS`, by polarization T_ab = maps(M_a +
    M_b) - maps(M_a) - maps(M_b) and T_aa = maps(M_a) = maps(2 M_a) / 4: one
    call on the pair sums makes the table."""
    exchange = _GAUGED_EXCHANGE[d].reshape(3, 2, d, 2 * d)
    basis = (_GAUGED_Y[d][:, None, None] @ exchange).reshape(9, 2 * d, 2 * d)
    a, b = _PAIRS
    table = _pauli_maps(basis[a] + basis[b])
    # in place: new pages cost more than the arithmetic
    alone = table[a == b] / 4.0
    table -= alone[a]
    table -= alone[b]
    table[a == b] = alone
    return table


# per ancilla dimension, the stage maps' table in the gauge, made once
_STAGE_TABLES = {d: _stage_table(d) for d in _GAUGE}


@dataclass(frozen=True)
class ProtocolConfig:
    """Full specification of one protocol run.

    ``baths`` carry each bath's temperature, probe frequency and
    rethermalization strength gamma*t.  ``collision_angles`` are the
    products g*tau in radians, one per bath stage.  ``rotation`` (default
    pi/4 about x) is applied to the ancilla after every collision except
    the last; ``RotationSpec(0.0)`` leaves the ancilla alone between
    collisions.  Every ancilla starts in its bottom level, index
    ``ancilla_dim - 1``, so ``replace(config, ancilla_dim=2)`` turns a
    qutrit stream into a qubit one.
    """

    baths: tuple[BathSpec, ...]
    collision_angles: tuple[float, ...]
    ancilla_dim: int = 2
    n_ancillas: int = 1
    rotation: RotationSpec = RotationSpec()
    correlated: bool = False

    def __post_init__(self):
        if not isinstance(self.baths, Iterable):
            raise ValueError(f"baths: must be a sequence of BathSpec, got {self.baths!r}")
        object.__setattr__(self, "baths", tuple(self.baths))
        angles = self.collision_angles
        if np.array(angles, dtype=object).ndim != 1:
            raise ValueError(f"collision_angles: must be a sequence of numbers, got {angles!r}")
        object.__setattr__(self, "collision_angles", tuple(
            _as_float(f"collision_angles[{i}]", g) for i, g in enumerate(angles)))
        n_baths = len(self.baths)
        if n_baths not in (2, 3):
            raise ValueError(f"baths: need 2 or 3 stages, got {n_baths}")
        for i, bath in enumerate(self.baths):
            if not isinstance(bath, BathSpec):
                raise ValueError(f"baths[{i}]: must be a BathSpec, got {bath!r}")
        if not isinstance(self.rotation, RotationSpec):
            raise ValueError(f"rotation: must be a RotationSpec, got {self.rotation!r}")
        if not isinstance(self.correlated, bool):
            raise ValueError(f"correlated: must be a bool, got {self.correlated!r}")
        for name, value in (("ancilla_dim", self.ancilla_dim), ("n_ancillas", self.n_ancillas)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name}: must be an integer, got {value!r}")
        if self.ancilla_dim not in (2, 3):
            raise ValueError(f"ancilla_dim: must be 2 or 3, got {self.ancilla_dim}")
        if len(self.collision_angles) != n_baths:
            raise ValueError(
                f"collision_angles: need one per bath ({n_baths}), got "
                f"{len(self.collision_angles)}"
            )
        for i, g in enumerate(self.collision_angles):
            if g < 0:
                raise ValueError(f"collision_angles[{i}]: must be >= 0, got {g}")
        if self.n_ancillas < 1:
            raise ValueError(f"n_ancillas: must be >= 1, got {self.n_ancillas}")

    @property
    def n_baths(self) -> int:
        return len(self.baths)

    @property
    def temperatures(self) -> tuple[float, ...]:
        return tuple(b.temperature for b in self.baths)

    def joint_dim(self) -> int:
        return 2**self.n_baths * self.ancilla_dim**self.n_ancillas

    def at_temperatures(self, temps) -> "ProtocolConfig":
        baths = tuple(b.at_temperature(float(t)) for b, t in zip(self.baths, temps))
        return replace(self, baths=baths)


# ---------------------------------------------------------------------------
# building blocks of the tangent pass
# ---------------------------------------------------------------------------

def _probe_tangents(config: ProtocolConfig) -> np.ndarray:
    """Per probe, its Gibbs state and temperature derivatives stacked as
    (N, 1 + N, 2, 2), real; probe i depends on T_i alone."""
    nb = config.n_baths
    out = np.zeros((nb, 1 + nb, 2, 2))
    for i, bath in enumerate(config.baths):
        lam0, lam1, d = _gibbs(bath.omega, bath.temperature)[:3]
        out[i, 0, 0, 0], out[i, 0, 1, 1] = lam0, lam1
        out[i, 1 + i, 0, 0], out[i, 1 + i, 1, 1] = d, -d
    return out


def _stage_thetas(config: ProtocolConfig) -> tuple[float, ...]:
    """Per bath stage, the angle of the ancilla rotation after its
    collision: theta on every stage but the last, which no rotation follows,
    and 0 there.  A z rotation, a phase in the gauge, runs at 0 throughout."""
    theta = 0.0 if config.rotation.axis == "z" else config.rotation.theta
    return (theta,) * (config.n_baths - 1) + (0.0,)


def _stage_unitaries(config: ProtocolConfig) -> np.ndarray:
    """Per bath stage, the collision unitary on probe (x) ancilla followed
    by the ancilla rotation R at the stage's angle (:func:`_stage_thetas`),
    stacked as (N, 2d, 2d), real in the phase gauge (see the module
    docstring): the channels' closed forms on the gauged tables, bit for bit
    the gauged public unitaries.  (I (x) R) u acts on the ancilla row index
    alone, so R multiplies each probe row block of u.  The joint engine's
    isometry (:func:`_ancilla_isometry`) is built from them; the marginal
    stream reads the same stages' maps off a table (:func:`_stage_maps`)."""
    d = config.ancilla_dim
    us = _exchange_stack(config.collision_angles, d, _GAUGED_EXCHANGE[d])
    rs = _rotation_stack(_stage_thetas(config), _GAUGED_Y[d])
    return (rs[:, None] @ us.reshape(-1, 2, d, 2 * d)).reshape(us.shape)


def _stage_maps(config: ProtocolConfig, stages: slice = slice(None)) -> np.ndarray:
    """Per bath stage of ``stages``, the collision maps of its gauged stage
    unitary (:func:`_stage_unitaries`) in the stream's layout
    (:func:`_pauli_maps`), stacked as (stages, 3 d^4 + 9 d^2): the quadratic
    form sum_ab c_a c_b T_ab in the stage's 9 coefficients r_j c_k, read off
    :data:`_STAGE_TABLES`.  ``np.einsum`` sums every entry in one loop, so a
    stage's maps do not depend on how many stages one call contracts."""
    d = config.ancilla_dim
    r = _rotation_coefficients(_stage_thetas(config)[stages])
    c = _exchange_coefficients(config.collision_angles[stages], d)
    coefs = (r[:, :, None] * c[:, None]).reshape(len(c), 9)
    a, b = _PAIRS
    return np.einsum("sk,kf->sf", coefs[:, a] * coefs[:, b], _STAGE_TABLES[d])


def _ungauge(x: np.ndarray, config: ProtocolConfig) -> np.ndarray:
    """Engine operators on m ancillas, (..., d^m, d^m), as complex arrays in
    the computational basis: T^dag (.) T per ancilla for an x rotation."""
    t = np.ones(1, dtype=complex)
    while config.rotation.axis == "x" and len(t) < x.shape[-1]:
        t = np.kron(t, _GAUGE[config.ancilla_dim])
    return t.conj()[:, None] * x * t


# ---------------------------------------------------------------------------
# single ancilla and the marginal stream
# ---------------------------------------------------------------------------

def single_run(config: ProtocolConfig) -> tuple[np.ndarray, EstimationReport]:
    """One ancilla through all probes; returns (final state, report), the
    state a d x d complex array in the computational basis, turned back from
    the engine's gauge, whose unit trace and positivity
    :func:`colltherm.estimation.qfim_stack` has checked.

    With a single ancilla every probe is still in equilibrium when the
    collision happens, so the ancilla evolves by the composition of the
    reduced collision channels (with rotations interleaved): the n = 1 case
    of the marginal stream.  This is the route the closed forms describe.
    The report keeps the SLDs, in the computational basis too.
    """
    check_scenario("single", config)
    stacks = _stream_tangents(config)
    qs = qfim_stack(stacks)
    qf = Qfim(qs.matrices[0], tuple(_ungauge(np.array(qs.slds(0)), config)), qs.support_dims[0])
    report = build_report(qf, thermal_fim(config.baths))
    return _ungauge(stacks[0, 0], config), report


def _stream_baths(config: ProtocolConfig, rethermalize: bool = True) -> tuple:
    """The marginal stream's bath pieces, per stage: its probe's Gibbs
    tangents as Pauli coefficients, (N, 1 + N, 3), and, if ``rethermalize``,
    the probe's rethermalization S_i and d S_i / dT_i in Pauli form, (N, 2,
    3, 3), else None.  Both read ``config.baths`` alone."""
    nb = config.n_baths
    probes = _probe_tangents(config).reshape(nb, 1 + nb, 4) @ _PAULI.T
    return probes, _PAULI @ _gad_pairs(config.baths) @ _PAULI.T / 2 if rethermalize else None


def _stream_tangents(config: ProtocolConfig, prefix: tuple | None = None,
                     stop: int | None = None, baths: tuple | None = None) -> np.ndarray:
    """Per ancilla, its marginal final state and temperature derivatives in
    the sequential stream, stacked as (n, 1 + N, d, d).

    Stage i of ancilla k needs only stage i - 1 of ancilla k and stage i of
    ancilla k - 1, so the stream runs stage by stage, all n ancillas at
    once, on the maps of :func:`colltherm.channels.collision_maps`, read
    for every stage it runs off the tables made at import
    (:func:`_stage_maps`).  Ancilla stacks are vectorized, (1 + N,
    d^2); probe stacks are Pauli coefficients (I, X, Z), (1 + N, 3): in the
    phase gauge every probe is real, with Y coefficient 0.  The identity
    coefficient (1 for the state, 0 for the derivatives) is never propagated,
    so probe traces stay exact.

    Within stage i every incoming ancilla is known, so probe i's passage
    from ancilla k to k + 1 is a fixed linear map of its stack: the probe
    map contracted with ancilla k, then the rethermalization S_i, with the
    product rule on the derivatives and d S_i / dT_i added to the d_i
    entry.  The n - 1 maps are built in one batched step; the sequential
    part is one small matmul per ancilla.  No probe rethermalizes after the
    last ancilla, so a lone ancilla builds no rethermalization.  The
    ancilla outputs then take one batched matmul.
    They are the true marginals only when the probes stay uncorrelated (see
    the module docstring).

    With ``stop`` it runs stages 0 .. stop - 1 only and returns the ancilla
    stacks after them; a ``prefix`` (s, such stacks of a config that differs
    from this one only in baths and angles from s on) starts it at stage s.
    ``baths`` are :func:`_stream_baths` of a config with the same baths, for
    every stage (a sweep builds them once); the call slices the stages it
    runs, and without them it builds its own.
    """
    nb, d, n = config.n_baths, config.ancilla_dim, config.n_ancillas
    nt, dd = 1 + nb, d * d
    first, anc = prefix or (0, None)
    stages = slice(first, stop)  # the stages this call builds and runs
    ns = len(range(nb)[stages])
    maps = _stage_maps(config, stages)
    # the ancilla map with the probe in Pauli coefficients, (ns, 3 d^2, d^2)
    ancilla_maps = maps[:, :3 * dd * dd].reshape(ns, 3 * dd, dd)
    probes, therm = baths or _stream_baths(config, n > 1)
    probes = probes[stages]
    if n > 1:
        # the probe map in Pauli coefficients, then per stage S_i and d S_i / dT_i
        # after it, identity row dropped: (ns, 2, 3, 3 d^2)
        probe_maps = therm[stages] @ maps[:, None, 3 * dd * dd:].reshape(ns, 1, 3, 3 * dd)
        probe_maps[:, :, 0] = 0.0
    if anc is None:
        anc = np.zeros((n, nt, dd))
        anc[:, 0, dd - 1] = 1.0
    anc = anc.reshape(n, nt, dd)
    diag = np.arange(nt)

    for s, i in enumerate(range(nb)[stages]):
        coef = np.empty((n, nt * 3))
        coef[0] = probes[s].reshape(-1)
        if n > 1:
            # g[k, t]: S_i after the probe map with entry t of ancilla k,
            # plus d S_i after it with entry 0 for t = 1 + i
            maps = (anc[:-1] @ probe_maps[s].reshape(-1, dd).T).reshape(n - 1, nt, 2, 3, 3)
            g = maps[:, :, 0]
            g[:, 1 + i] += maps[:, 0, 1]
            # one step of the flattened probe stack: entry t takes g[k, 0] of
            # itself plus, for t >= 1, g[k, t] of the state entry; the state's
            # identity coefficient stays 1 and the derivatives' stay 0
            step = np.zeros((n - 1, nt, 3, nt, 3))
            step[:, diag, :, diag, :] = g[:, 0]
            step[:, 1:, :, 0, :] = g[:, 1:]
            step[:, 0, 0, 0, 0] = 1.0
            w = coef[0]
            for k, m in enumerate(step.reshape(n - 1, nt * 3, nt * 3), start=1):
                w = coef[k] = m @ w
        # probe (x) ancilla by the product rule: entry 0 is c_0 (x) a_0, entry
        # t >= 1 is c_t (x) a_0 + c_0 (x) a_t
        c = coef.reshape(n, nt, 3, 1)
        joint = c * anc[:, :1, None]
        joint[:, 1:] += c[:, :1] * anc[:, 1:, None]
        anc = joint.reshape(n, nt, 3 * dd) @ ancilla_maps[s]
    return anc.reshape(n, nt, d, d)


def _ancilla_isometry(config: ProtocolConfig) -> np.ndarray:
    """One ancilla's whole pass as an isometry V from the probes into
    ancilla (x) probes, shaped (d, P, P) as V[b, p, q].

    The ancilla arrives in its bottom level d - 1, so V starts as the P
    columns of the identity on ancilla (x) probes (probe 0 most significant)
    with that ancilla input, axes (c, y_0, ..., y_{N-1}, q); each stage
    collision and its rotation then acts on those columns alone: stage i's
    u[x, a, y, c] takes the ancilla axis c and probe axis y_i to (a, x), one
    einsum whose axes follow from i and N.
    """
    nb, d, p = config.n_baths, config.ancilla_dim, 2**config.n_baths
    v = np.eye(d * p)[:, (d - 1) * p:].reshape((d,) + (2,) * nb + (p,))
    axes = list(range(nb + 2))  # labels of v's axes; x and a are nb + 2, nb + 3
    for i, u in enumerate(_stage_unitaries(config)):
        out = [nb + 3] + axes[1:1 + i] + [nb + 2] + axes[2 + i:]
        v = np.einsum(u.reshape(2, d, 2, d), [nb + 2, nb + 3, 1 + i, 0], v, axes, out)
    return v.reshape(d, p, p)


def _probe_product(pairs, shape) -> np.ndarray:
    """Tensor product over the probes of a per-probe operator, one product
    per register: register 0 takes every probe's value, register 1 + m
    takes probe m's T_m-derivative in its place (the product rule).

    ``pairs`` holds per probe (value, derivative), each reshaped to
    ``shape`` = (row, col, row', col'); the product keeps that grouping, so
    (2, 2, 1, 1) states give (1 + N, P, P, 1, 1) and (2, 2, 2, 2)
    superoperators give (1 + N, P, P, P, P); it starts from probe 0's stack.
    """
    nt = 1 + len(pairs)
    stacks = (np.array([dx if m == 1 + i else x for m in range(nt)]).reshape((nt,) + shape)
              for i, (x, dx) in enumerate(pairs))
    out = next(stacks)
    for f in stacks:
        grown = tuple(a * b for a, b in zip(out.shape[1:], shape))
        out = np.einsum("xabcd,xefgh->xaebfcgdh", out, f).reshape((nt,) + grown)
    return out


def _probe_products(config: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """The probes' Gibbs register, (1 + N, 1, P^2), and the product of their
    rethermalizations, transposed, (1 + N, 1, P^2, P^2), each with its
    derivative registers (:func:`_probe_product`): read off ``config.baths``
    alone.  The product of the transposed pairs is the transposed product,
    so the joint engine's right-multiplication reads it as built."""
    nt, pp = 1 + config.n_baths, 4**config.n_baths
    gibbs = [(p[0], p[1 + i]) for i, p in enumerate(_probe_tangents(config))]
    reg = _probe_product(gibbs, (2, 2, 1, 1)).reshape(nt, 1, pp)
    therm_t = _gad_pairs(config.baths).swapaxes(-1, -2)
    return reg, _probe_product(therm_t, (2, 2, 2, 2)).reshape(nt, 1, pp, pp)


def _joint_tangents(config: ProtocolConfig, probes: tuple | None = None) -> np.ndarray:
    """The n-ancilla final state of the joint simulation and its temperature
    derivatives, stacked as (1 + N, d^n, d^n) in natural ancilla order.

    A growing register: each ancilla joins only when it arrives.  The 1 + N
    registers (rho and d_1 rho ... d_N rho) are one stack in vectorized
    form, shaped (1 + N, d^2k, P^2) after k ancillas: each ancilla's (row,
    column) index pair follows the earlier ones, and the probe pair (p, p')
    is the trailing axis.  Appending an ancilla and colliding it is
    R -> (I (x) V) R (I (x) V)^dag, a linear map from the probe pair to
    (b, b', p, p') that lands in place, so one matmul on the trailing axis
    does it for the whole stack.  Between ancillas the probes rethermalize
    by (x)_i Phi_i, composed into the same map (the step); the derivative
    kicks Phi_0 (x) ... (x) d Phi_m (x) ... act on register 0.  The last
    ancilla's map, fused with the probe trace sum_p V_p R V_p^dag, is folded
    into the step before it, P^2 x d^4 per register, so the step runs n - 2
    times.  The largest arrays are the register after n - 2 ancillas and
    the (1 + N) d^2n output; one transpose of its flat
    (b_1, b'_1, ..., b_n, b'_n) index puts the rows before the columns.

    ``probes`` are :func:`_probe_products` of a config with the same baths
    (a sweep builds them once); without them the call builds its own.
    """
    jd = config.joint_dim()
    if jd > SIM_DIM_CAP:
        raise ValueError(
            f"joint dimension {jd} = 2^{config.n_baths} * "
            f"{config.ancilla_dim}^{config.n_ancillas} exceeds the cap {SIM_DIM_CAP}"
        )
    nb, d, n = config.n_baths, config.ancilla_dim, config.n_ancillas
    nt, pp = 1 + nb, 4**nb
    v = _ancilla_isometry(config)
    reg, therm_t = probes or _probe_products(config)
    last = np.einsum("bpq,cps->qsbc", v, v.conj()).reshape(pp, d * d)

    def grow(reg, maps):  # the product rule: entry t >= 1 gains the kick maps_t of entry 0
        out = (reg.reshape(-1, pp) @ maps[0]).reshape(nt, -1, maps.shape[-1])
        out[1:] += np.matmul(reg[0].reshape(-1, pp), maps[1:])
        return out

    if n > 1:
        # (q, q') -> (b, b', p, p'): collide, then rethermalize; per register,
        # transposed for right-multiplication.  Each (b, b') block's matmul
        # writes straight into step's rows, so the register matmuls, which
        # run every ancilla, read it C-contiguous rather than as a transpose
        meet_t = np.einsum("bpq,crs->bcqspr", v, v.conj()).reshape(d * d, pp, pp)
        step = np.empty((nt, pp, d * d * pp))
        np.matmul(meet_t, therm_t, out=step.reshape(nt, pp, d * d, pp).transpose(0, 2, 1, 3))
        for _ in range(n - 2):
            reg = grow(reg, step).reshape(nt, -1, pp)
        # the last two ancillas: (q, q') -> (b, b', c, c'), the step, then last
        out = grow(reg, (step.reshape(-1, pp) @ last).reshape(nt, pp, d**4))
    else:
        out = reg.reshape(-1, pp) @ last
    out = out.reshape((nt,) + (d,) * (2 * n))
    rows_then_columns = (0, *range(1, 2 * n + 1, 2), *range(2, 2 * n + 1, 2))
    return out.transpose(rows_then_columns).reshape(nt, d**n, d**n)


# ---------------------------------------------------------------------------
# the scenario table
# ---------------------------------------------------------------------------

# name -> precondition: (holds, message) pairs, checked in order
_SCENARIOS = {
    "single": (
        (lambda c: c.n_ancillas == 1, "single_run requires n_ancillas = 1, got {c.n_ancillas}"),
    ),
    "uncorrelated": (
        (lambda c: not c.correlated, "config.correlated is set; use scenario 'correlated'"),
    ),
    "correlated": (
        (lambda c: c.correlated, "config.correlated is not set; use scenario 'uncorrelated'"),
    ),
    "qutrit": (
        (lambda c: c.n_baths == 3, "qutrit requires 3 baths, got {c.n_baths}"),
        (lambda c: not c.correlated, "qutrit runs in uncorrelated stream mode"),
    ),
}


def check_scenario(scenario: str | None, config: ProtocolConfig) -> None:
    """Raise ``ValueError`` unless ``scenario`` names an evaluator and the
    config meets that evaluator's precondition.  ``None`` names no scenario
    and checks nothing."""
    if scenario is None:
        return
    try:
        precondition = _SCENARIOS[scenario]
    except (KeyError, TypeError):  # TypeError: an unhashable name, e.g. a YAML list
        choices = sorted(_SCENARIOS)
        raise ValueError(f"unknown scenario {scenario!r}; choose from {choices}") from None
    for holds, message in precondition:
        if not holds(config):
            raise ValueError(message.format(c=config))


def evaluate(config: ProtocolConfig, scenario: str | None = None, *,
             _prefix: dict | None = None) -> EstimationReport:
    """Report of one config: the one evaluator call.  ``config.correlated``
    picks the engine, the joint simulation or the marginal stream; a named
    ``scenario`` is checked against the config first (:func:`check_scenario`).

    Reports do not keep the SLDs, so a caller holding many reports holds
    only small matrices; :func:`single_run` returns the single-ancilla
    SLDs.  Only :func:`sweep` passes a ``_prefix``, what it built once for
    its points: the thermal benchmark under ``"thermal"``, and the engine's
    keyword arguments, the marginal stream's stage ``prefix`` and bath
    pieces (``baths``, :func:`_stream_baths`), or the joint simulation's
    ``probes`` (:func:`_probe_products`).  What it lacks, the call builds.
    """
    check_scenario(scenario, config)
    shared = dict(_prefix or {})
    thermal = shared.pop("thermal", None)
    # the engine's K states form a product: their QFIMs add, their supports multiply
    qs = qfim_stack(_joint_tangents(config, **shared)[None] if config.correlated
                    else _stream_tangents(config, **shared))
    qf = Qfim(qs.matrices.sum(axis=0), support_dim=math.prod(qs.support_dims))
    return build_report(qf, thermal_fim(config.baths) if thermal is None else thermal)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _set_angle(config: ProtocolConfig, stage: int, value: float) -> ProtocolConfig:
    angles = list(config.collision_angles)
    angles[stage] = value * math.pi
    return replace(config, collision_angles=tuple(angles))


def _set_theta(config: ProtocolConfig, value: float) -> ProtocolConfig:
    return replace(config, rotation=replace(config.rotation, theta=value * math.pi))


def _set_gamma_t(config: ProtocolConfig, value: float) -> ProtocolConfig:
    baths = tuple(replace(b, therm_time=value) for b in config.baths)
    return replace(config, baths=baths)


def _set_n_ancillas(config: ProtocolConfig, value: float) -> ProtocolConfig:
    n = int(round(value))
    if abs(value - n) > 1e-9:
        raise ValueError(f"n_ancillas axis needs whole numbers, got {value}")
    return replace(config, n_ancillas=n)


_ANGLE_AXES = {"g_t1_over_pi": 0, "g_t2_over_pi": 1, "g_t3_over_pi": 2}

SWEEP_AXES = {
    **{name: lambda c, v, i=i: _set_angle(c, i, v) for name, i in _ANGLE_AXES.items()},
    "theta_over_pi": _set_theta,
    "gamma_t": _set_gamma_t,
    "n_ancillas": _set_n_ancillas,
}


def sweep_values(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Grid values from ``start`` toward ``stop`` in steps of ``step``.

    ``linspace`` over the largest whole number of steps that fits, counted
    to 1e-9 relative: the last value is ``stop`` when the span is a whole
    number of steps, and no value is ever past ``stop``.
    """
    if not (step > 0 and stop >= start):
        raise ValueError("need step > 0 and stop >= start")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ValueError(f"the step count (stop - start) / step = {span} is not finite")
    n = round(span)
    if abs(span - n) > 1e-9 * span:
        n = math.floor(span)
        stop = min(stop, start + n * step)
    return tuple(float(v) for v in np.linspace(start, stop, n + 1))


@dataclass(frozen=True)
class SweepGrid:
    """One swept axis over a fixed base configuration."""

    axis_name: str
    values: tuple[float, ...]
    fixed: ProtocolConfig

    def __post_init__(self):
        # a str first: an unhashable name, e.g. a YAML list, is refused by name too
        if not (isinstance(self.axis_name, str) and self.axis_name in SWEEP_AXES):
            raise ValueError(
                f"unknown sweep axis {self.axis_name!r}; "
                f"choose from {sorted(SWEEP_AXES)}"
            )
        stage = _ANGLE_AXES.get(self.axis_name)
        if stage is not None and stage >= self.fixed.n_baths:
            raise ValueError(
                f"axis refers to bath stage {stage + 1}, config has {self.fixed.n_baths}"
            )
        vals = tuple(_as_float(f"values[{i}]", v) for i, v in enumerate(self.values))
        object.__setattr__(self, "values", vals)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly increasing")

    def at(self, value: float) -> ProtocolConfig:
        return SWEEP_AXES[self.axis_name](self.fixed, value)


MERIT_COLUMNS = ("eta_joint", "eta_acc", "det_qfim", "trace_qfim", "singular", "error")


def _merits(evaluation) -> tuple[dict, EstimationReport | None]:
    """The merit row of ``evaluation()``'s report, and the report; one that
    raises is recorded in the ``error`` cell, with ``nan`` merits and no report."""
    try:
        rep = evaluation()
    except Exception as exc:  # recorded in the row; a sweep continues
        nan = float("nan")
        return dict(zip(MERIT_COLUMNS, (nan,) * 4 + (None, f"{type(exc).__name__}: {exc}"))), None
    merits = (rep.eta_joint, rep.eta_acc, rep.qfim.det, rep.qfim.trace, rep.singular, None)
    return dict(zip(MERIT_COLUMNS, merits)), rep


def point(config: ProtocolConfig) -> tuple[dict, EstimationReport | None]:
    """The merit row of one config, keyed by :data:`MERIT_COLUMNS`, and its
    report.  A failing evaluation is recorded in the row's ``error`` cell,
    with ``nan`` merits and no report."""
    return _merits(lambda: evaluate(config))


def sweep(grid: SweepGrid) -> list[tuple[dict, EstimationReport | None]]:
    """Evaluate every grid value, in grid order: one (row, report) pair per
    value, the row being :func:`point`'s with the value in ``axis_value``.
    A point that fails, or that the grid cannot place, records its error
    in-row, has report None, and the sweep continues.

    What the sweep's fixed config decides for every point it builds once,
    on ``grid.fixed``: the thermal benchmark, along every axis (none moves
    T or omega; the reports share it, read-only); along any axis but
    ``gamma_t``, which moves the baths, the joint simulation's
    :func:`_probe_products` or the marginal stream's :func:`_stream_baths`
    (rethermalization included, which an ``n_ancillas`` sweep from n = 1
    needs); and along angle s the marginal stream's stages before s.  Each
    point makes one :func:`evaluate` call from there; what the shared
    build could not make, each point builds, failing alike in its own row."""
    fixed, stage, shared = grid.fixed, _ANGLE_AXES.get(grid.axis_name), {}
    with suppress(Exception):
        shared["thermal"] = thermal_fim(fixed.baths)
        shared["thermal"].flags.writeable = False
        if grid.axis_name != "gamma_t":
            if fixed.correlated:
                shared["probes"] = _probe_products(fixed)
            else:
                shared["baths"] = _stream_baths(fixed)
        if stage and not fixed.correlated:
            shared["prefix"] = stage, _stream_tangents(fixed, stop=stage, baths=shared.get("baths"))
    points = []
    for value in grid.values:
        row, rep = _merits(lambda: evaluate(grid.at(value), _prefix=shared))
        points.append(({"axis_value": value, **row}, rep))
    return points
