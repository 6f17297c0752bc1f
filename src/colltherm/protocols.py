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
  one isometry, and the last ancilla's collision is fused with the probe
  trace (see :func:`_joint_tangents`).
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

In the marginal stream stage i reads only bath i, angle i, the rotation
and the sizes, so a :func:`sweep` along stage s's angle runs the stages
before s once and hands their ancilla stacks to each point's
:func:`evaluate`.  A point along the last stage's angle, which every preset
sweeps, runs that stage alone and builds no rotation, since none follows
the last collision.  Nothing either call computes outlives it.

A scenario name only states what the caller expects: one table maps each
name to its precondition, and :func:`check_scenario` is the one place that
rejects an unknown name or a config its scenario cannot evaluate.
:func:`evaluate`, :func:`point` and :func:`sweep` check a scenario when one
is named, and :func:`single_run` always checks ``single``.  :func:`point`
and :func:`sweep` turn reports into the merit rows (:data:`MERIT_COLUMNS`)
that the CLI writes as tables.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    BathSpec,
    RotationSpec,
    _ancilla_map,
    _as_float,
    _gad_pair,
    _gibbs,
    collision_maps,
    collision_unitary,
)
from .estimation import EstimationReport, Qfim, build_report, qfim_stack, thermal_fim
from .operators import PAULI

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

# Joint-simulation Hilbert-space cap: 2 probes x 9 qubit ancillas.  One evaluation
# at n = 9 took 0.16 s (0.12 s of it the QFIM of the 512-dimensional state) and
# +46 MB peak RSS, 3 probes x 8 ancillas 0.10 s and +71 MB (2-vCPU Xeon, one
# BLAS thread).
SIM_DIM_CAP = 2**11

# the phase gauge T = diag(i^level) per ancilla dimension (module docstring);
# T u T^dag on probe (x) ancilla is u times the phases t_a conj(t_b)
_GAUGE = {d: 1j ** np.arange(d) for d in (2, 3)}
_GAUGE_PHASES = {d: np.tile(np.outer(t, t.conj()), (2, 2)) for d, t in _GAUGE.items()}


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

def _probe_tangents(config: ProtocolConfig, stages: slice = slice(None)) -> np.ndarray:
    """Per probe of ``stages``, its Gibbs state and temperature derivatives
    stacked as (stages, 1 + N, 2, 2), real; probe i depends on T_i alone."""
    nb = config.n_baths
    index = range(nb)[stages]
    out = np.zeros((len(index), 1 + nb, 2, 2))
    for k, i in enumerate(index):
        lam0, lam1, d = _gibbs(config.baths[i].omega, config.baths[i].temperature)
        out[k, 0, 0, 0], out[k, 0, 1, 1] = lam0, lam1
        out[k, 1 + i, 0, 0], out[k, 1 + i, 1, 1] = d, -d
    return out


def _stage_unitaries(config: ProtocolConfig, stages: slice = slice(None)) -> np.ndarray:
    """Per bath stage of ``stages``, the collision unitary on probe (x)
    ancilla followed by the ancilla rotation R, on every stage but the last,
    stacked as (stages, 2d, 2d), real in the phase gauge (see the module
    docstring).  (I (x) R) u acts on the ancilla row index alone, so R
    multiplies each probe row block of u.  R is built only when ``stages``
    holds a rotated stage: the last stage alone needs none."""
    m, d = len(range(config.n_baths - 1)[stages]), config.ancilla_dim  # m: rotated stages
    us = np.array([collision_unitary(g, d) for g in config.collision_angles[stages]])
    us = np.ascontiguousarray((us * _GAUGE_PHASES[d]).real)
    if m:
        theta = 0.0 if config.rotation.axis == "z" else config.rotation.theta
        r = RotationSpec(theta, "y").unitary(d).real
        us[:m] = (r @ us[:m].reshape(m, 2, d, 2 * d)).reshape(m, 2 * d, 2 * d)
    return us


def _ungauge(x: np.ndarray, config: ProtocolConfig) -> np.ndarray:
    """Engine operators on m ancillas, (..., d^m, d^m), as complex arrays in
    the computational basis: T^dag (.) T per ancilla for an x rotation."""
    t = np.ones(1, dtype=complex)
    while config.rotation.axis == "x" and len(t) < x.shape[-1]:
        t = np.kron(t, _GAUGE[config.ancilla_dim])
    return t.conj()[:, None] * x * t


def _rethermalizations(config: ProtocolConfig, stages: slice = slice(None)) -> np.ndarray:
    """Per probe of ``stages``, its rethermalization superoperator and its
    T-derivative: (stages, 2, 4, 4)."""
    return np.array([_gad_pair(b) for b in config.baths[stages]])


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
    report = build_report(qf, thermal_fim(config.baths), qs.commutator_norms[0])
    return _ungauge(stacks[0, 0], config), report


def _stream_tangents(config: ProtocolConfig, prefix: tuple | None = None,
                     stop: int | None = None) -> np.ndarray:
    """Per ancilla, its marginal final state and temperature derivatives in
    the sequential stream, stacked as (n, 1 + N, d, d).

    Stage i of ancilla k needs only stage i - 1 of ancilla k and stage i of
    ancilla k - 1, so the stream runs stage by stage, all n ancillas at
    once, on the maps of :func:`colltherm.channels.collision_maps` (built
    for every stage it runs in one step).  Ancilla stacks are vectorized, (1 + N,
    d^2); probe stacks are Pauli coefficients (I, X, Z), (1 + N, 3): a real
    probe has Y coefficient 0.  The identity coefficient (1 for the state, 0
    for the derivatives) is never propagated, so probe traces stay exact.

    Within stage i every incoming ancilla is known, so probe i's passage
    from ancilla k to k + 1 is a fixed linear map of its stack: the probe
    map contracted with ancilla k, then the rethermalization S_i, with the
    product rule on the derivatives and d S_i / dT_i added to the d_i
    entry.  The n - 1 maps are built in one batched step; the sequential
    part is one small matmul per ancilla.  No probe rethermalizes after the
    last ancilla, so a lone ancilla needs neither the probe map nor the
    rethermalizations.  The ancilla outputs then take one batched matmul.
    They are the true marginals only when the probes stay uncorrelated (see
    the module docstring).

    With ``stop`` it runs stages 0 .. stop - 1 only and returns the ancilla
    stacks after them; a ``prefix`` (s, such stacks of a config that differs
    from this one only in baths and angles from s on) starts it at stage s.
    """
    nb, d, n = config.n_baths, config.ancilla_dim, config.n_ancillas
    nt, dd = 1 + nb, d * d
    first, anc = prefix or (0, None)
    stages = slice(first, stop)  # the stages this call builds and runs
    ns = len(range(nb)[stages])
    us = _stage_unitaries(config, stages)
    pauli = PAULI.reshape(3, 4)
    probes = _probe_tangents(config, stages).reshape(ns, nt, 4) @ pauli.T
    if n > 1:
        to_ancilla, to_probe = collision_maps(us)
        # per stage, S_i and d S_i / dT_i in Pauli coefficients after the
        # probe map, identity row dropped: (ns, 2, 3, 3 d^2)
        therm = pauli @ _rethermalizations(config, stages) @ pauli.T / 2
        probe_maps = therm @ to_probe.reshape(ns, 1, 3, 3 * dd)
        probe_maps[:, :, 0] = 0.0
    else:
        to_ancilla = _ancilla_map(us)
    ancilla_maps = to_ancilla.swapaxes(2, 3).reshape(ns, 3 * dd, dd)
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


# per probe count, stage i on V[c, probes..., q]: u[x, a, y, c] takes (c, probe i's y) to (a, x)
_STAGE_SUBSCRIPTS = {2: ("xayc,cyfq->axfq", "xayc,ceyq->aexq"),
                     3: ("xayc,cyfgq->axfgq", "xayc,ceygq->aexgq", "xayc,cefyq->aefxq")}


def _ancilla_isometry(config: ProtocolConfig) -> np.ndarray:
    """One ancilla's whole pass as an isometry V from the probes into
    ancilla (x) probes, shaped (d, P, P) as V[b, p, q].

    The ancilla arrives in its bottom level d - 1, so V starts as the P
    columns of the identity on ancilla (x) probes (probe 0 most significant)
    with that ancilla input; each stage collision and its rotation then acts
    on those columns alone, one einsum per stage.
    """
    nb, d, p = config.n_baths, config.ancilla_dim, 2**config.n_baths
    v = np.eye(d * p)[:, (d - 1) * p:].reshape((d,) + (2,) * nb + (p,))
    for sub, u in zip(_STAGE_SUBSCRIPTS[nb], _stage_unitaries(config)):
        v = np.einsum(sub, u.reshape(2, d, 2, d), v)
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


@functools.lru_cache(maxsize=None)
def _register_order(d: int, n: int) -> np.ndarray:
    """Read-only gather of a flat (b_1, b'_1, ..., b_n, b'_n) register into
    rows, then columns.  SIM_DIM_CAP bounds the keys: about 3.3 MB in all."""
    index = np.arange(d ** (2 * n)).reshape((d,) * (2 * n))
    index = index.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2)).reshape(-1)
    index.flags.writeable = False
    return index


def _joint_tangents(config: ProtocolConfig) -> np.ndarray:
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
    by (x)_i Phi_i, composed into the same map; the derivative kicks
    Phi_0 (x) ... (x) d Phi_m (x) ... act on register 0.  The last ancilla's
    map is fused with the probe trace, sum_p V_p R V_p^dag, so the final
    register with probes is never formed; a gather cached per (d, n) orders the result.
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
    gibbs = [(p[0], p[1 + i]) for i, p in enumerate(_probe_tangents(config))]
    reg = _probe_product(gibbs, (2, 2, 1, 1)).reshape(nt, 1, pp)
    if n > 1:
        # (q, q') -> (b, b', p, p'): collide, then rethermalize; per register,
        # transposed for right-multiplication
        meet = np.einsum("bpq,crs->bcprqs", v, v.conj()).reshape(d * d, pp, pp)
        therm = _probe_product(_rethermalizations(config), (2, 2, 2, 2)).reshape(nt, 1, pp, pp)
        step = np.matmul(therm, meet).reshape(nt, d * d * pp, pp).transpose(0, 2, 1)
        for _ in range(n - 1):
            grown = (reg.reshape(-1, pp) @ step[0]).reshape(nt, -1, pp)
            grown[1:] += np.matmul(reg[0], step[1:]).reshape(nb, -1, pp)
            reg = grown
    last = np.einsum("bpq,cps->qsbc", v, v.conj()).reshape(pp, d * d)
    out = (reg.reshape(-1, pp) @ last).reshape(nt, -1)
    return out.take(_register_order(d, n), axis=1).reshape(nt, d**n, d**n)


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


def check_scenario(scenario: str | None, config: ProtocolConfig | None = None) -> None:
    """Raise ``ValueError`` unless ``scenario`` names an evaluator and, given a
    ``config``, the config meets that evaluator's precondition.  ``None``
    names no scenario and checks nothing."""
    if scenario is None:
        return
    try:
        precondition = _SCENARIOS[scenario]
    except (KeyError, TypeError):  # TypeError: an unhashable name, e.g. a YAML list
        choices = sorted(_SCENARIOS)
        raise ValueError(f"unknown scenario {scenario!r}; choose from {choices}") from None
    if config is not None:
        for holds, message in precondition:
            if not holds(config):
                raise ValueError(message.format(c=config))


def evaluate(config: ProtocolConfig, scenario: str | None = None, *,
             _prefix: tuple | None = None) -> EstimationReport:
    """Report of one config: the one evaluator call.  ``config.correlated``
    picks the engine, the joint simulation or the marginal stream; a named
    ``scenario`` is checked against the config first (:func:`check_scenario`).

    Reports keep the SLD commutator norm but not the SLDs themselves, so a
    caller holding many reports holds only small matrices;
    :func:`single_run` returns the single-ancilla SLDs.  Only :func:`sweep`
    passes a ``_prefix``.
    """
    check_scenario(scenario, config)
    # the engine's K states form a product: their QFIMs add, their supports
    # multiply, and the commutator norm is the largest of any one
    qs = qfim_stack(_joint_tangents(config)[None] if config.correlated
                    else _stream_tangents(config, _prefix))
    qf = Qfim(qs.matrices.sum(axis=0), support_dim=math.prod(qs.support_dims))
    return build_report(qf, thermal_fim(config.baths), qs.commutator_norms.max())


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


def _failed_row(exc: Exception) -> dict:
    nan = float("nan")
    return dict(zip(MERIT_COLUMNS, (nan, nan, nan, nan, None, f"{type(exc).__name__}: {exc}")))


def point(config: ProtocolConfig, scenario: str | None = None, *,
          _prefix: tuple | None = None) -> tuple[dict, EstimationReport | None]:
    """The merit row of one config, keyed by :data:`MERIT_COLUMNS`, and its
    report.  A failing evaluation is recorded in the row's ``error`` cell,
    with ``nan`` merits and no report."""
    try:
        rep = evaluate(config, scenario, _prefix=_prefix)
    except Exception as exc:  # recorded per row; a sweep continues
        return _failed_row(exc), None
    merits = (rep.eta_joint, rep.eta_acc, rep.qfim.det, rep.qfim.trace, rep.singular, None)
    return dict(zip(MERIT_COLUMNS, merits)), rep


def sweep(grid: SweepGrid,
          scenario: str | None = None) -> list[tuple[dict, EstimationReport | None]]:
    """Evaluate every grid value, in grid order: one (row, report) pair per
    value, the row being :func:`point`'s with the value in ``axis_value``.
    A named ``scenario`` is checked at every point.  A failing point records
    its error in-row, has report None, and the sweep continues; an unknown
    scenario raises at once.  Along angle s the marginal stream runs the
    stages before s once, on ``grid.fixed``."""
    check_scenario(scenario)
    stage, prefix = _ANGLE_AXES.get(grid.axis_name), None
    if stage and not grid.fixed.correlated:
        with suppress(Exception):  # if this fails, each point fails alike in its own row
            prefix = stage, _stream_tangents(grid.fixed, stop=stage)
    points = []
    for value in grid.values:
        try:
            row, rep = point(grid.at(value), scenario, _prefix=prefix)
        except Exception as exc:  # the grid cannot place this value
            row, rep = _failed_row(exc), None
        points.append(({"axis_value": value, **row}, rep))
    return points
