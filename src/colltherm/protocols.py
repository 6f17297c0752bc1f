"""Protocol evaluators: collision streams composed into estimation reports.

Four experiment families share one physical loop.  A stream of identically
prepared ancillas passes, one at a time, through every probe in order; a
local rotation follows each collision but the last (a fixed unitary there
cannot change a QFIM); each probe partially rethermalizes toward its bath,
with strength gamma*t (``BathSpec.therm_time``), between consecutive ancillas.
At the end the ancillas are measured, and the temperature vector of the
baths is what the measurement estimates.

The four families are the scenarios of :func:`evaluate`, the one
evaluator call:

* ``single`` — one ancilla; the probes are fresh and thermal, so its state
  is exactly the composition of the reduced collision channels.
  :func:`single_run` evaluates it too and also returns the final state (a
  d x d array, checked like every state inside
  :func:`colltherm.estimation.qfim_stack`) and the SLDs.
* ``uncorrelated`` — sequential stream that tracks the single-system
  marginals of probes and ancillas only; the n-ancilla state is taken to be
  the tensor product of the recorded ancilla marginals, so the QFIM is the
  sum of per-ancilla QFIMs.  Each ancilla meets the probe marginals rather
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

One table maps each scenario name to its engine and its precondition;
:func:`check_scenario` is the one place that rejects an unknown name or a
config its scenario cannot evaluate, and :func:`evaluate`, :func:`sweep`
and :func:`single_run` all go through it.  :func:`point`
and :func:`sweep` turn reports into the merit rows (:data:`MERIT_COLUMNS`)
that the CLI writes as tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import (
    BathSpec,
    RotationSpec,
    collide,
    collision_unitary,
    thermal_state,
    thermal_state_dT,
    thermalization_channel,
    thermalization_channel_dT,
)
from .estimation import EstimationReport, Qfim, build_report, qfim_stack, thermal_fim

__all__ = [
    "SIM_DIM_CAP",
    "ProtocolConfig",
    "SweepGrid",
    "SWEEP_AXES",
    "sweep_values",
    "single_run",
    "MERIT_COLUMNS",
    "check_scenario",
    "scenario_for",
    "evaluate",
    "point",
    "sweep",
]

# Joint-simulation Hilbert-space cap: 2 probes x 9 qubit ancillas.  One evaluation
# at n = 9 took 0.21 s (0.18 s of it the QFIM of the 512-dimensional state) and
# +94 MB peak RSS, 3 probes x 8 ancillas 0.10 s and +133 MB (2-vCPU Xeon, one
# BLAS thread).
SIM_DIM_CAP = 2**11


@dataclass(frozen=True)
class ProtocolConfig:
    """Full specification of one protocol run.

    ``baths`` carry each bath's temperature, probe frequency and
    rethermalization strength gamma*t.  ``collision_angles`` are the
    products g*tau in radians, one per bath stage.  ``rotation`` is applied
    to the ancilla after every collision except the last; ``RotationSpec(0.0)``
    leaves the ancilla alone between collisions.  Every ancilla starts in
    its bottom level, index ``ancilla_dim - 1``, so ``replace(config,
    ancilla_dim=2)`` turns a qutrit stream into a qubit one.
    """

    baths: tuple[BathSpec, ...]
    collision_angles: tuple[float, ...]
    ancilla_dim: int = 2
    n_ancillas: int = 1
    rotation: RotationSpec = field(default_factory=lambda: RotationSpec(math.pi / 4))
    correlated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "baths", tuple(self.baths))
        object.__setattr__(
            self, "collision_angles", tuple(float(g) for g in self.collision_angles)
        )
        n_baths = len(self.baths)
        if n_baths not in (2, 3):
            raise ValueError(f"baths: need 2 or 3 stages, got {n_baths}")
        if self.ancilla_dim not in (2, 3):
            raise ValueError(f"ancilla_dim: must be 2 or 3, got {self.ancilla_dim}")
        if len(self.collision_angles) != n_baths:
            raise ValueError(
                f"collision_angles: need one per bath ({n_baths}), got "
                f"{len(self.collision_angles)}"
            )
        for g in self.collision_angles:
            if not g >= 0:
                raise ValueError(f"collision_angles: must be >= 0, got {g}")
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

def _probe_tangents(config: ProtocolConfig) -> list[np.ndarray]:
    """Per probe, its Gibbs state and temperature derivatives stacked as
    (1 + N, 2, 2); probe i depends on T_i alone."""
    out = []
    for i, b in enumerate(config.baths):
        p = np.zeros((1 + config.n_baths, 2, 2), dtype=complex)
        p[0] = thermal_state(b.omega, b.temperature)
        p[1 + i] = thermal_state_dT(b.omega, b.temperature)
        out.append(p)
    return out


def _stage_unitaries(config: ProtocolConfig) -> list[np.ndarray]:
    """Per bath stage, the collision unitary on probe (x) ancilla followed by
    the ancilla rotation R, on every stage but the last.  (I (x) R) u acts
    on the ancilla row index alone, so R multiplies each probe row block of
    u."""
    d = config.ancilla_dim
    rot = config.rotation.unitary(d)
    *rotated, last = (collision_unitary(g, d) for g in config.collision_angles)
    return [(rot @ u.reshape(2, d, 2 * d)).reshape(2 * d, 2 * d) for u in rotated] + [last]


def _rethermalizations(config: ProtocolConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per probe, its rethermalization superoperator and that map's T-derivative."""
    return [(thermalization_channel(b), thermalization_channel_dT(b)) for b in config.baths]


# ---------------------------------------------------------------------------
# single ancilla and the marginal stream
# ---------------------------------------------------------------------------

def single_run(config: ProtocolConfig) -> tuple[np.ndarray, EstimationReport]:
    """One ancilla through all probes; returns (final state, report), the
    state a d x d complex array whose unit trace and positivity
    :func:`colltherm.estimation.qfim_stack` has checked.

    With a single ancilla every probe is still in equilibrium when the
    collision happens, so the ancilla evolves by the composition of the
    reduced collision channels (with rotations interleaved): the n = 1 case
    of the marginal stream.  This is the route the closed forms describe.
    The report keeps the SLDs, in the computational basis.
    """
    check_scenario("single", config)
    stacks = _stream_tangents(config)
    qs = qfim_stack(stacks)
    qf = Qfim(qs.matrices[0], qs.slds(0), qs.support_dims[0])
    report = build_report(qf, thermal_fim(config.baths), qs.commutator_norms[0])
    return stacks[0, 0], report


def _stream_tangents(config: ProtocolConfig) -> np.ndarray:
    """Per ancilla, its marginal final state and temperature derivatives in
    the sequential stream, stacked as (n, 1 + N, d, d).

    Probe and ancilla marginals are carried as such stacks.  Each collision
    is :func:`colltherm.channels.collide`, whose joint stack of probe (x)
    ancilla follows the product rule; both marginals are read off it.
    Probe i picks up the partial rethermalization channel after each
    collision (except after the last ancilla, where it can no longer
    influence anything measured), and its d_i stack entry picks up the
    channel's own T_i-derivative.  The ancilla
    marginals are the true ones only when the probes stay uncorrelated (see
    the module docstring).
    """
    nb, d, n = config.n_baths, config.ancilla_dim, config.n_ancillas
    nt = 1 + nb
    probes = _probe_tangents(config)
    steps = _stage_unitaries(config)
    therm = _rethermalizations(config) if n > 1 else []
    anc0 = np.zeros((nt, d, d), dtype=complex)
    anc0[0, d - 1, d - 1] = 1.0

    out = np.empty((n, nt, d, d), dtype=complex)
    for k in range(n):
        a = anc0
        for i in range(nb):
            joint = collide(probes[i], a, steps[i])
            a = joint[:, 0, :, 0] + joint[:, 1, :, 1]
            if k < n - 1:
                p = np.trace(joint, axis1=2, axis2=4)
                s, ds = therm[i]
                pv = p.reshape(nt, 4) @ s.T
                pv[1 + i] += ds @ p[0].reshape(4)
                probes[i] = pv.reshape(nt, 2, 2)
        out[k] = a
    return out


def _ancilla_isometry(config: ProtocolConfig) -> np.ndarray:
    """One ancilla's whole pass as an isometry V from the probes into
    ancilla (x) probes, shaped (d, P, P) as V[b, p, q].

    The stage collisions and their rotations compose into one unitary W on
    ancilla (x) probes (probe 0 most significant); the ancilla arrives in
    its bottom level d - 1, so only the columns of W with that ancilla input
    are kept.
    """
    nb, d = config.n_baths, config.ancilla_dim
    p = 2**nb
    w = np.eye(d * p, dtype=complex).reshape((d,) + (2,) * nb + (d * p,))
    for i, u in enumerate(_stage_unitaries(config)):
        t = np.tensordot(u.reshape(2, d, 2, d), w, axes=([2, 3], [1 + i, 0]))
        w = np.moveaxis(t, (0, 1), (1 + i, 0))
    return w.reshape(d, p, d, p)[:, :, d - 1, :]


def _probe_product(pairs, shape) -> np.ndarray:
    """Tensor product over the probes of a per-probe operator, one product
    per register: register 0 takes every probe's value, register 1 + m
    takes probe m's T_m-derivative in its place (the product rule).

    ``pairs`` holds per probe (value, derivative), each reshaped to
    ``shape`` = (row, col, row', col'); the product keeps that grouping, so
    (2, 2, 1, 1) states give (1 + N, P, P, 1, 1) and (2, 2, 2, 2)
    superoperators give (1 + N, P, P, P, P).
    """
    nt = 1 + len(pairs)
    out = np.ones((nt, 1, 1, 1, 1), dtype=complex)
    for i, (x, dx) in enumerate(pairs):
        f = np.array([dx if m == 1 + i else x for m in range(nt)]).reshape((nt,) + shape)
        grown = tuple(a * b for a, b in zip(out.shape[1:], shape))
        out = np.einsum("xabcd,xefgh->xaebfcgdh", out, f).reshape((nt,) + grown)
    return out


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
    register with probes is never formed.
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
    out = (reg.reshape(-1, pp) @ last).reshape((nt,) + (d, d) * n)
    order = (0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    return out.transpose(order).reshape(nt, d**n, d**n)


# ---------------------------------------------------------------------------
# the scenario table
# ---------------------------------------------------------------------------

# name -> (engine, precondition).  The engine gives the stack of states whose
# QFIMs add, with their temperature derivatives, (K, 1 + N, d, d); the
# precondition lists (holds, message) pairs, checked in order.
_SCENARIOS = {
    "single": (_stream_tangents, (
        (lambda c: c.n_ancillas == 1, "single_run requires n_ancillas = 1, got {c.n_ancillas}"),
    )),
    "uncorrelated": (_stream_tangents, (
        (lambda c: not c.correlated, "config.correlated is set; use scenario 'correlated'"),
    )),
    "correlated": (lambda c: _joint_tangents(c)[None], ()),
    "qutrit": (_stream_tangents, (
        (lambda c: c.n_baths == 3, "qutrit requires 3 baths, got {c.n_baths}"),
        (lambda c: not c.correlated, "qutrit runs in uncorrelated stream mode"),
    )),
}


def check_scenario(scenario: str, config: ProtocolConfig | None = None) -> None:
    """Raise ``ValueError`` unless ``scenario`` names an evaluator and, given a
    ``config``, the config meets that evaluator's precondition."""
    try:
        _, precondition = _SCENARIOS[scenario]
    except (KeyError, TypeError):  # TypeError: an unhashable name, e.g. a YAML list
        choices = sorted(_SCENARIOS)
        raise ValueError(f"unknown scenario {scenario!r}; choose from {choices}") from None
    if config is not None:
        for holds, message in precondition:
            if not holds(config):
                raise ValueError(message.format(c=config))


def scenario_for(config: ProtocolConfig) -> str:
    """Default evaluator for a config: qutrit-style for three baths, the
    joint simulation when correlations are requested, the reduced-channel
    route for a lone ancilla, the marginal stream otherwise."""
    if config.n_baths == 3:
        return "qutrit"
    if config.correlated:
        return "correlated"
    if config.n_ancillas == 1:
        return "single"
    return "uncorrelated"


def evaluate(config: ProtocolConfig, scenario: str | None = None) -> EstimationReport:
    """Report of one config from the named (or default) scenario: the one
    evaluator call.

    Reports keep the SLD commutator norm but not the SLDs themselves, so a
    caller holding many reports holds only small matrices;
    :func:`single_run` returns the single-ancilla SLDs.
    """
    name = scenario or scenario_for(config)
    check_scenario(name, config)
    engine, _ = _SCENARIOS[name]
    # the engine's K states form a product: their QFIMs add, their supports
    # multiply, and the commutator norm is the largest of any one
    qs = qfim_stack(engine(config))
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
        if self.axis_name not in SWEEP_AXES:
            raise ValueError(
                f"unknown sweep axis {self.axis_name!r}; "
                f"choose from {sorted(SWEEP_AXES)}"
            )
        stage = _ANGLE_AXES.get(self.axis_name)
        if stage is not None and stage >= self.fixed.n_baths:
            raise ValueError(
                f"axis refers to bath stage {stage + 1}, config has {self.fixed.n_baths}"
            )
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly increasing")

    def at(self, value: float) -> ProtocolConfig:
        return SWEEP_AXES[self.axis_name](self.fixed, value)


MERIT_COLUMNS = ("eta_joint", "eta_acc", "det_qfim", "trace_qfim", "singular", "error")


def _failed_row(exc: Exception) -> dict:
    nan = float("nan")
    return dict(zip(MERIT_COLUMNS, (nan, nan, nan, nan, None, f"{type(exc).__name__}: {exc}")))


def point(config: ProtocolConfig, scenario: str) -> tuple[dict, EstimationReport | None]:
    """The merit row of one config, keyed by :data:`MERIT_COLUMNS`, and its
    report.  A failing evaluation is recorded in the row's ``error`` cell,
    with ``nan`` merits and no report."""
    try:
        rep = evaluate(config, scenario)
    except Exception as exc:  # recorded per row; a sweep continues
        return _failed_row(exc), None
    merits = (rep.eta_joint, rep.eta_acc, rep.qfim.det, rep.qfim.trace, rep.singular, None)
    return dict(zip(MERIT_COLUMNS, merits)), rep


def sweep(grid: SweepGrid, scenario: str) -> list[tuple[dict, EstimationReport | None]]:
    """Evaluate the scenario at every grid value, in grid order: one (row,
    report) pair per value, the row being :func:`point`'s with the value in
    ``axis_value``.  A failing point records its error in-row, has report
    None, and the sweep continues; an unknown scenario raises at once."""
    check_scenario(scenario)
    points = []
    for value in grid.values:
        try:
            row, rep = point(grid.at(value), scenario)
        except Exception as exc:  # the grid cannot place this value
            row, rep = _failed_row(exc), None
        points.append(({"axis_value": value, **row}, rep))
    return points
