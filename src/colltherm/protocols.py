"""Protocol evaluators: collision streams composed into estimation reports.

Four experiment families share one physical loop.  A stream of identically
prepared ancillas passes, one at a time, through every probe in order; a
local rotation follows each collision except (by default) the last; each
probe partially rethermalizes toward its bath between consecutive ancillas.
At the end the ancillas are measured, and the temperature vector of the
baths is what the measurement estimates.

* :func:`single_run` — one ancilla; the probes are fresh and thermal, so its
  state is exactly the composition of the reduced collision channels.
* :func:`multi_ancilla_uncorrelated` — sequential stream that tracks the
  single-system marginals of probes and ancillas only; the n-ancilla state
  is taken to be the tensor product of the recorded ancilla marginals and
  the QFIM is the sum of per-ancilla QFIMs.  Each ancilla meets the probe
  marginals rather than the probes' joint state, so the recorded ancilla
  marginals are the true ones only while the probes stay uncorrelated:
  for two probes and qubit ancillas whose first collision is a full swap
  (g1 = pi/2, as in fig2-fig4).  Otherwise they are an approximation to the
  joint simulation's single-ancilla marginals; at n = 2 the second one is
  off by 4.85e-3 (largest entry) at g1 = g2 = 0.3 pi, T = (2, 1), and by
  2.4e-3 in fig5's three-bath qutrit base config.
* :func:`multi_ancilla_correlated` — full joint simulation of probes and
  ancillas, probes traced out only at the end; keeps the ancilla-ancilla
  correlations the product-of-marginals mode discards.
* :func:`three_bath_qutrit` — three probes with a qutrit ancilla stream
  (product-of-marginals mode); a qubit ancilla is allowed as a diagnostic.

Temperature derivatives are exact.  The temperatures enter only through the
probes' Gibbs states and the rethermalization channels; every other map is
linear in the state, or bilinear in (probe, ancilla) at a marginal-stream
collision.  So each evaluator carries the stack (rho, d_1 rho, ..., d_N rho)
through one pass of the same maps: the product rule at each collision, and
d_i Phi_i (rho) added to d_i rho wherever probe i rethermalizes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import operators
from .channels import (
    BathSpec,
    CollisionSpec,
    RotationSpec,
    collision_unitary,
    thermal_state,
    thermal_state_dT,
    thermalization_channel,
    thermalization_channel_dT,
)
from .estimation import (
    EstimationReport,
    ParamDerivatives,
    Qfim,
    build_report,
    qfim,
    thermal_fim,
)
from .linalg import (
    DensityMatrix,
    apply_superop_local,
    apply_unitary_local,
    kron_all,
    trace_out,
)

__all__ = [
    "SIM_DIM_CAP",
    "ProtocolConfig",
    "SweepGrid",
    "SWEEP_AXES",
    "single_run",
    "multi_ancilla_uncorrelated",
    "multi_ancilla_correlated",
    "three_bath_qutrit",
    "sweep",
    "scenario_for",
    "evaluate",
]

SIM_DIM_CAP = 2**8  # joint-simulation Hilbert-space cap (2 probes x 6 qubit ancillas)


@dataclass(frozen=True)
class ProtocolConfig:
    """Full specification of one protocol run.

    ``collision_angles`` are the products g*tau in radians, one per bath
    stage.  ``rotation`` is applied to the ancilla after every collision
    except the last; ``apply_rotation_after_last`` adds the trailing one
    (which cannot change any QFIM — it is a fixed unitary — but resolves an
    ambiguity in how the composed channel is written down).
    """

    baths: tuple[BathSpec, ...]
    collision_angles: tuple[float, ...]
    ancilla_dim: int = 2
    n_ancillas: int = 1
    ancilla_init: int | None = None
    rotation: RotationSpec = field(default_factory=lambda: RotationSpec(math.pi / 4))
    rotation_enabled: bool = True
    correlated: bool = False
    apply_rotation_after_last: bool = False

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
        if self.n_ancillas < 1:
            raise ValueError(f"n_ancillas: must be >= 1, got {self.n_ancillas}")
        if self.ancilla_init is None:
            object.__setattr__(self, "ancilla_init", self.ancilla_dim - 1)
        if not 0 <= self.ancilla_init < self.ancilla_dim:
            raise ValueError(
                f"ancilla_init: index {self.ancilla_init} out of range for "
                f"dimension {self.ancilla_dim}"
            )

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

    def _rotation_stages(self) -> tuple[bool, ...]:
        """Which collision stages are followed by the ancilla rotation."""
        if not self.rotation_enabled:
            return (False,) * self.n_baths
        last = self.n_baths - 1
        return tuple(i < last or self.apply_rotation_after_last for i in range(self.n_baths))


def _commutator_norm(slds: tuple[np.ndarray, ...]) -> float:
    """Largest Frobenius norm of [L_i, L_j] over SLD pairs."""
    best = 0.0
    for i in range(len(slds)):
        for j in range(i + 1, len(slds)):
            c = slds[i] @ slds[j] - slds[j] @ slds[i]
            best = max(best, float(np.linalg.norm(c)))
    return best


# ---------------------------------------------------------------------------
# building blocks of the tangent pass
# ---------------------------------------------------------------------------

def _probe_tangents(config: ProtocolConfig) -> list[np.ndarray]:
    """Per probe, its Gibbs state and temperature derivatives stacked as
    (1 + N, 2, 2); probe i depends on T_i alone."""
    out = []
    for i, b in enumerate(config.baths):
        p = np.zeros((1 + config.n_baths, 2, 2), dtype=complex)
        p[0] = thermal_state(b.omega, b.temperature).mat
        p[1 + i] = thermal_state_dT(b.omega, b.temperature)
        out.append(p)
    return out


def _stage_unitaries(config: ProtocolConfig) -> list[np.ndarray]:
    """Per bath stage, the collision unitary on probe (x) ancilla followed by
    the ancilla rotation where that stage has one."""
    d = config.ancilla_dim
    rot = np.kron(np.eye(2), config.rotation.unitary(d)) if config.rotation_enabled else None
    out = []
    for g, rotated in zip(config.collision_angles, config._rotation_stages()):
        u = collision_unitary(CollisionSpec.from_angle(g), d)
        out.append(rot @ u if rotated else u)
    return out


def _rethermalizations(config: ProtocolConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per probe, its rethermalization superoperator and that map's T-derivative."""
    return [(thermalization_channel(b), thermalization_channel_dT(b)) for b in config.baths]


def _tangent_qfim(stack) -> tuple[Qfim, float]:
    """QFIM of one state from its stack (rho, d_1 rho, ..., d_N rho), and
    the largest commutator norm of its SLDs."""
    qf = qfim(ParamDerivatives(stack[0], tuple(stack[1:])))
    return qf, _commutator_norm(qf.slds)


# ---------------------------------------------------------------------------
# single ancilla and the marginal stream
# ---------------------------------------------------------------------------

def single_run(config: ProtocolConfig) -> tuple[DensityMatrix, EstimationReport]:
    """One ancilla through all probes; returns (final state, report).

    With a single ancilla every probe is still in equilibrium when the
    collision happens, so the ancilla evolves by the composition of the
    reduced collision channels (with rotations interleaved): the n = 1 case
    of the marginal stream.  This is the route the closed forms describe.
    The report keeps the SLDs.
    """
    if config.n_ancillas != 1:
        raise ValueError(f"single_run requires n_ancillas = 1, got {config.n_ancillas}")
    (stack,) = _stream_tangents(config)
    qf, comm = _tangent_qfim(stack)
    report = build_report(qf, thermal_fim(config.baths), comm)
    return DensityMatrix(stack[0], (config.ancilla_dim,)), report


def _stream_tangents(config: ProtocolConfig) -> list[np.ndarray]:
    """Per ancilla, its marginal final state and temperature derivatives in
    the sequential stream, stacked as (1 + N, d, d).

    Probe and ancilla marginals are carried as such stacks.  At each
    collision the joint stack of probe (x) ancilla follows the product
    rule; both marginals are read off it.  Probe i picks up the partial
    rethermalization channel after each collision (except after the last
    ancilla, where it can no longer influence anything measured), and its
    d_i stack entry picks up the channel's own T_i-derivative.  The ancilla
    marginals are the true ones only when the probes stay uncorrelated (see
    the module docstring).
    """
    nb, d, n = config.n_baths, config.ancilla_dim, config.n_ancillas
    nt = 1 + nb
    probes = _probe_tangents(config)
    steps = _stage_unitaries(config)
    therm = _rethermalizations(config) if n > 1 else []
    anc0 = np.zeros((nt, d, d), dtype=complex)
    anc0[0] = operators.basis_state(d, config.ancilla_init)

    out = []
    for k in range(n):
        a = anc0
        for i in range(nb):
            p, u = probes[i], steps[i]
            joint = p[:, :, None, :, None] * a[0][:, None, :]
            joint[1:] += p[0][:, None, :, None] * a[1:, None, :, None, :]
            joint = (u @ joint.reshape(nt, 2 * d, 2 * d) @ u.conj().T).reshape(nt, 2, d, 2, d)
            a = joint[:, 0, :, 0] + joint[:, 1, :, 1]
            if k < n - 1:
                p = np.trace(joint, axis1=2, axis2=4)
                s, ds = therm[i]
                pv = p.reshape(nt, 4) @ s.T
                pv[1 + i] += ds @ p[0].reshape(4)
                probes[i] = pv.reshape(nt, 2, 2)
        out.append(a)
    return out


def _stream_marginals(config: ProtocolConfig) -> list[np.ndarray]:
    """Recorded marginal final state of each ancilla in the sequential
    stream (see :func:`_stream_tangents`)."""
    return [stack[0] for stack in _stream_tangents(config)]


def multi_ancilla_uncorrelated(config: ProtocolConfig) -> EstimationReport:
    """Stream report with ancilla-ancilla correlations discarded.

    The joint state is taken to be the tensor product of the stream's
    recorded ancilla marginals, so the QFIM is additive: F = sum_k F(rho_k).
    Those marginals come from a stream that tracks probe marginals only;
    they equal the true single-ancilla marginals for two probes and qubit
    ancillas whose first collision is a full swap (g1 = pi/2), and
    approximate them otherwise (see the module docstring).  All n marginals
    and their exact derivatives come out of one stream pass.
    """
    if config.correlated:
        raise ValueError("config.correlated is set; use multi_ancilla_correlated")
    total = np.zeros((config.n_baths, config.n_baths))
    comm = 0.0
    support = 1
    for stack in _stream_tangents(config):
        qf_k, comm_k = _tangent_qfim(stack)
        total += qf_k.matrix
        comm = max(comm, comm_k)
        support *= qf_k.support_dim
    qf = Qfim(total, slds=(), support_dim=support)
    return build_report(qf, thermal_fim(config.baths), comm)


def _joint_tangents(config: ProtocolConfig) -> np.ndarray:
    """The n-ancilla final state of the joint simulation and its temperature
    derivatives, stacked as (1 + N, d^n, d^n).

    The register and its N derivatives are carried as 1 + N registers and
    updated one at a time, so no two generations of them are alive at once.
    """
    jd = config.joint_dim()
    if jd > SIM_DIM_CAP:
        raise ValueError(
            f"joint dimension {jd} = 2^{config.n_baths} * "
            f"{config.ancilla_dim}^{config.n_ancillas} exceeds the cap {SIM_DIM_CAP}"
        )
    nb, d, n = config.n_baths, config.ancilla_dim, config.n_ancillas
    dims = (2,) * nb + (d,) * n
    steps = _stage_unitaries(config)
    therm = _rethermalizations(config) if n > 1 else []
    probes = _probe_tangents(config)
    anc0 = operators.basis_state(d, config.ancilla_init)
    # register 0 is rho; register m > 0 is d_m rho, the same product with
    # probe m's Gibbs state replaced by its derivative
    regs = [
        kron_all(*(p[m] if m == 1 + i else p[0] for i, p in enumerate(probes)), *[anc0] * n)
        for m in range(1 + nb)
    ]
    for k in range(n):
        for i in range(nb):
            for m in range(len(regs)):
                regs[m] = apply_unitary_local(regs[m], dims, steps[i], (i, nb + k))
            if k < n - 1:
                s, ds = therm[i]
                kick = apply_superop_local(regs[0], dims, ds, i)
                for m in range(len(regs)):
                    regs[m] = apply_superop_local(regs[m], dims, s, i)
                regs[1 + i] += kick
                del kick
    keep = range(nb, nb + n)
    return np.array([trace_out(r, dims, keep) for r in regs])


def multi_ancilla_correlated(config: ProtocolConfig) -> EstimationReport:
    """Full joint simulation; QFIM on the complete n-ancilla state.

    Probes and ancillas evolve as one closed register (with the
    rethermalization channel acting locally on probes), and the probes are
    traced out only at the very end, so whatever correlations the shared
    probes establish between ancillas survive into the measured state.  The
    report drops the SLDs after taking their commutator norm.
    """
    qf, comm = _tangent_qfim(_joint_tangents(config))
    return build_report(qf.matrix, thermal_fim(config.baths), comm, support_dim=qf.support_dim)


def three_bath_qutrit(config: ProtocolConfig) -> EstimationReport:
    """Three-temperature stream report (product-of-marginals mode).

    With three probes the stream's recorded ancilla marginals are in general
    an approximation (see :func:`multi_ancilla_uncorrelated`).  Expects qutrit
    ancillas; a qubit ancilla is accepted as the diagnostic that shows why a
    two-level carrier cannot jointly resolve three temperatures well.
    """
    if config.n_baths != 3:
        raise ValueError(f"three_bath_qutrit requires 3 baths, got {config.n_baths}")
    if config.correlated:
        raise ValueError("three_bath_qutrit runs in uncorrelated stream mode")
    return multi_ancilla_uncorrelated(config)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _set_angle(config: ProtocolConfig, stage: int, value: float) -> ProtocolConfig:
    if stage >= config.n_baths:
        raise ValueError(f"axis refers to bath stage {stage + 1}, config has {config.n_baths}")
    angles = list(config.collision_angles)
    angles[stage] = value * math.pi
    return replace(config, collision_angles=tuple(angles))


def _set_theta(config: ProtocolConfig, value: float) -> ProtocolConfig:
    return replace(config, rotation=replace(config.rotation, theta=value * math.pi))


def _set_gamma_t(config: ProtocolConfig, value: float) -> ProtocolConfig:
    baths = tuple(replace(b, therm_time=value / b.gamma) for b in config.baths)
    return replace(config, baths=baths)


def _set_n_ancillas(config: ProtocolConfig, value: float) -> ProtocolConfig:
    n = int(round(value))
    if abs(value - n) > 1e-9:
        raise ValueError(f"n_ancillas axis needs whole numbers, got {value}")
    return replace(config, n_ancillas=n)


SWEEP_AXES = {
    "g_t1_over_pi": lambda c, v: _set_angle(c, 0, v),
    "g_t2_over_pi": lambda c, v: _set_angle(c, 1, v),
    "g_t3_over_pi": lambda c, v: _set_angle(c, 2, v),
    "theta_over_pi": _set_theta,
    "gamma_t": _set_gamma_t,
    "n_ancillas": _set_n_ancillas,
}


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
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly increasing")

    def at(self, value: float) -> ProtocolConfig:
        return SWEEP_AXES[self.axis_name](self.fixed, value)


def _single_report(config: ProtocolConfig) -> EstimationReport:
    """The report of :func:`single_run` without its SLDs."""
    report = single_run(config)[1]
    return replace(report, qfim=replace(report.qfim, slds=()))


_SCENARIOS = {
    "single": _single_report,
    "uncorrelated": multi_ancilla_uncorrelated,
    "correlated": multi_ancilla_correlated,
    "qutrit": three_bath_qutrit,
}


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
    """Report of one config from the named (or default) evaluator.

    Reports keep the SLD commutator norm but not the SLDs themselves, so a
    caller holding many reports holds only small matrices;
    :func:`single_run` returns the single-ancilla SLDs.
    """
    name = scenario or scenario_for(config)
    try:
        fn = _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)}"
        ) from None
    return fn(config)


def sweep(grid: SweepGrid, scenario: str, threads: int = 1) -> list[dict]:
    """Evaluate the scenario at every grid value; one row dict per value.

    Rows are independent (pure functions of the config), so they map over a
    thread pool; results keep the input order.  A failing point records its
    error message in-row and the sweep continues.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(_SCENARIOS)}")

    def one(value: float) -> dict:
        row = {
            "axis_value": value,
            "eta_joint": float("nan"),
            "eta_acc": float("nan"),
            "det_qfim": float("nan"),
            "trace_qfim": float("nan"),
            "singular": None,
            "error": None,
        }
        try:
            rep = evaluate(grid.at(value), scenario)
        except Exception as exc:  # recorded per-row, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
            return row
        row.update(
            eta_joint=rep.eta_joint,
            eta_acc=rep.eta_acc,
            det_qfim=rep.qfim.det,
            trace_qfim=rep.qfim.trace,
            singular=rep.singular,
        )
        return row

    if threads <= 1 or len(grid.values) <= 1:
        return [one(v) for v in grid.values]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, grid.values))
