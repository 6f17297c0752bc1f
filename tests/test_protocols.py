"""Protocol evaluators: closed-form agreement, route agreement, invariants.

The load-bearing checks: the single-ancilla evaluator against the analytic
final state (both with and without the interleaved rotation), the three
evaluation routes agreeing where they must (n = 1; full rethermalization),
additivity of the marginal-product stream against a brute-force QFIM on
the tensor product, the evaluators' exact temperature derivatives
against central differences, and the real phase gauge the engines run in:
float64 stacks, and every rotation axis against oracles that rotate as
given.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from colltherm import protocols
from colltherm.channels import (
    BathSpec,
    RotationSpec,
    _gad_pairs,
    _gibbs,
    collision_maps,
    collision_unitary,
    thermal_populations,
)
from colltherm.estimation import thermal_fim
from colltherm.operators import SX, SZ
from colltherm.protocols import (
    SIM_DIM_CAP,
    SWEEP_AXES,
    ProtocolConfig,
    SweepGrid,
    check_scenario,
    evaluate,
    single_run,
    sweep,
    sweep_values,
)
from colltherm.protocols import _joint_tangents, _stream_tangents, _ungauge
from colltherm.estimation import qfim_stack


def two_bath_config(**overrides):
    base = dict(
        baths=(BathSpec(2.0, therm_time=0.5), BathSpec(1.0, therm_time=0.5)),
        collision_angles=(0.5 * math.pi, 0.3 * math.pi),
        rotation=RotationSpec(math.pi / 4, "x"),
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def three_bath_config(**overrides):
    base = dict(
        baths=(
            BathSpec(2.0, therm_time=0.5),
            BathSpec(1.0, therm_time=0.5),
            BathSpec(3.0, therm_time=0.5),
        ),
        collision_angles=(0.5 * math.pi, 0.2 * math.pi, 0.35 * math.pi),
        ancilla_dim=3,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def assert_same_report(a, b):
    """Two reports agree bit for bit: QFIM, thermal benchmark and merits."""
    npt.assert_array_equal(a.qfim.matrix, b.qfim.matrix)
    npt.assert_array_equal(a.thermal, b.thermal)
    merits = ("eta_joint", "eta_acc", "singular")
    assert [getattr(a, m) for m in merits] == [getattr(b, m) for m in merits]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestProtocolConfig:
    def test_bath_count(self):
        with pytest.raises(ValueError, match="baths"):
            ProtocolConfig(baths=(BathSpec(2.0),), collision_angles=(0.1,))

    def test_angle_count_must_match_baths(self):
        with pytest.raises(ValueError, match="collision_angles"):
            two_bath_config(collision_angles=(0.1,))

    def test_ancilla_dim(self):
        with pytest.raises(ValueError, match="ancilla_dim"):
            two_bath_config(ancilla_dim=4)

    def test_defaults(self):
        """Each default is written once, in the library, and the presets and
        the config loader take it from there: omega = 1, gamma*t = 0.5, one
        qubit ancilla, the rotation pi/4 about x, the marginal stream."""
        cfg = ProtocolConfig(baths=(BathSpec(2.0), BathSpec(1.0)), collision_angles=(0.1, 0.2))
        assert cfg.baths[0] == BathSpec(2.0, omega=1.0, therm_time=0.5)
        assert cfg.rotation == RotationSpec() == RotationSpec(math.pi / 4, "x")
        assert (cfg.ancilla_dim, cfg.n_ancillas, cfg.correlated) == (2, 1, False)

    def test_n_ancillas_positive(self):
        with pytest.raises(ValueError, match="n_ancillas"):
            two_bath_config(n_ancillas=0)

    @pytest.mark.parametrize("field, value", [
        ("ancilla_dim", 2.0), ("ancilla_dim", True), ("ancilla_dim", "2"),
        ("n_ancillas", 2.0), ("n_ancillas", 2.5), ("n_ancillas", True), ("n_ancillas", "3"),
    ])
    def test_sizes_must_be_integers(self, field, value):
        """A float, bool or string size is refused by name before numpy sees it."""
        with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
            two_bath_config(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("correlated", "false", "correlated: must be a bool"),
        ("correlated", 0, "correlated: must be a bool"),
        ("rotation", 0.3, "rotation: must be a RotationSpec"),
        ("baths", (2.0, 1.0), r"baths\[0\]: must be a BathSpec"),
        ("baths", (BathSpec(2.0), {"temperature": 1.0}), r"baths\[1\]: must be a BathSpec"),
        ("baths", 2.0, "baths: must be a sequence of BathSpec, got 2.0"),
        ("baths", None, "baths: must be a sequence of BathSpec, got None"),
        ("baths", BathSpec(2.0), r"baths: must be a sequence of BathSpec, got BathSpec\("),
    ])
    def test_field_types_are_checked(self, field, value, message):
        """A string ``correlated`` would pick the joint simulation, and a bare
        number for a rotation or bath would fail inside ``evaluate``: each is
        refused by name when the config is built."""
        with pytest.raises(ValueError, match=f"^{message}"):
            two_bath_config(**{field: value})

    @pytest.mark.parametrize("angles, message", [
        (("0.5", 0.3), r"collision_angles\[0\]: must be a real number, got '0.5'"),
        ((0.5, True), r"collision_angles\[1\]: must be a real number, got True"),
        (("abc", 0.3), r"collision_angles\[0\]: must be a real number, got 'abc'"),
        ((0.5, None), r"collision_angles\[1\]: must be a real number, got None"),
        (([0.5], 0.3), r"collision_angles\[0\]: must be a real number, got \[0.5\]"),
        (0.5, "collision_angles: must be a sequence of numbers, got 0.5"),
        ("05", "collision_angles: must be a sequence of numbers, got '05'"),
        (np.array(0.5), r"collision_angles: must be a sequence of numbers, got array\(0.5\)"),
        (((0.5,), (0.3,)), r"collision_angles: must be a sequence of numbers, got \(\(0.5,\),"),
    ])
    def test_collision_angles_are_refused_by_name(self, angles, message):
        """A string, bool or other non-real angle, or anything but a flat
        sequence, is refused by name, by the rule every spec field follows."""
        with pytest.raises(ValueError, match=f"^{message}"):
            two_bath_config(collision_angles=angles)

    def test_collision_angles_are_stored_as_floats(self):
        config = two_bath_config(collision_angles=[1, np.float32(0.5)])
        assert config.collision_angles == (1.0, 0.5)
        assert all(type(g) is float for g in config.collision_angles)

    def test_replace_ancilla_dim_swaps_the_carrier(self):
        """A qutrit config with a qubit swapped in (the diagnostic of
        criterion 8) builds, and reports what the qubit config built
        directly reports: the start state follows the dimension."""
        assert_same_report(evaluate(replace(three_bath_config(), ancilla_dim=2), "qutrit"),
                           evaluate(three_bath_config(ancilla_dim=2), "qutrit"))

    def test_at_temperatures(self):
        cfg = two_bath_config().at_temperatures((2.5, 0.8))
        assert cfg.temperatures == (2.5, 0.8)
        # everything else untouched
        assert cfg.baths[0].therm_time == 0.5
        assert cfg.collision_angles == two_bath_config().collision_angles

    def test_joint_dim(self):
        assert two_bath_config(n_ancillas=3).joint_dim() == 2**2 * 2**3
        assert three_bath_config(n_ancillas=2).joint_dim() == 2**3 * 3**2


# ---------------------------------------------------------------------------
# single ancilla vs closed forms
# ---------------------------------------------------------------------------

def test_single_run_requires_one_ancilla():
    with pytest.raises(ValueError, match="n_ancillas"):
        single_run(two_bath_config(n_ancillas=2))


def test_single_run_plain_final_state(rng):
    """Rotation off: the final ancilla is diagonal with excited population
    v = q sin^2 g2 + p sin^2 g1 cos^2 g2."""
    for _ in range(10):
        g1, g2 = rng.uniform(0.1 * math.pi, 0.9 * math.pi, size=2)
        t1, t2 = rng.uniform(0.5, 4.0, size=2)
        cfg = two_bath_config(
            baths=(BathSpec(t1), BathSpec(t2)),
            collision_angles=(g1, g2),
            rotation=RotationSpec(0.0),
        )
        final, _ = single_run(cfg)
        p, _ = thermal_populations(1.0, t1)
        q, _ = thermal_populations(1.0, t2)
        v = oracles.plain_final_v(g1, g2, p, q)
        npt.assert_allclose(final, np.diag([v, 1.0 - v]), atol=1e-10)


def test_single_run_plain_qfim_is_rank_one(rng):
    """Rotation off: one binomial observable, so F = grad(v) grad(v)^T / v(1-v)."""
    g1, g2 = 0.45 * math.pi, 0.3 * math.pi
    t1, t2 = 2.0, 1.0
    cfg = two_bath_config(
        baths=(BathSpec(t1), BathSpec(t2)),
        collision_angles=(g1, g2),
        rotation=RotationSpec(0.0),
    )
    _, rep = single_run(cfg)
    p, _ = thermal_populations(1.0, t1)
    q, _ = thermal_populations(1.0, t2)
    v = oracles.plain_final_v(g1, g2, p, q)
    grad = np.array(
        [
            math.sin(g1) ** 2 * math.cos(g2) ** 2 * oracles.dlam0_dT(1.0, t1),
            math.sin(g2) ** 2 * oracles.dlam0_dT(1.0, t2),
        ]
    )
    expected = np.outer(grad, grad) / (v * (1.0 - v))
    npt.assert_allclose(rep.qfim.matrix, expected, atol=1e-8)
    assert rep.singular
    assert math.isinf(rep.eta_acc) and rep.eta_acc < 0


def test_single_run_rotated_final_state(rng):
    for _ in range(10):
        g1, g2 = rng.uniform(0.1 * math.pi, 0.9 * math.pi, size=2)
        t1, t2 = rng.uniform(0.5, 4.0, size=2)
        cfg = two_bath_config(baths=(BathSpec(t1), BathSpec(t2)), collision_angles=(g1, g2))
        final, _ = single_run(cfg)
        p, _ = thermal_populations(1.0, t1)
        q, _ = thermal_populations(1.0, t2)
        npt.assert_allclose(final, oracles.rotated_final_state(g1, g2, p, q), atol=1e-10)


def test_single_run_qfim_against_bloch_oracle():
    """QFIM from the analytic state derivative and the Bloch formula; no
    package code in the expected value."""
    g1, g2 = 0.5 * math.pi, 0.3 * math.pi
    t1, t2 = 2.0, 1.0
    cfg = two_bath_config(baths=(BathSpec(t1), BathSpec(t2)), collision_angles=(g1, g2))
    _, rep = single_run(cfg)
    p, _ = thermal_populations(1.0, t1)
    q, _ = thermal_populations(1.0, t2)
    rho = oracles.rotated_final_state(g1, g2, p, q)
    chi_dot = -math.sin(g1) ** 2 * math.cos(g2) * oracles.dlam0_dT(1.0, t1)
    mu_dot = math.sin(g2) ** 2 * oracles.dlam0_dT(1.0, t2)
    d1 = np.array([[0.0, -1j * chi_dot], [1j * chi_dot, 0.0]])
    d2 = np.array([[mu_dot, 0.0], [0.0, -mu_dot]], dtype=complex)
    expected = oracles.qfim_bloch(rho, [d1, d2])
    npt.assert_allclose(rep.qfim.matrix, expected, rtol=1e-6, atol=1e-9)
    assert not rep.singular
    l1, l2 = rep.qfim.slds
    assert np.linalg.norm(l1 @ l2 - l2 @ l1) > 1e-10


def test_full_swap_reads_second_bath_only():
    """g1 = g2 = pi/2 without rotation swaps the second probe onto the
    ancilla: the state is the bath-2 Gibbs state and the only information
    left is the bath-2 thermometer at its equilibrium ceiling."""
    cfg = two_bath_config(
        collision_angles=(0.5 * math.pi, 0.5 * math.pi), rotation=RotationSpec(0.0)
    )
    final, rep = single_run(cfg)
    q, _ = thermal_populations(1.0, 1.0)
    npt.assert_allclose(final, np.diag([q, 1.0 - q]), atol=1e-12)
    benchmark = thermal_fim(cfg.baths)
    # the T1 derivative is finite-difference noise (~1e-11): squared on the
    # diagonal, multiplied by the O(1) bath-2 SLD in the cross entry
    assert rep.qfim.matrix[0, 0] < 1e-20
    assert abs(rep.qfim.matrix[0, 1]) < 1e-10
    assert rep.qfim.matrix[1, 1] == pytest.approx(benchmark[1], abs=1e-6)
    assert rep.singular


# ---------------------------------------------------------------------------
# route agreement
# ---------------------------------------------------------------------------

def test_stream_routes_agree_at_one_ancilla():
    cfg = two_bath_config()
    _, rep_single = single_run(cfg)
    rep_stream = evaluate(cfg, "uncorrelated")
    rep_joint = evaluate(replace(cfg, correlated=True), "correlated")
    npt.assert_allclose(rep_stream.qfim.matrix, rep_single.qfim.matrix, atol=1e-9)
    npt.assert_allclose(rep_joint.qfim.matrix, rep_single.qfim.matrix, atol=1e-9)
    assert rep_stream.eta_joint == pytest.approx(rep_single.eta_joint, rel=1e-8)


def test_qutrit_stream_agrees_with_single_run_at_one_ancilla():
    cfg = three_bath_config()
    _, rep_single = single_run(cfg)
    rep_stream = evaluate(cfg, "qutrit")
    npt.assert_allclose(rep_stream.qfim.matrix, rep_single.qfim.matrix, atol=1e-9)


def test_uncorrelated_additivity_against_product_qfim():
    """The stream report must equal a brute-force QFIM of the tensor product
    of the recorded marginals."""
    cfg = two_bath_config(n_ancillas=2, collision_angles=(0.5 * math.pi, 0.3 * math.pi))
    rep = evaluate(cfg, "uncorrelated")

    def joint(tvec):
        stacks = _stream_tangents(cfg.at_temperatures(tvec))
        return np.kron(stacks[0][0], stacks[1][0])

    stack = oracles.finite_diff_derivatives(joint, np.array(cfg.temperatures))
    brute = qfim_stack(stack[None]).matrices[0]
    npt.assert_allclose(rep.qfim.matrix, brute, atol=1e-8)


def test_correlated_reduces_to_fresh_singles_under_full_rethermalization():
    """gamma*t = 50 (therm_time) resets the probes between ancillas, so the joint
    simulation must give exactly n independent copies of the single run."""
    single_cfg = two_bath_config(
        baths=(BathSpec(2.0, therm_time=50.0), BathSpec(1.0, therm_time=50.0)),
        collision_angles=(0.5 * math.pi, 0.3 * math.pi),
    )
    _, rep1 = single_run(single_cfg)
    rep2 = evaluate(replace(single_cfg, n_ancillas=2, correlated=True), "correlated")
    npt.assert_allclose(rep2.qfim.matrix, 2.0 * rep1.qfim.matrix, atol=1e-6)


def test_uncorrelated_rejects_correlated_config():
    cfg = two_bath_config(n_ancillas=2, correlated=True)
    with pytest.raises(ValueError, match="correlated"):
        evaluate(cfg, "uncorrelated")


def test_correlated_dimension_cap():
    assert two_bath_config(n_ancillas=9).joint_dim() == SIM_DIM_CAP
    cfg = two_bath_config(n_ancillas=10, correlated=True)
    assert cfg.joint_dim() > SIM_DIM_CAP
    with pytest.raises(ValueError, match="cap"):
        evaluate(cfg, "correlated")


def test_correlated_seven_ancillas_extend_the_six_ancilla_stream():
    """n = 7 (joint dimension 512) gives a finite report.  Its first six
    ancillas, stack and all, are the n = 6 stream, since the seventh meets
    the probes only after they left; so the QFIM can only grow."""
    cfg = two_bath_config(n_ancillas=7, correlated=True)
    rep = evaluate(cfg, "correlated")
    assert np.all(np.isfinite(rep.qfim.matrix))
    assert math.isfinite(rep.eta_joint) and math.isfinite(rep.eta_acc)
    assert not rep.singular

    stack7 = _joint_tangents(cfg)
    stack6 = _joint_tangents(replace(cfg, n_ancillas=6))
    reduced = np.einsum("xiaja->xij", stack7.reshape(3, 64, 2, 64, 2))
    npt.assert_allclose(reduced, stack6, atol=1e-12)
    growth = rep.qfim.matrix - evaluate(replace(cfg, n_ancillas=6), "correlated").qfim.matrix
    assert np.min(np.linalg.eigvalsh(growth)) > -1e-9


def test_correlated_three_probe_qutrit_register_against_single_ancilla_routes():
    """Three probes, qutrit ancillas: at n = 1 the register's stack (state
    and derivatives) is the single-ancilla route's; the first ancilla of an
    n = 2 register is that same state; and probes reset between ancillas
    give twice the single-ancilla QFIM."""
    cfg = three_bath_config(correlated=True)
    stack1 = _joint_tangents(cfg)
    (single,) = _stream_tangents(replace(cfg, correlated=False))
    npt.assert_allclose(stack1, single, rtol=0, atol=1e-12)
    stack2 = _joint_tangents(replace(cfg, n_ancillas=2))
    npt.assert_allclose(
        np.einsum("xiaja->xij", stack2.reshape(4, 3, 3, 3, 3)), stack1, rtol=0, atol=1e-12
    )
    reset = three_bath_config(
        correlated=True, n_ancillas=2,
        baths=tuple(BathSpec(t, therm_time=50.0) for t in (2.0, 1.0, 3.0)),
    )
    _, rep1 = single_run(replace(reset, n_ancillas=1, correlated=False))
    npt.assert_allclose(evaluate(reset, "correlated").qfim.matrix, 2.0 * rep1.qfim.matrix, atol=1e-6)


@pytest.mark.parametrize("g1_over_pi", [0.5, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_correlated_stack_matches_brute_force_joint_simulation(n, g1_over_pi):
    """The growing register's state equals the full-register Kraus
    simulation of the oracle within 1e-12, at fig4's angles (g1 = pi/2,
    g2 = 0.3 pi) and at g1 = g2 = 0.3 pi; its derivatives equal the
    oracle's central differences.  At n = 1 the single-ancilla route gives
    the same state.  The register runs in the phase gauge, so it is compared
    in the computational basis, through the un-gauge ``single_run`` uses."""
    angles = (g1_over_pi * math.pi, 0.3 * math.pi)
    temps = (2.0, 1.0)
    cfg = two_bath_config(collision_angles=angles, n_ancillas=n, correlated=True)
    stack = _ungauge(_joint_tangents(cfg), cfg)
    npt.assert_allclose(stack[0], oracles.joint_stream_state(angles, temps, n), rtol=0, atol=1e-12)
    h = 1e-5
    for mu in range(2):
        up, down = list(temps), list(temps)
        up[mu] += h
        down[mu] -= h
        ref = (
            oracles.joint_stream_state(angles, up, n) - oracles.joint_stream_state(angles, down, n)
        ) / (2.0 * h)
        npt.assert_allclose(stack[1 + mu], ref, rtol=0, atol=1e-8)
    if n == 1:
        final, _ = single_run(replace(cfg, correlated=False))
        npt.assert_allclose(final, stack[0], rtol=0, atol=1e-12)


# (2, 3, 3) is the first qutrit shape whose folded last two ancillas follow a step
_REGISTER_CASES = (
    [(3, 2, n) for n in (1, 2, 3)] + [(nb, 3, n) for nb in (2, 3) for n in (1, 2)] + [(2, 3, 3)]
)


@pytest.mark.parametrize("n_baths, dim, n", _REGISTER_CASES)
def test_correlated_registers_of_three_probes_or_qutrits_match_brute_force(n_baths, dim, n):
    """Three qubit probes up to n = 3, and qutrit ancillas behind three
    probes up to n = 2 and two up to n = 3: the un-gauged register equals
    the oracle's whole-register simulation within 1e-12, and its
    derivatives equal the oracle's central differences within 1e-8.  No
    collision is a swap, so the probes correlate through the ancillas."""
    temps = (2.0, 1.0, 3.0)[:n_baths]
    angles = tuple(g * math.pi for g in (0.3, 0.6, 0.45)[:n_baths])
    theta = 0.3 * math.pi
    cfg = ProtocolConfig(
        baths=tuple(BathSpec(t) for t in temps), collision_angles=angles, ancilla_dim=dim,
        n_ancillas=n, rotation=RotationSpec(theta, "x"), correlated=True,
    )
    rotation = oracles.rotation_x(theta, dim)
    stack = _ungauge(_joint_tangents(cfg), cfg)
    npt.assert_allclose(
        stack[0], oracles.joint_stream_state(angles, temps, n, rotation), rtol=0, atol=1e-12
    )
    h = 1e-5
    for mu in range(n_baths):
        up, down = list(temps), list(temps)
        up[mu] += h
        down[mu] -= h
        ref = (
            oracles.joint_stream_state(angles, up, n, rotation)
            - oracles.joint_stream_state(angles, down, n, rotation)
        ) / (2.0 * h)
        npt.assert_allclose(stack[1 + mu], ref, rtol=0, atol=1e-8)


@pytest.mark.parametrize("n_baths, n", [(2, 7), (3, 6)])
def test_correlated_engine_never_builds_its_last_register_with_probes(n_baths, n):
    """The last two ancillas act through one folded map, so one
    ``_joint_tangents`` call peaks below the bytes of the (1 + N, d^2(n - 1),
    P^2) register a step into the last ancilla would build: 1.57 MB for two
    probes at n = 7 and 2.10 MB for three at n = 6."""
    cfg = (two_bath_config if n_baths == 2 else three_bath_config)(
        ancilla_dim=2, n_ancillas=n, correlated=True)
    register = (1 + n_baths) * 4 ** (n - 1) * 4**n_baths * 8
    tracemalloc.start()
    try:
        _joint_tangents(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < register, (peak, register)


# (probes, ancilla dimension) -> the largest n the monotonicity draws reach
_MONOTONE_SIZES = {(2, 2): 6, (3, 2): 5, (2, 3): 4, (3, 3): 3}


def _ancillas_kept(stack, d, n, keep):
    """The (1 + N, d^n, d^n) stack of an n-ancilla register with every
    ancilla not in ``keep`` traced out, in ancilla order."""
    rows = list(range(1, n + 1))
    cols = [n + 1 + k if k in keep else rows[k] for k in range(n)]
    kept = [0] + [rows[k] for k in keep] + [cols[k] for k in keep]
    reduced = np.einsum(stack.reshape((len(stack),) + (d,) * (2 * n)), [0] + rows + cols, kept)
    return reduced.reshape(len(stack), d ** len(keep), d ** len(keep))


def test_correlated_qfim_grows_with_n_and_bounds_its_ancillas():
    """Information monotonicity pins the joint simulation at every size it
    reaches, with no oracle: no channel, partial trace included, raises the
    QFIM (Petz, Linear Algebra Appl. 244, 81 (1996)).  The n-ancilla state
    is the (n + 1)-ancilla state with its last ancilla traced out, so
    F(n + 1) >= F(n) in Loewner order, and F(n) >= F(rho_S) for S the first
    ancilla, the last one and all but the last, traced out of the register
    here.  Seeded draws over 2-3 probes, qubit or qutrit ancillas and a
    rotation about any axis; the tolerance is 4 eps d^n of max|F|, with no
    absolute floor."""
    rng = np.random.default_rng(22)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(100):
        n_baths = int(rng.integers(2, 4))
        cfg = ProtocolConfig(
            baths=tuple(BathSpec(log_uniform(0.3, 5.0), rng.uniform(0.5, 2.0),
                                 log_uniform(0.05, 2.0)) for _ in range(n_baths)),
            collision_angles=tuple(rng.uniform(0.05, 0.95, size=n_baths) * math.pi),
            ancilla_dim=int(rng.integers(2, 4)),
            rotation=RotationSpec(rng.uniform(0.0, math.pi), "xyz"[rng.integers(3)]),
            correlated=True,
        )
        d, previous = cfg.ancilla_dim, None
        for n in range(1, _MONOTONE_SIZES[n_baths, d] + 1):
            stack = _joint_tangents(replace(cfg, n_ancillas=n))
            fisher = qfim_stack(stack[None]).matrices[0]
            smaller = [] if previous is None else [previous]
            for keep in ([0], [n - 1], list(range(n - 1))) if n > 1 else ():
                smaller.append(qfim_stack(_ancillas_kept(stack, d, n, keep)[None]).matrices[0])
            for bound in smaller:
                scale = max(np.max(np.abs(fisher)), np.max(np.abs(bound)))
                margin = np.linalg.eigvalsh(fisher - bound)[0]
                assert margin >= -4 * np.finfo(float).eps * d**n * scale, (cfg, n)
            previous = fisher


def test_stream_matches_ancilla_major_marginal_oracle(rng):
    """The marginal stream's states equal ``oracles.marginal_stream_states``
    (kron and partial traces, ancilla by ancilla) to 1e-12 for two probes
    with g1 != pi/2, where they differ from the joint simulation's ancilla
    marginals.  The stream runs in the phase gauge, so it is compared in the
    computational basis, through the un-gauge ``single_run`` uses."""
    for n in (2, 5, 16):
        temps = tuple(np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=2)))
        angles = tuple(rng.uniform(0.05, 0.95, size=2) * math.pi)
        cfg = two_bath_config(
            baths=tuple(BathSpec(t) for t in temps), collision_angles=angles, n_ancillas=n
        )
        expected = oracles.marginal_stream_states(angles, temps, n)
        npt.assert_allclose(
            _ungauge(_stream_tangents(cfg)[:, 0], cfg), expected, rtol=0, atol=1e-12
        )
    angles, temps = (0.3 * math.pi, 0.3 * math.pi), (2.0, 1.0)
    joint = oracles.ancilla_marginals(oracles.joint_stream_state(angles, temps, 2), 2)
    assert np.max(np.abs(oracles.marginal_stream_states(angles, temps, 2)[1] - joint[1])) > 1e-3


@pytest.mark.parametrize(
    "config",
    [
        two_bath_config(collision_angles=(0.3 * math.pi, 0.6 * math.pi)),
        two_bath_config(ancilla_dim=3),
        three_bath_config(ancilla_dim=2),
        three_bath_config(),
    ],
    ids=["2-probe-qubit", "2-probe-qutrit", "3-probe-qubit", "3-probe-qutrit"],
)
def test_stream_prefix_is_the_shorter_stream(config):
    """Ancilla k of the stream depends on ancillas 0..k only: the first m
    ancillas of a 16-ancilla stream equal the m-ancilla stream bit for bit."""
    full = _stream_tangents(replace(config, n_ancillas=16))
    for m in (1, 2, 7, 15):
        npt.assert_array_equal(_stream_tangents(replace(config, n_ancillas=m)), full[:m])


# ---------------------------------------------------------------------------
# the phase gauge and the rotation axis
# ---------------------------------------------------------------------------

def _affine_derivatives(state, temps):
    """Exact d rho / dT_i of a single-ancilla state at omega = 1: with fresh
    probes the state is affine in each probe's excited weight lambda_0(T_i),
    so the secant in that weight from T_i to 2 T_i, times d lambda_0 / dT_i,
    is the derivative up to rounding."""
    derivs = []
    for i, t in enumerate(temps):
        moved = list(temps)
        moved[i] = 2.0 * t
        weight = oracles.gibbs_weights(1.0, 2.0 * t)[0] - oracles.gibbs_weights(1.0, t)[0]
        derivs.append(oracles.dlam0_dT(1.0, t) * (state(moved) - state(temps)) / weight)
    return derivs


def _assert_single_run_matches(cfg, state):
    """``single_run``'s state and SLDs against ``state(temps)`` and the
    pseudoinverse SLDs of its exact derivatives, to 1e-12."""
    temps = cfg.temperatures
    final, rep = single_run(cfg)
    rho = state(temps)
    assert final.dtype == complex
    npt.assert_allclose(final, rho, rtol=0, atol=1e-12)
    slds = [oracles.sld_pinv(rho, d) for d in _affine_derivatives(state, temps)]
    npt.assert_allclose(np.array(rep.qfim.slds), slds, rtol=0, atol=1e-12)


@pytest.mark.parametrize("axis", "xyz")
def test_rotation_axes_match_oracles_that_rotate_as_given(rng, axis):
    """The engines run every axis in the real phase gauge, x and y as the
    same unitaries and z at theta = 0; the oracles apply
    ``RotationSpec(theta, axis).unitary`` as it is, in the computational
    basis.  For n = 1..3 the un-gauged joint register and marginal stream
    equal the brute-force oracles to 1e-12, and ``single_run``'s state and
    SLDs equal the oracle's state and the SLDs of its exact derivatives,
    for qubit ancillas and for a qutrit ancilla behind three probes."""
    for _ in range(3):
        temps = tuple(np.exp(rng.uniform(math.log(0.5), math.log(3.0), size=2)))
        angles = tuple(rng.uniform(0.05, 0.95, size=2) * math.pi)
        spec = RotationSpec(float(rng.uniform(0.05, 0.95) * math.pi), axis)
        r = spec.unitary(2)
        cfg = two_bath_config(
            baths=tuple(BathSpec(t) for t in temps), collision_angles=angles, rotation=spec
        )
        for n in (1, 2, 3):
            joint = _joint_tangents(replace(cfg, n_ancillas=n, correlated=True))[0]
            npt.assert_allclose(
                _ungauge(joint, cfg), oracles.joint_stream_state(angles, temps, n, r),
                rtol=0, atol=1e-12,
            )
            marginals = _stream_tangents(replace(cfg, n_ancillas=n))[:, 0]
            npt.assert_allclose(
                _ungauge(marginals, cfg), oracles.marginal_stream_states(angles, temps, n, r),
                rtol=0, atol=1e-12,
            )
        _assert_single_run_matches(
            cfg, lambda tv: oracles.marginal_stream_states(angles, tv, 1, r)[0]
        )
    spec = RotationSpec(float(rng.uniform(0.05, 0.95) * math.pi), axis)
    qutrit = three_bath_config(rotation=spec)
    _assert_single_run_matches(
        qutrit,
        lambda tv: oracles.joint_stream_state(qutrit.collision_angles, tv, 1, spec.unitary(3)),
    )


@pytest.mark.parametrize(
    "config",
    [
        two_bath_config(),
        two_bath_config(n_ancillas=3),
        two_bath_config(n_ancillas=3, correlated=True),
        three_bath_config(n_ancillas=2),
        three_bath_config(n_ancillas=2, correlated=True),
    ],
    ids=["single", "uncorrelated", "correlated", "qutrit", "correlated-qutrit"],
)
@pytest.mark.parametrize("axis", "xyz")
def test_engines_run_in_float64(config, axis):
    """Every engine stack is float64 in the phase gauge, whatever the axis,
    and the QFIM kernel keeps it real: ``np.linalg.eigh`` of a real matrix
    gives float64 eigenvectors."""
    config = replace(config, rotation=RotationSpec(0.3 * math.pi, axis))
    stack = _joint_tangents(config) if config.correlated else _stream_tangents(config)
    assert stack.dtype == np.float64
    _, vecs = np.linalg.eigh(stack.reshape((-1,) + stack.shape[-2:])[0])
    assert vecs.dtype == np.float64


_STAGE_CASES = pytest.mark.parametrize("n_baths, dim", [(2, 2), (3, 2), (2, 3), (3, 3)])
_ROTATION_CASES = pytest.mark.parametrize("axis, theta", [
    ("x", 0.3 * math.pi), ("x", 0.0), ("y", -0.7 * math.pi), ("y", -2.5), ("z", 1.2 * math.pi),
])


def gauged_public_stages(config):
    """The public closed forms in the phase gauge: ``collision_unitary``
    times the gauge phases, real part, then ``RotationSpec(theta,
    "y").unitary`` (theta = 0 for a z axis), real part, on each rotated
    stage's probe row blocks."""
    d, m = config.ancilla_dim, config.n_baths - 1  # m: rotated stages
    us = np.array([(collision_unitary(g, d) * protocols._GAUGE_PHASES[d]).real
                   for g in config.collision_angles])
    theta = 0.0 if config.rotation.axis == "z" else config.rotation.theta
    r = RotationSpec(theta, "y").unitary(d).real
    us[:m] = (r @ us[:m].reshape(m, 2, d, 2 * d)).reshape(m, 2 * d, 2 * d)
    return us


def stage_config(n_baths, dim, axis, theta):
    return ProtocolConfig(
        baths=tuple(BathSpec(t) for t in (2.0, 1.0, 3.0)[:n_baths]),
        collision_angles=(0.5 * math.pi, 1.3 * math.pi, 2.2 * math.pi)[:n_baths],
        ancilla_dim=dim, rotation=RotationSpec(theta, axis),
    )


@_STAGE_CASES
@_ROTATION_CASES
def test_stage_unitaries_are_the_gauged_public_closed_forms(n_baths, dim, axis, theta):
    """The engine's stage stack equals, bit for bit, the public closed forms
    in the phase gauge, for angles past pi."""
    config = stage_config(n_baths, dim, axis, theta)
    got = protocols._stage_unitaries(config)
    assert got.dtype == np.float64
    assert np.array_equal(got, gauged_public_stages(config))


@_STAGE_CASES
@_ROTATION_CASES
def test_stage_maps_are_the_collision_maps_of_the_public_closed_forms(n_baths, dim, axis,
                                                                      theta):
    """The stage maps the stream reads off its tables are, to 1e-15, the
    ``collision_maps`` of the gauged public unitaries with the probe in
    Pauli coefficients (I, X, Z): the ancilla map as the (3 d^2, d^2)
    matrix the stream right-multiplies, then the probe map (3, 3, d^2);
    for every slice a sweep runs, and for angles past pi."""
    config = stage_config(n_baths, dim, axis, theta)
    to_ancilla, to_probe = collision_maps(gauged_public_stages(config))
    pauli = np.array([np.eye(2), SX, SZ]).real.reshape(3, 4)
    dd = dim * dim
    to_probe = 0.5 * pauli @ (pauli @ to_probe.reshape(n_baths, 4, 4 * dd)).reshape(
        n_baths, 3, 4, dd)
    to_ancilla = (0.5 * pauli @ to_ancilla.reshape(n_baths, 4, dd * dd)).reshape(
        n_baths, 3, dd, dd).swapaxes(2, 3)
    expected = np.concatenate(
        (to_ancilla.reshape(n_baths, -1), to_probe.reshape(n_baths, -1)), axis=1)
    slices = [slice(None)] + [sl for s in range(1, n_baths)
                              for sl in (slice(s, None), slice(None, s))]
    for stages in slices:
        got = protocols._stage_maps(config, stages)
        assert got.dtype == np.float64
        npt.assert_allclose(got, expected[stages], rtol=0, atol=1e-15, err_msg=str(stages))


def test_a_lone_ancilla_builds_no_rethermalization(monkeypatch, stream_baths_built,
                                                   probe_products_built):
    """With one ancilla no probe is propagated, so neither engine builds a
    rethermalization: neither ``_pauli_gad``, the marginal stream's Pauli
    form, nor ``_gad_entries``, which the joint simulation's product
    reads, is called."""
    def unused(*args):
        raise AssertionError("built for a lone ancilla")

    monkeypatch.setattr(protocols, "_pauli_gad", unused)
    monkeypatch.setattr(protocols, "_gad_entries", unused)
    for cfg, scenario in ((two_bath_config(), "single"), (three_bath_config(), "qutrit"),
                          (two_bath_config(correlated=True), "correlated")):
        assert np.isfinite(evaluate(cfg, scenario).qfim.matrix).all()
    single_run(two_bath_config())
    assert stream_baths_built == [False] * 3
    assert probe_products_built == ["gibbs"]


def _seeded_baths(n_baths):
    """Seeded bath sets of ``n_baths``: random ones, and ones with a bath
    at T = 1e-3 (nbar underflows to 0), at T = 1e160 (e underflows to 0,
    F_th to 0) and at gamma t = 0 (no rethermalization)."""
    rng = np.random.default_rng(3800 + n_baths)
    sets = [tuple(BathSpec(float(10 ** rng.uniform(-1, 1)), omega=float(rng.uniform(0.5, 2)),
                           therm_time=float(rng.uniform(0, 2))) for _ in range(n_baths))
            for _ in range(8)]
    for k, bath in enumerate((BathSpec(1e-3), BathSpec(1e160), BathSpec(1.5, therm_time=0.0))):
        sets.append(tuple(bath if i == k % n_baths else b for i, b in enumerate(sets[k])))
    sets.append(tuple(BathSpec(float(T), therm_time=0.0) for T in (2.0, 1.0, 3.0)[:n_baths]))
    return sets


def _gibbs_tangents(baths):
    """Per probe, diag(lambda_0, lambda_1) and its T-derivative in the slot
    of its own temperature, (N, 1 + N, 2, 2), from ``_gibbs``."""
    out = np.zeros((len(baths), 1 + len(baths), 2, 2))
    for i, bath in enumerate(baths):
        lam0, lam1, d = _gibbs(bath.omega, bath.temperature)[:3]
        out[i, 0] = np.diag((lam0, lam1))
        out[i, 1 + i] = np.diag((d, -d))
    return out


@pytest.mark.parametrize("n_baths", [2, 3])
def test_stream_bath_pieces_are_the_pauli_route(n_baths):
    """The marginal stream's bath pieces in closed form: the thermal vector
    is ``thermal_fim``'s and the probe coefficients are the Gibbs tangents
    through (I, X, Z), bit for bit; the rethermalization S and d S/dT are
    ``_PAULI @ _gad_pairs @ _PAULI.T / 2`` to 1e-15, and at gamma t = 0
    exactly the identity and 0."""
    pauli = protocols._PAULI
    for baths in _seeded_baths(n_baths):
        config = ProtocolConfig(baths, (0.3,) * n_baths, n_ancillas=3)
        thermal, probes, therm = protocols._bath_pieces(config)
        npt.assert_array_equal(thermal, thermal_fim(baths))
        route = _gibbs_tangents(baths).reshape(n_baths, 1 + n_baths, 4) @ pauli.T
        npt.assert_array_equal(probes, route)
        npt.assert_allclose(therm, pauli @ _gad_pairs(baths) @ pauli.T / 2, rtol=0, atol=1e-15)
        for i, bath in enumerate(baths):
            if bath.therm_time == 0.0:
                npt.assert_array_equal(therm[i], [np.eye(3), np.zeros((3, 3))])


@pytest.mark.parametrize("n_baths", [2, 3])
def test_joint_bath_pieces_are_the_einsum_products(n_baths):
    """The joint simulation's probe products by scatter equal, bit for bit,
    the per-probe ``einsum`` chain of the oracles over the Gibbs tangents
    and the transposed ``_gad_pairs``; a lone ancilla's pieces carry no
    rethermalization product."""
    nt, pp = 1 + n_baths, 4**n_baths
    for baths in _seeded_baths(n_baths):
        config = ProtocolConfig(baths, (0.3,) * n_baths, n_ancillas=2, correlated=True)
        thermal, reg, therm_t = protocols._bath_pieces(config)
        npt.assert_array_equal(thermal, thermal_fim(baths))
        gibbs = [(p[0], p[1 + i]) for i, p in enumerate(_gibbs_tangents(baths))]
        npt.assert_array_equal(reg, oracles.probe_product(gibbs, (2, 2, 1, 1)).reshape(nt, 1, pp))
        expected = oracles.probe_product(_gad_pairs(baths).swapaxes(-1, -2), (2, 2, 2, 2))
        npt.assert_array_equal(therm_t, expected.reshape(nt, 1, pp, pp))
        lone = protocols._bath_pieces(replace(config, n_ancillas=1))
        npt.assert_array_equal(lone[1], reg)
        assert lone[2] is None


# ---------------------------------------------------------------------------
# exact temperature derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "config",
    [
        two_bath_config(),
        two_bath_config(n_ancillas=4, collision_angles=(0.3 * math.pi, 0.6 * math.pi)),
        two_bath_config(
            n_ancillas=3,
            correlated=True,
            baths=(BathSpec(1.5, therm_time=0.3), BathSpec(0.7, therm_time=0.9)),
            collision_angles=(0.3 * math.pi, 0.6 * math.pi),
        ),
        three_bath_config(n_ancillas=3),
        three_bath_config(n_ancillas=2, correlated=True),
    ],
    ids=["single", "uncorrelated", "correlated", "qutrit", "correlated-qutrit"],
)
def test_tangent_derivatives_match_finite_differences(config):
    """Every evaluator's propagated d rho / dT_i equals the central-difference
    reference within 1e-6 of the largest derivative entry."""
    if config.correlated:
        def stacks(cfg):
            return [_joint_tangents(cfg)]
    else:
        stacks = _stream_tangents
    temps = np.array(config.temperatures)
    for k, stack in enumerate(stacks(config)):
        rho, *derivs = oracles.finite_diff_derivatives(
            lambda t, k=k: stacks(config.at_temperatures(t))[k][0], temps
        )
        npt.assert_allclose(rho, stack[0], atol=0.0)
        scale = float(np.max(np.abs(stack[1:])))
        err = max(float(np.max(np.abs(d - e))) for d, e in zip(stack[1:], derivs))
        assert scale > 0.0
        assert err <= 1e-6 * scale, f"ancilla {k}: {err:.3e} vs scale {scale:.3e}"


@pytest.mark.parametrize("n", [12, 16])
def test_long_fig3_streams_give_finite_reports(n):
    """The fig3 base config at n = 12 and 16 (finite differences failed the
    derivative trace check there) gives a finite report at every g2."""
    for g2 in (0.25, 0.5, 0.75):
        cfg = two_bath_config(n_ancillas=n, collision_angles=(0.5 * math.pi, g2 * math.pi))
        rep = evaluate(cfg, "uncorrelated")
        assert np.all(np.isfinite(rep.qfim.matrix))
        assert math.isfinite(rep.eta_joint)
        assert math.isfinite(rep.eta_acc) or (rep.singular and rep.eta_acc == -math.inf)


def _random_swap_stream(rng, n):
    """Two probes, g1 = pi/2 (the case the marginal stream is exact in), T
    log-uniform in [0.3, 3] and g2 / pi uniform in [0.05, 0.95]."""
    temps = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=2))
    g2 = rng.uniform(0.05, 0.95) * math.pi
    return two_bath_config(
        baths=tuple(BathSpec(t, therm_time=0.5) for t in temps),
        collision_angles=(0.5 * math.pi, g2),
        n_ancillas=n,
    )


@pytest.mark.parametrize("n", [200, 1000])
def test_last_ancilla_qfim_reaches_the_stationary_limit(rng, n):
    """The n-th ancilla's QFIM, F(n) - F(n - 1) from two evaluations, equals
    F_inf, the QFIM of the ancilla state the stationary probes hand out
    (``oracles.stationary_ancilla_family``), to 1e-10 relative.  F(n) itself
    is not n F_inf: the first ancillas meet probes still relaxing toward the
    stationary state, and their QFIMs differ from F_inf by up to 2e-3."""
    for _ in range(3):
        cfg = _random_swap_stream(rng, n)
        last = (
            evaluate(cfg, "uncorrelated").qfim.matrix
            - evaluate(replace(cfg, n_ancillas=n - 1), "uncorrelated").qfim.matrix
        )
        stat = oracles.stationary_ancilla_family(cfg.collision_angles, cfg.temperatures)
        f_inf = oracles.qfim_pinv(stat[0], stat[1:])
        assert np.max(np.abs(last - f_inf)) <= 1e-10 * np.max(np.abs(f_inf))


def test_ten_thousand_ancilla_stream_gives_finite_report(rng):
    """n = 10^4 on the stationary-limit family: finite, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = evaluate(_random_swap_stream(rng, 10_000), "uncorrelated")
    assert np.all(np.isfinite(rep.qfim.matrix))
    assert math.isfinite(rep.eta_joint) and math.isfinite(rep.eta_acc)


def test_long_qutrit_stream_passes_the_state_trace_check():
    """The marginal stream keeps traces at rounding however long it runs:
    the probes' identity coefficients are never propagated.  Over 10^4
    ancillas of this three-probe qutrit stream every state's trace is 1 and
    every derivative's 0 to 1e-12, and the report is finite and raises no
    warning."""
    cfg = three_bath_config(
        baths=tuple(BathSpec(t, therm_time=0.5) for t in (2.0, 1.0, 0.5)),
        collision_angles=tuple(g * math.pi for g in (0.5, 0.31, 0.4)),
        n_ancillas=10_000,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = np.trace(_stream_tangents(cfg), axis1=-2, axis2=-1)
        rep = evaluate(cfg, "qutrit")
    assert np.max(np.abs(traces[:, 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(traces[:, 1:])) <= 1e-12
    assert np.all(np.isfinite(rep.qfim.matrix))
    assert math.isfinite(rep.eta_joint) and math.isfinite(rep.eta_acc)


@pytest.mark.parametrize("T", [1e-300, 1e-170, 1e-155, 1e-3, 1e-2, 1e3, 1e160])
def test_extreme_temperatures_give_finite_report_or_named_error(T):
    """No overflow and no warning at extreme but valid temperatures, up to
    1e160, past a float's square, and down to 1e-300, where T^2 is subnormal
    (1e-155) or 0 (1e-170, 1e-300): each evaluator returns a finite report
    or says the thermal benchmark is degenerate, never that a derivative is
    not finite."""
    configs = []
    for temps in ((T, T), (T, 1.0), (1.0, T)):
        baths = tuple(BathSpec(t, therm_time=0.5) for t in temps)
        configs += [
            two_bath_config(baths=baths),
            two_bath_config(baths=baths, n_ancillas=3),
            two_bath_config(baths=baths, n_ancillas=2, correlated=True),
        ]
    configs.append(three_bath_config(baths=tuple(BathSpec(t, therm_time=0.5) for t in (T, 1.0, T))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg in configs:
            try:
                rep = evaluate(cfg)
            except ValueError as exc:
                assert "degenerate thermal benchmark" in str(exc)
                continue
            assert np.all(np.isfinite(rep.qfim.matrix))
            assert np.all(np.isfinite(rep.thermal))
            assert math.isfinite(rep.eta_joint)
            assert math.isfinite(rep.eta_acc) or (rep.singular and rep.eta_acc == -math.inf)



def test_a_qfim_that_overflows_is_refused_by_name():
    """omega = 1e-160, T = (2e-160, 1e-160), one ancilla: the states are
    those of omega = 1, T = (2, 1), but each d/dT is 1e160 times larger and
    the QFIM overflows to inf and NaN.  The kernel refuses it by name, with
    every warning an error, instead of returning a NaN report.  (Streams of
    n >= 2 at this scale overflow in the engine first, raising a warning.)"""
    baths = tuple(BathSpec(t, omega=1e-160, therm_time=0.5) for t in (2e-160, 1e-160))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="QFIM not finite"):
            evaluate(two_bath_config(baths=baths))


def test_a_bath_whose_temperature_squares_to_zero_is_refused_by_name():
    """omega = T = 1e-170 beside a bath at omega = T = 1: T * T underflows
    to 0 while d lambda_0/dT is 2e169, so F_th is inf.  Every evaluation,
    n = 1-3 in both modes and with both baths at 1e-170 for n = 1, ends in
    a named ``ValueError`` with every warning an error, not a
    ``ZeroDivisionError``.  (Both baths at 1e-170 in a stream of n >= 2
    still overflow in the engine first, raising a warning.)"""
    tiny, unit = BathSpec(1e-170, omega=1e-170, therm_time=0.5), BathSpec(1.0, therm_time=0.5)
    configs = [two_bath_config(baths=baths, n_ancillas=n, correlated=correlated)
               for baths in ((tiny, unit), (unit, tiny)) for n in (1, 2, 3)
               for correlated in (False, True)]
    configs += [two_bath_config(baths=(tiny, tiny), correlated=correlated)
                for correlated in (False, True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg in configs:
            with pytest.raises(ValueError, match="not traceless|not Hermitian|QFIM not finite"):
                evaluate(cfg)


def _robustness_draw(rng, scenario):
    """A random valid config for ``scenario`` over the widest ranges the
    evaluators accept: T log-uniform in [1e-3, 1e3], omega in [1e-2, 1e2],
    gamma*t 0 or log-uniform in [1e-3, 1e3]; each angle, and the rotation
    about any axis, 0, pi/2, pi or uniform in [0, pi]."""
    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def angle():
        return (0.0, math.pi / 2, math.pi, rng.uniform(0.0, math.pi))[rng.integers(4)]

    n_baths = 3 if scenario == "qutrit" else int(rng.integers(2, 4))
    n = {"single": 1, "uncorrelated": int(rng.integers(2, 6)),
         "correlated": int(rng.integers(2, 4)), "qutrit": int(rng.integers(1, 6))}[scenario]
    return ProtocolConfig(
        baths=tuple(
            BathSpec(log_uniform(1e-3, 1e3), log_uniform(1e-2, 1e2),
                     0.0 if rng.integers(4) == 0 else log_uniform(1e-3, 1e3))
            for _ in range(n_baths)
        ),
        collision_angles=tuple(angle() for _ in range(n_baths)),
        ancilla_dim=int(rng.integers(2, 4)),
        n_ancillas=n,
        rotation=RotationSpec(angle(), "xyz"[rng.integers(3)]),
        correlated=scenario == "correlated",
    )


def test_robustness_draw_gives_finite_reports_or_a_named_error():
    """Random valid configs over all four scenarios, with every warning an
    error: each gives a finite report (eta_acc -inf only when singular) or
    says its thermal benchmark is degenerate, and both outcomes occur."""
    rng = np.random.default_rng(1)  # draws a QFIM with subnormal entries
    outcomes = {"report": 0, "degenerate": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scenario in ("single", "uncorrelated", "correlated", "qutrit") * 150:
            cfg = _robustness_draw(rng, scenario)
            try:
                rep = evaluate(cfg, scenario)
            except ValueError as exc:
                assert "degenerate thermal benchmark" in str(exc), cfg
                outcomes["degenerate"] += 1
                continue
            assert np.all(np.isfinite(rep.qfim.matrix)) and np.all(np.isfinite(rep.thermal)), cfg
            assert math.isfinite(rep.eta_joint), cfg
            assert math.isfinite(rep.eta_acc) or (rep.singular and rep.eta_acc == -math.inf), cfg
            outcomes["report"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_engine_states_commute_weakly_on_their_slds():
    """Weak commutativity, Tr rho [L_i, L_j] = 0 for every SLD pair, makes
    the QFIM bound attainable (Ragy, Jarzyna & Demkowicz-Dobrzanski, Phys.
    Rev. A 94, 052108 (2016)).  Every state either engine returns for a
    robustness draw, turned back to the computational basis, has it to
    1e-12 of its largest QFIM entry (200 draws over all four scenarios)."""
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scenario in ("single", "uncorrelated", "correlated", "qutrit") * 50:
            cfg = _robustness_draw(rng, scenario)
            states = _ungauge(_joint_tangents(cfg)[None] if cfg.correlated
                              else _stream_tangents(cfg), cfg)
            qs = qfim_stack(states)
            for k, rho in enumerate(states[:, 0]):
                slds = qs.slds(k)
                traces = [np.trace(rho @ (a @ b - b @ a))
                          for i, a in enumerate(slds) for b in slds[i + 1:]]
                assert np.abs(traces).max() <= 1e-12 * np.abs(qs.matrices[k]).max(), cfg


def _random_config(rng, scenario):
    """A random config for ``scenario``: T log-uniform in [0.3, 10], omega
    in [0.5, 2], gamma*t in [0.05, 2], angles and rotation in [0, pi]."""
    log_t = (math.log(0.3), math.log(10.0))
    n_baths, dim, n = {
        "single": (2, 2, 1),
        "uncorrelated": (2, 2, int(rng.integers(2, 6))),
        "correlated": (2, 2, int(rng.integers(2, 5))),
        "qutrit": (3, 3, int(rng.integers(1, 5))),
    }[scenario]
    return ProtocolConfig(
        baths=tuple(
            BathSpec(math.exp(rng.uniform(*log_t)), rng.uniform(0.5, 2.0), rng.uniform(0.05, 2.0))
            for _ in range(n_baths)
        ),
        collision_angles=tuple(rng.uniform(0.0, math.pi, size=n_baths)),
        ancilla_dim=dim,
        n_ancillas=n,
        rotation=RotationSpec(rng.uniform(0.0, math.pi), "xyz"[rng.integers(3)]),
        correlated=scenario == "correlated",
    )


@pytest.mark.parametrize("scenario", ["single", "uncorrelated", "correlated", "qutrit"])
def test_rescaling_units_leaves_eta_joint_and_scales_the_qfim(rng, scenario):
    """Every (omega, T) scaled by c leaves each state unchanged and scales
    each d/dT by 1/c, so eta_joint stays put and trace F_Q and every
    per-bath benchmark F_th^i scale by c^-2, all to 1e-10 relative (40
    draws, c from 1e-3 to 1e3).

    ``eta_acc`` and ``singular`` are not asserted: the singular flag compares
    det F_Q (units of T^-4) with an absolute floor, so it flips with the
    units (a two-bath n = 3 config is reported singular at c = 300).  That
    is a known defect whose fix moves benchmark reference rows.  The draws
    stay at omega/T <= 6.7 for the same kind of reason: colder correlated
    registers have eigenvalues below the support cutoff, and the check on
    their derivatives' weight there is absolute too (1e-8, units 1/T).  At
    T = (0.129, 0.291), omega = (1.66, 1.49), n = 4 it measures 2.5e-11 and
    passes, and at c = 1e-3 it measures 2.5e-8 and raises."""
    for _ in range(40):
        cfg = _random_config(rng, scenario)
        base = evaluate(cfg, scenario)
        for c in (1e-3, 1e-1, 10.0, 1e3):
            scaled = replace(cfg, baths=tuple(
                BathSpec(c * b.temperature, c * b.omega, b.therm_time) for b in cfg.baths
            ))
            rep = evaluate(scaled, scenario)
            assert rep.eta_joint == pytest.approx(base.eta_joint, rel=1e-10)
            assert rep.qfim.trace * c**2 == pytest.approx(base.qfim.trace, rel=1e-10)
            npt.assert_allclose(rep.thermal * c**2, base.thermal, rtol=1e-10, atol=0)


# ---------------------------------------------------------------------------
# three baths
# ---------------------------------------------------------------------------

def test_qutrit_scenario_validation():
    with pytest.raises(ValueError, match="3 baths"):
        evaluate(two_bath_config(), "qutrit")
    with pytest.raises(ValueError, match="uncorrelated"):
        evaluate(three_bath_config(correlated=True), "qutrit")


def test_three_bath_decoupled_stage_gives_zero_row():
    """g3 = 0: the third bath never touches the ancilla, so its row and
    column of the QFIM vanish and the report flags the singularity."""
    cfg = three_bath_config(collision_angles=(0.5 * math.pi, 0.2 * math.pi, 0.0))
    rep = evaluate(cfg, "qutrit")
    npt.assert_allclose(rep.qfim.matrix[2, :], np.zeros(3), atol=1e-12)
    assert rep.singular and math.isinf(rep.eta_acc)


def test_three_bath_qubit_diagnostic_runs():
    cfg = three_bath_config(ancilla_dim=2)
    rep = evaluate(cfg, "qutrit")
    assert rep.qfim.matrix.shape == (3, 3)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_values_never_pass_stop():
    """Whole steps end on stop exactly; a partial last step is dropped."""
    assert sweep_values(0.0, 1.0, 0.6) == (0.0, 0.6)
    tenths = sweep_values(0.1, 0.9, 0.1)
    assert len(tenths) == 9 and tenths[0] == 0.1 and tenths[-1] == 0.9
    assert sweep_values(0.0, 1.0, 0.02) == tuple(np.linspace(0.0, 1.0, 51))
    assert sweep_values(0.3, 0.3, 0.1) == (0.3,)
    assert sweep_values(0.0, 0.5, 0.6) == (0.0,)
    for start, stop, step in ((0.0, 1.0, 0.3), (1e9, 1e9 + 1.0, 0.6), (-2.0, 5.0, 0.7)):
        values = sweep_values(start, stop, step)
        assert values[-1] <= stop
        npt.assert_allclose(np.diff(values), step, rtol=1e-6)
    for bad in ((0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (1.0, 0.0, 0.1)):
        with pytest.raises(ValueError, match="step > 0 and stop >= start"):
            sweep_values(*bad)
    # a step count that overflows is named, not an OverflowError from round()
    for bad in ((0.0, 1.0, 1e-320), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match=r"\(stop - start\) / step = inf is not finite"):
            sweep_values(*bad)


def test_sweep_grid_validation():
    cfg = two_bath_config()
    with pytest.raises(ValueError, match="axis"):
        SweepGrid("bogus_axis", (0.1, 0.2), cfg)
    # an unhashable name, as a YAML list gives, is refused by name too
    with pytest.raises(ValueError, match=r"^unknown sweep axis \['g_t2_over_pi'\]"):
        SweepGrid(["g_t2_over_pi"], (0.1, 0.2), cfg)
    with pytest.raises(ValueError, match="increasing"):
        SweepGrid("g_t2_over_pi", (0.2, 0.2), cfg)
    # each value is a real number by its own name, as in ProtocolConfig; a
    # string or a bool that float() would take, and a nan that would pass
    # the increasing check, are refused when the grid is built
    for values, message in (
        (("0.1", "0.2"), r"values\[0\]: must be a real number, got '0.1'"),
        ((True, 2.0), r"values\[0\]: must be a real number, got True"),
        ((0.1, float("nan")), r"values\[1\]: must be finite, got nan"),
        ((float("nan"), 0.1), r"values\[0\]: must be finite, got nan"),
    ):
        with pytest.raises(ValueError, match=message):
            SweepGrid("g_t2_over_pi", values, cfg)


def test_sweep_axis_setters():
    cfg = two_bath_config()
    grid = SweepGrid("g_t2_over_pi", (0.25,), cfg)
    assert grid.at(0.25).collision_angles[1] == pytest.approx(0.25 * math.pi)
    theta_grid = SweepGrid("theta_over_pi", (1.0 / 6.0,), cfg)
    assert theta_grid.at(1.0 / 6.0).rotation.theta == pytest.approx(math.pi / 6.0)
    gt_grid = SweepGrid("gamma_t", (2.0,), cfg)
    assert gt_grid.at(2.0).baths[0].therm_time == pytest.approx(2.0)
    n_grid = SweepGrid("n_ancillas", (3.0,), cfg)
    assert n_grid.at(3.0).n_ancillas == 3
    with pytest.raises(ValueError, match="whole"):
        n_grid.at(2.5)
    with pytest.raises(ValueError, match="stage"):
        SweepGrid("g_t3_over_pi", (0.3,), cfg).at(0.3)
    # each setter changes its field alone, as dataclasses.replace would
    base = two_bath_config(n_ancillas=3, rotation=RotationSpec(0.3, "y"), correlated=True)
    for axis, value, want in (
        ("g_t1_over_pi", 0.2, replace(base, collision_angles=(0.2 * math.pi, 0.3 * math.pi))),
        ("theta_over_pi", 0.4, replace(base, rotation=RotationSpec(0.4 * math.pi, "y"))),
        ("gamma_t", 1.5, replace(base, baths=tuple(replace(b, therm_time=1.5)
                                                   for b in base.baths))),
        ("n_ancillas", 2.0, replace(base, n_ancillas=2)),
    ):
        assert SweepGrid(axis, (value,), base).at(value) == want, axis


def test_sweep_rows_and_error_capture():
    """A grid point that produces an invalid collision angle records its
    error in-row, with no report; the remaining points still evaluate, each
    returned with the report a fresh evaluation of that point gives."""
    cfg = two_bath_config()
    grid = SweepGrid("g_t2_over_pi", (-0.2, 0.3, 0.7), cfg)
    points = sweep(grid)
    assert len(points) == 3
    (bad, bad_rep), *good = points
    assert bad["error"] == "ValueError: collision_angles[1]: must be >= 0, got -0.6283185307179586"
    # the grid keeps what placing raised: a second sweep records it alike,
    # and so does an n_ancillas grid for a value that is not whole
    assert [row["error"] for row, _ in sweep(grid)] == [bad["error"], None, None]
    n_rows = [row for row, _ in sweep(SweepGrid("n_ancillas", (1.0, 2.5, 3.0), cfg))]
    assert [row["error"] for row in n_rows] == [
        None, "ValueError: n_ancillas axis needs whole numbers, got 2.5", None]
    assert math.isnan(bad["eta_joint"])
    assert bad_rep is None
    for row, rep in good:
        assert row["error"] is None
        assert math.isfinite(row["eta_joint"])
        assert row["axis_value"] in (0.3, 0.7)
        assert set(row) == {
            "axis_value",
            "eta_joint",
            "eta_acc",
            "det_qfim",
            "trace_qfim",
            "singular",
            "error",
        }
        assert_same_report(rep, evaluate(grid.at(row["axis_value"]), "single"))


def test_evaluate_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario 'bogus'"):
        evaluate(two_bath_config(), "bogus")


# ---------------------------------------------------------------------------
# what a sweep builds once for its points: the thermal benchmark, the
# marginal stream's bath pieces and stage prefix, the joint simulation's
# probe products
# ---------------------------------------------------------------------------

_MERITS = ("eta_joint", "eta_acc", "singular")
_AXIS_VALUES = {
    "g_t1_over_pi": (0.0, 0.25, 0.5, 0.8),
    "g_t2_over_pi": (0.0, 0.25, 0.5, 0.8),
    "g_t3_over_pi": (0.0, 0.25, 0.5, 0.8),
    "theta_over_pi": (0.0, 0.25, 1.0 / 3.0),
    "gamma_t": (0.0, 0.5, 2.0),
    "n_ancillas": (1.0, 2.0, 3.0),
}
# name -> (scenario, base config)
_SWEEP_BASES = {
    "single": ("single", two_bath_config()),
    "uncorrelated": ("uncorrelated", two_bath_config(n_ancillas=3)),
    "qutrit": ("qutrit", three_bath_config(n_ancillas=3)),
    "correlated": ("correlated", two_bath_config(n_ancillas=3, correlated=True)),
    "correlated-3-probe": ("correlated", three_bath_config(n_ancillas=3, correlated=True)),
}


@pytest.mark.parametrize("name, axis", [
    (name, axis) for name, (_, base) in _SWEEP_BASES.items() for axis in SWEEP_AXES
    if axis != "g_t3_over_pi" or base.n_baths == 3
])
def test_sweep_reports_equal_fresh_evaluations(name, axis):
    """Along every sweep axis, each point's report equals, with ``==`` on
    the QFIM and every merit, a fresh evaluation of that point: the stages
    or probe products the sweep builds once for all its points are what
    each would have built."""
    scenario, base = _SWEEP_BASES[name]
    values = (1.0,) if (scenario, axis) == ("single", "n_ancillas") else _AXIS_VALUES[axis]
    grid = SweepGrid(axis, values, base)
    for value, (row, rep) in zip(values, sweep(grid)):
        assert row["error"] is None
        fresh = evaluate(grid.at(value), scenario)
        assert (rep.qfim.matrix == fresh.qfim.matrix).all()
        assert (rep.qfim.det, rep.qfim.trace) == (fresh.qfim.det, fresh.qfim.trace)
        assert (rep.thermal == fresh.thermal).all()
        assert [getattr(rep, m) for m in _MERITS] == [getattr(fresh, m) for m in _MERITS]


def test_single_run_after_a_shared_stage_equals_a_fresh_run():
    """``single_run`` goes through the same stream: after a call that
    shares its first stage, its state and SLDs equal a second run's."""
    config = two_bath_config()
    evaluate(config, "single")
    moved = replace(config, collision_angles=(0.5 * math.pi, 0.7 * math.pi))
    state, rep = single_run(moved)
    fresh_state, fresh_rep = single_run(moved)
    assert (state == fresh_state).all()
    assert (np.array(rep.qfim.slds) == np.array(fresh_rep.qfim.slds)).all()


def _with_bath(config, i, **changes):
    baths = list(config.baths)
    baths[i] = replace(baths[i], **changes)
    return replace(config, baths=tuple(baths))


def _with_angle(config, i, value):
    angles = list(config.collision_angles)
    angles[i] = value
    return replace(config, collision_angles=tuple(angles))


_BASE = three_bath_config(n_ancillas=3)
_ZEROS = three_bath_config(
    n_ancillas=3,
    baths=(BathSpec(2.0, therm_time=0.0), BathSpec(1.0, therm_time=0.0), BathSpec(3.0)),
    collision_angles=(0.0, 0.0, 0.35 * math.pi),
    rotation=RotationSpec(0.0, "x"),
)
_FIELD_CHANGES = {
    # changed config and the stages it still shares with its base
    "T0": (_BASE, _with_bath(_BASE, 0, temperature=2.5), 0),
    "omega0": (_BASE, _with_bath(_BASE, 0, omega=1.5), 0),
    "gamma_t0": (_BASE, _with_bath(_BASE, 0, therm_time=0.7), 0),
    "T1": (_BASE, _with_bath(_BASE, 1, temperature=1.5), 1),
    "omega1": (_BASE, _with_bath(_BASE, 1, omega=1.5), 1),
    "gamma_t1": (_BASE, _with_bath(_BASE, 1, therm_time=0.7), 1),
    "g0": (_BASE, _with_angle(_BASE, 0, 0.45 * math.pi), 0),
    "g1": (_BASE, _with_angle(_BASE, 1, 0.25 * math.pi), 1),
    "theta": (_BASE, replace(_BASE, rotation=RotationSpec(0.3 * math.pi, "x")), 0),
    "axis": (_BASE, replace(_BASE, rotation=RotationSpec(0.25 * math.pi, "y")), 0),
    "ancilla_dim": (_BASE, replace(_BASE, ancilla_dim=2), 0),
    "n_ancillas": (_BASE, replace(_BASE, n_ancillas=4), 0),
    "bath_count": (_BASE, replace(_BASE, baths=_BASE.baths[:2],
                                  collision_angles=_BASE.collision_angles[:2]), 0),
    "sign_g0": (_ZEROS, _with_angle(_ZEROS, 0, -0.0), 0),
    "sign_g1": (_ZEROS, _with_angle(_ZEROS, 1, -0.0), 1),
    "sign_theta": (_ZEROS, replace(_ZEROS, rotation=RotationSpec(-0.0, "x")), 0),
    "sign_gamma_t0": (_ZEROS, _with_bath(_ZEROS, 0, therm_time=-0.0), 0),
    "sign_gamma_t1": (_ZEROS, _with_bath(_ZEROS, 1, therm_time=-0.0), 1),
    # what only the last stage reads, and nothing at all, keep both stages
    "T2": (_BASE, _with_bath(_BASE, 2, temperature=0.5), 2),
    "g2": (_BASE, _with_angle(_BASE, 2, 0.6 * math.pi), 2),
    "same": (_BASE, _BASE, 2),
    "equal_specs": (_BASE, three_bath_config(n_ancillas=3), 2),
}


@pytest.mark.parametrize("change", _FIELD_CHANGES)
def test_a_changed_field_stops_reuse_at_the_first_stage_that_reads_it(change, stages_built):
    """Stage i reads bath i, angle i, the rotation and the sizes alone: a
    config started from its base's stacks after the stages before the first
    one that reads a changed field (a zero's sign included) builds and runs
    the stages from there on only, and gives the stacks a fresh call gives."""
    base, changed, shared = _FIELD_CHANGES[change]
    prefix = (shared, _stream_tangents(base, stop=shared)) if shared else None
    del stages_built[:]
    stacks = _stream_tangents(changed, prefix)
    assert stages_built == [changed.n_baths - shared]
    assert (stacks == _stream_tangents(changed)).all()


def test_sweep_retains_nothing_after_it_returns():
    """Once a sweep returns, only its reports stay allocated: the stage
    prefix a g_t3 sweep hands its points is the sweep's own (a kept qutrit
    stack at n = 4000 would be 1.15 MB per stage), and a correlated sweep
    at the cap keeps nothing built for its n = 9 registers."""
    for grid in (
        SweepGrid("g_t3_over_pi", (0.3, 0.4), three_bath_config(n_ancillas=4000)),
        SweepGrid("g_t2_over_pi", (0.3, 0.4), two_bath_config(n_ancillas=9, correlated=True)),
    ):
        tracemalloc.start()
        try:
            points = sweep(grid)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(row["error"] is None for row, _ in points), grid.axis_name
        assert retained < 0.1e6, grid.axis_name


def test_a_failing_stage_prefix_is_recorded_in_every_row(monkeypatch):
    """A stage prefix that cannot be built does not stop the sweep: each
    point runs those stages itself and records the error in its row."""
    def failing(config, *args):
        raise ValueError("no stage maps")

    monkeypatch.setattr(protocols, "_stage_maps", failing)
    points = sweep(SweepGrid("g_t2_over_pi", (0.25, 0.5), two_bath_config(n_ancillas=3)))
    assert [row["error"] for row, _ in points] == ["ValueError: no stage maps"] * 2


def test_a_failing_probe_build_is_recorded_in_every_row(monkeypatch):
    """Probe products a correlated sweep cannot build do not stop it: each
    point builds its own, and records the error in its row."""
    calls = []

    def failing(pairs, positions, size):
        calls.append(size)
        raise ValueError("no probe product")

    monkeypatch.setattr(protocols, "_register_product", failing)
    grid = SweepGrid("g_t2_over_pi", (0.25, 0.5), two_bath_config(n_ancillas=3, correlated=True))
    points = sweep(grid)
    assert [row["error"] for row, _ in points] == ["ValueError: no probe product"] * 2
    assert len(calls) == 1 + len(points)


@pytest.mark.parametrize("axis", ["g_t2_over_pi", "theta_over_pi", "n_ancillas", "gamma_t"])
def test_a_correlated_sweep_builds_its_probe_products_once_unless_the_baths_move(
        axis, probe_products_built):
    """The probes' Gibbs register and rethermalization product read the
    baths alone: a correlated sweep builds them once, on ``grid.fixed``,
    along every axis that leaves the baths alone, and a ``gamma_t`` sweep,
    whose points have baths of their own, builds them at every point."""
    grid = SweepGrid(axis, _AXIS_VALUES[axis], two_bath_config(n_ancillas=3, correlated=True))
    points = sweep(grid)
    assert all(row["error"] is None for row, _ in points)
    per_build = ["gibbs", "therm"]
    assert probe_products_built == (per_build * len(points) if axis == "gamma_t" else per_build)


@pytest.mark.parametrize("correlated", [False, True])
@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_a_sweep_builds_its_bath_pieces_once_unless_they_move(
        axis, correlated, stream_baths_built, probe_products_built):
    """What the baths fix, the thermal benchmark among it, a sweep of
    either engine builds in one ``protocols._bath_pieces`` pass on
    ``grid.fixed`` along every axis that leaves the baths alone,
    rethermalizations included, as an ``n_ancillas`` sweep from n = 1
    needs; its reports share that benchmark, read-only.  A ``gamma_t``
    sweep builds them at every point, and no axis moves T or omega, so
    every point's benchmark is the same vector."""
    make = three_bath_config if axis == "g_t3_over_pi" else two_bath_config
    base = make(n_ancillas=1 if axis == "n_ancillas" else 3, correlated=correlated)
    points = sweep(SweepGrid(axis, _AXIS_VALUES[axis], base))
    assert all(row["error"] is None for row, _ in points)
    builds = len(points) if axis == "gamma_t" else 1
    assert stream_baths_built == ([] if correlated else [True] * builds)
    assert probe_products_built == (["gibbs", "therm"] * builds if correlated else [])
    shared = points[0][1].thermal
    assert all((rep.thermal == shared).all() for _, rep in points)
    if axis != "gamma_t":
        assert not shared.flags.writeable and all(rep.thermal is shared for _, rep in points)


@pytest.mark.parametrize("name, correlated", [
    ("_bath_pieces", False), ("_bath_pieces", True), ("_gibbs", False), ("_gibbs", True),
])
def test_a_failing_bath_build_is_recorded_in_every_row(name, correlated, monkeypatch):
    """Bath pieces a sweep cannot build, or the Gibbs numbers they read,
    do not stop it: each point builds its own, and records the error in
    its row."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise ValueError(f"no {name}")

    monkeypatch.setattr(protocols, name, failing)
    grid = SweepGrid("g_t2_over_pi", (0.25, 0.5), two_bath_config(n_ancillas=3,
                                                                  correlated=correlated))
    points = sweep(grid)
    assert [row["error"] for row, _ in points] == [f"ValueError: no {name}"] * 2
    assert len(calls) == 1 + len(points)


def test_temperatures_past_a_float_square_raise_a_named_error():
    """T^2 overflows a float past T ~ 1.3e154: F_th then underflows to 0,
    and every evaluator, at n = 1 and beyond, says the thermal benchmark is
    degenerate, never that a derivative is not finite (d nbar/dT stays
    about 1/omega there) and never with an ``OverflowError``."""
    assert thermal_fim([BathSpec(1e155)]).tolist() == [0.0]
    baths = (BathSpec(1e160, therm_time=0.5), BathSpec(1.0, therm_time=0.5))
    calls = [
        lambda: single_run(two_bath_config(baths=baths)),
        lambda: evaluate(two_bath_config(baths=baths), "single"),
        lambda: evaluate(two_bath_config(baths=baths, n_ancillas=3), "uncorrelated"),
    ]
    for n in (1, 2):
        cfg = two_bath_config(baths=baths, n_ancillas=n, correlated=True)
        calls.append(lambda cfg=cfg: evaluate(cfg, "correlated"))
    for n in (1, 3):
        cfg = three_bath_config(baths=baths + (BathSpec(1.0, therm_time=0.5),), n_ancillas=n)
        calls.append(lambda cfg=cfg: evaluate(cfg, "qutrit"))
    for call in calls:
        with pytest.raises(ValueError, match="degenerate thermal benchmark"):
            call()


@pytest.mark.parametrize(
    "scenario, config, message",
    [
        ("single", two_bath_config(n_ancillas=3), "single_run requires n_ancillas = 1, got 3"),
        ("uncorrelated", two_bath_config(n_ancillas=2, correlated=True),
         "config.correlated is set; use scenario 'correlated'"),
        ("qutrit", two_bath_config(), "qutrit requires 3 baths, got 2"),
        ("qutrit", three_bath_config(correlated=True),
         "qutrit runs in uncorrelated stream mode"),
        ("correlated", two_bath_config(n_ancillas=2),
         "config.correlated is not set; use scenario 'uncorrelated'"),
    ],
)
def test_scenario_preconditions_raise_one_message_everywhere(scenario, config, message):
    """Every route into a scenario raises its precondition's message: the
    check itself, evaluate, and single_run for its scenario (a config file
    is checked by ``load_config``, in test_cli)."""
    calls = [lambda: check_scenario(scenario, config), lambda: evaluate(config, scenario)]
    if scenario == "single":
        calls.append(lambda: single_run(config))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("name, config", [
    ("single", two_bath_config()),
    ("uncorrelated", two_bath_config(n_ancillas=3)),
    ("correlated", two_bath_config(n_ancillas=2, correlated=True)),
    ("qutrit", three_bath_config(n_ancillas=2)),
    ("correlated", three_bath_config(n_ancillas=2, correlated=True)),
])
def test_a_named_scenario_only_checks_the_config(name, config):
    """``config.correlated`` alone picks the engine: naming the scenario that
    agrees with the config changes nothing in the report, and a three-bath
    correlated config needs no name to run the joint simulation."""
    assert_same_report(evaluate(config), evaluate(config, name))
