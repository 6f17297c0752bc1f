"""Collision unitaries, the collision step and its channel, rotations,
rethermalization.

The library writes every channel in closed form: the collision and
rotation unitaries as cosine/sine polynomials of their generators, the
rethermalization channel and its temperature derivative as a generalized
amplitude damping.  ``collision_maps``, the collision maps the evaluators'
stream tabulates, are checked for any unitary and any states against the
partial traces of the collided joint state; the collision channel is their
ancilla map contracted with the thermal probe.  The oracles build the
unitaries by a Taylor series of the generators, the qutrit collision
channel as a Kraus sum over environment-trace blocks of that series, and
the rethermalization channel both from generalized-amplitude-damping Kraus
operators and as the Taylor-series exponential of the GKSL generator in
``tests/oracles.py``.  The routes share no code.
"""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from colltherm.channels import (
    _ROTATION_TABLES,
    BathSpec,
    RotationSpec,
    _as_float,
    _gad_pairs,
    _gibbs,
    _rotation_stack,
    collision_maps,
    collision_superoperator,
    collision_unitary,
    nbar,
    thermal_populations,
    thermal_state,
    thermalization_channel,
)
from colltherm.linalg import choi_matrix
from colltherm.operators import S1Z, SZ
from colltherm.protocols import ProtocolConfig


# ---------------------------------------------------------------------------
# thermal states
# ---------------------------------------------------------------------------

def test_thermal_populations_match_partition_function(rng):
    for _ in range(25):
        omega = rng.uniform(0.3, 3.0)
        T = rng.uniform(0.2, 6.0)
        lam0, lam1 = thermal_populations(omega, T)
        exp0, exp1 = oracles.gibbs_weights(omega, T)
        assert lam0 == pytest.approx(exp0, abs=1e-14)
        assert lam1 == pytest.approx(exp1, abs=1e-14)
        assert lam0 + lam1 == pytest.approx(1.0, abs=1e-15)
        assert lam0 < lam1  # excited level is always the minority one


def test_thermal_populations_known_value():
    # omega = 1, T = 2: lambda_0 = 1/(1 + e^{1/2})
    lam0, _ = thermal_populations(1.0, 2.0)
    assert lam0 == pytest.approx(1.0 / (1.0 + np.exp(0.5)), abs=1e-15)


def test_thermal_state_diagonal(rng):
    for _ in range(10):
        omega, T = rng.uniform(0.3, 3.0), rng.uniform(0.2, 6.0)
        rho = thermal_state(omega, T)
        assert isinstance(rho, np.ndarray)
        assert rho.shape == (2, 2) and rho.dtype == complex
        assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0
        npt.assert_allclose(np.diag(rho), oracles.gibbs_weights(omega, T), rtol=0, atol=1e-15)


def test_nbar_matches_direct_formula(rng):
    for _ in range(10):
        omega, T = rng.uniform(0.5, 2.0), rng.uniform(0.3, 5.0)
        assert nbar(omega, T) == pytest.approx(oracles.mean_occupation(omega, T), rel=1e-13)


@pytest.mark.parametrize("T", [0.0, -1.0])
@pytest.mark.parametrize("closed_form", [nbar, thermal_populations, thermal_state])
def test_non_positive_temperature_rejected(closed_form, T):
    """Each closed form of T refuses T <= 0 by the argument's name."""
    with pytest.raises(ValueError, match="^temperature: must be > 0"):
        closed_form(1.0, T)


def test_temperature_validation():
    with pytest.raises(ValueError, match="temperature"):
        thermal_populations(1.0, 0.0)
    with pytest.raises(ValueError, match="temperature"):
        BathSpec(temperature=-1.0)
    with pytest.raises(ValueError, match=r"collision_angles\[0\]: must be >= 0"):
        ProtocolConfig(baths=(BathSpec(2.0), BathSpec(1.0)), collision_angles=(-0.2, 0.1))
    with pytest.raises(ValueError, match="axis"):
        RotationSpec(0.1, axis="q")


_TWO_BATHS = (BathSpec(2.0), BathSpec(1.0))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field, build", [
    ("temperature", lambda v: BathSpec(v)),
    ("omega", lambda v: BathSpec(2.0, omega=v)),
    ("therm_time", lambda v: BathSpec(2.0, therm_time=v)),
    ("theta", lambda v: RotationSpec(v)),
    pytest.param("collision_angles[1]",
                 lambda v: ProtocolConfig(baths=_TWO_BATHS, collision_angles=(0.1, v)),
                 id="collision_angles-<lambda>"),
    pytest.param("angle", lambda v: collision_unitary(v, 2), id="collision_unitary-angle"),
    pytest.param("angle", lambda v: collision_unitary(v, 3), id="collision_unitary_3-angle"),
    pytest.param("omega", lambda v: thermal_populations(v, 1.0), id="thermal_populations-omega"),
    pytest.param("temperature", lambda v: thermal_populations(1.0, v),
                 id="thermal_populations-temperature"),
    pytest.param("omega", lambda v: thermal_state(v, 1.0), id="thermal_state-omega"),
    pytest.param("temperature", lambda v: thermal_state(1.0, v), id="thermal_state-temperature"),
    pytest.param("omega", lambda v: nbar(v, 1.0), id="nbar-omega"),
    pytest.param("temperature", lambda v: nbar(1.0, v), id="nbar-temperature"),
])
def test_non_finite_inputs_rejected(field, build, value):
    """The public constructors and closed forms refuse nan and inf, naming
    the field or argument, before any arithmetic sees them."""
    with pytest.raises(ValueError, match=f"^{re.escape(field)}: must be finite"):
        build(value)


_SPEC_FIELDS = [
    ("temperature", lambda v: BathSpec(v)),
    ("omega", lambda v: BathSpec(2.0, omega=v)),
    ("therm_time", lambda v: BathSpec(2.0, therm_time=v)),
    ("theta", lambda v: RotationSpec(v)),
]


@pytest.mark.parametrize("value", [True, np.bool_(False), "2", None, 1j],
                         ids=["bool", "numpy-bool", "str", "None", "complex"])
@pytest.mark.parametrize("field, build", _SPEC_FIELDS)
def test_spec_fields_must_be_real_numbers(field, build, value):
    """A bool or a non-real value is refused by name, before any closed form
    sees it."""
    with pytest.raises(ValueError, match=f"^{field}: must be a real number"):
        build(value)


@pytest.mark.parametrize("value", [2, np.float32(2.0), np.float64(2.0), np.int64(2)],
                         ids=["int", "f32", "f64", "i64"])
@pytest.mark.parametrize("field, build", _SPEC_FIELDS)
def test_spec_fields_are_stored_as_floats(field, build, value):
    """Any real number is stored as a Python float of the same value, so
    the maps built from a spec depend on the value alone."""
    stored = getattr(build(value), field)
    assert type(stored) is float and stored == 2.0


@pytest.mark.parametrize("value, message", [
    (True, "must be a real number, got True"),
    ("1.0", "must be a real number, got '1.0'"),
    (math.nan, "must be finite, got nan"),
    (math.inf, "must be finite, got inf"),
    (np.float64(-np.inf), "must be finite, got -inf"),
], ids=["bool", "str", "nan", "inf", "f64-inf"])
def test_as_float_refuses_by_name(value, message):
    """The exact-float fast path lets no bool, string or non-finite value
    through: each is refused under its field's name, as before it."""
    with pytest.raises(ValueError, match=f"^x: {re.escape(message)}$"):
        _as_float("x", value)


@pytest.mark.parametrize("value", [2.5, -0.0, np.float64(2.5), 2, np.int64(-3)],
                         ids=["float", "negative-zero", "f64", "int", "i64"])
def test_as_float_returns_a_python_float_of_the_same_bits(value):
    out = _as_float("x", value)
    assert type(out) is float and out == value
    assert math.copysign(1.0, out) == math.copysign(1.0, value)


# ---------------------------------------------------------------------------
# collision unitaries
# ---------------------------------------------------------------------------

def test_qubit_collision_matches_printed_matrix(rng):
    """Block-rotation form with -i sin(g tau) on both off-diagonals."""
    for _ in range(10):
        gt = rng.uniform(0.0, np.pi)
        u = collision_unitary(gt, 2)
        npt.assert_allclose(u, oracles.printed_collision_unitary(gt), atol=1e-12)


@pytest.mark.parametrize("ancilla_dim", [2, 3])
def test_collision_unitary_against_taylor_series(rng, ancilla_dim):
    """exp(-i g tau (s+ (x) A- + h.c.)) by series, A- the qubit lowering
    operator or the qutrit Q- with matrix elements 1/sqrt(2)."""
    element = 1.0 if ancilla_dim == 2 else 1.0 / np.sqrt(2.0)
    a_minus = np.diag(np.full(ancilla_dim - 1, element), -1)
    h = np.kron(np.array([[0, 1], [0, 0]]), a_minus)
    h = h + h.conj().T
    for gt in (rng.uniform(0.1, 1.5), 0.5 * np.pi, np.pi, 4.4, 2.0 * np.pi):
        u = collision_unitary(gt, ancilla_dim)
        npt.assert_allclose(u, oracles.taylor_expm(-1j * gt * h), atol=1e-12)


def test_qubit_collision_invariant_sectors():
    u = collision_unitary(0.7, 2)
    assert u[0, 0] == pytest.approx(1.0)
    assert u[3, 3] == pytest.approx(1.0)
    npt.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_qutrit_collision_unitary_and_conservation(rng):
    gt = rng.uniform(0.2, 2.5)
    u = collision_unitary(gt, 3)
    assert u.shape == (6, 6)
    npt.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    # total excitation sigma_z/2 (x) I + I (x) S_z commutes with the coupling
    n_op = np.kron(SZ / 2.0, np.eye(3)) + np.kron(np.eye(2), S1Z)
    npt.assert_allclose(u @ n_op - n_op @ u, np.zeros((6, 6)), atol=1e-12)


def test_collision_unitary_dimension_dispatch():
    assert collision_unitary(0.4, 2).shape == (4, 4)
    assert collision_unitary(0.4, 3).shape == (6, 6)
    with pytest.raises(ValueError):
        collision_unitary(0.4, 4)


# ---------------------------------------------------------------------------
# collision channel on the ancilla
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_collision_maps_are_the_partial_traces_of_the_collision(rng, dim):
    """``A`` and ``B`` give the ancilla and the probe of u (p (x) a) u^dag
    for a complex u, an x rotation of the ancilla then the collision, and
    complex states: no gauge, no real part, no basis dropped."""
    r = RotationSpec(0.3, "x").unitary(dim)
    for _ in range(5):
        u = collision_unitary(rng.uniform(0.0, np.pi), dim) @ np.kron(np.eye(2), r)
        p, a = oracles.random_density(rng, 2), oracles.random_density(rng, dim)
        joint = (u @ np.kron(p, a) @ u.conj().T).reshape(2, dim, 2, dim)
        to_ancilla, to_probe = collision_maps(u)
        assert to_ancilla.shape == (4, dim * dim, dim * dim)
        assert to_probe.shape == (4, 4, dim * dim)
        got_a = np.einsum("m,mij,j->i", p.reshape(-1), to_ancilla, a.reshape(-1))
        got_p = np.einsum("lmj,m,j->l", to_probe, p.reshape(-1), a.reshape(-1))
        assert np.abs(got_a - np.einsum("xaxc->ac", joint).reshape(-1)).max() < 1e-13
        assert np.abs(got_p - np.einsum("pbqb->pq", joint).reshape(-1)).max() < 1e-13


def test_collision_channel_matches_printed_form(rng):
    for _ in range(20):
        gt = rng.uniform(0.0, np.pi)
        T = rng.uniform(0.3, 5.0)
        lam0, _ = thermal_populations(1.0, T)
        sop = collision_superoperator(gt, BathSpec(T))
        npt.assert_allclose(sop, oracles.printed_collision_channel(gt, lam0), atol=1e-12)


def test_kraus_completeness_random(rng):
    """The dual-map identity sum_a S[aa, jk] = delta_jk: the channel keeps
    the trace of every input, matrix units included."""
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        gt = rng.uniform(0.0, np.pi)
        T = rng.uniform(0.3, 5.0)
        sop = collision_superoperator(gt, BathSpec(T), dim)
        dual_unit = np.einsum("aajk->jk", sop.reshape(dim, dim, dim, dim))
        assert np.max(np.abs(dual_unit - np.eye(dim))) < 1e-10


def test_qutrit_collision_channel_matches_kraus_oracle(rng):
    """The d = 3 channel entrywise against the Kraus sum built from the
    Taylor-series unitary of the qubit-qutrit exchange."""
    for _ in range(20):
        gt = rng.uniform(0.0, 2.0 * np.pi)
        T = rng.uniform(0.3, 5.0)
        lam0, _ = thermal_populations(1.0, T)
        sop = collision_superoperator(gt, BathSpec(T), 3)
        npt.assert_allclose(sop, oracles.qutrit_collision_channel(gt, lam0), atol=1e-12)


def test_collision_channel_is_cptp(rng):
    for dim in (2, 3):
        gt, T = rng.uniform(0.1, 2.8), rng.uniform(0.4, 4.0)
        sop = collision_superoperator(gt, BathSpec(T), dim)
        ch = choi_matrix(sop, dim)
        w = np.linalg.eigvalsh(ch)
        assert w[0] > -1e-10
        assert np.trace(ch).real == pytest.approx(dim, abs=1e-10)
        rho = oracles.random_density(rng, dim)
        out = (sop @ rho.reshape(-1)).reshape(dim, dim)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_two_collision_composition_plain(rng):
    """Second channel composed onto the first must reproduce the hand-multiplied
    block form; the first bath's population enters only through cos^2 of the
    second collision angle."""
    for _ in range(10):
        gt = rng.uniform(0.1, 1.4)
        T1, T2 = rng.uniform(0.5, 4.0, size=2)
        p, _ = thermal_populations(1.0, T1)
        q, _ = thermal_populations(1.0, T2)
        composed = collision_superoperator(gt, BathSpec(T2)) @ collision_superoperator(
            gt, BathSpec(T1)
        )
        npt.assert_allclose(composed, oracles.composed_plain_channel(gt, p, q), atol=1e-12)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def test_rotation_superop_quarter_pi_printed_form():
    from colltherm.channels import rotation_superoperator

    sop = rotation_superoperator(RotationSpec(np.pi / 4, "x"), 2)
    npt.assert_allclose(sop, oracles.printed_rotation_superop_pi4(), atol=1e-12)


def test_rotation_unitary_against_taylor(rng):
    s = 1.0 / np.sqrt(2.0)
    spin1 = {
        "x": np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex),
        "y": np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]]),
        "z": np.diag([1.0, 0.0, -1.0]).astype(complex),
    }
    pauli = {"x": oracles.SX, "y": oracles.SY, "z": oracles.SZ}
    for theta in (rng.uniform(0.1, 1.5), np.pi, 4.0, -5.5, 2.0 * np.pi):
        for axis in "xyz":
            spec = RotationSpec(theta, axis)
            for dim, gen in ((2, pauli[axis]), (3, spin1[axis])):
                expected = oracles.taylor_expm(-1j * theta * gen)
                npt.assert_allclose(spec.unitary(dim), expected, atol=1e-12)
    # at theta = 0 the closed form is the identity exactly, on the public
    # tables and on the evaluators' real gauged y table: the last stage,
    # which no rotation follows, runs the common path bit for bit
    for dim in (2, 3):
        gauged_y = _ROTATION_TABLES[dim]["y"].real
        assert np.array_equal(_rotation_stack((0.0,), gauged_y), np.eye(dim)[None]), dim
        for axis in "xyz":
            assert np.array_equal(RotationSpec(0.0, axis).unitary(dim), np.eye(dim)), (dim, axis)
    with pytest.raises(ValueError, match="no rotation generator for ancilla dimension 4"):
        RotationSpec(0.3).unitary(4)


def test_rotated_composition_matches_printed_form(rng):
    """Collision, pi/4 x-rotation, collision at a common angle: full 4x4."""
    from colltherm.channels import rotation_superoperator

    for _ in range(10):
        g = rng.uniform(0.1, 1.4)
        T1, T2 = rng.uniform(0.5, 4.0, size=2)
        p, _ = thermal_populations(1.0, T1)
        q, _ = thermal_populations(1.0, T2)
        rot = rotation_superoperator(RotationSpec(np.pi / 4, "x"), 2)
        composed = (
            collision_superoperator(g, BathSpec(T2))
            @ rot
            @ collision_superoperator(g, BathSpec(T1))
        )
        npt.assert_allclose(composed, oracles.composed_rotated_channel(g, p, q), atol=1e-12)


# ---------------------------------------------------------------------------
# rethermalization
# ---------------------------------------------------------------------------

def test_generator_annihilates_gibbs_state(rng):
    for _ in range(10):
        T, omega, gamma = rng.uniform(0.4, 4.0), rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)
        gen = oracles.lindblad_generator(omega, T, gamma)
        stationary = thermal_state(omega, T).reshape(-1)
        npt.assert_allclose(gen @ stationary, np.zeros(4), atol=1e-13)


def test_thermalization_channel_matches_damping_kraus(rng):
    """exp(L t) vs the closed-form damping Kraus route, entrywise; the bath
    carries gamma*t, the oracle takes gamma and t apart."""
    for _ in range(20):
        T, omega = rng.uniform(0.4, 4.0), rng.uniform(0.7, 2.0)
        gamma, t = rng.uniform(0.2, 1.5), rng.uniform(0.05, 1.5)
        got = thermalization_channel(BathSpec(T, omega=omega, therm_time=gamma * t))
        npt.assert_allclose(got, oracles.gad_superop(omega, T, gamma, t), atol=1e-12)


def test_thermalization_channel_is_exponential_of_generator(rng):
    """The closed form equals exp(L t) of the GKSL generator it documents."""
    for _ in range(10):
        T, omega = rng.uniform(0.4, 4.0), rng.uniform(0.7, 2.0)
        gamma, t = rng.uniform(0.2, 1.5), rng.uniform(0.05, 1.5)
        expected = oracles.taylor_expm(oracles.lindblad_generator(omega, T, gamma) * t)
        got = thermalization_channel(BathSpec(T, omega=omega, therm_time=gamma * t))
        npt.assert_allclose(got, expected, atol=1e-12)


def test_temperature_derivatives_match_central_differences(rng):
    """d lambda_0/dT of ``_gibbs`` against the oracles' closed form, its
    nbar slice against :func:`nbar` and d nbar/dT against central
    differences of the oracles' Bose occupation (and 1/omega where nbar^2
    overflows), and the T-derivative slice of ``_gad_pairs`` (the one the
    evaluators run) against central differences of the oracles' Kraus
    channel."""
    for _ in range(20):
        omega, gamma, t = rng.uniform(0.7, 2.0), rng.uniform(0.2, 1.5), rng.uniform(0.05, 1.5)
        T = rng.uniform(0.4, 4.0)
        h = 1e-5 * T
        g = _gibbs(omega, T)
        assert g[2] == pytest.approx(oracles.dlam0_dT(omega, T), abs=1e-14)
        assert g[3] == nbar(omega, T)
        dn = (oracles.mean_occupation(omega, T + h)
              - oracles.mean_occupation(omega, T - h)) / (2 * h)
        assert g[4] == pytest.approx(dn, rel=1e-8)
        fd = (oracles.gad_superop(omega, T + h, gamma, t)
              - oracles.gad_superop(omega, T - h, gamma, t)) / (2 * h)
        npt.assert_allclose(
            _gad_pairs((BathSpec(T, omega=omega, therm_time=gamma * t),))[0, 1],
            fd,
            atol=1e-8,
        )
    for T in (1e150, 1e160, 1e300):
        # classically nbar ~ T/omega: d nbar/dT stays 1/omega where nbar^2 overflows
        assert _gibbs(2.0, T)[4] == pytest.approx(0.5, rel=1e-12)
    still = BathSpec(2.0, therm_time=0.0)
    npt.assert_array_equal(_gad_pairs((still,))[0, 1], np.zeros((4, 4)))


def test_rethermalization_stack_is_its_baths_one_by_one(rng):
    """``_gad_pairs`` stacks each bath's pair independently: its value slice
    is :func:`thermalization_channel` of that bath, and a three-bath stack
    equals its one-bath stacks bit for bit."""
    for _ in range(20):
        baths = tuple(BathSpec(rng.uniform(0.1, 10.0), omega=rng.uniform(0.5, 2.0),
                               therm_time=rng.uniform(0.0, 2.0)) for _ in range(3))
        stack = _gad_pairs(baths)
        assert stack.shape == (3, 2, 4, 4)
        for k, bath in enumerate(baths):
            npt.assert_array_equal(stack[k, 0], thermalization_channel(bath))
            npt.assert_array_equal(stack[k], _gad_pairs((bath,))[0])


def test_thermalization_channel_identity_at_zero_time():
    npt.assert_array_equal(thermalization_channel(BathSpec(2.0, therm_time=0.0)), np.eye(4))


def test_thermalization_semigroup_property():
    b1 = BathSpec(1.3, therm_time=0.4)
    b2 = BathSpec(1.3, therm_time=0.9)
    b12 = BathSpec(1.3, therm_time=1.3)
    npt.assert_allclose(
        thermalization_channel(b2) @ thermalization_channel(b1),
        thermalization_channel(b12),
        atol=1e-12,
    )


def test_thermalization_long_time_limit(rng):
    bath = BathSpec(2.5, therm_time=50.0)
    sop = thermalization_channel(bath)
    rho = oracles.random_density(rng, 2)
    out = (sop @ rho.reshape(-1)).reshape(2, 2)
    npt.assert_allclose(out, thermal_state(bath.omega, bath.temperature), atol=1e-8)


def test_thermalization_channel_is_cptp():
    sop = thermalization_channel(BathSpec(1.8, therm_time=0.6))
    ch = choi_matrix(sop, 2)
    assert np.linalg.eigvalsh(ch)[0] > -1e-10
    assert np.trace(ch).real == pytest.approx(2.0, abs=1e-10)
