"""Collision unitaries, Kraus extraction, rotations, rethermalization.

The rethermalization checks are the important ones here: the library writes
that channel and its temperature derivative in closed form, while the oracle
builds the same channel from generalized-amplitude-damping Kraus operators
and a Taylor series exponentiates the library's GKSL generator.  The routes
share no code.
"""

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from colltherm.channels import (
    BathSpec,
    CollisionSpec,
    RotationSpec,
    collision_superoperator,
    collision_unitary,
    collision_unitary_qubit,
    collision_unitary_qubit_qutrit,
    kraus_from_collision,
    lindblad_generator,
    nbar,
    thermal_populations,
    thermal_state,
    thermal_state_dT,
    thermalization_channel,
    thermalization_channel_dT,
)
from colltherm.linalg import DensityMatrix, choi_matrix, kron, vectorize
from colltherm.operators import I2, S1Z, SZ


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


def test_thermal_state_diagonal():
    dm = thermal_state(1.0, 2.0)
    assert isinstance(dm, DensityMatrix)
    assert abs(dm.mat[0, 1]) == 0.0
    lam0, lam1 = thermal_populations(1.0, 2.0)
    npt.assert_allclose(np.diag(dm.mat).real, [lam0, lam1], atol=1e-15)


def test_nbar_matches_direct_formula(rng):
    for _ in range(10):
        omega, T = rng.uniform(0.5, 2.0), rng.uniform(0.3, 5.0)
        assert nbar(omega, T) == pytest.approx(oracles.mean_occupation(omega, T), rel=1e-13)


def test_temperature_validation():
    with pytest.raises(ValueError, match="temperature"):
        thermal_populations(1.0, 0.0)
    with pytest.raises(ValueError, match="temperature"):
        BathSpec(temperature=-1.0)
    with pytest.raises(ValueError, match="g"):
        CollisionSpec(g=-0.2)
    with pytest.raises(ValueError, match="axis"):
        RotationSpec(0.1, axis="q")


# ---------------------------------------------------------------------------
# collision unitaries
# ---------------------------------------------------------------------------

def test_qubit_collision_matches_printed_matrix(rng):
    """Block-rotation form with -i sin(g tau) on both off-diagonals."""
    for _ in range(10):
        gt = rng.uniform(0.0, np.pi)
        u = collision_unitary_qubit(CollisionSpec.from_angle(gt))
        npt.assert_allclose(u, oracles.printed_collision_unitary(gt), atol=1e-12)


def test_qubit_collision_against_taylor_series(rng):
    gt = rng.uniform(0.1, 1.2)
    h = kron(np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]]))
    h = h + h.conj().T
    npt.assert_allclose(
        collision_unitary_qubit(CollisionSpec.from_angle(gt)),
        oracles.taylor_expm(-1j * gt * h),
        atol=1e-12,
    )


def test_qubit_collision_invariant_sectors():
    u = collision_unitary_qubit(CollisionSpec.from_angle(0.7))
    assert u[0, 0] == pytest.approx(1.0)
    assert u[3, 3] == pytest.approx(1.0)
    npt.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_qutrit_collision_unitary_and_conservation(rng):
    gt = rng.uniform(0.2, 2.5)
    u = collision_unitary_qubit_qutrit(CollisionSpec.from_angle(gt))
    assert u.shape == (6, 6)
    npt.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    # total excitation sigma_z/2 (x) I + I (x) S_z commutes with the coupling
    n_op = kron(SZ / 2.0, np.eye(3)) + kron(I2, S1Z)
    npt.assert_allclose(u @ n_op - n_op @ u, np.zeros((6, 6)), atol=1e-12)


def test_qutrit_collision_against_taylor_series(rng):
    gt = rng.uniform(0.2, 1.5)
    u = collision_unitary_qubit_qutrit(CollisionSpec.from_angle(gt))
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    q_minus = np.array([[0, 0, 0], [s, 0, 0], [0, s, 0]], dtype=complex)
    h = kron(sp, q_minus)
    h = h + h.conj().T
    npt.assert_allclose(u, oracles.taylor_expm(-1j * gt * h), atol=1e-12)


def test_collision_unitary_dimension_dispatch():
    spec = CollisionSpec.from_angle(0.4)
    assert collision_unitary(spec, 2).shape == (4, 4)
    assert collision_unitary(spec, 3).shape == (6, 6)
    with pytest.raises(ValueError):
        collision_unitary(spec, 4)


# ---------------------------------------------------------------------------
# Kraus extraction
# ---------------------------------------------------------------------------

def test_kraus_blocks_of_qubit_collision():
    """The four environment-trace blocks at angle g tau, weights sqrt(lam_j).

    The (1,0) block is compared in magnitude only; its overall phase is
    unobservable in the channel (and the sign conventions in circulation
    disagree on it), while the other three blocks are phase-pinned by the
    diagonal entries.
    """
    gt, T = 0.9, 1.7
    lam0, lam1 = thermal_populations(1.0, T)
    u = collision_unitary_qubit(CollisionSpec.from_angle(gt))
    ks = kraus_from_collision(u, thermal_state(1.0, T)).operators
    c, s = np.cos(gt), np.sin(gt)
    r0, r1 = np.sqrt(lam0), np.sqrt(lam1)
    npt.assert_allclose(ks[0], r0 * np.array([[1, 0], [0, c]]), atol=1e-12)
    npt.assert_allclose(ks[1], r1 * np.array([[0, 0], [-1j * s, 0]]), atol=1e-12)
    npt.assert_allclose(np.abs(ks[2]), r0 * np.array([[0, s], [0, 0]]), atol=1e-12)
    npt.assert_allclose(ks[3], r1 * np.array([[c, 0], [0, 1]]), atol=1e-12)


def test_kraus_completeness_random(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        gt = rng.uniform(0.0, np.pi)
        T = rng.uniform(0.3, 5.0)
        u = collision_unitary(CollisionSpec.from_angle(gt), dim)
        ks = kraus_from_collision(u, thermal_state(1.0, T))
        assert ks.completeness_defect() < 1e-10


def test_kraus_rejects_coherent_environment():
    u = collision_unitary_qubit(CollisionSpec.from_angle(0.3))
    env = DensityMatrix(np.array([[0.5, 0.3], [0.3, 0.5]]), (2,))
    with pytest.raises(ValueError, match="diagonal"):
        kraus_from_collision(u, env)


# ---------------------------------------------------------------------------
# collision channel on the ancilla
# ---------------------------------------------------------------------------

def test_collision_channel_matches_printed_form(rng):
    for _ in range(20):
        gt = rng.uniform(0.0, np.pi)
        T = rng.uniform(0.3, 5.0)
        lam0, _ = thermal_populations(1.0, T)
        sop = collision_superoperator(CollisionSpec.from_angle(gt), BathSpec(T))
        npt.assert_allclose(sop, oracles.printed_collision_channel(gt, lam0), atol=1e-12)


def test_collision_channel_is_cptp(rng):
    for dim in (2, 3):
        gt, T = rng.uniform(0.1, 2.8), rng.uniform(0.4, 4.0)
        sop = collision_superoperator(CollisionSpec.from_angle(gt), BathSpec(T), dim)
        ch = choi_matrix(sop, dim)
        w = np.linalg.eigvalsh(ch)
        assert w[0] > -1e-10
        assert np.trace(ch).real == pytest.approx(dim, abs=1e-10)
        rho = oracles.random_density(rng, dim)
        out = (sop @ vectorize(rho)).reshape(dim, dim)
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
        spec = CollisionSpec.from_angle(gt)
        composed = collision_superoperator(spec, BathSpec(T2)) @ collision_superoperator(
            spec, BathSpec(T1)
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
    theta = rng.uniform(0.1, 1.5)
    for axis, gen2 in (("x", oracles.SX), ("y", oracles.SY), ("z", oracles.SZ)):
        u = RotationSpec(theta, axis).unitary(2)
        npt.assert_allclose(u, oracles.taylor_expm(-1j * theta * gen2), atol=1e-12)
    u3 = RotationSpec(theta, "x").unitary(3)
    s = 1.0 / np.sqrt(2.0)
    s1x = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex)
    npt.assert_allclose(u3, oracles.taylor_expm(-1j * theta * s1x), atol=1e-12)


def test_rotated_composition_matches_printed_form(rng):
    """Collision, pi/4 x-rotation, collision at a common angle: full 4x4."""
    from colltherm.channels import rotation_superoperator

    for _ in range(10):
        g = rng.uniform(0.1, 1.4)
        T1, T2 = rng.uniform(0.5, 4.0, size=2)
        p, _ = thermal_populations(1.0, T1)
        q, _ = thermal_populations(1.0, T2)
        spec = CollisionSpec.from_angle(g)
        rot = rotation_superoperator(RotationSpec(np.pi / 4, "x"), 2)
        composed = (
            collision_superoperator(spec, BathSpec(T2))
            @ rot
            @ collision_superoperator(spec, BathSpec(T1))
        )
        npt.assert_allclose(composed, oracles.composed_rotated_channel(g, p, q), atol=1e-12)


# ---------------------------------------------------------------------------
# rethermalization
# ---------------------------------------------------------------------------

def test_generator_annihilates_gibbs_state(rng):
    for _ in range(10):
        bath = BathSpec(rng.uniform(0.4, 4.0), omega=rng.uniform(0.5, 2.0), gamma=rng.uniform(0.2, 2.0))
        gen = lindblad_generator(bath)
        stationary = vectorize(thermal_state(bath.omega, bath.temperature))
        npt.assert_allclose(gen @ stationary, np.zeros(4), atol=1e-13)


def test_thermalization_channel_matches_damping_kraus(rng):
    """exp(L t) vs the closed-form damping Kraus route, entrywise."""
    for _ in range(20):
        bath = BathSpec(
            rng.uniform(0.4, 4.0),
            omega=rng.uniform(0.7, 2.0),
            gamma=rng.uniform(0.2, 1.5),
            therm_time=rng.uniform(0.05, 1.5),
        )
        got = thermalization_channel(bath)
        expected = oracles.gad_superop(bath.omega, bath.temperature, bath.gamma, bath.therm_time)
        npt.assert_allclose(got, expected, atol=1e-12)


def test_thermalization_channel_is_exponential_of_generator(rng):
    """The closed form equals exp(L t) of the GKSL generator it documents."""
    for _ in range(10):
        bath = BathSpec(
            rng.uniform(0.4, 4.0),
            omega=rng.uniform(0.7, 2.0),
            gamma=rng.uniform(0.2, 1.5),
            therm_time=rng.uniform(0.05, 1.5),
        )
        expected = oracles.taylor_expm(lindblad_generator(bath) * bath.therm_time)
        npt.assert_allclose(thermalization_channel(bath), expected, atol=1e-12)


def test_temperature_derivatives_match_central_differences(rng):
    """d/dT of the Gibbs state and of the rethermalization channel against
    central differences of the oracles' Gibbs weights and Kraus channel."""
    for _ in range(20):
        omega, gamma, t = rng.uniform(0.7, 2.0), rng.uniform(0.2, 1.5), rng.uniform(0.05, 1.5)
        T = rng.uniform(0.4, 4.0)
        h = 1e-5 * T
        npt.assert_allclose(
            thermal_state_dT(omega, T),
            np.diag([oracles.dlam0_dT(omega, T), -oracles.dlam0_dT(omega, T)]),
            atol=1e-14,
        )
        fd = (oracles.gad_superop(omega, T + h, gamma, t)
              - oracles.gad_superop(omega, T - h, gamma, t)) / (2 * h)
        npt.assert_allclose(
            thermalization_channel_dT(BathSpec(T, omega=omega, gamma=gamma, therm_time=t)),
            fd,
            atol=1e-8,
        )
    still = BathSpec(2.0, therm_time=0.0)
    npt.assert_array_equal(thermalization_channel_dT(still), np.zeros((4, 4)))


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
    out = (sop @ vectorize(rho)).reshape(2, 2)
    npt.assert_allclose(out, thermal_state(bath.omega, bath.temperature).mat, atol=1e-8)


def test_thermalization_channel_is_cptp():
    sop = thermalization_channel(BathSpec(1.8, therm_time=0.6))
    ch = choi_matrix(sop, 2)
    assert np.linalg.eigvalsh(ch)[0] > -1e-10
    assert np.trace(ch).real == pytest.approx(2.0, abs=1e-10)
