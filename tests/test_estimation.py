"""SLDs, QFIM, benchmark, merit figures, the finite-difference oracle.

QFIM values are cross-checked through two independent oracles: the qubit
Bloch-vector formula and a pseudoinverse solve of the SLD equation.  Neither
shares code with the library's eigendecomposition route.  The stacked kernel
:func:`qfim_stack` is pinned to the pseudoinverse route on stacks of
full-rank, pure and rank-deficient states.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from colltherm import estimation
from colltherm.channels import BathSpec, RotationSpec
from colltherm.estimation import (
    Qfim,
    _check_qfim,
    build_report,
    qfim_stack,
    singularity_test,
    thermal_fim,
)
from colltherm.protocols import ProtocolConfig, evaluate, point, single_run


def _qubit_family(rng, n_params=2):
    """Random full-rank qubit state with random traceless Hermitian derivs,
    stacked as (1 + n_params, 2, 2)."""
    rho = oracles.random_density(rng, 2, min_eig=0.1)
    derivs = [0.3 * oracles.random_herm_traceless(rng, 2) for _ in range(n_params)]
    return np.array([rho, *derivs])


# ---------------------------------------------------------------------------
# SLD
# ---------------------------------------------------------------------------

def test_sld_solves_defining_equation(rng):
    for dim in (2, 3, 4):
        for _ in range(10):
            rho = oracles.random_density(rng, dim, min_eig=0.05)
            drho = oracles.random_herm_traceless(rng, dim)
            (l,) = qfim_stack(np.array([[rho, drho]])).slds(0)
            npt.assert_allclose(l, l.conj().T, atol=1e-12)
            npt.assert_allclose((l @ rho + rho @ l) / 2.0, drho, atol=1e-8)


def test_sld_matches_pseudoinverse_route(rng):
    rho = oracles.random_density(rng, 3, min_eig=0.05)
    drho = oracles.random_herm_traceless(rng, 3)
    (l,) = qfim_stack(np.array([[rho, drho]])).slds(0)
    npt.assert_allclose(l, oracles.sld_pinv(rho, drho), atol=1e-8)


def test_sld_rejects_derivative_leaving_support():
    # rho = |0><0| exactly; a derivative with |1><1| weight cannot be
    # reproduced by any SLD
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = np.diag([-1.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="support"):
        qfim_stack(np.array([[rho, drho]]))


def test_sld_pure_state_family():
    """|psi(t)> = cos t |0> + sin t |1>: rank-1 state, legitimate derivative,
    QFI must equal the pure-state formula 4(<dpsi|dpsi> - |<psi|dpsi>|^2) = 4."""
    t = 0.4

    def state(theta):
        c, s = math.cos(theta[0]), math.sin(theta[0])
        psi = np.array([c, s], dtype=complex)
        return np.outer(psi, psi.conj())

    qs = qfim_stack(oracles.finite_diff_derivatives(state, np.array([t]))[None])
    psi = np.array([math.cos(t), math.sin(t)], dtype=complex)
    dpsi = np.array([-math.sin(t), math.cos(t)], dtype=complex)
    expected = oracles.qfi_pure(psi, dpsi)
    assert qs.matrices[0, 0, 0] == pytest.approx(expected, rel=1e-7)
    assert qs.support_dims[0] == 1


# ---------------------------------------------------------------------------
# QFIM
# ---------------------------------------------------------------------------

def test_qfim_matches_bloch_formula(rng):
    for _ in range(20):
        stack = _qubit_family(rng)
        f = qfim_stack(stack[None]).matrices[0]
        expected = oracles.qfim_bloch(stack[0], stack[1:])
        npt.assert_allclose(f, expected, atol=1e-9)


def test_qfim_matches_pseudoinverse_route_qutrit(rng):
    for _ in range(10):
        rho = oracles.random_density(rng, 3, min_eig=0.05)
        derivs = [0.2 * oracles.random_herm_traceless(rng, 3) for _ in range(2)]
        f = qfim_stack(np.array([[rho, *derivs]])).matrices[0]
        npt.assert_allclose(f, oracles.qfim_pinv(rho, derivs), atol=1e-8)


def test_qfim_symmetry_and_psd(rng):
    qs = qfim_stack(_qubit_family(rng, n_params=3)[None])
    f = qs.matrices[0]
    npt.assert_array_equal(f, f.T)
    assert np.linalg.eigvalsh(f)[0] > -1e-8
    assert len(qs.slds(0)) == 3


def test_qfim_additive_on_product_states(rng):
    """F(rho_A x rho_B) = F(rho_A) + F(rho_B) when each factor carries its
    own dependence; derivatives of the product by the product rule."""
    pa = _qubit_family(rng)
    pb = _qubit_family(rng)
    joint = [np.kron(pa[0], pb[0])] + [
        np.kron(da, pb[0]) + np.kron(pa[0], db) for da, db in zip(pa[1:], pb[1:])
    ]
    f_joint = qfim_stack(np.array([joint])).matrices[0]
    f_sum = qfim_stack(np.array([pa, pb])).matrices.sum(axis=0)
    npt.assert_allclose(f_joint, f_sum, atol=1e-8)


# ---------------------------------------------------------------------------
# stacked eigenbasis kernel
# ---------------------------------------------------------------------------

def _family_stack(rng, dim, n_params, rank, real=False):
    """(1 + n_params, dim, dim): a random state of the given rank and
    derivatives D = A rho + rho A^dag - Tr(.) rho, which are Hermitian,
    traceless and vanish on ker(rho) x ker(rho), as any state family's do.
    ``real`` draws a real orthogonal basis and real A, so the stack is real."""
    if real:
        u = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:, :rank]
    else:
        u = oracles.random_unitary(rng, dim)[:, :rank]
    p = rng.uniform(0.2, 1.0, size=rank)
    rho = (u * (p / p.sum())) @ u.conj().T
    out = [rho]
    for _ in range(n_params):
        a = rng.normal(size=(dim, dim))
        if not real:
            a = a + 1j * rng.normal(size=(dim, dim))
        d = a @ rho + rho @ a.conj().T
        out.append(d - np.trace(d).real * rho)
    return np.array(out)


KERNEL_CASES = [(dim, n, rank) for dim in (2, 3) for n in (2, 3) for rank in range(1, dim + 1)]


@pytest.mark.parametrize("dim, n_params, rank", KERNEL_CASES)
def test_qfim_stack_matches_pseudoinverse_route(rng, dim, n_params, rank):
    stacks = np.array([_family_stack(rng, dim, n_params, rank) for _ in range(5)])
    qs = qfim_stack(stacks)
    assert qs.matrices.shape == (5, n_params, n_params)
    assert qs.support_dims == (rank,) * 5
    for k, stack in enumerate(stacks):
        expected = oracles.qfim_pinv(stack[0], stack[1:])
        assert np.max(np.abs(qs.matrices[k] - expected)) <= 1e-10 * np.max(np.abs(expected))
        for mine, theirs in zip(qs.slds(k), stack[1:]):
            npt.assert_allclose(mine, oracles.sld_pinv(stack[0], theirs), atol=1e-10)


def test_qfim_stack_equals_states_one_at_a_time(rng):
    stacks = np.array([_family_stack(rng, 3, 3, rank) for rank in (3, 1, 2, 3)])
    whole = qfim_stack(stacks)
    for k in range(len(stacks)):
        alone = qfim_stack(stacks[k:k + 1])
        npt.assert_allclose(whole.matrices[k], alone.matrices[0], rtol=1e-13, atol=1e-15)
        assert whole.support_dims[k] == alone.support_dims[0]
        for a, b in zip(whole.slds(k), alone.slds(0)):
            npt.assert_allclose(a, b, rtol=1e-13, atol=1e-15)


def test_support_dims_count_the_levels_the_sld_keeps():
    """A level is in the support exactly when the SLD keeps its own pair,
    2 lambda >= SUPPORT_CUTOFF.  Levels at 8e-13 and 5e-13 (the edge) carry
    QFI and count; one at 4e-13 leaves the SLD and the support together."""
    cut = estimation.SUPPORT_CUTOFF
    kept = [np.array([np.diag([1.0 - lam, lam]), np.diag([-1e-3, 1e-3])])
            for lam in (8e-13, 0.5 * cut)]
    # an off-diagonal derivative: the dropped level has no kernel weight
    dropped = np.array([np.diag([1.0 - 4e-13, 4e-13]), [[0.0, 1e-3], [1e-3, 0.0]]])
    qs = qfim_stack(np.array(kept + [dropped]))
    assert qs.support_dims == (2, 2, 1)
    assert qs.matrices[0, 0, 0] == pytest.approx(1e-6 / (1.0 - 8e-13) + 1e-6 / 8e-13, rel=1e-9)
    assert qs.matrices[1, 0, 0] == pytest.approx(1e-6 / (1.0 - 0.5 * cut) + 2e-6 / cut, rel=1e-9)
    assert qs.matrices[2, 0, 0] == pytest.approx(4e-6, rel=1e-9)
    assert (qs.eigen_slds[2, 0, 1, 1] == 0.0) and (qs.eigen_slds[:2, 0, 0, 0] != 0.0).all()


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_full_support_bits_do_not_depend_on_a_kernel_beside_them(rng, dim, real):
    """A state with a kernel sends its stack through the support mask, a
    stack of full-support states skips it; the full-support states get the
    same QFIM, SLDs and support dimension bit for bit either way."""
    full = np.array([_family_stack(rng, dim, 2, dim, real) for _ in range(4)])
    mixed = full.copy()
    mixed[1] = _family_stack(rng, dim, 2, dim - 1, real)
    assert full.dtype == (float if real else complex)
    alone, beside = qfim_stack(full), qfim_stack(mixed)
    assert alone.support_dims == (dim,) * 4
    assert beside.support_dims == (dim, dim - 1, dim, dim)
    for k in (0, 2, 3):
        assert np.array_equal(alone.matrices[k], beside.matrices[k])
        assert np.array_equal(alone.eigen_slds[k], beside.eigen_slds[k])


def _offend_deriv_herm(stack):
    stack[2] += np.array([[0.0, 1e-6], [0.0, 0.0]])


def _offend_deriv_trace(stack):
    stack[2] += 1e-6 * np.eye(2)


def _offend_deriv_nan(stack):
    stack[2, 0, 1] = stack[2, 1, 0] = np.nan  # NaN fails no comparison with a tolerance


def _offend_deriv_inf(stack):
    stack[2] = np.diag([np.inf, -np.inf])  # Hermitian and traceless as written


def _offend_state_herm(stack):
    stack[0, 0, 1] += 1e-6


def _offend_state_herm_5e10(stack):
    stack[0, 0, 1] += 5e-10  # past the state bound 1e-10, inside the derivative one


def _derivative_within_bounds(stack):
    stack[2] += np.array([[2.5e-10, 5e-10], [0.0, 2.5e-10]])  # defect and |trace| 5e-10


def _offend_deriv_trace_2e9(stack):
    stack[2] += 1e-9 * np.eye(2)


def _offend_residual(stack):
    h = 1e9 * stack[0]  # rounding in eigh alone exceeds the residual bound
    stack[0] = (h + h.conj().T) / 2.0


def _offend_support(stack):
    stack[0] = np.diag([1.0, 0.0])
    stack[1:] = np.diag([-1.0, 1.0])


@pytest.mark.parametrize(
    "offend, message",
    [
        (_offend_deriv_herm, "derivative 1 not Hermitian: defect 1.000e-06"),
        (_offend_deriv_trace, "derivative 1 not traceless: [|]trace[|] 2.000e-06"),
        (_offend_deriv_nan, "derivative 1 not finite"),
        (_offend_deriv_inf, "derivative 1 not finite"),
        (_offend_state_herm, "input not Hermitian: defect 1.000e-06 > 1e-10"),
        (_offend_state_herm_5e10, "input not Hermitian: defect 5.000e-10 > 1e-10"),
        (_derivative_within_bounds, None),
        (_offend_deriv_trace_2e9, "derivative 1 not traceless: [|]trace[|] 2.000e-09"),
        (_offend_residual, "eigendecomposition residual"),
        (_offend_support, "connecting the kernel of the state to itself"),
    ],
)
def test_qfim_stack_checks_every_state(rng, offend, message):
    """A defect in the state at stack index 2 raises the message a lone
    state would.  Each kind of check keeps its own bound: state Hermiticity
    1e-10, derivative Hermiticity and trace 1e-9 (``None``: within them)."""
    stacks = np.array([_family_stack(rng, 2, 2, 2) for _ in range(4)])
    offend(stacks[2])
    if message is None:
        assert qfim_stack(stacks).support_dims == (2,) * 4
        return
    with pytest.raises(ValueError, match=message):
        qfim_stack(stacks)
    with pytest.raises(ValueError, match=message):
        qfim_stack(stacks[2:3])


@pytest.mark.parametrize(
    "state, message",
    [
        (np.diag([0.7, 0.7]), "state 2 of the stack: trace defect 4.000e-01 > 1e-09"),
        (np.diag([1.2, -0.2]), "state 2 of the stack not PSD: min eigenvalue -2.000e-01 < -1e-10"),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), "input not finite"),
        (np.diag([np.inf, 0.5]), "input not finite"),
    ],
    ids=["trace", "psd", "nan", "inf"],
)
def test_qfim_stack_rejects_non_states(rng, state, message):
    """A state of the wrong trace or with a negative eigenvalue is rejected
    from the eigenvalues the QFIM uses, naming its index in the stack; one
    with an inf or NaN entry is refused by the eigensolver.  Its valid
    derivatives leave the state check the only one to trip."""
    stacks = np.array([_family_stack(rng, 2, 2, 2) for _ in range(4)])
    stacks[2, 0] = state
    with pytest.raises(ValueError, match=re.escape(message)):
        qfim_stack(stacks)
    stacks[2, 0] = np.diag([0.5, 0.5 + 5e-10])  # inside the 1e-9 trace tolerance
    assert qfim_stack(stacks).support_dims == (2,) * 4


def _offend_state_trace(stack):
    stack[0] = np.diag([0.7, 0.7])


def _offend_state_psd(stack):
    stack[0] = np.diag([1.2, -0.2])


def _offend_state_both(stack):
    stack[0] = np.diag([0.7, -0.7])


@pytest.mark.parametrize(
    "defects, message",
    [
        ({3: _offend_deriv_trace, 1: _offend_deriv_herm}, "derivative 1 not Hermitian"),
        ({1: _offend_deriv_trace, 3: _offend_deriv_herm}, "derivative 1 not traceless"),
        ({1: _offend_state_herm, 3: _offend_deriv_trace}, "derivative 1 not traceless"),
        ({1: _offend_support, 3: _offend_deriv_herm}, "derivative 1 not Hermitian"),
        ({3: _offend_state_trace, 1: _offend_state_psd}, "state 1 of the stack not PSD"),
        ({1: _offend_state_trace, 3: _offend_state_psd}, "state 1 of the stack: trace defect"),
        ({1: _offend_state_both, 3: _offend_state_psd}, "state 1 of the stack: trace defect"),
    ],
    ids=["herm-lower-index", "trace-lower-index", "deriv-before-state", "deriv-before-kernel",
         "psd-lower-index", "trace-before-psd-index", "trace-before-psd-same-state"],
)
def test_qfim_stack_names_the_first_defect(rng, defects, message):
    """With two defects in a stack, derivative defects are named before
    state defects, and of two alike the one at the lower stack index; a
    state failing both state tests is named for its trace."""
    stacks = np.array([_family_stack(rng, 2, 2, 2) for _ in range(4)])
    for k, offend in defects.items():
        offend(stacks[k])
    with pytest.raises(ValueError, match=re.escape(message)):
        qfim_stack(stacks)


def test_qfim_checks_cover_stacks():
    good = np.eye(2)
    with pytest.raises(ValueError, match="QFIM not symmetric: defect 1.000e-01"):
        _check_qfim(np.array([good, good, [[1.0, 0.2], [0.1, 1.0]]]))
    # the symmetry tolerance is relative to the largest entry, so a change
    # of units neither trips it nor hides a real skew
    scaled = 1e12 * np.array([[1.0, 0.2], [0.2, 1.0]])
    scaled[0, 1] += 1e-4  # 1e-16 relative
    _check_qfim(np.array([good, scaled]))
    scaled[0, 1] += 1e4
    with pytest.raises(ValueError, match="QFIM not symmetric: defect 1.000e\\+04"):
        _check_qfim(scaled)
    with pytest.raises(ValueError, match="QFIM not PSD: min eigenvalue -1.000e"):
        _check_qfim(np.array([good, good, [[1.0, 0.0], [0.0, -1.0]]]))
    # NaN fails no comparison, and an inf beside a finite mirror leaves the
    # asymmetry within 1e-9 x inf; an inf meeting an inf warns, where
    # warnings are errors too
    for bad in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [0.0, 1.0]],
                [[np.inf, np.nan], [np.nan, np.inf]]):
        with pytest.raises(ValueError, match="QFIM not finite"):
            _check_qfim(np.array([good, bad]))


def test_each_evaluation_checks_its_qfim_once(monkeypatch):
    """``_check_qfim`` runs once per ``evaluate`` of every scenario and once
    per ``single_run``: inside ``qfim_stack``, on the stack of QFIMs before
    they are symmetrised, and not again on their sum."""
    calls = []

    def counting(m):
        calls.append(m)
        return _check_qfim(m)

    monkeypatch.setattr(estimation, "_check_qfim", counting)
    baths = tuple(BathSpec(t) for t in (2.0, 1.0, 0.5))
    counts = {}
    for scenario, n_baths, dim, n in (
        ("single", 2, 2, 1), ("uncorrelated", 2, 2, 3),
        ("correlated", 2, 2, 3), ("qutrit", 3, 3, 3),
    ):
        cfg = ProtocolConfig(
            baths=baths[:n_baths],
            collision_angles=(0.5 * math.pi, 0.3 * math.pi, 0.4 * math.pi)[:n_baths],
            ancilla_dim=dim,
            n_ancillas=n,
            correlated=scenario == "correlated",
        )
        before = len(calls)
        evaluate(cfg, scenario)
        counts[scenario] = len(calls) - before
    before = len(calls)
    single_run(ProtocolConfig(baths=baths[:2], collision_angles=(0.5 * math.pi, 0.3 * math.pi)))
    counts["single_run"] = len(calls) - before
    assert counts == {
        "single": 1, "uncorrelated": 1, "correlated": 1, "qutrit": 1, "single_run": 1
    }


def test_stream_support_dim_is_exact_at_large_n():
    """The support of the product of n = 70 full-rank qubit marginals is
    2^70, past the range of a 64-bit integer."""
    config = ProtocolConfig(
        baths=(BathSpec(2.0, therm_time=0.5), BathSpec(1.0, therm_time=0.5)),
        collision_angles=(0.5 * math.pi, 0.3 * math.pi),
        rotation=RotationSpec(math.pi / 4, "x"),
        n_ancillas=70,
    )
    assert evaluate(config, "uncorrelated").qfim.support_dim == 2**70


# ---------------------------------------------------------------------------
# thermal benchmark
# ---------------------------------------------------------------------------

def test_thermal_fim_against_binomial_oracle(rng):
    """Equilibrium variance formula vs the two-outcome Fisher information of
    the Gibbs populations; these agree because the energy measurement is
    optimal for a diagonal family."""
    for _ in range(15):
        omega, T = rng.uniform(0.4, 2.5), rng.uniform(0.3, 5.0)
        got = thermal_fim([BathSpec(T, omega=omega)])[0]
        assert got == pytest.approx(oracles.thermal_fisher_binomial(omega, T), rel=1e-12)


@pytest.mark.parametrize("T", [1e-3, 1.0, 1e3])
def test_thermal_fim_over_whole_range(T):
    """F_th against (omega/T^2)^2 / (2 cosh(omega/2T))^2 for omega/T from
    1e-3 to 700, and exactly 0 once exp(-omega/T) underflows (omega/T =
    746).  The binomial oracle is not used here: it squares a derivative
    that underflows at large omega/T."""
    for x in np.geomspace(1e-3, 700.0, 60):
        omega = x * T
        expected = (omega / T**2) ** 2 / (2.0 * math.cosh(omega / (2.0 * T))) ** 2
        assert thermal_fim([BathSpec(T, omega=omega)])[0] == pytest.approx(expected, rel=1e-12)
    assert thermal_fim([BathSpec(T, omega=746.0 * T)])[0] == 0.0



@pytest.mark.parametrize("T", [1e-155, 1e-170, 1e-300])
def test_thermal_fim_is_zero_where_its_derivative_underflows(T):
    """At omega = 1 and these T, d lambda_0/dT is exactly 0, while T * T is
    subnormal (1e-155), so omega / T^2 overflows, or 0 (1e-170, 1e-300):
    the benchmark is 0, not NaN or a ZeroDivisionError."""
    assert thermal_fim([BathSpec(T)])[0] == 0.0


def test_thermal_fim_reference_values():
    th = thermal_fim([BathSpec(2.0), BathSpec(1.0), BathSpec(3.0)])
    npt.assert_allclose(th, [0.01468773, 0.19661193, 0.00300225], atol=5e-9)


def test_thermal_fim_is_a_per_bath_vector():
    """One benchmark per bath, in bath order: the diagonal of F_th."""
    baths = [BathSpec(2.0), BathSpec(1.0), BathSpec(3.0, omega=2.0)]
    th = thermal_fim(baths)
    assert th.shape == (3,) and th.dtype == float
    assert list(th) == [thermal_fim([b])[0] for b in baths]


# ---------------------------------------------------------------------------
# merit figures
# ---------------------------------------------------------------------------

def test_build_report_merits_identity_and_scaling():
    th = thermal_fim([BathSpec(2.0), BathSpec(1.0)])
    rep = build_report(Qfim(np.diag(th)), th)
    assert rep.eta_joint == pytest.approx(1.0, abs=1e-12)
    assert rep.eta_acc == pytest.approx(0.0, abs=1e-12)
    rep2 = build_report(Qfim(2.0 * np.diag(th)), th)
    assert rep2.eta_joint == pytest.approx(2.0, abs=1e-12)
    assert rep2.eta_acc == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_eta_acc_singular_sentinel():
    th = thermal_fim([BathSpec(2.0), BathSpec(1.0)])
    f = np.array([[0.1, 0.0], [0.0, 0.0]])
    rep = build_report(Qfim(f), th)
    assert math.isinf(rep.eta_acc) and rep.eta_acc < 0
    assert rep.eta_joint > 0


def test_det_singular_threshold_scales_with_norm():
    """The singular flag holds at det F <= 1e-12 * max(1, ||F||_F)^N:
    a plain 1e-12 up to unit norm, (1e-6 * ||F||_F)^2 for a 2 x 2 F above
    it.  Pinned with determinants 1 % either side of the threshold."""
    th = np.ones(2)

    def singular(a, b):
        return build_report(Qfim(np.diag([a, b])), th).singular

    for a in (1e-3, 0.5):  # ||F||_F <= 1: the threshold is 1e-12
        assert singular(a, 0.99e-12 / a)
        assert not singular(a, 1.01e-12 / a)
    # ||F||_F = 100 with a 2 x 2 F: the threshold is 1e-8
    assert singular(100.0, 0.99e-10)
    assert not singular(100.0, 1.01e-10)
    # an absolute 1e-12 would call this rank-deficient matrix nonsingular
    assert singular(100.0, 1e-11)


def test_build_report_forces_eta_acc_on_singular_flag():
    th = thermal_fim([BathSpec(2.0), BathSpec(1.0)])
    # det = 1e-13 is positive but below the flag threshold for an O(1)-norm
    # matrix -> reported singular with eta_acc = -inf
    f = np.array([[1.0, 0.0], [0.0, 1e-13]])
    rep = build_report(Qfim(f), th)
    assert rep.singular
    assert math.isinf(rep.eta_acc) and rep.eta_acc < 0
    rep_ok = build_report(Qfim(np.eye(2) * 0.1), th)
    assert not rep_ok.singular
    assert math.isfinite(rep_ok.eta_acc)


def test_qfim_det_of_an_underflowing_pivot_is_zero_without_a_warning():
    """A QFIM whose entries reach the subnormal range (a qutrit-scenario
    draw of the robustness test, at T down to 5e-3) leaves an LU pivot that
    underflows to 0: its det is 0, and no warning is raised."""
    m = np.array([[4.23e-37, 1.45e-319, -2.13e-32], [1.45e-319, 0.0, 0.0],
                  [-2.13e-32, 0.0, 1.54e-27]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Qfim(m).det == 0.0


def test_qfim_stores_det_and_trace(rng):
    """``Qfim`` forms det and trace once, at construction, bit for bit as
    numpy does; ``replace`` forms both anew, and neither can be assigned."""
    a, b = rng.normal(size=(2, 3, 3))
    m, m2 = a @ a.T, b @ b.T
    qf = Qfim(m)
    assert type(qf.det) is float and type(qf.trace) is float
    assert qf.det == float(np.linalg.det(m)) and qf.trace == float(np.trace(m))
    qf2 = dataclasses.replace(qf, matrix=m2)
    assert qf2.det == float(np.linalg.det(m2)) and qf2.trace == float(np.trace(m2))
    assert qf2.det != qf.det
    for attr in ("det", "trace"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(qf, attr, 0.0)


def test_point_merit_cells_are_the_reports_stored_values():
    """The merit row reads the report's stored determinant and trace: the
    very objects, not a second factorisation."""
    cfg = ProtocolConfig((BathSpec(2.0), BathSpec(1.0)), (0.5 * math.pi, 0.3 * math.pi),
                         n_ancillas=3)
    row, rep = point(cfg)
    assert row["det_qfim"] is rep.qfim.det
    assert row["trace_qfim"] is rep.qfim.trace


# ---------------------------------------------------------------------------
# singularity test
# ---------------------------------------------------------------------------

def test_singularity_test_proportional_derivatives(rng):
    rho = oracles.random_density(rng, 2, min_eig=0.1)
    d1 = 0.4 * oracles.random_herm_traceless(rng, 2)
    for c in (-1.7, 0.3, 2.0):
        flag, ratio = singularity_test(np.array([rho, d1, c * d1]))
        assert flag
        # derivs are (d1, c*d1): the reported ratio is d1 per unit of d2
        assert ratio == pytest.approx(1.0 / c, rel=1e-10)


def test_singularity_test_zero_derivative(rng):
    rho = oracles.random_density(rng, 2, min_eig=0.1)
    d1 = 0.4 * oracles.random_herm_traceless(rng, 2)
    flag, ratio = singularity_test(np.array([rho, d1, np.zeros((2, 2))]))
    assert flag and ratio == 0.0


def test_singularity_test_independent_derivatives(rng):
    for _ in range(20):
        flag, ratio = singularity_test(_qubit_family(rng))
        assert not flag and ratio is None


def test_singularity_test_input_validation(rng):
    rho3 = oracles.random_density(rng, 3)
    d3 = oracles.random_herm_traceless(rng, 3)
    with pytest.raises(ValueError, match="qubit"):
        singularity_test(np.array([rho3, d3, d3]))
    with pytest.raises(ValueError, match="two parameters"):
        singularity_test(_qubit_family(rng, n_params=1))
    stack = _qubit_family(rng)
    stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="derivative 1 not Hermitian: defect 1.000e-06"):
        singularity_test(stack)
    stack = _qubit_family(rng)
    stack[1] += 1e-6 * np.eye(2)
    with pytest.raises(ValueError, match="derivative 0 not traceless"):
        singularity_test(stack)
    for bad in (np.nan, np.inf):
        stack = _qubit_family(rng)
        stack[2] = np.diag([bad, -bad])
        with pytest.raises(ValueError, match="derivative 1 not finite"):
            singularity_test(stack)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_finite_diff_matches_analytic_derivative():
    """Smooth two-parameter family with hand-computed derivatives."""

    def family(t):
        a = 0.25 + 0.1 * math.sin(t[0]) + 0.05 * t[1] ** 2
        b = 0.1 * math.cos(t[0]) * t[1]
        return np.array([[a, b], [b, 1.0 - a]], dtype=complex)

    theta = np.array([0.7, 0.9])
    derivs = oracles.finite_diff_derivatives(family, theta)[1:]
    da_dt0 = 0.1 * math.cos(0.7)
    db_dt0 = -0.1 * math.sin(0.7) * 0.9
    expected0 = np.array([[da_dt0, db_dt0], [db_dt0, -da_dt0]])
    npt.assert_allclose(derivs[0], expected0, atol=1e-9)
    da_dt1 = 0.05 * 2 * 0.9
    db_dt1 = 0.1 * math.cos(0.7)
    expected1 = np.array([[da_dt1, db_dt1], [db_dt1, -da_dt1]])
    npt.assert_allclose(derivs[1], expected1, atol=1e-9)


def test_finite_diff_hermitizes_output():
    def family(t):
        return np.diag([0.5 + 0.1 * t[0], 0.5 - 0.1 * t[0]]).astype(complex)

    derivs = oracles.finite_diff_derivatives(family, np.array([1.0]))[1:]
    npt.assert_array_equal(derivs[0], derivs[0].conj().T)


def test_finite_diff_rejects_non_smooth_family():
    """t|t| has a derivative-of-derivative kink at 0: the half-step check
    must flag it instead of returning a silently wrong value."""

    def family(t):
        x = t[0]
        return np.diag([0.5 + 0.3 * x * abs(x), 0.5 - 0.3 * x * abs(x)]).astype(complex)

    with pytest.raises(ValueError, match="not smooth"):
        oracles.finite_diff_derivatives(family, np.array([0.0]))


def test_finite_diff_respects_explicit_step():
    calls = []

    def family(t):
        calls.append(float(t[0]))
        return np.diag([0.5 + 0.1 * t[0], 0.5 - 0.1 * t[0]]).astype(complex)

    oracles.finite_diff_derivatives(family, np.array([0.0]), h=1e-3)
    assert max(calls) == pytest.approx(1e-3)
