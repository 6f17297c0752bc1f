"""Independent expected-value routes used by the test suite.

The closed forms that ``colltherm verify`` also uses (Gibbs weights, the
printed channels, the two-collision forms, the single-ancilla state and
SLDs) live in :mod:`colltherm.oracles`, which imports nothing from the rest
of the library; they are re-exported here.  This module adds the routes
only the tests use: matrix exponentials by Taylor series, the qutrit
collision channel as a Kraus sum over that series, the GKSL
generator of the probe-bath coupling, the rethermalization channel as
generalized-amplitude-damping Kraus operators, central-difference
derivatives of a state family, QFIMs from the qubit Bloch-vector formula
and from a pseudoinverse solve of the SLD equation, a brute-force
simulation of the two-probe ancilla stream on the whole register, and
random inputs.  Tests compare library output against these, never against
the library itself.
"""

import math

import numpy as np

from colltherm.oracles import (  # noqa: F401  (re-exported for the tests)
    chi_mu_dot,
    closed_form_slds,
    composed_plain_channel,
    composed_rotated_channel,
    dlam0_dT,
    gibbs_weights,
    plain_final_v,
    printed_collision_channel,
    printed_rotation_superop_pi4,
    rotated_final_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------

def thermal_fisher_binomial(omega, T):
    """Fisher information of the two-outcome energy measurement at
    equilibrium, via the binomial formula (dp/dT)^2 / (p(1-p))."""
    lam0, lam1 = gibbs_weights(omega, T)
    return dlam0_dT(omega, T) ** 2 / (lam0 * lam1)


def mean_occupation(omega, T):
    return 1.0 / (math.exp(omega / T) - 1.0)


# ---------------------------------------------------------------------------
# matrix exponential by series
# ---------------------------------------------------------------------------

def taylor_expm(m, terms=60):
    """Plain Taylor series for exp(m); fine for the small norms used here."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# printed collision unitary and the rotated single-ancilla eta_acc
# ---------------------------------------------------------------------------

def printed_collision_unitary(gt):
    """Exchange collision unitary on probe (x) ancilla, with the -i sin
    phase on both off-diagonal entries that exp(-iHt) produces."""
    c, s = math.cos(gt), math.sin(gt)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def qutrit_collision_channel(gt, lam0):
    """Row-major superoperator of one collision of a qutrit ancilla with a
    thermal qubit probe (excited weight lam0), as the Kraus sum
    sum_ij K_ij (x) K_ij* with K_ij = sqrt(lambda_j) <i|U|j>: the blocks of
    the probe factor of U = exp(-i gt (s+ (x) Q- + s- (x) Q+)), taken by
    Taylor series."""
    s = 1.0 / math.sqrt(2.0)
    s_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    q_minus = np.array([[0, 0, 0], [s, 0, 0], [0, s, 0]], dtype=complex)
    h = np.kron(s_plus, q_minus)
    u = taylor_expm(-1j * gt * (h + h.conj().T)).reshape(2, 3, 2, 3)
    sop = np.zeros((9, 9), dtype=complex)
    for j, lam in enumerate((lam0, 1.0 - lam0)):
        for i in range(2):
            k = math.sqrt(lam) * u[i, :, j, :]
            sop += np.kron(k, k.conj())
    return sop


def rotated_single_eta_acc(g1, g2, T1, T2, omega=1.0):
    """eta_acc = ln(det F_Q / det F_th) of the rotated single-ancilla family.

    The state is the transcribed closed form, its temperature derivatives
    are the analytic derivatives of (mu, chi), the QFIM comes from the
    Bloch-vector formula and the benchmark from the binomial formula.
    Returns -inf when det F_Q is not positive.
    """
    p, _ = gibbs_weights(omega, T1)
    q, _ = gibbs_weights(omega, T2)
    chi_dot, mu_dot = chi_mu_dot(g1, g2, T1, T2, omega)
    d1 = np.array([[0, -1j * chi_dot], [1j * chi_dot, 0]], dtype=complex)
    d2 = np.diag([mu_dot, -mu_dot]).astype(complex)
    det_q = float(np.linalg.det(qfim_bloch(rotated_final_state(g1, g2, p, q), (d1, d2))))
    det_th = thermal_fisher_binomial(omega, T1) * thermal_fisher_binomial(omega, T2)
    return math.log(det_q / det_th) if det_q > 0 else -math.inf


# ---------------------------------------------------------------------------
# rethermalization: the GKSL generator, and generalized amplitude damping
# ---------------------------------------------------------------------------

SPLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1| raises the probe energy
SMINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0| lowers it


def _dissipator(op):
    """Vectorized (row-major) GKSL dissipator D[O] = O.O^dag - 1/2 {O^dag O, .}."""
    eye = np.eye(op.shape[0])
    odo = op.conj().T @ op
    return np.kron(op, op.conj()) - 0.5 * (np.kron(odo, eye) + np.kron(eye, odo.T))


def lindblad_generator(omega, T, gamma):
    """Vectorized Liouvillian gamma (nbar+1) D[sigma_-] + gamma nbar D[sigma_+]
    of the probe-bath coupling; its stationary state is the Gibbs state."""
    n = mean_occupation(omega, T)
    return gamma * ((n + 1.0) * _dissipator(SMINUS) + n * _dissipator(SPLUS))


def gad_kraus(omega, T, gamma, t):
    """Kraus operators of the thermal relaxation channel, no exponential of
    a generator involved: population damping eta = 1 - exp(-Gamma t) with
    Gamma = gamma (2 nbar + 1), branch weights given by the Gibbs target."""
    lam0, lam1 = gibbs_weights(omega, T)
    if gamma * t == 0.0:
        return [np.eye(2, dtype=complex)]
    n = mean_occupation(omega, T)
    eta = 1.0 - math.exp(-gamma * (2 * n + 1) * t)
    se, re = math.sqrt(eta), math.sqrt(1.0 - eta)
    k_decay_stay = math.sqrt(lam1) * np.array([[re, 0], [0, 1]], dtype=complex)
    k_decay_jump = math.sqrt(lam1) * np.array([[0, 0], [se, 0]], dtype=complex)
    k_pump_stay = math.sqrt(lam0) * np.array([[1, 0], [0, re]], dtype=complex)
    k_pump_jump = math.sqrt(lam0) * np.array([[0, se], [0, 0]], dtype=complex)
    return [k_decay_stay, k_decay_jump, k_pump_stay, k_pump_jump]


def gad_superop(omega, T, gamma, t):
    out = np.zeros((4, 4), dtype=complex)
    for k in gad_kraus(omega, T, gamma, t):
        out += np.kron(k, k.conj())
    return out


# ---------------------------------------------------------------------------
# derivatives by central differences
# ---------------------------------------------------------------------------

def finite_diff_derivatives(rho_fn, theta, h=None):
    """The stack ``(rho, d_1 rho, ..., d_N rho)`` of a state family at
    ``theta``, shaped (1 + N, d, d).

    ``rho_fn(theta_vector)`` returns a matrix or an object with a ``mat``
    array.  Step per coordinate defaults to ``max(1e-5, 1e-6 |theta_mu|)``.
    Each derivative is taken at the step and at half the step (Richardson
    consistency check): the two must agree to 1e-6 relative to the
    derivative scale (floored at 1), else the family is reported as not
    smooth.  The half-step estimate is returned, made exactly Hermitian.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    if h is None:
        steps = [max(1e-5, 1e-6 * abs(t)) for t in theta]
    elif np.isscalar(h):
        steps = [float(h)] * n
    else:
        steps = [float(x) for x in h]

    def state(t):
        r = rho_fn(t)
        return np.asarray(getattr(r, "mat", r), dtype=complex)

    def central(mu, step):
        tp, tm = theta.copy(), theta.copy()
        tp[mu] += step
        tm[mu] -= step
        return (state(tp) - state(tm)) / (2.0 * step)

    derivs = []
    for mu in range(n):
        d_full = central(mu, steps[mu])
        d_half = central(mu, steps[mu] / 2.0)
        scale = max(float(np.max(np.abs(d_half))), 1.0)
        err = float(np.max(np.abs(d_full - d_half)))
        if err > 1e-6 * scale:
            raise ValueError(
                f"finite-difference check failed for parameter {mu}: halving the "
                f"step changed the derivative by {err:.3e} (scale {scale:.3e}); "
                "the state family is not smooth at this point"
            )
        derivs.append((d_half + d_half.conj().T) / 2.0)
    return np.array([state(theta), *derivs])


# ---------------------------------------------------------------------------
# independent Fisher-information routes
# ---------------------------------------------------------------------------

def bloch_vector(rho):
    return np.real(np.array([np.trace(rho @ s) for s in (SX, SY, SZ)]))


def qfim_bloch(rho, derivs):
    """Qubit QFIM from the Bloch parametrization:
    F_ij = dr_i . dr_j + (r . dr_i)(r . dr_j) / (1 - |r|^2)."""
    r = bloch_vector(rho)
    dr = [bloch_vector(d) for d in derivs]
    r2 = float(r @ r)
    n = len(dr)
    f = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            val = float(dr[i] @ dr[j])
            if r2 < 1.0 - 1e-12:
                val += float(r @ dr[i]) * float(r @ dr[j]) / (1.0 - r2)
            f[i, j] = val
    return f


def sld_pinv(rho, drho):
    """SLD by pseudoinverse solve of (rho (x) I + I (x) rho^T) vec(L) = 2 vec(drho)
    in the row-major vec convention."""
    d = rho.shape[0]
    a = np.kron(rho, np.eye(d)) + np.kron(np.eye(d), rho.T)
    vec_l = np.linalg.pinv(a, rcond=1e-10) @ (2.0 * drho.reshape(-1))
    l = vec_l.reshape(d, d)
    return (l + l.conj().T) / 2.0


def qfim_pinv(rho, derivs):
    """QFIM via the pseudoinverse SLD route (works in any dimension)."""
    slds = [sld_pinv(rho, d) for d in derivs]
    n = len(slds)
    f = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            f[i, j] = float(
                np.real(np.trace(rho @ (slds[i] @ slds[j] + slds[j] @ slds[i]))) / 2.0
            )
    return f


def qfi_pure(psi, dpsi):
    """QFI of a pure-state family: 4 (<dpsi|dpsi> - |<psi|dpsi>|^2)."""
    overlap = complex(np.vdot(psi, dpsi))
    return 4.0 * (float(np.real(np.vdot(dpsi, dpsi))) - abs(overlap) ** 2)


# ---------------------------------------------------------------------------
# two-probe qubit-ancilla stream, brute force on the whole register
# ---------------------------------------------------------------------------

def embed_on_qubits(op, sites, n_qubits):
    """Full-register matrix of ``op`` acting on the listed qubit sites (site
    0 is the most significant bit), filled entry by entry: <a|O|b> is
    <a_sites|op|b_sites> when a and b agree on every other site, else 0."""
    dim = 2**n_qubits
    shifts = [n_qubits - 1 - s for s in sites]
    rest = (dim - 1) & ~sum(1 << s for s in shifts)

    def local(x):
        idx = 0
        for s in shifts:
            idx = 2 * idx + ((x >> s) & 1)
        return idx

    out = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            if a & rest == b & rest:
                out[a, b] = op[local(a), local(b)]
    return out


def rotation_x(theta):
    """exp(-i theta sigma_x), written out."""
    return math.cos(theta) * np.eye(2, dtype=complex) - 1j * math.sin(theta) * SX


def joint_stream_state(angles, temps, n, theta=math.pi / 4, omega=1.0, gamma=1.0, t=0.5):
    """Final n-ancilla state of the two-probe stream.

    Register: probe 1, probe 2, ancillas 1..n, every ancilla starting in the
    ground state |1>.  Ancilla k collides with probe 1, turns by ``theta``
    about x, then collides with probe 2; each probe relaxes by the
    generalized-amplitude-damping channel after every ancilla but the last.
    The probes are traced out at the end, so every correlation the probes
    mediate between ancillas is kept.
    """
    nq = 2 + n
    ground = np.diag([0.0, 1.0]).astype(complex)
    rho = np.diag(gibbs_weights(omega, temps[0])).astype(complex)
    for factor in [np.diag(gibbs_weights(omega, temps[1]))] + [ground] * n:
        rho = np.kron(rho, factor)
    relax = [
        [embed_on_qubits(k, (i,), nq) for k in gad_kraus(omega, temps[i], gamma, t)]
        for i in (0, 1)
    ]
    for k in range(n):
        for i in (0, 1):
            u = embed_on_qubits(printed_collision_unitary(angles[i]), (i, 2 + k), nq)
            if i == 0:
                u = embed_on_qubits(rotation_x(theta), (2 + k,), nq) @ u
            rho = u @ rho @ u.conj().T
            if k < n - 1:
                rho = sum(kr @ rho @ kr.conj().T for kr in relax[i])
    d = 2**n
    return np.einsum("pipj->ij", rho.reshape(4, d, 4, d))


def ancilla_marginals(rho, n):
    """Single-ancilla reduced states of an n-qubit state."""
    t = rho.reshape((2,) * (2 * n))
    out = []
    for k in range(n):
        rows = list(range(n))
        cols = [k + n if j == k else j for j in range(n)]
        out.append(np.einsum(t, rows + cols, [k, k + n]))
    return out


def joint_stream_eta_acc(angles, temps, n, product=False):
    """eta_acc of the two-probe stream's n-ancilla state (omega = 1).

    With ``product`` the state scored is the tensor product of the exact
    single-ancilla marginals of the joint state instead of the joint state.
    Derivatives are central differences with step 1e-5; the QFIM comes from
    the pseudoinverse SLD solve on the full state, so no additivity is
    assumed.

    A product-of-marginals stream that tracks only probe marginals gives the
    exact single-ancilla marginals only when the first collision is a full
    swap (angles[0] = pi/2): probe 1 then hands its thermal state to the
    ancilla and keeps the ancilla's pure initial state, so it never
    correlates with probe 2 through the ancilla.  At other first angles the
    probes correlate and the probe-marginal stream is an approximation (at
    angles = (0.3 pi, 0.3 pi), T = (2, 1), n = 2 its second marginal is off
    by about 5e-3).
    """
    def state(tv):
        rho = joint_stream_state(angles, tv, n)
        if product:
            margs = ancilla_marginals(rho, n)
            rho = margs[0]
            for m in margs[1:]:
                rho = np.kron(rho, m)
        return rho

    h = 1e-5
    temps = [float(x) for x in temps]
    derivs = []
    for mu in range(len(temps)):
        up, down = list(temps), list(temps)
        up[mu] += h
        down[mu] -= h
        derivs.append((state(up) - state(down)) / (2.0 * h))
    f = qfim_pinv(state(temps), derivs)
    det_th = math.prod(thermal_fisher_binomial(1.0, x) for x in temps)
    det_q = float(np.linalg.det(f))
    return math.log(det_q / det_th) if det_q > 0 else -math.inf


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def random_density(rng, dim, min_eig=0.02):
    """Full-rank random state: Haar-ish eigenbasis, eigenvalues bounded away
    from zero."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    w = rng.uniform(min_eig, 1.0, size=dim)
    w /= w.sum()
    return q @ np.diag(w).astype(complex) @ q.conj().T


def random_herm_traceless(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (x + x.conj().T) / 2.0
    return h - np.trace(h) / dim * np.eye(dim)


def random_unitary(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
