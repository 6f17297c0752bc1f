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
simulation of the ancilla stream on the whole register (two or three
probes, qubit or qutrit ancillas, the qutrit exchange written out), the
two-probe stream with probe marginals only, by ``kron`` and partial traces,
that stream's stationary limit by a linear solve, the probes' tensor
products register by register as an ``einsum`` chain, and random inputs.
Tests compare library output against these, never against the library
itself.
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

    ``rho_fn(theta_vector)`` returns the state matrix.  Step per
    coordinate defaults to ``max(1e-5, 1e-6 |theta_mu|)``.  Each derivative
    is taken at the step and at half the step (Richardson consistency
    check): the two must agree to 1e-6 relative to the derivative scale
    (floored at 1), else the family is reported as not smooth.  The
    half-step estimate is returned, made exactly Hermitian.
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
        return np.asarray(rho_fn(t), dtype=complex)

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
# the probe stream, brute force on the whole register
# ---------------------------------------------------------------------------

def embed_on_sites(op, sites, dims):
    """Full-register matrix of ``op`` acting on the listed sites of a
    register with site dimensions ``dims`` (site 0 most significant),
    entrywise: <a|O|b> is <a_sites|op|b_sites> when a and b agree on every
    other site, else 0."""
    digits = np.array(list(np.ndindex(*dims)))  # per register index, its site levels
    rest = [s for s in range(len(dims)) if s not in sites]
    local = np.ravel_multi_index(digits[:, list(sites)].T, [dims[s] for s in sites])
    others = np.ravel_multi_index(digits[:, rest].T, [dims[s] for s in rest]) if rest else 0 * local
    return np.where(others[:, None] == others[None, :], op[local[:, None], local[None, :]], 0)


# the spin-1 x operator, the qutrit rotations' generator
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)


def rotation_x(theta, dim=2):
    """exp(-i theta G_x): for a qubit written out with G_x = sigma_x, for a
    qutrit the Taylor series of the spin-1 G_x."""
    if dim == 3:
        return taylor_expm(-1j * theta * SPIN1_X)
    return math.cos(theta) * np.eye(2, dtype=complex) - 1j * math.sin(theta) * SX


def exchange_unitary(gt, dim=2):
    """The exchange collision unitary on probe qubit (x) ancilla, written
    out, index (probe level) * dim + ancilla level, level 0 the top one.
    Qubit: :func:`printed_collision_unitary`.  Qutrit: the probe's lowering
    meets the ancilla's raising, Q-matrix element 1 / sqrt(2), so the pairs
    |1, 0> <-> |0, 1> and |1, 1> <-> |0, 2> turn at gt / sqrt(2), each with
    -i sin on both off-diagonals; |0, 0> and |1, 2> stay."""
    if dim == 2:
        return printed_collision_unitary(gt)
    c, s = math.cos(gt / math.sqrt(2.0)), -1j * math.sin(gt / math.sqrt(2.0))
    return np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, c, 0, s, 0, 0],
            [0, 0, c, 0, s, 0],
            [0, s, 0, c, 0, 0],
            [0, 0, s, 0, c, 0],
            [0, 0, 0, 0, 0, 1],
        ],
        dtype=complex,
    )


def joint_stream_state(
    angles, temps, n, rotation=rotation_x(math.pi / 4), omega=1.0, gamma=1.0, t=0.5
):
    """Final n-ancilla state of the stream through N = len(angles) probes.

    Register: the N probe qubits, then ancillas 1..n of dimension
    len(rotation), every ancilla starting in its bottom level.  Ancilla k
    collides with each probe in order (:func:`exchange_unitary`) and turns
    by ``rotation`` (default pi/4 about x) after every collision but the
    last; each probe relaxes by the generalized-amplitude-damping channel
    after every ancilla but the last.  The probes are traced out at the
    end, so every correlation the probes mediate between ancillas is kept.
    """
    nb, d = len(angles), len(rotation)
    dims = (2,) * nb + (d,) * n
    ground = np.zeros((d, d), dtype=complex)
    ground[d - 1, d - 1] = 1.0
    rho = np.ones((1, 1), dtype=complex)
    for factor in [np.diag(gibbs_weights(omega, x)) for x in temps] + [ground] * n:
        rho = np.kron(rho, factor)
    relax = [
        [embed_on_sites(k, (i,), dims) for k in gad_kraus(omega, temps[i], gamma, t)]
        for i in range(nb)
    ]
    turn = [embed_on_sites(rotation, (nb + k,), dims) for k in range(n)]
    for k in range(n):
        for i in range(nb):
            u = embed_on_sites(exchange_unitary(angles[i], d), (i, nb + k), dims)
            if i < nb - 1:
                u = turn[k] @ u
            rho = u @ rho @ u.conj().T
            if k < n - 1:
                rho = sum(kr @ rho @ kr.conj().T for kr in relax[i])
    p, a = 2**nb, d**n
    return np.einsum("pipj->ij", rho.reshape(p, a, p, a))


def marginal_stream_states(
    angles, temps, n, rotation=rotation_x(math.pi / 4), omega=1.0, gamma=1.0, t=0.5
):
    """Final state of every ancilla of the two-probe stream when only the
    single-system marginals are kept, stacked as (n, 2, 2).

    Ancilla by ancilla: ancilla k starts in |1> and meets probe 1's
    marginal, then probe 2's.  Each meeting forms probe (x) ancilla with
    ``kron``, applies the printed collision unitary (followed by the 2 x 2
    unitary ``rotation`` on the ancilla after probe 1), and keeps both
    partial traces; each probe then relaxes by the generalized-amplitude-
    damping channel, except after the last ancilla.  Unlike
    :func:`joint_stream_state`, the probes never become correlated.
    """
    probes = [np.diag(gibbs_weights(omega, T)).astype(complex) for T in temps]
    relax = [gad_superop(omega, T, gamma, t) for T in temps]
    turn = np.kron(np.eye(2), rotation)
    out = []
    for k in range(n):
        a = np.diag([0.0, 1.0]).astype(complex)
        for i in (0, 1):
            u = printed_collision_unitary(angles[i])
            if i == 0:
                u = turn @ u
            joint = (u @ np.kron(probes[i], a) @ u.conj().T).reshape(2, 2, 2, 2)
            a = np.einsum("pipj->ij", joint)
            p = np.einsum("ipjp->ij", joint)
            probes[i] = (relax[i] @ p.reshape(-1)).reshape(2, 2) if k < n - 1 else p
        out.append(a)
    return np.array(out)


def _gad_superop_dT(omega, T, gamma, t):
    """d/dT of :func:`gad_superop` by the sixth-order central difference
    with step 2e-3 T.  Its truncation grows like (2e-3 omega / T)^6: about
    1e-12 relative at omega / T = 3, 2e-10 at omega / T = 10."""
    h = 2e-3 * T
    weights = {1: 45.0, 2: -9.0, 3: 1.0}
    return sum(
        w * (gad_superop(omega, T + j * h, gamma, t) - gad_superop(omega, T - j * h, gamma, t))
        for j, w in weights.items()
    ) / (60.0 * h)


def stationary_ancilla_family(angles, temps, theta=math.pi / 4, omega=1.0, gamma=1.0, t=0.5):
    """Long-stream limit of the two-probe stream of :func:`joint_stream_state`:
    the state an ancilla leaves in once the probes' joint state R is
    stationary, and its two temperature derivatives, stacked as (3, 2, 2).

    One ancilla's pass is the isometry V from the probes into probes (x)
    ancilla (collision with probe 1, the x rotation, collision with probe
    2, ancilla in |1>), and one step of the stream maps R to
    M(R) = (Phi_1 (x) Phi_2)(Tr_a V R V^dag).  R* solves (I - M) R* = 0 with
    Tr R* = 1; its tangents solve (I - M) d_i R* = (d_i M) R* with
    Tr d_i R* = 0, d_i M having d Phi_i / dT_i in place of Phi_i.  Each is
    one least-squares solve with the trace row appended.  The ancilla's
    state and tangents are Tr_P V (.) V^dag of R* and its tangents.
    """
    u = (
        embed_on_sites(printed_collision_unitary(angles[1]), (1, 2), (2, 2, 2))
        @ embed_on_sites(rotation_x(theta), (2,), (2, 2, 2))
        @ embed_on_sites(printed_collision_unitary(angles[0]), (0, 2), (2, 2, 2))
    )
    v = u[:, 1::2]  # register index 2 * probes + ancilla; ancilla enters |1>
    chans = [
        [f(omega, x, gamma, t).reshape(2, 2, 2, 2) for f in (gad_superop, _gad_superop_dT)]
        for x in temps
    ]

    def meet(r):  # (4, 4) probes -> (4, 2, 4, 2) probes (x) ancilla
        return (v @ r @ v.conj().T).reshape(4, 2, 4, 2)

    def step(r, deriv=None):
        s1, s2 = (chans[i][1 if i == deriv else 0] for i in (0, 1))
        probes = np.einsum("pbqb->pq", meet(r)).reshape(2, 2, 2, 2)
        out = np.einsum("acbd,egfh,bfdh->aecg", s1, s2, probes)
        return out.reshape(4, 4)

    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    m = np.array([step(e).reshape(-1) for e in units]).T
    lhs = np.vstack([np.eye(16) - m, np.eye(4).reshape(1, 16)])

    def solve(rhs, trace):
        x = np.linalg.lstsq(lhs, np.append(rhs.reshape(-1), trace), rcond=None)[0]
        return x.reshape(4, 4)

    r_star = solve(np.zeros((4, 4)), 1.0)
    tangents = [solve(step(r_star, deriv=i), 0.0) for i in (0, 1)]
    return np.array([np.einsum("pipj->ij", meet(r)) for r in (r_star, *tangents)])


def ancilla_marginals(rho, n):
    """Single-ancilla reduced states of an n-qubit state."""
    t = rho.reshape((2,) * (2 * n))
    out = []
    for k in range(n):
        rows = list(range(n))
        cols = [k + n if j == k else j for j in range(n)]
        out.append(np.einsum(t, rows + cols, [k, k + n]))
    return out


def joint_stream_etas(angles, temps, n, product=False, rotation=rotation_x(math.pi / 4)):
    """(eta_joint, eta_acc) of the two-probe stream's n-ancilla state
    (omega = 1, gamma t = 0.5, ``rotation`` between the collisions), with
    eta_acc = -inf when det F_Q <= 0.

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
        rho = joint_stream_state(angles, tv, n, rotation)
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
    f_th = [thermal_fisher_binomial(1.0, x) for x in temps]
    det_q = float(np.linalg.det(f))
    eta_acc = math.log(det_q / math.prod(f_th)) if det_q > 0 else -math.inf
    return float(np.trace(f)) / sum(f_th), eta_acc


# ---------------------------------------------------------------------------
# the probes' tensor products, register by register
# ---------------------------------------------------------------------------

def probe_product(pairs, shape):
    """Tensor product over the probes of a per-probe operator, one product
    per register: register 0 takes every probe's value, register 1 + m
    takes probe m's T_m-derivative in its place (the product rule), as a
    chain of ``np.einsum`` tensor products, probe 0 first.

    ``pairs`` holds per probe (value, derivative), each reshaped to
    ``shape`` = (row, col, row', col'); the product keeps that grouping, so
    (2, 2, 1, 1) states give (1 + N, P, P, 1, 1) and (2, 2, 2, 2)
    superoperators give (1 + N, P, P, P, P).
    """
    nt = 1 + len(pairs)
    stacks = (np.array([dx if m == 1 + i else x for m in range(nt)]).reshape((nt,) + shape)
              for i, (x, dx) in enumerate(pairs))
    out = next(stacks)
    for f in stacks:
        grown = tuple(a * b for a, b in zip(out.shape[1:], shape))
        out = np.einsum("xabcd,xefgh->xaebfcgdh", out, f).reshape((nt,) + grown)
    return out


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
