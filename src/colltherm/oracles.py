"""Closed-form expected values of the two-bath qubit model.

These are the hand-derived results the library is checked against: Gibbs
weights from the partition function, the printed collision and rotation
channels, the composed two-collision channels, and the single-ancilla final
state and SLDs of the rotated family.  ``colltherm verify`` and the test
suite both compare against them.  The module imports nothing from
``colltherm``, so a bug in the library cannot hide by agreeing with itself.
"""

import math

import numpy as np

__all__ = [
    "gibbs_weights",
    "dlam0_dT",
    "printed_collision_channel",
    "printed_rotation_superop_pi4",
    "composed_plain_channel",
    "composed_rotated_channel",
    "plain_final_v",
    "mu_chi",
    "rotated_final_state",
    "chi_mu_dot",
    "closed_form_slds",
]


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------

def gibbs_weights(omega, T):
    """(excited, ground) Boltzmann weights via the partition function.

    |0> sits at +omega/2 and |1> at -omega/2, so the |0> weight is
    exp(-omega/2T)/Z and is the smaller of the two for positive T.
    """
    w0 = math.exp(-omega / (2.0 * T))
    w1 = math.exp(+omega / (2.0 * T))
    z = w0 + w1
    return w0 / z, w1 / z


def dlam0_dT(omega, T):
    """d lambda_0 / dT = (omega / T^2) lambda_0 lambda_1."""
    lam0, lam1 = gibbs_weights(omega, T)
    return (omega / T**2) * lam0 * lam1


# ---------------------------------------------------------------------------
# printed two-collision analysis (transcribed)
# ---------------------------------------------------------------------------

def printed_collision_channel(gt, lam0):
    """Hand-derived 4x4 collision channel on the ancilla (row-major vec)."""
    c, s = math.cos(gt), math.sin(gt)
    lam1 = 1.0 - lam0
    return np.array(
        [
            [lam0 + lam1 * c * c, 0, 0, lam0 * s * s],
            [0, c, 0, 0],
            [0, 0, c, 0],
            [lam1 * s * s, 0, 0, lam1 + lam0 * c * c],
        ],
        dtype=complex,
    )


def printed_rotation_superop_pi4():
    """Superoperator of the pi/4 rotation about x."""
    return 0.5 * np.array(
        [
            [1, 1j, -1j, 1],
            [1j, 1, 1, -1j],
            [-1j, 1, 1, 1j],
            [1, -1j, 1j, 1],
        ],
        dtype=complex,
    )


def composed_plain_channel(gt, p, q):
    """Two collisions, no rotation, equal angles.

    Block form [[1-u,0,0,v],[0,c^2,0,0],[0,0,c^2,0],[u,0,0,1-v]] with
    u = sin^2(gt) [(1-q) + (1-p) cos^2(gt)] and
    v = sin^2(gt) [q + p cos^2(gt)]: the second bath's weight q enters
    undressed and the first bath's p arrives attenuated by the second
    collision, as the composition order demands.  (A full swap at both
    stages leaves the ancilla carrying the *second* bath's populations.)
    """
    c2, s2 = math.cos(gt) ** 2, math.sin(gt) ** 2
    u = s2 * ((1 - q) + (1 - p) * c2)
    v = s2 * (q + p * c2)
    return np.array(
        [
            [1 - u, 0, 0, v],
            [0, c2, 0, 0],
            [0, 0, c2, 0],
            [u, 0, 0, 1 - v],
        ],
        dtype=complex,
    )


def composed_rotated_channel(g, p, q):
    """Collision - pi/4 rotation - collision at equal angles g, transcribed
    entry by entry."""
    mu, chi_p = mu_chi(g, g, p, q)
    _, chi_1mp = mu_chi(g, g, 1 - p, q)
    zeta, cg = math.cos(g) ** 2, math.cos(g)
    return np.array(
        [
            [mu, 0.5j * zeta * cg, -0.5j * zeta * cg, mu],
            [1j * chi_1mp, 0.5 * zeta, 0.5 * zeta, -1j * chi_p],
            [-1j * chi_1mp, 0.5 * zeta, 0.5 * zeta, 1j * chi_p],
            [1 - mu, -0.5j * zeta * cg, 0.5j * zeta * cg, 1 - mu],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# single-ancilla final state and SLDs
# ---------------------------------------------------------------------------

def plain_final_v(g1, g2, p, q):
    """|0> population of the rotation-free final ancilla state, distinct
    collision angles."""
    return q * math.sin(g2) ** 2 + p * math.sin(g1) ** 2 * math.cos(g2) ** 2


def mu_chi(g1, g2, p, q):
    """Bloch data of the rotated (theta = pi/4 about x) final state."""
    mu = q * math.sin(g2) ** 2 + math.cos(g2) ** 2 / 2.0
    chi = 0.5 * (1.0 - 2.0 * p * math.sin(g1) ** 2) * math.cos(g2)
    return mu, chi


def rotated_final_state(g1, g2, p, q):
    mu, chi = mu_chi(g1, g2, p, q)
    return np.array([[mu, -1j * chi], [1j * chi, 1 - mu]], dtype=complex)


def chi_mu_dot(g1, g2, T1, T2, omega=1.0):
    """(d chi / d T1, d mu / d T2) of the rotated family; chi depends on T1
    only and mu on T2 only."""
    chi_dot = -math.sin(g1) ** 2 * math.cos(g2) * dlam0_dT(omega, T1)
    mu_dot = math.sin(g2) ** 2 * dlam0_dT(omega, T2)
    return chi_dot, mu_dot


def closed_form_slds(g1, g2, T1, T2, omega=1.0):
    """SLD pair of the rotated single-ancilla family from the eigendata
    closed forms (beta_k = (alpha_k - mu)/chi)."""
    p, _ = gibbs_weights(omega, T1)
    q, _ = gibbs_weights(omega, T2)
    mu, chi = mu_chi(g1, g2, p, q)
    det = mu * (1 - mu) - chi * chi
    root = math.sqrt(1.0 - 4.0 * det)
    alpha = (0.5 * (1 + root), 0.5 * (1 - root))
    beta = tuple((a - mu) / chi for a in alpha)
    kets = [np.array([1.0, 1j * b]) / math.sqrt(1 + b * b) for b in beta]
    proj = [np.outer(k, k.conj()) for k in kets]
    cross = np.outer(kets[0], kets[1].conj()) + np.outer(kets[1], kets[0].conj())
    denom = math.sqrt((1 + beta[0] ** 2) * (1 + beta[1] ** 2))

    chi_dot, mu_dot = chi_mu_dot(g1, g2, T1, T2, omega)

    l1 = chi_dot * (
        sum(2 * beta[k] / (alpha[k] * (1 + beta[k] ** 2)) * proj[k] for k in (0, 1))
        + 2 * (beta[0] + beta[1]) / denom * cross
    )
    l2 = mu_dot * (
        sum((1 - beta[k] ** 2) / (alpha[k] * (1 + beta[k] ** 2)) * proj[k] for k in (0, 1))
        + 2 * (1 - beta[0] * beta[1]) / denom * cross
    )
    return l1, l2
