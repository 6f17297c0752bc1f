"""Built-in oracle suite behind ``colltherm verify``.

Every check here takes its expected value from outside the code under test:
hand-rolled matrix entries, closed-form states and SLDs and Gibbs weights
from :mod:`colltherm.oracles` (which imports nothing from the library), so a
bug in the library cannot hide by agreeing with itself.  The collision
channels checked are :func:`colltherm.channels.collision_superoperator`,
the ancilla map of the collision maps the evaluators' stream tabulates
(:func:`colltherm.channels.collision_maps`).  Groups:

* ``appendix``   — entrywise reproduction of the hand-derived collision
                   channel, rotation superoperator and composed
                   two-collision channels.
* ``kraus``      — the collision channel over random parameters and both
                   ancilla dimensions: the dual-map identity
                   ``sum_a S[aa, jk] = delta_jk``, complete positivity, and
                   trace preservation on a random state.
* ``fixedpoint`` — the rethermalization channel fixes the Gibbs state,
                   is the identity at t = 0, and contracts toward Gibbs.
* ``closedform`` — single-ancilla final state and SLDs against the
                   closed-form expressions.
* ``theorem1``   — randomized equivalence of the derivative-proportionality
                   singularity criterion with the determinant criterion,
                   read as the singular flag of
                   :func:`colltherm.estimation.build_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    BathSpec,
    RotationSpec,
    collision_superoperator,
    rotation_superoperator,
    thermalization_channel,
)
from .estimation import Qfim, build_report, qfim_stack, singularity_test
from .linalg import choi_matrix
from .operators import SX, SY, SZ
from .oracles import (
    closed_form_slds,
    composed_plain_channel,
    composed_rotated_channel,
    gibbs_weights,
    plain_final_v,
    printed_collision_channel,
    printed_rotation_superop_pi4,
    rotated_final_state,
)
from .protocols import ProtocolConfig

__all__ = ["CheckResult", "GROUPS", "run_group", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    residual: float
    detail: str = ""


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def _check(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(residual <= tol), float(residual), detail)


def _group_appendix(rng: np.random.Generator, trials: int) -> list[CheckResult]:
    out = []

    res = 0.0
    for _ in range(max(trials, 20)):
        gt = rng.uniform(0.0, math.pi)
        T = rng.uniform(0.5, 4.0)
        lam0, _ = gibbs_weights(1.0, T)
        got = collision_superoperator(gt, BathSpec(T))
        res = max(res, float(np.max(np.abs(got - printed_collision_channel(gt, lam0)))))
    out.append(_check("collision-channel-entrywise", res, 1e-12))

    rot = rotation_superoperator(RotationSpec(math.pi / 4, "x"), 2)
    res = float(np.max(np.abs(rot - printed_rotation_superop_pi4())))
    out.append(_check("rotation-superoperator-pi4", res, 1e-12))

    # the identity between the plain collisions changes no bit of e2 @ e1
    for name, between, printed in (
        ("plain", np.eye(4), composed_plain_channel), ("rotated", rot, composed_rotated_channel)
    ):
        res = 0.0
        for _ in range(max(trials, 20)):
            g = rng.uniform(0.0, math.pi)
            T1, T2 = rng.uniform(0.5, 4.0, size=2)
            p, _ = gibbs_weights(1.0, T1)
            q, _ = gibbs_weights(1.0, T2)
            e1 = collision_superoperator(g, BathSpec(T1))
            e2 = collision_superoperator(g, BathSpec(T2))
            res = max(res, float(np.max(np.abs(e2 @ between @ e1 - printed(g, p, q)))))
        out.append(_check(f"two-collision-composition-{name}", res, 1e-12))
    return out


def _group_kraus(rng: np.random.Generator, trials: int) -> list[CheckResult]:
    out = []
    res_comp, res_choi, res_tp = 0.0, 0.0, 0.0
    for _ in range(max(trials, 20)):
        gt = rng.uniform(0.0, math.pi)
        T = rng.uniform(0.5, 4.0)
        dim = int(rng.integers(2, 4))
        sop = collision_superoperator(gt, BathSpec(T), dim)
        # trace of the output as a function of the input: the dual map's unit
        dual_unit = np.einsum("aajk->jk", sop.reshape(dim, dim, dim, dim))
        res_comp = max(res_comp, float(np.max(np.abs(dual_unit - np.eye(dim)))))
        lo = float(np.linalg.eigvalsh(choi_matrix(sop, dim))[0])
        res_choi = max(res_choi, max(0.0, -lo))
        # trace preservation on a random state
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = x @ x.conj().T
        rho /= rho.trace()
        res_tp = max(res_tp, abs((sop @ rho.reshape(-1)).reshape(dim, dim).trace() - 1.0))
    out.append(_check("kraus-completeness", res_comp, 1e-10))
    out.append(_check("choi-positive", res_choi, 1e-10))
    out.append(_check("trace-preservation", res_tp, 1e-10))
    return out


def _group_fixedpoint(rng: np.random.Generator, trials: int) -> list[CheckResult]:
    out = []
    res_fix, res_id, res_conv = 0.0, 0.0, 0.0
    for _ in range(max(trials, 20)):
        T = rng.uniform(0.5, 4.0)
        gamma_t = rng.uniform(0.05, 2.0)
        bath = BathSpec(T, therm_time=gamma_t)
        lam0, lam1 = gibbs_weights(1.0, T)
        gibbs = np.diag([lam0, lam1]).astype(complex)
        ch = thermalization_channel(bath)
        res_fix = max(res_fix, float(np.max(np.abs(ch @ gibbs.reshape(-1) - gibbs.reshape(-1)))))

        res_id = max(
            res_id,
            float(np.max(np.abs(thermalization_channel(BathSpec(T, therm_time=0.0)) - np.eye(4)))),
        )

        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = x @ x.conj().T
        rho /= rho.trace()
        long = thermalization_channel(BathSpec(T, therm_time=50.0))
        res_conv = max(
            res_conv, float(np.max(np.abs((long @ rho.reshape(-1)).reshape(2, 2) - gibbs)))
        )
    out.append(_check("gibbs-fixed-point", res_fix, 1e-10))
    out.append(_check("identity-at-zero-time", res_id, 1e-12))
    out.append(_check("long-time-convergence", res_conv, 1e-8))
    return out


def _two_bath_config(g1, g2, T1, T2, theta=math.pi / 4) -> ProtocolConfig:
    return ProtocolConfig(
        baths=(BathSpec(T1), BathSpec(T2)),
        collision_angles=(g1, g2),
        rotation=RotationSpec(theta, "x"),
    )


def _group_closedform(rng: np.random.Generator, trials: int) -> list[CheckResult]:
    from .protocols import single_run  # local import to avoid cycle at module load

    out = []
    res_plain, res_rot, res_sld = 0.0, 0.0, 0.0
    for _ in range(max(trials, 20)):
        g1 = rng.uniform(0.1 * math.pi, 0.9 * math.pi)
        g2 = rng.uniform(0.1 * math.pi, 0.9 * math.pi)
        while abs(g2 - math.pi / 2) < 0.05 * math.pi:
            g2 = rng.uniform(0.1 * math.pi, 0.9 * math.pi)
        T1 = rng.uniform(0.5, 4.0)
        T2 = rng.uniform(0.5, 4.0)
        while abs(T1 - T2) < 0.2:
            T2 = rng.uniform(0.5, 4.0)
        p, _ = gibbs_weights(1.0, T1)
        q, _ = gibbs_weights(1.0, T2)

        state, _rep = single_run(_two_bath_config(g1, g2, T1, T2, theta=0.0))
        v = plain_final_v(g1, g2, p, q)
        res_plain = max(res_plain, float(np.max(np.abs(state - np.diag([v, 1 - v])))))

        state, rep = single_run(_two_bath_config(g1, g2, T1, T2))
        res_rot = max(
            res_rot, float(np.max(np.abs(state - rotated_final_state(g1, g2, p, q))))
        )
        l1, l2 = closed_form_slds(g1, g2, T1, T2)
        res_sld = max(res_sld, float(np.max(np.abs(rep.qfim.slds[0] - l1))))
        res_sld = max(res_sld, float(np.max(np.abs(rep.qfim.slds[1] - l2))))
    out.append(_check("final-state-no-rotation", res_plain, 1e-10))
    out.append(_check("final-state-rotated", res_rot, 1e-10))
    out.append(_check("sld-closed-forms", res_sld, 1e-8))
    return out


def _random_family(rng: np.random.Generator):
    """Random full-rank qubit state with two random traceless derivatives,
    stacked as (rho, d1 rho, d2 rho); proportional (including one vanishing)
    derivatives half the time."""
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    qmat, _ = np.linalg.qr(x)
    w = rng.uniform(0.05, 0.45)
    rho = qmat @ np.diag([w, 1 - w]).astype(complex) @ qmat.conj().T

    def rand_deriv():
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        return a[0] * SX + a[1] * SY + a[2] * SZ

    d1 = rand_deriv()
    mode = rng.uniform()
    if mode < 0.45:
        d2 = float(rng.normal()) * d1
        expect = True
    elif mode < 0.5:
        d2 = np.zeros((2, 2), dtype=complex)
        expect = True
    else:
        d2 = rand_deriv()
        expect = False
    return np.array((rho, d1, d2)), expect


def _group_theorem1(rng: np.random.Generator, trials: int) -> list[CheckResult]:
    n = max(trials, 100)
    disagrees = 0
    worst = ""
    for i in range(n):
        stack, expect = _random_family(rng)
        prop, _c = singularity_test(stack)
        rep = build_report(Qfim(qfim_stack(stack[None]).matrices[0]), np.ones(2))
        if prop != rep.singular or prop != expect:
            disagrees += 1
            if not worst:
                worst = (
                    f"trial {i}: proportional={prop}, det={rep.qfim.det:.3e}, "
                    f"constructed={expect}"
                )
    detail = worst or f"{n} families, full agreement"
    return [_check("proportionality-equals-determinant", disagrees / n, 0.0, detail)]


GROUPS = {
    "appendix": _group_appendix,
    "kraus": _group_kraus,
    "fixedpoint": _group_fixedpoint,
    "closedform": _group_closedform,
    "theorem1": _group_theorem1,
}


def run_group(name: str, seed: int = 1234, trials: int = 200) -> list[CheckResult]:
    try:
        fn = GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown verify group {name!r}; choose from {sorted(GROUPS)}") from None
    return fn(np.random.default_rng(seed), trials)


def run_all(seed: int = 1234, trials: int = 200) -> dict[str, list[CheckResult]]:
    return {name: run_group(name, seed, trials) for name in GROUPS}
