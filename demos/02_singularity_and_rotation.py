"""Why the protocol needs a rotation between collisions.

One ancilla visits two probes in sequence.  Without any interleaved
rotation, both collisions write into the same population degree of freedom
of the ancilla, so the two temperature derivatives of its final state are
proportional — the Fisher matrix is rank one and the pair (T1, T2) is not
jointly identifiable no matter how cleverly the ancilla is measured.

A fixed x-rotation between the collisions moves the first imprint into a
coherence before the second one lands.  The derivatives decouple and the
matrix becomes invertible.  The proportionality test below makes the
rank-one case exact rather than a numerical accident.
"""

import math

import numpy as np

from colltherm.channels import BathSpec, RotationSpec
from colltherm.estimation import singularity_test
from colltherm.protocols import ProtocolConfig, single_run

T1, T2 = 2.0, 1.0


def config(theta, enabled=True):
    return ProtocolConfig(
        baths=(BathSpec(T1, therm_time=0.5), BathSpec(T2, therm_time=0.5)),
        collision_angles=(0.5 * math.pi, 0.3 * math.pi),
        rotation=RotationSpec(theta, "x"),
        rotation_enabled=enabled,
    )


def derivatives(cfg, h=1e-5):
    """The final ancilla state and its central-difference (T1, T2) derivatives,
    stacked as (rho, d rho/dT1, d rho/dT2)."""
    def rho(t):
        return single_run(cfg.at_temperatures(t))[0].mat

    t = np.array([T1, T2])
    return np.array([rho(t)] + [(rho(t + e) - rho(t - e)) / (2 * h) for e in h * np.eye(2)])


plain = config(0.0, enabled=False)
_, rep = single_run(plain)
proportional, ratio = singularity_test(derivatives(plain))
print("no rotation:")
print(f"  det F = {rep.qfim.det:.3e}   singular flag: {rep.singular}")
print(f"  derivatives proportional: {proportional} (d rho/dT1 = {ratio:.4f} * d rho/dT2)")

print("\nwith an x-rotation between the collisions:")
print(f"{'theta/pi':>9}  {'det F':>12}  {'proportional':>12}")
for frac in (0.05, 0.125, 0.25, 0.375, 0.45):
    cfg = config(frac * math.pi)
    _, rep = single_run(cfg)
    prop, _ = singularity_test(derivatives(cfg))
    print(f"{frac:9.3f}  {rep.qfim.det:12.3e}  {str(prop):>12}")

print("\nany nontrivial rotation angle restores joint identifiability;")
print("theta = pi/4 is the convention used by the canned studies.")
