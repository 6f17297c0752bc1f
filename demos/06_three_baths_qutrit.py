"""Three temperatures need a bigger carrier.

With three baths the ancilla must hold three independent imprints.  A qubit
has only three real degrees of freedom in its state and the collisions do
not use them efficiently — its three-temperature Fisher matrix is nearly
degenerate and the accuracy merit collapses.  A qutrit ancilla, whose
collisions exchange a conserved excitation with each probe in turn, has
room for all three readings.

This demo sweeps the third collision angle (preset `fig5` configs) for a
qutrit stream at n = 1, 3, 5, then re-runs the best point with a qubit
ancilla as a diagnostic.
"""

import math
from dataclasses import replace

from colltherm.presets import get_preset
from colltherm.protocols import SweepGrid, evaluate, sweep

preset = get_preset("fig5")
values = tuple(round(0.04 * i, 10) for i in range(1, 25))  # interior of (0, 1)

print("three baths T = (2, 1, 3), qutrit stream, g1 = pi/2, g2 = pi/5")
best = {}
for s in preset.series:
    grid = SweepGrid(s.grid.axis_name, values, s.grid.fixed)
    rows = [row for row, _ in sweep(grid)]
    n = s.labels["n_ancillas"]
    finite = [r for r in rows if math.isfinite(r["eta_acc"])]
    best[n] = max(finite, key=lambda r: r["eta_acc"])
    print(f"  n = {n}: best eta_acc = {best[n]['eta_acc']:8.4f} "
          f"at g3/pi = {best[n]['axis_value']:.2f} "
          f"(eta_joint there: {best[n]['eta_joint']:.4f})")

n_star = max(best)
opt = best[n_star]
base = next(s for s in preset.series if s.labels["n_ancillas"] == n_star).grid.fixed
angles = list(base.collision_angles)
angles[2] = opt["axis_value"] * math.pi
qutrit_cfg = replace(base, collision_angles=tuple(angles))
qubit_rep = evaluate(replace(qutrit_cfg, ancilla_dim=2), "qutrit")

print(f"\nat the n = {n_star} optimum, swapping the qutrit for a qubit gives")
print(f"  eta_acc = {qubit_rep.eta_acc:8.4f}  (qutrit: {opt['eta_acc']:8.4f})")
print("the two-level carrier pays an enormous determinant penalty: three")
print("temperatures do not fit into one qubit.")
