"""Sharing one ancilla between two thermometers.

With a single ancilla the second collision angle g2 sets the trade-off: a
small angle leaves the second temperature unread, while a full phased SWAP
(g2 = pi/2) overwrites the ancilla with the second probe's state and erases
the first imprint entirely — the accuracy merit diverges to -inf there
because the Fisher matrix degenerates.

The sweep below (the `fig2` preset grid, coarsened) shows both merit
figures.  The best joint accuracy sits well away from the swap point, and a
lone ancilla never reaches the equilibrium ceiling (eta_joint < 1,
eta_acc < 0): one qubit cannot carry two full thermometer readings.
"""

import math

from colltherm.presets import get_preset
from colltherm.protocols import SweepGrid, sweep

series = get_preset("fig2").series[0]
coarse = SweepGrid(series.grid.axis_name, tuple(round(0.05 * i, 10) for i in range(21)),
                   series.grid.fixed)
rows = [row for row, _ in sweep(coarse)]

print("single ancilla, T = (2, 1), g1 = pi/2, theta = pi/4")
print(f"{'g2/pi':>6}  {'eta_joint':>10}  {'eta_acc':>9}  {'singular':>8}")
for r in rows:
    acc = f"{r['eta_acc']:9.4f}" if math.isfinite(r["eta_acc"]) else "     -inf"
    print(f"{r['axis_value']:6.2f}  {r['eta_joint']:10.4f}  {acc}  {str(r['singular']):>8}")

finite = [r for r in rows if math.isfinite(r["eta_acc"])]
best = max(finite, key=lambda r: r["eta_acc"])
print(f"\nbest accuracy merit: eta_acc = {best['eta_acc']:.4f} at g2/pi = {best['axis_value']:.2f}")
print("the swap point g2/pi = 0.50 is the one angle the estimator must avoid")
