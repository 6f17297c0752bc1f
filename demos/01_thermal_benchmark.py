"""Equilibrium thermometry ceiling.

A probe left to equilibrate with its bath carries a known maximum of
temperature information: the Fisher information of its Gibbs populations.
Every protocol in this package is scored against that number, so this demo
starts by printing it.

Two things to notice in the table below: the benchmark peaks when the
temperature is a fraction of the level splitting (a very cold or very hot
qubit barely changes its populations with T), and the merit figures of the
benchmark against itself are exactly eta_joint = 1, eta_acc = 0 — the
reference point for every other demo.
"""

import numpy as np

from colltherm.channels import BathSpec
from colltherm.estimation import Qfim, build_report, thermal_fim

temps = np.concatenate([np.arange(0.2, 1.0, 0.2), np.arange(1.0, 5.5, 0.5)])

print("equilibrium Fisher information per probe (omega = 1)")
print(f"{'T':>6}  {'F_th(T)':>12}")
for t in temps:
    f = thermal_fim([BathSpec(t)])[0]
    print(f"{t:6.1f}  {f:12.6f}")

best = max(temps, key=lambda t: thermal_fim([BathSpec(t)])[0])
print(f"\nmost sensitive sampled temperature: T = {best:.1f}")

bench = thermal_fim([BathSpec(2.0), BathSpec(1.0)])
rep = build_report(Qfim(np.diag(bench)), bench)
print(f"benchmark scored against itself: eta_joint = {rep.eta_joint:.3f}, eta_acc = {rep.eta_acc:.3f}")
