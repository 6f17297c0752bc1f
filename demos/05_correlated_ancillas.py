"""What the cheap stream mode throws away.

Two ways to score an n-ancilla stream:

* uncorrelated — track each ancilla's marginal state and add the per-ancilla
  Fisher matrices (the n-ancilla state is modeled as a product);
* correlated — simulate probes and ancillas jointly and only trace the
  probes out at the very end, keeping the ancilla-ancilla correlations that
  the probes mediate.

The first is exponentially cheaper and is exact for the first ancilla; from
the second ancilla on it is an approximation, because the probes remember
earlier collisions.  At `fig4`'s full-swap first collision (g1 = pi/2) each
ancilla's marginal is still exact, so everything the cheap mode loses there
is the correlation between ancillas.  The comparison below (preset `fig4`
configs at n = 2) shows the two modes agree closely on the trace-based merit but differ on the
determinant-based one.  eta_acc is a log-ratio, so the demo reports the
log-det gap eta_acc(correlated) - eta_acc(uncorrelated) = ln(det F_cor /
det F_unc) rather than a relative difference, which would only say how close
eta_acc is to zero.  On this grid the gap is positive at every nonsingular
point: the discarded correlations carry usable information here.  That is a
measured sign, not a theorem: the QFIM of a correlated state is not
guaranteed to exceed the sum over its marginals.
"""

import math

from colltherm.presets import PRESETS
from colltherm.protocols import SweepGrid, sweep

curves = PRESETS["fig4"]
values = tuple(round(0.1 * i, 10) for i in range(1, 10))


def rows_for(n, mode):
    (s,) = [x for x in curves
            if x.labels["n_ancillas"] == n and x.labels["mode"] == mode]
    grid = SweepGrid(s.grid.axis_name, values, s.grid.fixed)
    return [row for row, _ in sweep(grid)]


un, co = rows_for(2, "uncorrelated"), rows_for(2, "correlated")

print("n = 2 stream, T = (2, 1), g1 = pi/2, theta = pi/4")
print(f"{'g2/pi':>6}  {'eta_joint unc':>13}  {'eta_joint cor':>13}  "
      f"{'eta_acc unc':>11}  {'eta_acc cor':>11}")
gaps = []
for ru, rc in zip(un, co):
    fu = f"{ru['eta_acc']:11.4f}" if math.isfinite(ru["eta_acc"]) else "       -inf"
    fc = f"{rc['eta_acc']:11.4f}" if math.isfinite(rc["eta_acc"]) else "       -inf"
    print(f"{ru['axis_value']:6.2f}  {ru['eta_joint']:13.4f}  {rc['eta_joint']:13.4f}  {fu}  {fc}")
    if math.isfinite(ru["eta_acc"]) and math.isfinite(rc["eta_acc"]):
        gaps.append(rc["eta_acc"] - ru["eta_acc"])

lo, hi = min(gaps), max(gaps)
print(f"\nlog-det gap eta_acc(cor) - eta_acc(unc) over the {len(gaps)} nonsingular points:")
print(f"  {lo:.4f} .. {hi:.4f}, det F_cor / det F_unc = {math.exp(lo):.3f} .. {math.exp(hi):.3f}")
if lo > 0:
    print("(positive at every nonsingular point of this grid: the probe-mediated ancilla")
    print(" correlations the joint simulation keeps carry extra information here)")
else:
    print("(not positive everywhere on this grid: keeping the correlations does not")
    print(" always add information)")
