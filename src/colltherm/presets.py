"""Canned parameter studies.

``PRESETS[name]`` is the tuple of one standard study's curves, each a
:class:`PresetSeries` of its label columns and the grid it sweeps.  The
CLI flattens the curves into one CSV: the swept axis is the first grid's
``axis_name``, and the label columns, in the order of the first curve's
``labels``, say which curve a row belongs to.

Every preset takes the library's defaults (:class:`BathSpec`,
:class:`ProtocolConfig`): probe frequency omega = 1 (the energy unit),
gamma*t = 0.5, one ancilla, and the rotation about x by pi/4 unless the
curve says otherwise.  Temperatures are in units of hbar*omega/k_B, and the
first collision is at the phased-SWAP angle g*tau = pi/2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .channels import BathSpec, RotationSpec
from .protocols import ProtocolConfig, SweepGrid, sweep_values

__all__ = ["PresetSeries", "PRESETS"]


class PresetSeries(NamedTuple):
    """One curve: extra label columns and its grid."""

    labels: dict
    grid: SweepGrid


def _base(temperatures, collision_angles, ancilla_dim, **overrides) -> ProtocolConfig:
    return ProtocolConfig(baths=tuple(BathSpec(t) for t in temperatures),
                          collision_angles=collision_angles, ancilla_dim=ancilla_dim,
                          **overrides)


def _two_bath_base(**overrides) -> ProtocolConfig:
    return _base((2.0, 1.0), (0.5 * math.pi, 0.0), 2, **overrides)


def _three_bath_base(**overrides) -> ProtocolConfig:
    return _base((2.0, 1.0, 3.0), (0.5 * math.pi, 0.2 * math.pi, 0.0), 3, **overrides)


_VALUES = sweep_values(0.0, 1.0, 0.02)

PRESETS = {
    # single ancilla with the pi/4 rotation: accuracy figure of merit as the
    # second collision angle varies, first collision held at phased-SWAP
    "fig2": (
        PresetSeries({}, SweepGrid("g_t2_over_pi", sweep_values(0.0, 1.0, 0.01),
                                   _two_bath_base())),
    ),
    # uncorrelated streams: curves over the second collision angle for
    # n = 1..6 ancillas at each of three rotation angles
    "fig3": tuple(
        PresetSeries(
            {"n_ancillas": n, "theta_over_pi": theta_over_pi},
            SweepGrid("g_t2_over_pi", _VALUES, _two_bath_base(
                n_ancillas=n, rotation=RotationSpec(theta_over_pi * math.pi))),
        )
        for theta_over_pi in (1.0 / 6.0, 0.25, 1.0 / 3.0)
        for n in range(1, 7)
    ),
    # correlated versus uncorrelated streams at n = 2 and n = 4
    "fig4": tuple(
        PresetSeries(
            {"mode": mode, "n_ancillas": n},
            SweepGrid("g_t2_over_pi", _VALUES, _two_bath_base(
                n_ancillas=n, correlated=(mode == "correlated"))),
        )
        for n in (2, 4)
        for mode in ("uncorrelated", "correlated")
    ),
    # three baths probed by qutrit ancillas: sweep of the third collision
    # angle for n = 1, 3, 5
    "fig5": tuple(
        PresetSeries({"n_ancillas": n},
                     SweepGrid("g_t3_over_pi", _VALUES, _three_bath_base(n_ancillas=n)))
        for n in (1, 3, 5)
    ),
}
