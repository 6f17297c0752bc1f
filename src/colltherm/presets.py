"""Canned parameter studies.

Each preset bundles the hard-coded bath/angle/rotation values of one
standard study with the grid it sweeps, as a list of series (curves).  The
CLI flattens the series into one CSV; the per-series label columns say which
curve a row belongs to.

Common choices across presets: probe frequency omega = 1 (the energy unit),
temperatures in units of hbar*omega/k_B, first collision at the phased-SWAP
angle g*tau = pi/2, rotation about x by pi/4 unless the series says
otherwise, and partial rethermalization strength gamma*t = 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import BathSpec, RotationSpec
from .protocols import ProtocolConfig, SweepGrid, sweep_values

__all__ = ["Preset", "PresetSeries", "PRESETS", "get_preset"]


@dataclass(frozen=True)
class PresetSeries:
    """One curve: extra label columns, the scenario, and its grid."""

    labels: dict
    scenario: str
    grid: SweepGrid


@dataclass(frozen=True)
class Preset:
    """One study: the swept axis, the label columns that tell its curves
    apart, and the curves."""

    axis_name: str
    label_columns: tuple[str, ...]
    series: tuple[PresetSeries, ...]


def _two_bath_base(**overrides) -> ProtocolConfig:
    base = dict(
        baths=(
            BathSpec(temperature=2.0, omega=1.0, therm_time=0.5),
            BathSpec(temperature=1.0, omega=1.0, therm_time=0.5),
        ),
        collision_angles=(0.5 * math.pi, 0.0),
        ancilla_dim=2,
        n_ancillas=1,
        rotation=RotationSpec(math.pi / 4, "x"),
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def _three_bath_base(**overrides) -> ProtocolConfig:
    base = dict(
        baths=(
            BathSpec(temperature=2.0, omega=1.0, therm_time=0.5),
            BathSpec(temperature=1.0, omega=1.0, therm_time=0.5),
            BathSpec(temperature=3.0, omega=1.0, therm_time=0.5),
        ),
        collision_angles=(0.5 * math.pi, 0.2 * math.pi, 0.0),
        ancilla_dim=3,
        n_ancillas=1,
        rotation=RotationSpec(math.pi / 4, "x"),
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def _fig2() -> Preset:
    """Single ancilla with the pi/4 rotation: accuracy figure of merit as
    the second collision angle varies, first collision held at phased-SWAP."""
    grid = SweepGrid("g_t2_over_pi", sweep_values(0.0, 1.0, 0.01), _two_bath_base())
    return Preset(
        axis_name="g_t2_over_pi",
        label_columns=(),
        series=(PresetSeries({}, "single", grid),),
    )


def _fig3() -> Preset:
    """Uncorrelated streams: curves over the second collision angle for
    n = 1..6 ancillas at each of three rotation angles."""
    values = sweep_values(0.0, 1.0, 0.02)
    series = []
    for theta_over_pi in (1.0 / 6.0, 0.25, 1.0 / 3.0):
        for n in range(1, 7):
            cfg = _two_bath_base(
                n_ancillas=n, rotation=RotationSpec(theta_over_pi * math.pi, "x")
            )
            scenario = "single" if n == 1 else "uncorrelated"
            series.append(
                PresetSeries(
                    {"n_ancillas": n, "theta_over_pi": theta_over_pi},
                    scenario,
                    SweepGrid("g_t2_over_pi", values, cfg),
                )
            )
    return Preset(
        axis_name="g_t2_over_pi",
        label_columns=("n_ancillas", "theta_over_pi"),
        series=tuple(series),
    )


def _fig4() -> Preset:
    """Correlated versus uncorrelated streams at n = 2 and n = 4."""
    values = sweep_values(0.0, 1.0, 0.02)
    series = []
    for n in (2, 4):
        for mode in ("uncorrelated", "correlated"):
            cfg = _two_bath_base(n_ancillas=n, correlated=(mode == "correlated"))
            series.append(
                PresetSeries(
                    {"mode": mode, "n_ancillas": n},
                    mode,
                    SweepGrid("g_t2_over_pi", values, cfg),
                )
            )
    return Preset(
        axis_name="g_t2_over_pi",
        label_columns=("mode", "n_ancillas"),
        series=tuple(series),
    )


def _fig5() -> Preset:
    """Three baths probed by qutrit ancillas: sweep of the third collision
    angle for n = 1, 3, 5."""
    values = sweep_values(0.0, 1.0, 0.02)
    series = []
    for n in (1, 3, 5):
        cfg = _three_bath_base(n_ancillas=n)
        series.append(
            PresetSeries(
                {"n_ancillas": n},
                "qutrit",
                SweepGrid("g_t3_over_pi", values, cfg),
            )
        )
    return Preset(
        axis_name="g_t3_over_pi",
        label_columns=("n_ancillas",),
        series=tuple(series),
    )


PRESETS = {"fig2": _fig2(), "fig3": _fig3(), "fig4": _fig4(), "fig5": _fig5()}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
