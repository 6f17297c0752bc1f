"""Preset definitions and the built-in oracle suite."""

import ast
import csv
import math
from pathlib import Path

import pytest

from colltherm import channels, oracles, protocols
from colltherm.cli import main
from colltherm.presets import PRESETS, PresetSeries
from colltherm.verify import GROUPS, run_all, run_group


def test_preset_names():
    assert set(PRESETS) == {"fig2", "fig3", "fig4", "fig5"}
    for series in PRESETS.values():
        assert series and all(isinstance(s, PresetSeries) for s in series)
        labels, grid = series[0]  # a curve unpacks as (labels, grid)
        assert (labels, grid) == (series[0].labels, series[0].grid)


GOLDEN = Path(__file__).parent / "golden"
FLOAT_COLUMNS = ("eta_joint", "eta_acc", "det_qfim", "trace_qfim")


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_table_matches_golden(name, tmp_path):
    """Each preset's table against the committed one in tests/golden
    (written by ``colltherm run --scenario <name>``), cell by cell: the
    same rows, axis values, labels, singular flags and errors, and floats
    within 1e-10 relative.  The determinant of a singular QFIM is rounding
    noise, so in rows singular on both sides it need only agree within
    1e-12 (trace / N)^N, the natural size of an N x N determinant."""
    out = tmp_path / f"{name}.csv"
    assert main(["run", "--scenario", name, "--out", str(out)]) == 0
    got, want = _read_rows(out), _read_rows(GOLDEN / f"{name}.csv")
    assert len(got) == len(want)
    n = PRESETS[name][0].grid.fixed.n_baths
    for i, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w)
        for col, expected in w.items():
            cell = f"row {i} {col}: {g[col]} vs {expected}"
            if col not in FLOAT_COLUMNS:
                assert g[col] == expected, cell
            elif col == "det_qfim" and g["singular"] == w["singular"] == "true":
                scale = (float(w["trace_qfim"]) / n) ** n
                assert abs(float(g[col]) - float(expected)) <= 1e-12 * scale, cell
            else:
                assert math.isclose(float(g[col]), float(expected), rel_tol=1e-10), cell


def test_fig2_definition():
    (s,) = PRESETS["fig2"]
    assert s.grid.axis_name == "g_t2_over_pi"
    assert s.labels == {}
    assert s.grid.fixed.n_ancillas == 1 and not s.grid.fixed.correlated
    assert len(s.grid.values) == 101
    assert s.grid.values[0] == 0.0 and s.grid.values[-1] == 1.0
    cfg = s.grid.fixed
    assert cfg.temperatures == (2.0, 1.0)
    assert cfg.collision_angles[0] == pytest.approx(0.5 * math.pi)
    assert cfg.rotation.theta == pytest.approx(math.pi / 4)
    assert cfg.rotation.axis == "x"
    assert all(b.therm_time == 0.5 for b in cfg.baths)


def test_fig3_definition():
    p = PRESETS["fig3"]
    assert len(p) == 18  # three rotation angles x n = 1..6
    thetas = {s.labels["theta_over_pi"] for s in p}
    assert thetas == {1.0 / 6.0, 0.25, 1.0 / 3.0}
    for s in p:
        assert tuple(s.labels) == ("n_ancillas", "theta_over_pi")
        assert s.grid.axis_name == "g_t2_over_pi"
        n = s.labels["n_ancillas"]
        assert not s.grid.fixed.correlated
        assert s.grid.fixed.n_ancillas == n
        assert s.grid.fixed.rotation.theta == pytest.approx(
            s.labels["theta_over_pi"] * math.pi
        )
        assert len(s.grid.values) == 51


def test_fig4_definition():
    p = PRESETS["fig4"]
    got = {(s.labels["mode"], s.labels["n_ancillas"]) for s in p}
    assert got == {("uncorrelated", 2), ("correlated", 2), ("uncorrelated", 4), ("correlated", 4)}
    for s in p:
        assert tuple(s.labels) == ("mode", "n_ancillas")
        assert s.grid.axis_name == "g_t2_over_pi"
        assert s.grid.fixed.correlated == (s.labels["mode"] == "correlated")


def test_fig5_definition():
    p = PRESETS["fig5"]
    assert {s.labels["n_ancillas"] for s in p} == {1, 3, 5}
    for s in p:
        assert tuple(s.labels) == ("n_ancillas",)
        assert s.grid.axis_name == "g_t3_over_pi"
        cfg = s.grid.fixed
        assert not cfg.correlated
        assert cfg.ancilla_dim == 3
        assert cfg.temperatures == (2.0, 1.0, 3.0)
        assert cfg.collision_angles[0] == pytest.approx(0.5 * math.pi)
        assert cfg.collision_angles[1] == pytest.approx(0.2 * math.pi)


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def test_run_all_groups_pass():
    results = run_all(seed=1234, trials=20)
    assert set(results) == set(GROUPS)
    for group, checks in results.items():
        for check in checks:
            assert check.ok, f"{group}/{check.name}: residual {check.residual:.3e} {check.detail}"


def test_verify_and_evaluators_run_the_engine_collision(monkeypatch):
    """The collision channels verify checks come out of the same collision
    maps the stream evaluators run: verify's ``appendix`` group and each of
    ``single``, ``uncorrelated`` and ``qutrit`` build the ancilla map of
    ``channels.collision_maps`` once, through ``channels._ancilla_map``
    (a lone ancilla needs no probe map, so ``single`` builds that alone)."""
    calls, ancilla_map = [], channels._ancilla_map

    def counting(u):
        calls.append(u)
        return ancilla_map(u)

    monkeypatch.setattr(channels, "_ancilla_map", counting)
    monkeypatch.setattr(protocols, "_ancilla_map", counting)
    assert all(check.ok for check in run_group("appendix", trials=20))
    in_verify, counts = len(calls), {}
    baths = tuple(channels.BathSpec(t) for t in (2.0, 1.0, 0.5))
    for scenario, n_baths, dim, n in (
        ("single", 2, 2, 1), ("uncorrelated", 2, 2, 3), ("qutrit", 3, 3, 3)
    ):
        cfg = protocols.ProtocolConfig(
            baths=baths[:n_baths],
            collision_angles=(0.5 * math.pi, 0.3 * math.pi, 0.4 * math.pi)[:n_baths],
            ancilla_dim=dim,
            n_ancillas=n,
        )
        before = len(calls)
        protocols.evaluate(cfg, scenario)
        counts[scenario] = len(calls) - before
    assert in_verify > 0
    assert counts == {"single": 1, "uncorrelated": 1, "qutrit": 1}


@pytest.mark.parametrize("name, n_stages", [("fig3", 2), ("fig5", 3)])
def test_preset_series_run_their_shared_stages_once(name, n_stages, stages_built):
    """Along a g_t2 (fig3) or g_t3 (fig5) series only the last stage moves,
    so the sweep runs the stages before it, stage 0 in fig3 and stages 0
    and 1 in fig5, once per series, and every point builds and runs the
    last stage alone (counted, as above, through ``channels._ancilla_map``)."""
    for series in PRESETS[name]:
        before = len(stages_built)
        points = protocols.sweep(series.grid)
        assert all(row["error"] is None for row, _ in points)
        assert stages_built[before:] == [n_stages - 1] + [1] * len(points)


def test_run_group_is_deterministic():
    a = run_group("closedform", seed=99, trials=20)
    b = run_group("closedform", seed=99, trials=20)
    assert [(c.name, c.residual) for c in a] == [(c.name, c.residual) for c in b]


def test_run_group_unknown_name():
    with pytest.raises(ValueError, match="group"):
        run_group("bogus")


def test_theorem1_group_large_sample():
    (check,) = run_group("theorem1", seed=7, trials=300)
    assert check.ok
    assert check.residual == 0.0  # disagreement fraction


def test_oracles_import_nothing_from_the_library():
    """The closed forms both ``verify`` and the tests compare against stay
    independent of the code they check: no relative or ``colltherm`` import."""
    with open(oracles.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            imported.append(node.module)
    assert imported, "no imports found; is this the oracle module?"
    assert not [m for m in imported if m.split(".")[0] == "colltherm"], imported
