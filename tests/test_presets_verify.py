"""Preset definitions and the built-in oracle suite."""

import ast
import csv
import math
from pathlib import Path

import pytest

import oracles as brute_force
from colltherm import oracles, protocols, verify
from colltherm.channels import BathSpec
from colltherm.cli import _fmt_cell, main
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


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_golden_rows_match_the_brute_force_oracle(name):
    """One golden row per series with n <= 4, at g2/pi = 0.3 (away from
    the singular points), against the brute-force register simulation of
    ``tests/oracles`` (the full n-ancilla state for a correlated stream,
    the product of its exact single-ancilla marginals otherwise), not
    against the engine's own past output: eta_joint and eta_acc within 1e-8
    relative (1e-9 absolute for an eta_acc near 0), and singular exactly
    where the oracle's eta_acc is -inf.  fig3's n = 5, 6 series are left
    out: the brute force's 2^(2+n) register would take this test past about
    2 s.  They and fig5 (three probes, qutrit ancillas) wait for an N-probe,
    d-level oracle, and fig5's rows also for an exact three-probe stream,
    from which today's eta_joint differs by up to 4.9 %."""
    rows = _read_rows(GOLDEN / f"{name}.csv")
    checked = 0
    for labels, grid in PRESETS[name]:
        (value,) = [v for v in grid.values if math.isclose(v, 0.3)]
        config = grid.at(value)
        if config.n_ancillas > 4:
            continue
        (row,) = [r for r in rows if r[grid.axis_name] == _fmt_cell(value)
                  and all(r[k] == _fmt_cell(v) for k, v in labels.items())]
        # the oracle's fixed omega = 1 and gamma t = 0.5, and its x rotation
        assert config.baths == (BathSpec(2.0), BathSpec(1.0)) and config.rotation.axis == "x"
        etas = brute_force.joint_stream_etas(
            config.collision_angles, (2.0, 1.0), config.n_ancillas, product=not config.correlated,
            rotation=brute_force.rotation_x(config.rotation.theta))
        for col, want in zip(("eta_joint", "eta_acc"), etas):
            assert math.isclose(float(row[col]), want, rel_tol=1e-8, abs_tol=1e-9), (labels, col)
        assert row["singular"] == _fmt_cell(etas[1] == -math.inf)
        checked += 1
    assert checked == {"fig2": 1, "fig3": 12, "fig4": 4}[name]


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


@pytest.mark.parametrize("name, n_stages", [("fig3", 2), ("fig5", 3)])
def test_preset_series_run_their_shared_stages_once(name, n_stages, stages_built,
                                                    monkeypatch):
    """Along a g_t2 (fig3) or g_t3 (fig5) series only the last stage moves,
    so the sweep runs the stages before it, stage 0 in fig3 and stages 0
    and 1 in fig5, once per series, and every point builds and runs the
    last stage alone (counted by the stages whose maps
    ``protocols._stage_maps`` contracts) in one ``protocols.evaluate`` call."""
    evaluated, evaluate = [], protocols.evaluate

    def counting(config, *args, **kwargs):
        evaluated.append(config)
        return evaluate(config, *args, **kwargs)

    monkeypatch.setattr(protocols, "evaluate", counting)
    for series in PRESETS[name]:
        before = len(stages_built)
        del evaluated[:]
        points = protocols.sweep(series.grid)
        assert all(row["error"] is None for row, _ in points)
        assert stages_built[before:] == [n_stages - 1] + [1] * len(points)
        assert evaluated == [series.grid.at(row["axis_value"]) for row, _ in points]


def test_fig4_correlated_series_build_their_probe_products_once(probe_products_built,
                                                                monkeypatch):
    """Along g_t2 the baths stay put, so each correlated series of fig4
    builds the probes' Gibbs register and rethermalization product once,
    on its fixed config, and makes one ``protocols.evaluate`` call per
    point; an uncorrelated series builds neither."""
    evaluated, evaluate = [], protocols.evaluate

    def counting(config, *args, **kwargs):
        evaluated.append(config)
        return evaluate(config, *args, **kwargs)

    monkeypatch.setattr(protocols, "evaluate", counting)
    for series in PRESETS["fig4"]:
        del probe_products_built[:], evaluated[:]
        points = protocols.sweep(series.grid)
        assert all(row["error"] is None for row, _ in points)
        correlated = series.labels["mode"] == "correlated"
        assert probe_products_built == (["gibbs", "therm"] if correlated else [])
        assert evaluated == [series.grid.at(row["axis_value"]) for row, _ in points]


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


def test_theorem1_group_reports_a_disagreement(monkeypatch):
    """A proportionality test that contradicts the determinant fails the
    group: every trial counts as a disagreement, and the first is named."""
    singularity_test = verify.singularity_test
    monkeypatch.setattr(verify, "singularity_test",
                        lambda stack: (not singularity_test(stack)[0], None))
    (check,) = run_group("theorem1", trials=100)
    assert not check.ok and check.residual == 1.0
    assert check.detail.startswith("trial 0: proportional=")


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
