"""Command-line contract: exit codes, file formats, determinism.

All invocations go through ``main(argv)`` so failures carry tracebacks;
the console entry point wires straight to the same function.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from colltherm import cli, protocols, verify
from colltherm.channels import BathSpec, RotationSpec
from colltherm.cli import MERIT_COLUMNS, _fmt_cell, _report_payload, load_config, main
from colltherm.protocols import evaluate, point, sweep

GOOD_CONFIG = """\
baths:
  - {temperature: 2.0, gamma_t: 0.5}
  - {temperature: 1.0, gamma_t: 0.5}
collision_angles_over_pi: [0.5, 0.3]
rotation: {theta_over_pi: 0.25, axis: x}
"""

SWEEP_BLOCK = """\
sweep:
  axis: g_t2_over_pi
  start: 0.1
  stop: 0.9
  step: 0.1
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_fmt_cell():
    assert _fmt_cell(None) == ""
    assert _fmt_cell(True) == "true"
    assert _fmt_cell(False) == "false"
    assert _fmt_cell(0.1) == "0.1"
    assert _fmt_cell(1.0 / 3.0) == "0.333333333333"  # 12 significant digits
    assert _fmt_cell(float("-inf")) == "-inf"
    assert _fmt_cell("txt") == "txt"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_single_point_config(tmp_path):
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    out = tmp_path / "point.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0

    rows = read_rows(out)
    assert len(rows) == 1
    assert tuple(rows[0]) == MERIT_COLUMNS
    assert float(rows[0]["eta_joint"]) > 0
    assert rows[0]["singular"] == "false"
    assert rows[0]["error"] == ""

    summary = json.loads((tmp_path / "point.json").read_text())
    assert summary["n_rows"] == 1 and summary["n_errors"] == 0
    assert summary["columns"] == list(MERIT_COLUMNS)
    man = summary["manifest"]
    assert man["config_path"] == os.path.abspath(cfg)
    assert man["scenario"] is None  # the config names none
    assert man["output_path"] == str(out)
    assert "seed" not in man  # only verify is seeded
    report = summary["optimum"]["report"]
    # the report's schema, pinned: a key added or dropped is a deliberate change
    assert set(report) == {"qfim", "thermal_fim_diag", "eta_joint", "eta_acc",
                           "det_qfim", "trace_qfim", "singular"}
    assert len(report["qfim"]) == 2 and len(report["qfim"][0]) == 2
    assert report["eta_joint"] == pytest.approx(float(rows[0]["eta_joint"]), rel=1e-12)
    assert len(report["thermal_fim_diag"]) == 2


def test_run_config_sweep_and_byte_determinism(tmp_path):
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + SWEEP_BLOCK)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2  # identical input -> byte-identical table
    assert b1.endswith(b"\n") and b"\r" not in b1

    rows = read_rows(out1)
    assert len(rows) == 9
    assert [r["g_t2_over_pi"] for r in rows][:3] == ["0.1", "0.2", "0.3"]


def test_run_preset_fig2(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["run", "--scenario", "fig2", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 101
    assert tuple(rows[0]) == ("g_t2_over_pi", *MERIT_COLUMNS)
    # the swap point carries no two-parameter information: eta_acc empty (-inf)
    swap = next(r for r in rows if r["g_t2_over_pi"] == "0.5")
    assert swap["singular"] == "true"
    assert swap["eta_acc"] == "-inf"
    summary = json.loads((tmp_path / "fig2.json").read_text())
    assert summary["manifest"]["scenario"] == "fig2"
    assert summary["optimum"]["row"]["eta_acc"] is not None


def test_run_needs_exactly_one_source(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    assert main(["run", "--out", str(tmp_path / "x.csv")]) == 2
    assert (
        main(
            ["run", "--scenario", "fig2", "--config", cfg, "--out", str(tmp_path / "x.csv")]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "config error" in err


def test_run_rejects_unknown_preset(tmp_path):
    with pytest.raises(SystemExit):  # argparse choices
        main(["run", "--scenario", "fig9", "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_belongs_to_verify_alone(tmp_path, command):
    """Only ``verify`` draws random numbers, so only ``verify`` takes --seed."""
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + SWEEP_BLOCK)
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", "1", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_error_names_field(tmp_path, capsys):
    bad = GOOD_CONFIG.replace("temperature: 2.0", "temperature: -1.0")
    cfg = write(tmp_path / "bad.yaml", bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error: baths[0].temperature: must be > 0, got -1.0" in err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_axis_naming_missing_stage_is_config_error(tmp_path, capsys):
    """A two-bath config cannot sweep a third collision angle: the run stops
    with exit 2 naming ``sweep`` instead of writing a table of failed rows."""
    text = GOOD_CONFIG + "sweep: {axis: g_t3_over_pi, values: [0.1, 0.2]}\n"
    cfg = write(tmp_path / "bad.yaml", text)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error: sweep: axis refers to bath stage 3, config has 2" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "mangle, needle",
    [
        (lambda s: s.replace("collision_angles_over_pi", "collision_angles"), "unknown field"),
        (lambda s: s.replace("axis: x", "axis: q"), "rotation"),
        (lambda s: s + "scenario: bogus\n", "scenario"),
        (lambda s: s + "scenario: [single]\n", "scenario: unknown scenario ['single']"),
        (lambda s: s + "n_ancillas: 2.5\n", "integer"),
        (lambda s: s + "correlated: 7\n", "config error: correlated: must be a bool, got 7"),
        (lambda s: s + "ancilla_dim: '3'\n", "config error: ancilla_dim: must be an integer, got '3'"),
        # a base config its scenario cannot evaluate
        (lambda s: s + "scenario: single\nn_ancillas: 3\n",
         "config error: scenario: single_run requires n_ancillas = 1, got 3"),
        (lambda s: s + "scenario: qutrit\n",
         "config error: scenario: qutrit requires 3 baths, got 2"),
        (lambda s: s + "scenario: uncorrelated\ncorrelated: true\n",
         "config error: scenario: config.correlated is set; use scenario 'correlated'"),
        (lambda s: s + "scenario: correlated\nn_ancillas: 2\n",
         "config error: scenario: config.correlated is not set; use scenario 'uncorrelated'"),
        # and every config its sweep places
        (lambda s: s + "scenario: single\nsweep: {axis: n_ancillas, values: [1, 2]}\n",
         "config error: scenario: single_run requires n_ancillas = 1, got 2"),
        # non-finite numbers and negative collision angles
        (lambda s: s.replace("[0.5, 0.3]", "[.nan, 0.3]"),
         "config error: collision_angles_over_pi[0]: must be finite, got nan"),
        (lambda s: s.replace("{theta_over_pi: 0.25, axis: x}", "{theta_over_pi: .nan}"),
         "config error: rotation.theta_over_pi: must be finite, got nan"),
        (lambda s: s.replace("{temperature: 2.0, gamma_t: 0.5}", "{temperature: 2.0, gamma_t: .nan}"),
         "config error: baths[0].gamma_t: must be finite, got nan"),
        (lambda s: s.replace("{temperature: 1.0,", "{temperature: .inf,"),
         "config error: baths[1].temperature: must be finite, got inf"),
        # a finite value over pi whose product with pi overflows, named as written
        (lambda s: s.replace("[0.5, 0.3]", "[1.0e+308, 0.3]"),
         "config error: collision_angles_over_pi[0]: must be finite, got inf"),
        (lambda s: s.replace("{theta_over_pi: 0.25, axis: x}", "{theta_over_pi: 1.0e+308}"),
         "config error: rotation.theta_over_pi: must be finite, got inf"),
        (lambda s: s + "sweep: {axis: theta_over_pi, values: [0.1, 1.0e+308]}\n",
         "config error: sweep.values[1]: must be finite, got inf"),
        (lambda s: s + "sweep: {axis: g_t2_over_pi, values: [0.1, 1.0e+308]}\n",
         "config error: sweep.values[1]: must be finite, got inf"),
        (lambda s: s.replace("[0.5, 0.3]", "[-0.5, 0.3]"),
         "config error: collision_angles_over_pi[0]: must be >= 0, got -0.5"),
        (lambda s: s.replace("[0.5, 0.3]", "[0.5, yes]"),
         "config error: collision_angles_over_pi[1]: must be a real number, got True"),
        (lambda s: s.replace("{temperature: 2.0, gamma_t: 0.5}", "{temperature: 2.0, gamma_t: -0.5}"),
         "config error: baths[0].gamma_t: must be >= 0, got -0.5"),
        (lambda s: s.replace("{temperature: 2.0, gamma_t: 0.5}", "{temperature: 2.0, omega: '1'}"),
         "config error: baths[0].omega: must be a real number, got '1'"),
        # a negative gamma*t on a sweep axis is named as the file wrote it
        (lambda s: s + "sweep: {axis: gamma_t, values: [-0.5, 0.5]}\n",
         "config error: sweep.values[0]: must be >= 0, got -0.5"),
        (lambda s: s + "sweep: {axis: gamma_t, start: -0.5, stop: 0.5, step: 0.5}\n",
         "config error: sweep.start: must be >= 0, got -0.5"),
        # a sweep axis that is not a name, e.g. a list, is refused by name
        (lambda s: s + "sweep: {axis: [g_t2_over_pi], values: [0.5]}\n",
         "config error: sweep.axis: unknown axis ['g_t2_over_pi']"),
        # gamma*t is one number, gamma_t; the rotation is turned off by theta 0
        (lambda s: s.replace("{temperature: 2.0, gamma_t: 0.5}", "{temperature: 2.0, gamma: 1.0}"),
         "config error: baths[0].gamma: unknown field"),
        (lambda s: s + "rotation_enabled: false\n", "config error: rotation_enabled: unknown field"),
        # a scenario that is present but falsy is checked as a name
        (lambda s: s + "scenario: false\n", "config error: scenario: unknown scenario False;"),
        (lambda s: s + "scenario: 0\n", "config error: scenario: unknown scenario 0;"),
        (lambda s: s + "scenario: ''\n", "config error: scenario: unknown scenario '';"),
        # a sweep block takes only its own keys, and one of its two forms
        (lambda s: s + SWEEP_BLOCK.replace("step:", "stepp:"), "config error: sweep.stepp: unknown field"),
        (lambda s: s + "sweep: {axis: g_t2_over_pi, valeus: [0.5]}\n",
         "config error: sweep.valeus: unknown field"),
        (lambda s: s + SWEEP_BLOCK + "  values: [0.5]\n",
         "config error: sweep: give values or start/stop/step, not both"),
        # every ancilla starts in its bottom level; there is no start index
        (lambda s: s + "ancilla_init: 1\n", "config error: ancilla_init: unknown field"),
        # a missing required field is named like every other field
        (lambda s: s[s.index("collision_angles_over_pi"):],
         "config error: baths: required field is missing"),
        (lambda s: s.replace("collision_angles_over_pi: [0.5, 0.3]\n", ""),
         "config error: collision_angles_over_pi: required field is missing"),
        (lambda s: s.replace("{temperature: 2.0, gamma_t: 0.5}", "{gamma_t: 0.5}"),
         "config error: baths[0].temperature: required field is missing"),
        (lambda s: s + SWEEP_BLOCK.replace("  axis: g_t2_over_pi\n", ""),
         "config error: sweep.axis: required field is missing"),
        (lambda s: s + SWEEP_BLOCK.replace("  step: 0.1\n", ""),
         "config error: sweep.step: required field is missing"),
        # a file or block of the wrong shape
        (lambda s: s.replace("{temperature: 2.0, gamma_t: 0.5}", "2.0"),
         "config error: baths[0]: expected a mapping with a 'temperature' key"),
        (lambda s: s + "sweep: g_t2_over_pi\n",
         "config error: sweep: expected a mapping with an 'axis' key"),
        (lambda s: s + "sweep: {axis: g_t2_over_pi, values: []}\n",
         "config error: sweep.values: expected a nonempty list of numbers"),
        (lambda s: s + "sweep: {axis: g_t2_over_pi, start: 0.5, stop: 0.1, step: 0.1}\n",
         "config error: sweep: need step > 0 and stop >= start"),
        # a step so small that the step count overflows, not a traceback
        (lambda s: s + "sweep: {axis: gamma_t, start: 0, stop: 1, step: 1.0e-320}\n",
         "config error: sweep: the step count (stop - start) / step = inf is not finite"),
        (lambda s: s + "baths: [\n", "config error: config file does not parse as YAML"),
        (lambda s: "- " + s.replace("\n", "\n  "), "config error: config root must be a mapping"),
        (lambda s: s[:s.index("baths:")] + "baths: []\n" + s[s.index("collision_angles"):],
         "config error: baths: expected a nonempty list"),
        (lambda s: s.replace("[0.5, 0.3]", "0.5"),
         "config error: collision_angles_over_pi: expected a list of numbers"),
        (lambda s: s.replace("{theta_over_pi: 0.25, axis: x}", "0.25"),
         "config error: rotation: expected a mapping"),
        (lambda s: s.replace("{temperature: 2.0, gamma_t: 0.5}", "{temperature: 2.0, omega: 0}"),
         "config error: baths[0].omega: must be > 0, got 0.0"),
    ],
)
def test_config_rejections(tmp_path, capsys, mangle, needle):
    cfg = write(tmp_path / "bad.yaml", mangle(GOOD_CONFIG))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert needle in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.yaml"]  # no table, no summary


def test_readme_schema_block_loads_and_runs(tmp_path):
    """The README's "Config file schema" YAML block is a working config."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config file schema (YAML)", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = write(tmp_path / "schema.yaml", block)
    config, scenario, grid = load_config(cfg)
    assert scenario == "single" and grid.axis_name == "g_t2_over_pi"
    # the defaults its comments state are the library's
    assert config.baths[1] == BathSpec(1.0, omega=1.0, therm_time=0.5)
    assert (config.ancilla_dim, config.n_ancillas, config.correlated) == (2, 1, False)
    assert config.rotation == RotationSpec()
    for command in ("run", "sweep"):
        out = tmp_path / f"schema-{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert len(read_rows(out)) == len(grid.values)


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "no.yaml"), "--out", str(tmp_path / "x.csv")]) == 2
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_requires_block(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_sweep_explicit_values(tmp_path):
    cfg = write(
        tmp_path / "cfg.yaml",
        GOOD_CONFIG + "sweep:\n  axis: g_t2_over_pi\n  values: [0.2, 0.4, 0.6]\n",
    )
    out = tmp_path / "vals.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert [r["g_t2_over_pi"] for r in read_rows(out)] == ["0.2", "0.4", "0.6"]


@pytest.mark.parametrize(
    "block, want",
    [
        ("{axis: g_t2_over_pi, start: 0, stop: 1, step: 0.6}", ["0", "0.6"]),
        ("{axis: g_t2_over_pi, start: 0.1, stop: 0.9, step: 0.1}",
         ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]),
    ],
)
def test_sweep_range_stops_at_stop(tmp_path, block, want):
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + f"sweep: {block}\n")
    out = tmp_path / "range.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert [r["g_t2_over_pi"] for r in read_rows(out)] == want


def test_ancilla_count_sweep_infers_stream_scenario(tmp_path):
    """An n_ancillas series from 1 with no scenario named runs as a stream,
    and the summary records no scenario; its n = 1 row is the single run of
    the base config."""
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + "sweep: {axis: n_ancillas, values: [1, 2, 3]}\n")
    out = tmp_path / "n.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r["error"] for r in rows] == ["", "", ""]
    config, scenario, grid = load_config(cfg)
    assert scenario is None
    assert json.loads((tmp_path / "n.json").read_text())["manifest"]["scenario"] is None
    (first, _), *_ = sweep(grid)
    single, _ = point(config)
    assert {col: first[col] for col in MERIT_COLUMNS} == single
    assert {col: rows[0][col] for col in MERIT_COLUMNS} == {
        col: _fmt_cell(single[col]) for col in MERIT_COLUMNS
    }


def test_three_correlated_baths_run_with_no_scenario_key(tmp_path):
    """A three-bath ``correlated: true`` file with no ``scenario`` key runs
    the joint simulation: its row is the one scenario ``correlated`` gives."""
    cfg = write(tmp_path / "cfg.yaml", """\
baths: [{temperature: 2.0}, {temperature: 1.0}, {temperature: 3.0}]
collision_angles_over_pi: [0.5, 0.2, 0.35]
ancilla_dim: 3
n_ancillas: 2
correlated: true
""")
    out = tmp_path / "joint.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    config, scenario, _ = load_config(cfg)
    assert scenario is None and config.n_baths == 3 and config.correlated
    row, _ = point(config)
    assert read_rows(out) == [{col: _fmt_cell(row[col]) for col in MERIT_COLUMNS}]


def test_sweep_value_the_grid_cannot_place_is_config_error(tmp_path, capsys):
    cases = [
        ("{axis: n_ancillas, values: [1, 2.5]}",
         "config error: sweep: n_ancillas axis needs whole numbers, got 2.5"),
        ("{axis: g_t1_over_pi, values: [-0.5, 0.5]}",
         "config error: sweep.values[0]: must be >= 0, got -0.5"),
        ("{axis: g_t2_over_pi, start: -0.5, stop: 0.5, step: 0.5}",
         "config error: sweep.start: must be >= 0, got -0.5"),
        ("{axis: theta_over_pi, values: [0.25, .nan]}",
         "config error: sweep.values[1]: must be finite, got nan"),
        ("{axis: gamma_t, start: 0, stop: .inf, step: 0.5}",
         "config error: sweep.stop: must be finite, got inf"),
    ]
    for block, message in cases:
        cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + f"sweep: {block}\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.yaml"]  # no table, no summary


def test_sweep_evaluates_each_grid_point_once(tmp_path, monkeypatch):
    """One evaluate call per grid point: the summary's optimum report is the
    sweep's own report of that point, equal to a fresh evaluation."""
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + SWEEP_BLOCK)
    calls = []

    def counting(config, scenario=None, **kwargs):
        calls.append(config)
        return evaluate(config, scenario, **kwargs)

    assert not hasattr(cli, "evaluate")  # the CLI evaluates through protocols only
    monkeypatch.setattr(protocols, "evaluate", counting)
    out = tmp_path / "once.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == len(read_rows(out)) == 9
    monkeypatch.undo()

    optimum = json.loads((tmp_path / "once.json").read_text())["optimum"]
    _, scenario, grid = load_config(cfg)
    fresh = evaluate(grid.at(optimum["row"]["g_t2_over_pi"]), scenario)
    assert optimum["report"] == json.loads(json.dumps(_report_payload(fresh)))


def test_sweep_error_rows_exit_code(tmp_path, capsys):
    """A grid point the evaluator cannot compute (a joint register over the
    dimension cap): outputs written, exit 3."""
    cfg = write(
        tmp_path / "cfg.yaml",
        GOOD_CONFIG + "correlated: true\nsweep:\n  axis: n_ancillas\n  values: [2, 3, 10]\n",
    )
    out = tmp_path / "err.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "1 of 3 grid points failed" in capsys.readouterr().err
    rows = read_rows(out)
    assert "ValueError" in rows[2]["error"]
    assert rows[0]["error"] == "" and rows[1]["error"] == ""
    summary = json.loads((tmp_path / "err.json").read_text())
    assert summary["n_errors"] == 1
    # optimum must come from the healthy rows
    assert summary["optimum"]["row"]["error"] is None


def test_failed_point_cells_match_between_run_and_sweep(tmp_path):
    """A point that fails writes the same merit and error cells whether it is
    a single-config run or the one value of a sweep."""
    over_cap = GOOD_CONFIG + "correlated: true\nn_ancillas: 10\n"
    single = write(tmp_path / "single.yaml", over_cap)
    one_value = "sweep:\n  axis: n_ancillas\n  values: [10]\n"
    swept = write(tmp_path / "swept.yaml", over_cap + one_value)
    assert main(["run", "--config", single, "--out", str(tmp_path / "single.csv")]) == 3
    assert main(["sweep", "--config", swept, "--out", str(tmp_path / "swept.csv")]) == 3
    (row_single,) = read_rows(tmp_path / "single.csv")
    (row_swept,) = read_rows(tmp_path / "swept.csv")
    assert "exceeds the cap" in row_single["error"]
    assert row_single["eta_acc"] == "nan"
    assert {col: row_swept[col] for col in MERIT_COLUMNS} == row_single



def test_a_qfim_that_overflows_fails_its_row(tmp_path, capsys):
    """omega = 1e-160 on both baths and T = (2, 1e-160): the QFIM overflows
    to inf and NaN, and the row records the kernel's refusal (exit 3), not
    NaN merits beside an empty error cell (exit 0)."""
    cfg = write(tmp_path / "tiny.yaml", GOOD_CONFIG.replace(
        "- {temperature: 2.0, gamma_t: 0.5}", "- {temperature: 2.0, omega: 1.0e-160, gamma_t: 0.5}"
    ).replace(
        "- {temperature: 1.0, gamma_t: 0.5}", "- {temperature: 1.0e-160, omega: 1.0e-160, gamma_t: 0.5}"
    ))
    out = tmp_path / "tiny.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "1 of 1 grid points failed" in capsys.readouterr().err
    (row,) = read_rows(out)
    assert row["error"] == "ValueError: QFIM not finite"

def test_json_null_for_non_finite_merits(tmp_path):
    """An information-free point carries eta_acc = -inf in the CSV but null
    in the JSON summary (strict JSON has no inf/nan tokens)."""
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG.replace("[0.5, 0.3]", "[0.5, 0.5]"))
    out = tmp_path / "inf.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0]["eta_acc"] == "-inf" and rows[0]["singular"] == "true"
    text = (tmp_path / "inf.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    summary = json.loads(text)
    assert summary["optimum"]["row"]["eta_acc"] is None
    assert summary["optimum"]["report"]["eta_acc"] is None


def test_no_stray_temp_files(tmp_path):
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".colltherm-")]
    assert leftovers == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_into_a_missing_directory_is_a_config_error(tmp_path, capsys, command):
    """An ``--out`` that cannot be written is a config error naming it
    (exit 2), not a traceback naming the temporary file."""
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + SWEEP_BLOCK)
    out = tmp_path / "no" / "such" / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out: cannot write '{out}': No such file or directory\n"


def test_a_failed_rename_leaves_no_temp_file(tmp_path, capsys):
    """``--out`` naming an existing directory: the table is written to a
    temporary file beside it, the rename onto the directory fails, and the
    temporary file is removed before the config error is reported."""
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    (tmp_path / "o.csv").mkdir()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert "--out: cannot write" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.yaml", "o.csv"]


def test_a_failed_cleanup_reports_the_rename_error(tmp_path, monkeypatch, capsys):
    """When the rename fails and removing the temporary file fails too, the
    caller is told the rename's error, not the cleanup's."""
    def failing(name):
        def fail(*args):
            raise OSError(f"{name} failed")
        return fail

    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    monkeypatch.setattr(os, "replace", failing("replace"))
    monkeypatch.setattr(os, "unlink", failing("unlink"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.endswith("': replace failed\n")


def test_new_outputs_get_the_mode_open_gives(tmp_path):
    """A fresh table and summary get 0o666 less the umask, as ``open()``
    would make them."""
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    old = os.umask(0o022)
    try:
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
    finally:
        os.umask(old)
    for name in ("o.csv", "o.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name


def test_rewritten_outputs_keep_their_mode(tmp_path):
    """A rerun over an existing table keeps the table's permission bits."""
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    out.chmod(0o640)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o640


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_group(capsys):
    assert main(["verify", "--group", "appendix", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS  appendix/collision-channel-entrywise" in out
    assert "all oracle groups passed" in out
    assert "FAIL" not in out


def test_verify_failure_exits_1_naming_the_first_failure(monkeypatch, capsys):
    """A group with a failing check makes ``verify`` exit 1; stdout marks
    the check FAIL and stderr names the first failure."""
    def failing(rng, trials):
        return [verify.CheckResult("passes", True, 0.0),
                verify.CheckResult("broken", False, 0.5, "made to fail"),
                verify.CheckResult("also-broken", False, 0.25)]

    monkeypatch.setitem(verify.GROUPS, "kraus", failing)
    assert main(["verify", "--trials", "20"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  kraus/broken  residual 5.000e-01  (made to fail)" in out
    assert "all oracle groups passed" not in out
    assert err == "verify failed at kraus/broken: residual 5.000e-01\n"


def test_verify_deterministic_output(capsys):
    assert main(["verify", "--group", "theorem1", "--trials", "50", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--group", "theorem1", "--trials", "50", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

def _stream_sweep_config(g1_over_pi, theta_over_pi, start):
    return f"""\
baths:
  - {{temperature: 2.0, gamma_t: 0.5}}
  - {{temperature: 1.0, gamma_t: 0.5}}
collision_angles_over_pi: [{g1_over_pi}, 0.3]
rotation: {{theta_over_pi: {theta_over_pi}, axis: x}}
n_ancillas: 3
sweep: {{axis: g_t2_over_pi, start: {start}, stop: 0.9, step: 0.2}}
"""


def test_sweep_table_does_not_depend_on_the_series_before(tmp_path):
    """Each sweep runs the stages its points share itself: in one process,
    a sweep's table is byte for byte the table of the same sweep run again,
    also right after a series that starts where it ends or whose config
    differs only in the sign of a zero g_t1 or theta."""
    runs = [("0.5", "0.25", "0.1"), ("0.5", "0.25", "0.5"),
            ("0.0", "0.0", "0.1"), ("-0.0", "0.0", "0.1"), ("-0.0", "-0.0", "0.1")]
    for k, run in enumerate(runs):
        cfg = write(tmp_path / f"cfg{k}.yaml", _stream_sweep_config(*run))
        after, fresh = tmp_path / f"after{k}.csv", tmp_path / f"fresh{k}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(after)]) in (0, 3)
        assert main(["sweep", "--config", cfg, "--out", str(fresh)]) in (0, 3)
        assert len(read_rows(after)) == (5 if run[2] == "0.1" else 3)
        assert after.read_bytes() == fresh.read_bytes()


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """``main`` builds the parser on its first call and reuses it for every
    subcommand; ``build_parser`` still hands out a fresh one."""
    monkeypatch.setattr(cli, "_parser", None)
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + SWEEP_BLOCK)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run.csv")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert main(["verify", "--group", "appendix", "--trials", "20"]) == 0
    assert len(calls) == 1
    assert build() is not build() and build() is not cli._parser


def test_bad_argument_after_good_call_still_exits_2(tmp_path, monkeypatch, capsys):
    """A reused parser rejects a bad argument as a fresh one does, and the
    next good call still succeeds."""
    monkeypatch.setattr(cli, "_parser", None)
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
    with pytest.raises(SystemExit) as info:
        main(["run", "--scenario", "fig9", "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2
    assert "argument --scenario: invalid choice: 'fig9'" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_reused_parser_keeps_namespaces_apart(tmp_path, monkeypatch):
    """A ``run --scenario`` call leaves no attribute in the namespace of the
    ``sweep --config`` call that follows it on the same parser."""
    parser, seen = cli.build_parser(), []
    parse = parser.parse_args

    def recording(argv):
        args = parse(argv)
        seen.append(dict(vars(args)))
        return args

    monkeypatch.setattr(parser, "parse_args", recording)
    monkeypatch.setattr(cli, "_parser", parser)
    cfg = write(tmp_path / "cfg.yaml", GOOD_CONFIG + SWEEP_BLOCK)
    assert main(["run", "--scenario", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep.csv")]) == 0
    run_ns, sweep_ns = seen
    assert run_ns["scenario"] == "fig2" and run_ns["config"] is None
    assert sweep_ns == {
        "command": "sweep", "config": cfg, "out": str(tmp_path / "sweep.csv"),
        "func": cli.cmd_sweep,
    }


def test_cli_import_leaves_scipy_unloaded(src_env):
    """The package needs numpy and PyYAML only: importing the CLI in a fresh
    interpreter loads no scipy module."""
    code = "import sys, colltherm.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
