"""The CI's preset comparison (``.github/preset_diff.py``): what it says
about two tables or two JSON summaries, base against head."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "preset_diff.py"
_spec = importlib.util.spec_from_file_location("preset_diff", SCRIPT)
preset_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_diff)

HEADER = "g_t2_over_pi,mode,det_qfim,singular,error\n"


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_tables_report_each_moved_column_and_any_flag(tmp_path):
    base = _write(tmp_path / "a.csv", HEADER + "0,correlated,2e-35,true,\n0.5,correlated,0.25,false,\n")
    moved = _write(tmp_path / "b.csv", HEADER + "0,correlated,6e-35,true,\n0.5,correlated,0.5,false,\n")
    assert preset_diff.compare_tables(base, moved) == (
        "2 of 2 rows differ from base; det_qfim: largest relative change 2 over 2 cell(s); "
        "no singular or error cell changed"
    )
    flipped = _write(tmp_path / "c.csv", HEADER + "0,correlated,0,false,\n0.5,correlated,0.25,false,\n")
    assert preset_diff.compare_tables(base, flipped) == (
        "1 of 2 rows differ from base; det_qfim: largest relative change 1 over 1 cell(s); "
        "singular: 1 cell(s) changed; singular changed"
    )
    assert preset_diff.compare_tables(base, base) == "0 of 2 rows differ from base"


def test_summaries_report_each_moved_key_and_leave_paths_and_times_out(tmp_path):
    summary = {
        "manifest": {"emitted_at": "t0", "output_path": "a.csv"},
        "n_errors": 0,
        "optimum": {"report": {"qfim": [[1.0, 0.5], [0.5, 2.0]], "eta_acc": float("nan")}},
    }
    base = _write(tmp_path / "a.json", json.dumps(summary))
    summary["manifest"] = {"emitted_at": "t1", "output_path": "b.csv"}
    assert preset_diff.compare_summaries(base, _write(tmp_path / "b.json", json.dumps(summary))) == (
        "identical to base"
    )
    summary["optimum"]["report"]["qfim"] = [[1.0, 0.75], [0.75, 2.0]]
    summary["n_errors"] = 1
    assert preset_diff.compare_summaries(base, _write(tmp_path / "c.json", json.dumps(summary))) == (
        "differs from base at n_errors, optimum.report.qfim; "
        "n_errors: largest relative change inf over 1 cell(s); "
        "optimum.report.qfim: largest relative change 0.5 over 2 cell(s); n_errors changed"
    )
