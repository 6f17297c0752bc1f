"""Smoke test of the benchmark: the tiny mode of every workload.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that every metric ``BENCHMARK.json`` names is printed with its unit,
that the correctness gate and the failure inventory run, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", "--tiny", "--seed", "7", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_tiny("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    assert re.search(r"error_rate\s+\S+ fraction\s+\(\d+ of \d+ points:", report)
    assert f"correctness gate, timed: {result['attempted']} rows, checked" in report
    assert "correctness gate, seed-failure pass:" in report
    assert "failure inventory" in report


def test_stream_sweep_inventory_lists_the_seed_failures():
    proc = run_tiny("--workload", "stream_sweep")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0    # timed rows are drawn from entries the seed evaluated cleanly
    assert re.search(r"error_rate\s+0\.[0-9]*[1-9]", proc.stdout)
    assert re.search(r"derivative # not traceless.*\[n=12: \d+, n=16: \d+\]", proc.stdout)


def test_gate_flags_a_changed_value():
    ref = [1.5, 0.25, 0.02, 0.9, False, None]
    assert wl.check_row(ref, list(ref), 2) == ("ok", "")
    assert wl.check_row(ref, [1.5 * (1 + 1e-9), *ref[1:]], 2)[0] == "ok"
    assert wl.check_row(ref, [1.5 * (1 + 1e-4), *ref[1:]], 2)[0] == "mismatch"
    assert wl.check_row(ref, [*ref[:4], True, None], 2)[0] == "mismatch"
    err = wl.error_row(ValueError("derivative 0 not traceless: |trace| 1.04e-09"))
    assert wl.check_row(ref, err, 2) == ("raised", "ValueError: derivative # not traceless: |trace| #")
    assert wl.check_row(err, ref, 2) == ("ok", "fixed since the seed")
    assert wl.check_row(err, [math.inf, *ref[1:]], 2)[0] == "mismatch"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = run_tiny("--workload", "point_eval", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_timed_jobs_avoid_the_seed_failures():
    ref = wl.load_reference()
    for workload in wl.WORKLOADS:
        jobs = wl.select(ref, workload, 7)
        assert not any(row[5] for job in jobs for row in job.ref_rows)
        assert [j.label for j in jobs] == [j.label for j in wl.select(ref, workload, 7)]
        failures = wl.seed_failures(ref, workload)
        assert all(any(row[5] for row in job.ref_rows) for job in failures)
        assert bool(failures) == (workload != "joint_register")
