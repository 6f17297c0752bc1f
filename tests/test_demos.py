"""Every script under ``demos/`` runs to completion in a fresh interpreter,
with RuntimeWarnings (overflow, invalid values) raised as errors."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, src_env):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        env=src_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
