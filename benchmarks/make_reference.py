"""Draw the benchmark's input pools and store the rows the current code gives.

    python3 benchmarks/make_reference.py --source <commit>

Run once, at the commit whose results the gate should hold later commits
to; ``--source`` names that commit in the file.  The pools are drawn from
``MASTER_SEED``, one stream per workload, and each entry is evaluated exactly as a benchmark run
evaluates it (series through the CLI, points through ``protocols.evaluate``)
with BLAS pinned to one thread.  Writes ``reference.json.gz``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import random
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COLLTHERM_THREADS", None)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

MASTER_SEED = 20251120
FIG3_ANCHOR = {"temperatures": [2.0, 1.0], "angles_over_pi": [0.5, 0.0],
               "theta_over_pi": 0.25, "gamma_t": 0.5}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def series_params(rng: random.Random, n: int, scenario: str) -> dict:
    """A two-bath series near fig3: the seed sets T, g1, theta and gamma_t."""
    return {
        "temperatures": [_log_uniform(rng, 0.5, 4.0), _log_uniform(rng, 0.5, 4.0)],
        "angles_over_pi": [rng.uniform(0.3, 0.7), 0.0],
        "theta_over_pi": rng.uniform(1 / 6, 1 / 3),
        "gamma_t": rng.uniform(0.25, 1.0),
        "n": n, "ancilla_dim": 2, "scenario": scenario,
    }


def point_params(rng: random.Random, scenario: str, n: int) -> dict:
    """One point config: T log-uniform in [0.1, 10], angles anywhere in [0, pi]."""
    n_baths = 3 if scenario == "qutrit" else 2
    return {
        "temperatures": [_log_uniform(rng, 0.1, 10.0) for _ in range(n_baths)],
        "angles_over_pi": [rng.uniform(0.0, 1.0) for _ in range(n_baths)],
        "theta_over_pi": rng.uniform(0.0, 0.5),
        "gamma_t": rng.uniform(0.1, 2.0),
        "n": n, "ancilla_dim": 3 if scenario == "qutrit" else 2, "scenario": scenario,
    }


def series_rows(params: dict, grid: tuple, workdir: Path) -> list:
    import yaml

    from colltherm import cli

    cfg, out = workdir / "series.yaml", workdir / "series.csv"
    cfg.write_text(yaml.safe_dump(wl.config_mapping(params, grid)))
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
    if code not in (0, 3):
        raise RuntimeError(f"sweep exited {code} for {params}")
    return wl.read_csv_rows(out, grid)


def point_row(params: dict) -> list:
    from colltherm import protocols

    try:
        return wl.report_row(protocols.evaluate(wl.protocol_config(params), params["scenario"]))
    except Exception as exc:  # stored as the point's seed outcome
        return wl.error_row(exc)


def build(source: str, workdir: Path) -> dict:
    ref = {"source": source}
    rng = random.Random(f"{MASTER_SEED}/stream_sweep")
    series = {}
    for n in wl.STREAM_NS:
        scenario = "single" if n == 1 else "uncorrelated"
        pool = [{**FIG3_ANCHOR, "n": n, "ancilla_dim": 2, "scenario": scenario}]
        pool += [series_params(rng, n, scenario) for _ in range(wl.SERIES_POOL - 1)]
        series[str(n)] = [{"params": p, "rows": series_rows(p, wl.STREAM_GRID, workdir)}
                          for p in pool]
        print(f"stream_sweep n={n} done", file=sys.stderr, flush=True)
    ref["stream_sweep"] = {"grid": list(wl.STREAM_GRID), "series": series}

    rng = random.Random(f"{MASTER_SEED}/joint_register")
    series = {}
    for n in wl.JOINT_NS:
        pool = [series_params(rng, n, "correlated") for _ in range(wl.SERIES_POOL)]
        series[str(n)] = [{"params": p, "rows": series_rows(p, wl.JOINT_GRID, workdir)}
                          for p in pool]
        print(f"joint_register n={n} done", file=sys.stderr, flush=True)
    ref["joint_register"] = {"grid": list(wl.JOINT_GRID), "series": series}

    rng = random.Random(f"{MASTER_SEED}/point_eval")
    cells = {}
    for (scenario, n), count in wl.POINT_CELLS.items():
        pool = [point_params(rng, scenario, n) for _ in range(count * wl.POINT_POOL_FACTOR)]
        cells[f"{scenario}/{n}"] = [{"params": p, "row": point_row(p)} for p in pool]
    print("point_eval done", file=sys.stderr, flush=True)
    ref["point_eval"] = {"cells": cells}
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", required=True, help="commit the rows come from")
    args = parser.parse_args(argv)
    workdir = HERE / "work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ref = build(args.source, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = json.dumps(ref, separators=(",", ":")).encode("utf-8")
    wl.REFERENCE.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
