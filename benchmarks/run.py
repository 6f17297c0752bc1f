"""colltherm benchmark: seeded merit-map workloads, measured end to end.

    python3 benchmarks/run.py                      # every workload, untraced
    python3 benchmarks/run.py --trace 1            # every workload, per-layer spans
    python3 benchmarks/run.py --workload point_eval --seed 3 --seconds 20 --trace 0

Run from the repository root.  For each workload this process starts one
measuring process (``worker.py``) with BLAS pinned to one thread and
``COLLTHERM_THREADS`` removed, times ``SETUP_SAMPLES`` fresh set-up
processes around it, prints a report and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` count the timed rows; the rows of the seed-failure pass are
reported beside them and turn ``correct`` false only by a mismatch.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Exit code 0 when the run completed (whatever the gate found), 1 when
a process failed, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("stream_sweep", "joint_register", "point_eval")
SETUP_SAMPLES = 10   # half before the measuring process, half after
RUN_LIMIT_S = 170.0    # a run ends well inside three minutes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COLLTHERM_THREADS"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker_cmd(args, workload: str, *extra: str) -> list:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    return cmd + (["--tiny"] if args.tiny else [])


def run_child(cmd: list, deadline: float) -> subprocess.CompletedProcess:
    """Run one child to completion; ``subprocess.run`` kills and reaps it on timeout."""
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{Path(cmd[1]).name} exited {proc.returncode}")
    return proc


def measure_setup(args, workload: str, deadline: float) -> list:
    samples = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES // 2):
        t = time.perf_counter()
        run_child(worker_cmd(args, workload, "--setup-only"), deadline)
        samples.append(time.perf_counter() - t)
    return samples


def quantile(sorted_values: list, q: float) -> float:
    """Linear-interpolated quantile of a sorted list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def end_to_end(res: dict, setup: list) -> dict:
    """Every end-to-end figure of one run: name -> (value, unit, note, in JSON).

    The JSON line carries the times in reference-kernel units (see
    ``worker.REFERENCE_KERNEL``); the raw seconds are printed beside them.
    Each repetition is reduced first, then the median over repetitions is
    taken (per call for latencies).
    """
    reps = len(res["walls"])
    ok_per_rep = res["gate"]["outcomes"].get("ok", 0) / (res["attempted"] // res["points_per_rep"])
    lat, lat_ref = sorted(res.get("latencies_ms", [])), sorted(res.get("latencies_ref", []))
    n = len(lat)
    calls = f"{n} protocols.evaluate calls, each its median of {reps} repetitions"
    beyond = f"{n} calls, {n - int(0.9 * n)} beyond p90"
    ref = f"in units of {res.get('kernel')}, median {res.get('ref_ms', 0):.3f} ms"
    sf = res["seed_failures"]
    failed = (res["gate"]["outcomes"].get("failed_first_repetition", 0)
              + sf["gate"]["outcomes"].get("failed_first_repetition", 0))
    points = res["points_per_rep"] + sf["points"]
    wall, wall_ref = res.get("wall_s"), res.get("wall_ref")
    return {
        "wall_ref": (wall_ref, "ref", f"median of {reps} repetitions, {ref}", True),
        "points_per_ref": (wall_ref and ok_per_rep / wall_ref, "1/ref",
                           f"{ok_per_rep:g} good points of {res['points_per_rep']} per repetition", True),
        "point_p50_ref": (lat_ref and quantile(lat_ref, 0.5), "ref", calls, True),
        "point_p90_ref": (lat_ref and quantile(lat_ref, 0.9), "ref", beyond, True),
        "wall_s": (wall, "s", f"median of {reps} repetitions", False),
        "points_per_s": (wall and ok_per_rep / wall, "1/s", "good points per repetition / wall_s", False),
        "point_ms_p50": (lat and quantile(lat, 0.5), "ms", calls, False),
        "point_ms_p90": (lat and quantile(lat, 0.9), "ms", beyond, False),
        "error_rate": (failed / points, "fraction",
                       f"{failed} of {points} points: one timed repetition and the "
                       "seed-failure pass", False),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes", True),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "measuring process", True),
    }


def report(workload: str, args, res: dict, setup: list) -> dict:
    """Print the human-readable report; return the metrics of the JSON line."""
    m = res["machine"]
    print(f"== {workload}  seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          + ("  (tiny)" if args.tiny else ""))
    print(f"machine: nproc={m['nproc']} usable={m['cpus_usable']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
          f"blas_threads={m['blas_threads']}")
    print(f"jobs: {res['jobs']}  points per repetition: {res['points_per_rep']}")
    e2e = end_to_end(res, setup)
    if args.trace:
        metrics = res["layers"]
        width = max(map(len, metrics))
        for name, v in metrics.items():
            print(f"  {name:<{width}}  {v['value']:.6g} {v['unit']}")
        t = {k[len("trace."):]: v["value"] for k, v in metrics.items() if k.startswith("trace.")}
        print(f"self-time check: layers {t['mean_wall_s'] - t['benchmark_self_s'] - t['self_residual_s']:.6f} s"
              f" + benchmark {t['benchmark_self_s']:.6f} s = traced wall {t['mean_wall_s']:.6f} s"
              f" (mean of {len(res['walls'])} traced repetitions), residual {t['self_residual_s']:.3e} s")
        print(f"tracing overhead: {t['overhead_s']:.4f} s (traced {t['traced_wall_s']:.4f} s, "
              f"untraced {t['untraced_wall_s']:.4f} s)")
        print(f"spans: {res['spans_file']}")
    for name, (value, unit, note, _) in e2e.items():
        if not args.trace or name == "error_rate":
            print(f"  {name:<14} {value:.6g} {unit}  ({note})")
    sf = res["seed_failures"]
    inventory = defaultdict(Counter)
    for what, gate in ((f"timed: {res['attempted']} rows", res["gate"]),
                       (f"seed-failure pass: {sf['points']} rows of {sf['jobs']} entries "
                        "that raised at the seed, run once, untimed", sf["gate"])):
        o = gate["outcomes"]
        print(f"correctness gate, {what}, checked against the seed-commit reference: "
              f"{o.get('ok', 0)} ok ({o.get('fixed', 0)} fixed since the seed), "
              f"{o.get('raised', 0)} raised ({o.get('raised_at_seed_too', 0)} raised at the seed too), "
              f"{o.get('mismatch', 0)} mismatched")
        for line in gate["mismatches"]:
            print(f"  MISMATCH {line}")
        for cls, where in gate["inventory"].items():
            inventory[cls].update(where)
    print("failure inventory (first timed repetition and the seed-failure pass):"
          + ("" if inventory else " none"))
    for cls, where in sorted(inventory.items()):
        spots = ", ".join(f"{k}: {v}" for k, v in sorted(where.items(), key=group_order))
        print(f"  {sum(where.values()):4d}  {cls}  [{spots}]")
    if args.trace:
        return res["layers"]
    return {k: {"value": v, "unit": u} for k, (v, u, _, in_json) in e2e.items() if in_json}


def group_order(item: tuple) -> tuple:
    """Inventory groups ("n=12", "qutrit n=5") in name order, then by n."""
    name, _, n = item[0].rpartition("n=")
    return name, int(n)


def run_workload(workload: str, args, deadline: float) -> tuple[dict, dict]:
    # Set-up samples on both sides of the measuring process meet more of the
    # host's slow and fast spells than one batch does.
    setup = measure_setup(args, workload, deadline)
    proc = run_child(worker_cmd(args, workload), deadline)
    setup += measure_setup(args, workload, deadline)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    o = res["gate"]["outcomes"]
    res["failed"] = o.get("raised", 0) + o.get("mismatch", 0)
    metrics = report(workload, args, res, setup)
    return res, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few rows of each workload, one repetition: a smoke test")
    args = parser.parse_args(argv)
    if args.tiny:
        args.seconds = 0.0

    if not (ROOT / "src" / "colltherm" / "__init__.py").is_file():
        print(f"benchmark: no package sources at {ROOT / 'src' / 'colltherm'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    correct = all(not gate["outcomes"].get("mismatch")
                  for r, _ in results.values() for gate in (r["gate"], r["seed_failures"]["gate"]))
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
    }
    if len(names) == 1:
        line["metrics"] = results[names[0]][1]
    else:
        line["metrics"] = {f"{w}.{k}": v for w, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
