"""Measuring process of the colltherm benchmark (started by ``run.py``).

``--setup-only`` does the set-up a user pays in a fresh process -- import
the package, pick the seeded configs, write the config files -- and exits;
``run.py`` times several of these.  Otherwise the process sets up, then
repeats the workload's timed section until ``--seconds`` have passed,
runs the entries that failed at the seed once, untimed (the seed-failure
pass), checks every row against the stored reference, and prints one JSON
object.  With ``--trace 1`` untraced and traced repetitions alternate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def machine_record() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy: no dict mode; the record is informational
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def set_up(workload: str, seed: int, tiny: bool, workdir: Path) -> tuple[list, list]:
    """Import the package, pick the seeded jobs and the seed failures, write
    their config files."""
    import yaml

    import colltherm

    if Path(colltherm.__file__).resolve().parent != (SRC / "colltherm").resolve():
        raise RuntimeError(f"imported colltherm from {colltherm.__file__}, not {SRC}")
    reference = wl.load_reference()
    jobs = wl.select(reference, workload, seed, tiny)
    failures = wl.seed_failures(reference, workload, tiny)
    workdir.mkdir(parents=True, exist_ok=True)
    for i, job in enumerate(jobs + failures):
        if job.grid is not None:
            job.config = workdir / f"series{i:02d}.yaml"
            job.csv = workdir / f"series{i:02d}.csv"
            job.config.write_text(yaml.safe_dump(wl.config_mapping(job.params, job.grid)))
        else:
            job.config = wl.protocol_config(job.params)
    return jobs, failures


def small_matrix_kernel() -> float:
    """Seconds taken by a fixed piece of small-matrix work (about 2 ms).

    On a shared host a core's speed flips between two levels about 1.7x
    apart every few hundred milliseconds, and the share of slow spells
    drifts over minutes, so raw times of the same work spread by 15-30 %
    between runs.  A reference kernel does the kind of work a workload's
    hot path does and runs right before and after every job, so dividing a
    job's time by it cancels the host's speed at that moment.  This one
    does ``kron``, ``expm`` and ``eigh`` on 2x2 and 4x4 complex matrices,
    with Python overhead between them: the work of the stream and point
    evaluators.  Kernels use numpy and scipy only, never the package, so
    they stay fixed while the package changes.
    """
    import numpy as np
    import scipy.linalg

    a = (np.arange(4).reshape(2, 2) + 1j) / 7
    x = a
    start = time.perf_counter()
    for _ in range(25):
        k = np.kron(x, a)
        e = scipy.linalg.expm(-0.1 * (k + k.conj().T))
        np.linalg.eigh(e @ e.conj().T)
        x = (e[:2, :2] + a) * 0.5
    return time.perf_counter() - start


def register_kernel() -> float:
    """Seconds taken by a fixed piece of joint-register work (about 4 ms).

    A two-qubit unitary applied from both sides, by ``tensordot`` and
    ``moveaxis``, to a 256 x 256 complex state held as 16 qubit axes: the
    work of the correlated joint simulation at n = 5, 6, which is bound by
    large-array arithmetic and memory traffic rather than Python overhead,
    so the small-matrix kernel does not track its speed.
    """
    import numpy as np

    state = ((np.arange(4 ** 8) % 7 + 1j) / 256).reshape((2,) * 16)
    u = (np.eye(4) + 0.1j).reshape(2, 2, 2, 2)
    start = time.perf_counter()
    for k in range(4):
        rows, cols = (2 * k, 2 * k + 1), (8 + 2 * k, 9 + 2 * k)
        state = np.moveaxis(np.tensordot(u, state, axes=((2, 3), rows)), (0, 1), rows)
        state = np.moveaxis(np.tensordot(u.conj(), state, axes=((2, 3), cols)), (0, 1), cols)
    return time.perf_counter() - start


def joint_kernel() -> float:
    """Geometric mean of the small-matrix and register kernels.

    ``joint_register`` mixes Python-bound small registers (n <= 4) with
    array-bound large ones (n = 5, 6); each kernel alone tracks one end of
    that range only.
    """
    return math.sqrt(small_matrix_kernel() * register_kernel())


# The reference kernel each workload's times are divided by: the one whose
# work resembles the workload's hot path.
REFERENCE_KERNEL = {
    "stream_sweep": small_matrix_kernel,
    "joint_register": joint_kernel,
    "point_eval": small_matrix_kernel,
}


class Repetition:
    """One pass over all jobs: :meth:`run` makes the timed calls,
    :meth:`collect` turns their results into rows afterwards."""

    def __init__(self, jobs: list, kernel=small_matrix_kernel):
        self.jobs = jobs
        self.kernel = kernel
        self.wall = 0.0
        self.job_s: list[float] = []         # time of each call into the package
        self.ref_s: list[float] = []         # reference kernel before each job and after the last
        self.latencies_ms: list[float] = []  # every protocols.evaluate call, in order
        self.job_calls: list[int] = []       # how many of those each job made
        self.results: list = []
        self.rows: list[list] = []           # one list of rows per job

    def run(self) -> None:
        from colltherm import cli, protocols

        clock = time.perf_counter
        results = self.results
        start = clock()
        for job in self.jobs:
            self.ref_s.append(self.kernel())
            calls = len(self.latencies_ms)
            t = clock()
            if job.grid is not None:
                results.append(cli.main(["sweep", "--config", str(job.config),
                                         "--out", str(job.csv)]))
            else:
                try:
                    results.append(protocols.evaluate(job.config, job.params["scenario"]))
                except Exception as exc:  # a failing point is an outcome, not a crash
                    results.append(exc)
            self.job_s.append(clock() - t)
            self.job_calls.append(len(self.latencies_ms) - calls)
        self.ref_s.append(self.kernel())
        self.wall = clock() - start

    def job_refs(self) -> list[float]:
        """The reference-kernel time around each job: mean of before and after."""
        return [(a + b) / 2 for a, b in zip(self.ref_s, self.ref_s[1:])]

    def wall_ref(self) -> float:
        """The repetition's time in reference-kernel units."""
        return sum(s / r for s, r in zip(self.job_s, self.job_refs()))

    def latencies_ref(self) -> list[float]:
        """Each evaluate call's latency in reference-kernel units."""
        out = []
        lat = iter(self.latencies_ms)
        for n, r in zip(self.job_calls, self.job_refs()):
            out.extend(next(lat) / 1e3 / r for _ in range(n))
        return out

    def collect(self) -> None:
        for job, res in zip(self.jobs, self.results):
            if job.grid is None:
                self.rows.append([wl.error_row(res) if isinstance(res, Exception)
                                  else wl.report_row(res)])
            elif res in (0, 3):  # 3: some rows errored, outputs still written
                self.rows.append(wl.read_csv_rows(job.csv, job.grid))
            else:
                raise RuntimeError(f"{job.label}: colltherm sweep exited {res}")


def per_call_median(series: list[list[float]]) -> list[float]:
    """Elementwise median over repetitions of equally long timing lists."""
    if len({len(s) for s in series}) != 1:
        raise RuntimeError("repetitions made different numbers of calls")
    return [statistics.median(col) for col in zip(*series)]


class LatencyProbe:
    """Times every ``protocols.evaluate`` call, whoever makes it."""

    def __init__(self):
        from colltherm import protocols

        self.samples_ms: list[float] = []  # pointed at each repetition's list in turn
        evaluate = protocols.evaluate
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t = clock()
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.samples_ms.append((clock() - t) * 1e3)

        self._undo = tracer.swap_bindings("colltherm", {evaluate: timed})

    def close(self) -> None:
        tracer.restore(self._undo)


def check(jobs: list, reps: list) -> dict:
    """Gate every row of every repetition against the reference."""
    outcomes = Counter()
    inventory = defaultdict(Counter)   # error class -> job group -> count, first repetition
    mismatches = []
    for r, rep in enumerate(reps):
        for job, rows in zip(jobs, rep.rows):
            n_baths = len(job.params["temperatures"])
            for k, (ref, cur) in enumerate(zip(job.ref_rows, rows)):
                outcome, detail = wl.check_row(ref, cur, n_baths)
                outcomes[outcome] += 1
                if outcome != "ok" and r == 0:
                    outcomes["failed_first_repetition"] += 1
                if ref[5]:
                    outcomes["raised_at_seed_too" if outcome == "raised" else "fixed"] += 1
                if outcome == "raised" and r == 0:
                    inventory[detail][job.group] += 1
                if outcome == "mismatch" and len(mismatches) < 20:
                    point = f" point {job.grid[k]:.4g}" if job.grid else ""
                    mismatches.append(f"{job.label}{point}: {detail}")
    return {"outcomes": dict(outcomes), "mismatches": mismatches,
            "inventory": {k: dict(v) for k, v in inventory.items()}}


def seed_failure_pass(failures: list) -> dict:
    """Run the entries that raised at the seed once, untimed, and gate them."""
    rep = Repetition(failures)
    rep.run()
    rep.collect()
    return {"jobs": len(failures), "points": sum(job.n_points for job in failures),
            "gate": check(failures, [rep])}


def layer_metrics(summaries: list, traced: list, untraced: list) -> dict:
    """Per-layer metrics, each the mean over the traced repetitions."""
    reps = len(summaries)
    mean = lambda key, name: sum(s[key].get(name, 0) for s in summaries) / reps  # noqa: E731
    points = sum(s["points"] for s in summaries) / reps
    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = (mean("self_s", layer), "s")
        out[f"{layer}.errors"] = (mean("errors", layer), "count")
        for fn in tracer.LISTED.get(layer, ()):
            out[f"{layer}.{fn}.calls"] = (mean("calls", f"{layer}.{fn}"), "count")
            out[f"{layer}.{fn}.s"] = (mean("s", f"{layer}.{fn}"), "s")
    for name in tracer.PER_POINT:
        out[f"{name}.per_point"] = (mean("calls", name) / points if points else 0.0, "calls/point")
    # Self-time accounting: summed self time plus the benchmark's own time
    # between its calls must give the traced repetition's wall time.
    wall = sum(r.wall for r in traced) / reps
    layers_self = sum(sum(s["self_s"].values()) for s in summaries) / reps
    own = sum(r.wall - sum(r.job_s) for r in traced) / reps
    out["trace.mean_wall_s"] = (wall, "s")
    out["trace.benchmark_self_s"] = (own, "s")
    out["trace.self_residual_s"] = (wall - layers_self - own, "s")
    traced_s = statistics.median(sum(r.job_s) for r in traced)
    untraced_s = statistics.median(sum(r.job_s) for r in untraced)
    out["trace.traced_wall_s"] = (traced_s, "s")
    out["trace.untraced_wall_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.points"] = (points, "count")
    out["trace.spans"] = (sum(s["spans"] for s in summaries) / reps, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def measure(args, jobs: list) -> dict:
    kernel = REFERENCE_KERNEL[args.workload]
    probe = None if args.trace else LatencyProbe()
    tr = tracer.Tracer() if args.trace else None
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    try:
        while True:
            rep = Repetition(jobs, kernel)
            if probe is not None:
                probe.samples_ms = rep.latencies_ms
            rep.run()
            rep.collect()
            untraced.append(rep)
            if tr is not None:
                tr.reset()
                tr.install()
                try:
                    rep = Repetition(jobs, kernel)
                    rep.run()
                finally:
                    tr.uninstall()
                rep.collect()
                traced.append(rep)
                summaries.append(tracer.summarize(tr.spans))
            # Stop before a repetition that would end past the deadline.
            elapsed = time.perf_counter() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
    finally:
        if probe is not None:
            probe.close()
    points = sum(job.n_points for job in jobs)
    reps = untraced + traced
    result = {
        "walls": [r.wall for r in untraced],
        "points_per_rep": points,
        "gate": check(jobs, reps),
        "attempted": points * len(reps),
    }
    if tr is not None:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.csv"
        tracer.write_spans(tr.spans, spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["layers"] = layer_metrics(summaries, traced, untraced)
    else:
        result["wall_s"] = statistics.median(sum(r.job_s) for r in untraced)
        result["wall_ref"] = statistics.median(r.wall_ref() for r in untraced)
        result["latencies_ms"] = per_call_median([r.latencies_ms for r in untraced])
        result["latencies_ref"] = per_call_median([r.latencies_ref() for r in untraced])
        result["ref_ms"] = statistics.median(x for r in untraced for x in r.ref_s) * 1e3
        result["kernel"] = kernel.__name__
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        jobs, failures = set_up(args.workload, args.seed, args.tiny, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            return 0
        result = measure(args, jobs)
        result["seed_failures"] = seed_failure_pass(failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        workload=args.workload,
        seed=args.seed,
        jobs=len(jobs),
        setup_in_process_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_record(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
