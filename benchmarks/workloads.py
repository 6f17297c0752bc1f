"""Seeded workloads of the colltherm benchmark and their correctness gate.

Every input comes from ``reference.json.gz``: a pool of parameter draws per
workload, each stored together with the rows the seed commit produced for
it.  ``--seed`` picks which pool entries a run uses, so the same seed gives
the same inputs and every row a run computes has a stored reference row.

The timed jobs (:func:`select`) are drawn from the entries the seed commit
evaluated without error, so no timed operation fails unless the program
changes.  The entries that raised at the seed (:func:`seed_failures`) are
run once per run, untimed, for the failure inventory: they stay visible
without making the timed figures depend on them.

Three workloads, all closed loop with one caller:

* ``stream_sweep`` -- fig3-shaped: uncorrelated qubit streams over a g2/pi
  grid, one ``colltherm sweep`` per series, in process.  Each n carries the
  fig3 base config (the anchor) plus seeded draws.
* ``joint_register`` -- correlated joint simulation, seeded sweeps per n.
* ``point_eval`` -- one ``protocols.evaluate`` call per seeded config,
  spread over the four evaluators; bypasses ``sweep`` and ``cli``.

Used by ``worker.py`` (the measuring process) and ``make_reference.py``.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json.gz"

WORKLOADS = ("stream_sweep", "joint_register", "point_eval")
SWEEP_AXIS = "g_t2_over_pi"
STREAM_NS = (1, 2, 3, 4, 6, 8, 12, 16)
JOINT_NS = (2, 3, 4, 5, 6)
STREAM_GRID = (0.25, 0.5, 0.75)
JOINT_GRID = (0.3, 0.7)
SERIES_POOL = 16    # reference series per n; entry 0 of stream_sweep is the fig3 anchor
STREAM_DRAWS = 8    # seeded series per n beside the anchor
JOINT_DRAWS = 3
# point_eval: calls per run in each (scenario, n) cell; the pool holds 4x as many.
POINT_CELLS = {
    ("single", 1): 41,
    **{("uncorrelated", n): 8 for n in range(2, 9)},
    **{("qutrit", n): 11 for n in range(1, 6)},
    **{("correlated", n): 16 for n in range(2, 5)},
}
POINT_POOL_FACTOR = 4

# Tiny mode: a few rows of the same pools, for the smoke test.
TINY_STREAM_NS, TINY_STREAM_GRID = (1, 12, 16), (0, 1, 2)
TINY_FAILURES = 1   # seed-failure entries per n (stream_sweep) or in all (point_eval)
TINY_JOINT_NS, TINY_JOINT_GRID = (2, 3), (0, 1)
TINY_POINT_CELLS = (("single", 1), ("uncorrelated", 2), ("qutrit", 1), ("correlated", 2))

# Row comparison.  Values move by rounding only unless the program changes;
# 1e-6 relative leaves room for exact derivatives replacing finite differences.
RTOL = 1e-6
ETA_ATOL = 1e-9
ETA_ACC_ATOL = 1e-6
DET_ATOL = 1e-9     # times (trace / N)^N, the natural size of an N x N determinant
ROW_FIELDS = ("eta_joint", "eta_acc", "det_qfim", "trace_qfim", "singular", "error")


def load_reference() -> dict:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One sweep series (``grid`` set) or one point call (``grid`` None).

    ``group`` is what the failure inventory counts by; ``config`` is set up
    by the worker: a config-file path for a series, a ``ProtocolConfig``
    for a point.
    """

    group: str
    label: str
    params: dict
    ref_rows: list
    grid: tuple | None = None
    config: object = None
    csv: Path | None = None

    @property
    def n_points(self) -> int:
        return len(self.grid) if self.grid is not None else 1


def raised_at_seed(entry: dict) -> bool:
    """Whether any reference row of a pool entry raised at the seed commit."""
    return any(row[5] for row in entry.get("rows", [entry.get("row")]))


def select(reference: dict, workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The timed jobs of one run: clean pool entries picked by ``seed``."""
    rng = random.Random(seed)
    ref = reference[workload]
    jobs = []
    if workload == "point_eval":
        for cell, count in POINT_CELLS.items():
            key = f"{cell[0]}/{cell[1]}"
            pool = ref["cells"][key]
            picks = rng.sample([i for i, e in enumerate(pool) if not raised_at_seed(e)], count)
            if tiny:
                picks = picks[:1] if cell in TINY_POINT_CELLS else []
            jobs.extend(_point_job(cell, i, pool[i]) for i in picks)
        rng.shuffle(jobs)
        return jobs

    stream = workload == "stream_sweep"
    index = range(len(ref["grid"]))
    if tiny:
        index = TINY_STREAM_GRID if stream else TINY_JOINT_GRID
    per_n = 1 + STREAM_DRAWS if stream else JOINT_DRAWS
    for n in STREAM_NS if stream else JOINT_NS:
        pool = ref["series"][str(n)]
        clean = [i for i, e in enumerate(pool) if not raised_at_seed(e)]
        if stream and clean[0] == 0:  # the fig3 anchor, whenever the seed evaluates it cleanly
            picks = [0] + sorted(rng.sample(clean[1:], per_n - 1))
        else:
            picks = sorted(rng.sample(clean, min(per_n, len(clean))))
        if tiny:
            if n not in (TINY_STREAM_NS if stream else TINY_JOINT_NS):
                continue
            picks = picks[:1]
        jobs.extend(_series_job(ref, n, i, stream, index) for i in picks)
    return jobs


def seed_failures(reference: dict, workload: str, tiny: bool = False) -> list[Job]:
    """Every pool entry that raised at the seed commit, whatever the seed."""
    ref = reference[workload]
    if workload == "point_eval":
        jobs = [_point_job(tuple(key.split("/")), i, e)
                for key, pool in ref["cells"].items()
                for i, e in enumerate(pool) if raised_at_seed(e)]
        return jobs[:TINY_FAILURES] if tiny else jobs
    stream = workload == "stream_sweep"
    jobs = []
    for n, pool in ref["series"].items():
        picks = [i for i, e in enumerate(pool) if raised_at_seed(e)]
        if tiny:
            picks = picks[:TINY_FAILURES] if int(n) in TINY_STREAM_NS else []
        jobs.extend(_series_job(ref, int(n), i, stream, range(len(ref["grid"]))) for i in picks)
    return jobs


def _point_job(cell: tuple, i: int, entry: dict) -> Job:
    group = f"{cell[0]} n={cell[1]}"
    return Job(group, f"{group} #{i}", entry["params"], [entry["row"]])


def _series_job(ref: dict, n: int, i: int, stream: bool, index) -> Job:
    entry = ref["series"][str(n)][i]
    label = f"n={n} " + ("anchor" if stream and i == 0 else f"#{i}")
    return Job(f"n={n}", label, entry["params"], [entry["rows"][k] for k in index],
               tuple(ref["grid"][k] for k in index))


def config_mapping(params: dict, grid: tuple | None = None) -> dict:
    """The CLI config-file mapping of one job (sweep block when ``grid`` is set)."""
    out = {
        "baths": [{"temperature": t, "gamma_t": params["gamma_t"]}
                  for t in params["temperatures"]],
        "collision_angles_over_pi": list(params["angles_over_pi"]),
        "ancilla_dim": params["ancilla_dim"],
        "n_ancillas": params["n"],
        "rotation": {"theta_over_pi": params["theta_over_pi"], "axis": "x"},
        "correlated": params["scenario"] == "correlated",
        "scenario": params["scenario"],
    }
    if grid is not None:
        out["sweep"] = {"axis": SWEEP_AXIS, "values": list(grid)}
    return out


def protocol_config(params: dict):
    """A ``ProtocolConfig`` built through the public constructors."""
    from colltherm.channels import BathSpec, RotationSpec
    from colltherm.protocols import ProtocolConfig

    return ProtocolConfig(
        baths=tuple(BathSpec(temperature=t, therm_time=params["gamma_t"])
                    for t in params["temperatures"]),
        collision_angles=tuple(g * math.pi for g in params["angles_over_pi"]),
        ancilla_dim=params["ancilla_dim"],
        n_ancillas=params["n"],
        rotation=RotationSpec(params["theta_over_pi"] * math.pi, "x"),
        correlated=params["scenario"] == "correlated",
    )


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------

def report_row(report) -> list:
    return [report.eta_joint, report.eta_acc, report.qfim.det, report.qfim.trace,
            bool(report.singular), None]


def error_row(exc: BaseException) -> list:
    return [math.nan, math.nan, math.nan, math.nan, None, f"{type(exc).__name__}: {exc}"]


def read_csv_rows(path: Path, grid: tuple) -> list:
    """Rows of a sweep CSV in the reference layout; raises on a wrong shape."""
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    if len(table) != len(grid):
        raise ValueError(f"{path.name}: {len(table)} rows, expected {len(grid)}")
    rows = []
    for value, rec in zip(grid, table):
        if not math.isclose(float(rec[SWEEP_AXIS]), value, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"{path.name}: axis value {rec[SWEEP_AXIS]} != {value}")
        rows.append([
            *(float(rec[k]) if rec[k] else math.nan for k in ROW_FIELDS[:4]),
            {"true": True, "false": False}.get(rec["singular"]),
            rec["error"] or None,
        ])
    return rows


def error_class(message: str) -> str:
    """An error message with its numbers masked, so failures group by kind."""
    return re.sub(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", "#", message)


def _close(a: float, b: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + atol


def check_row(ref: list, cur: list, n_baths: int) -> tuple[str, str]:
    """Compare a row with its seed-commit reference.

    Returns ``(outcome, detail)``.  Outcomes: ``ok``; ``raised`` (the point
    raised; ``detail`` is its error class); ``mismatch`` (numbers differ from
    the reference, or a point that raised at the seed now returns a
    non-finite report).  A point that raised at the seed and now succeeds is
    only checked for giving a finite report.
    """
    if cur[5]:
        return "raised", error_class(cur[5])
    eta_joint, eta_acc, det, trace, singular = cur[:5]
    if ref[5]:
        finite = all(math.isfinite(v) for v in (eta_joint, det, trace))
        finite = finite and (math.isfinite(eta_acc) or (eta_acc == -math.inf and singular))
        return ("ok", "fixed since the seed") if finite else ("mismatch", "non-finite report")
    det_atol = DET_ATOL * max(abs(ref[3]) / n_baths, 1e-300) ** n_baths
    checks = (
        ("eta_joint", _close(eta_joint, ref[0], ETA_ATOL)),
        ("eta_acc", _close(eta_acc, ref[1], ETA_ACC_ATOL)),
        ("det_qfim", _close(det, ref[2], det_atol)),
        ("trace_qfim", _close(trace, ref[3], ETA_ATOL * abs(ref[3]))),
        ("singular", singular == ref[4]),
    )
    bad = [name for name, good in checks if not good]
    if bad:
        return "mismatch", ", ".join(f"{k} {cur[ROW_FIELDS.index(k)]!r} != {ref[ROW_FIELDS.index(k)]!r}"
                                     for k in bad)
    return "ok", ""
