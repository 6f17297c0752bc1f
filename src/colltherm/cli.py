"""Command-line front end.

Subcommands:

* ``run``    — evaluate a preset study (``--scenario fig2..fig5``) or a
               config file (``--config``), writing a CSV table and a JSON
               summary.
* ``sweep``  — like ``run --config`` but requires the config to contain a
               ``sweep`` block (ad-hoc parameter scans).
* ``verify`` — run the built-in oracle suite (all groups or ``--group``);
               the only subcommand with a ``--seed``.

The CLI is a thin shell over :mod:`colltherm.protocols`: every preset, sweep
and point goes through its public ``point`` and ``sweep``, and one loop
turns their ``(row, report)`` pairs into a table; ``load_config`` checks a
file's ``scenario`` against every config it places.
A preset's columns are read off its curves (:data:`PRESETS`).  A config
file's defaults and input rules are the library's: ``load_config`` passes
on only the keys the file gives, and where the library's message names a
field the file spells otherwise (``gamma_t``, ``*_over_pi``) it says the
file's name.  ``main`` builds one argument parser per process, on its
first call.

Exit codes: 0 success; 2 configuration error (message names the offending
field, e.g. ``baths[0].temperature``, ``scenario`` when a config it places
breaks the precondition of the scenario it names, or ``--out`` when an
output cannot be written there); 3 numerical failure (some grid rows
errored; outputs are still written).  ``verify`` exits 1 on the first
failing oracle.

Outputs are written atomically (temp file in the target directory, then
rename) with the mode ``open()`` would give them, CSV with LF line endings
and 12 significant digits, so identical inputs produce byte-identical tables.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import sys
from datetime import datetime, timezone

import yaml

from .channels import BathSpec, RotationSpec, _as_float
from .estimation import EstimationReport
from .presets import PRESETS
from .protocols import (
    MERIT_COLUMNS,
    ProtocolConfig,
    SweepGrid,
    SWEEP_AXES,
    check_scenario,
    point,
    sweep,
    sweep_values,
)
from .verify import GROUPS, run_all, run_group

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(Exception):
    """Configuration problem; the message names the offending field."""


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def _field(path, key):
    return f"{path}.{key}" if path else key


def _required(mapping, key, path=""):
    if key not in mapping:
        raise ConfigError(f"{_field(path, key)}: required field is missing")
    return mapping[key]


def _as_number(value, path):
    try:
        return _as_float(path, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _times_pi(value, path):
    """A ``*_over_pi`` value in radians, refused under the file's name when
    it, or its product with pi, is not finite."""
    return _as_number(_as_number(value, path) * math.pi, path)


def _reject_unknown(mapping, known, path=""):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{_field(path, key)}: unknown field (allowed: {sorted(known)})")


# a bath's keys in the file and the BathSpec fields they set
_BATH_KEYS = {"temperature": "temperature", "omega": "omega", "gamma_t": "therm_time"}


def _parse_bath(entry, path) -> BathSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'temperature' key")
    _reject_unknown(entry, _BATH_KEYS, path)
    _required(entry, "temperature", path)
    try:
        return BathSpec(**{_BATH_KEYS[key]: value for key, value in entry.items()})
    except ValueError as exc:  # BathSpec's message starts with its field: say the file's key
        field, message = str(exc).split(": ", 1)
        key = next(key for key, name in _BATH_KEYS.items() if name == field)
        raise ConfigError(f"{path}.{key}: {message}") from None


_RANGE_KEYS = ("start", "stop", "step")


def _parse_sweep(entry, path) -> tuple[str, tuple[float, ...]]:
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected a mapping with an 'axis' key")
    _reject_unknown(entry, {"axis", "values", *_RANGE_KEYS}, path)
    axis = _required(entry, "axis", path)
    if not (isinstance(axis, str) and axis in SWEEP_AXES):
        raise ConfigError(f"{path}.axis: unknown axis {axis!r} (allowed: {sorted(SWEEP_AXES)})")
    if "values" in entry:
        mixed = [key for key in _RANGE_KEYS if key in entry]
        if mixed:
            raise ConfigError(f"{path}: give values or start/stop/step, not both (got {mixed})")
        raw = entry["values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values: expected a nonempty list of numbers")
        values = tuple(_as_number(v, f"{path}.values[{i}]") for i, v in enumerate(raw))
    else:
        start, stop, step = (
            _as_number(_required(entry, key, path), f"{path}.{key}")
            for key in _RANGE_KEYS
        )
        try:
            values = sweep_values(start, stop, step)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    # named as the file wrote it, not as the config field the grid sets: a
    # collision angle or gamma*t must be >= 0, a value over pi finite times pi
    for i, v in enumerate(values):
        where = f"{path}." + (f"values[{i}]" if "values" in entry else "start" if v < 0 else "stop")
        if v < 0 and (axis.startswith("g_t") or axis == "gamma_t"):
            raise ConfigError(f"{where}: must be >= 0, got {v}")
        if axis.endswith("_over_pi"):
            _times_pi(v, where)
    return axis, values


# top-level fields passed to ProtocolConfig as the file gives them; it checks them
_SCALAR_KEYS = ("ancilla_dim", "n_ancillas", "correlated")


def load_config(path: str):
    """Parse and validate a YAML config file.

    Returns ``(ProtocolConfig, scenario_name | None, SweepGrid | None)``;
    the scenario is the ``scenario`` key, checked against the config and
    every config the sweep places, or None when the file names none.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's loader where PyYAML was built with it; same classes, same errors
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file does not parse as YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    _reject_unknown(raw, {"baths", "collision_angles_over_pi", "rotation", "scenario", "sweep",
                          *_SCALAR_KEYS})

    baths_raw = _required(raw, "baths")
    if not isinstance(baths_raw, list) or not baths_raw:
        raise ConfigError("baths: expected a nonempty list")
    baths = tuple(_parse_bath(b, f"baths[{i}]") for i, b in enumerate(baths_raw))

    angles_raw = _required(raw, "collision_angles_over_pi")
    if not isinstance(angles_raw, list):
        raise ConfigError("collision_angles_over_pi: expected a list of numbers")
    angles = []
    for i, v in enumerate(angles_raw):
        field = f"collision_angles_over_pi[{i}]"
        angles.append(_times_pi(v, field))
        if angles[-1] < 0:
            raise ConfigError(f"{field}: must be >= 0, got {float(v)}")

    fields = {key: raw[key] for key in _SCALAR_KEYS if key in raw}
    if "rotation" in raw:
        if not isinstance(raw["rotation"], dict):
            raise ConfigError("rotation: expected a mapping")
        rotation = dict(raw["rotation"])
        _reject_unknown(rotation, {"theta_over_pi", "axis"}, "rotation")
        if "theta_over_pi" in rotation:
            rotation["theta"] = _times_pi(rotation.pop("theta_over_pi"), "rotation.theta_over_pi")
        try:
            fields["rotation"] = RotationSpec(**rotation)
        except ValueError as exc:
            raise ConfigError(f"rotation.{exc}") from None

    try:
        config = ProtocolConfig(baths=baths, collision_angles=angles, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    grid, configs = None, [config]
    if "sweep" in raw:
        axis, values = _parse_sweep(raw["sweep"], "sweep")
        try:
            grid = SweepGrid(axis, values, config)
            configs += [grid.at(v) for v in grid.values]  # each must place, e.g. a whole n_ancillas
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from None

    scenario = raw.get("scenario")
    try:
        for c in configs:
            check_scenario(scenario, c)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None
    return config, scenario, grid


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``, made by ``open()`` with
    0o666 less the umask, copy the permission bits of any file already at
    ``path``, and rename it over ``path``; an ``OSError`` is a ConfigError."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".colltherm-{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                fh.write(text)
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ConfigError(f"--out: cannot write '{path}': {exc.strerror or exc}") from None


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(path: str, columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(col)) for col in columns])
    _atomic_write(path, buf.getvalue())


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _report_payload(report: EstimationReport) -> dict:
    return _json_safe(
        {
            "qfim": [[float(x) for x in row] for row in report.qfim.matrix],
            "thermal_fim_diag": [float(x) for x in report.thermal],
            "eta_joint": report.eta_joint,
            "eta_acc": report.eta_acc,
            "det_qfim": report.qfim.det,
            "trace_qfim": report.qfim.trace,
            "singular": report.singular,
        }
    )


def write_summary(path: str, manifest: dict, columns, rows, n_errors: int, optimum) -> None:
    payload = {
        "manifest": manifest,
        "columns": list(columns),
        "n_rows": len(rows),
        "n_errors": n_errors,
        "optimum": optimum,
    }
    _atomic_write(path, json.dumps(_json_safe(payload), indent=2) + "\n")


def _pick_optimum(points):
    """Best (row, report): largest finite eta_acc, falling back to largest
    eta_joint."""
    for merit in ("eta_acc", "eta_joint"):
        finite = [
            item for item in points
            if not item[0].get("error") and math.isfinite(item[0].get(merit, math.nan))
        ]
        if finite:
            return max(finite, key=lambda item: item[0][merit])
    return None


def _emit_outputs(out_path, columns, points, config_path, scenario) -> int:
    """Write the table and the summary of (row, report) pairs; the report of
    a failed row is None."""
    rows = [row for row, _report in points]
    write_csv(out_path, columns, rows)

    best = _pick_optimum(points)
    optimum = None
    if best is not None:
        row, report = best
        optimum = {"row": dict(row), "report": _report_payload(report)}
    manifest = {
        "config_path": config_path,
        "scenario": scenario,
        "output_path": os.path.abspath(out_path),
        "emitted_at": datetime.now(timezone.utc).isoformat(),
    }
    n_errors = sum(1 for r in rows if r.get("error"))
    write_summary(os.path.splitext(out_path)[0] + ".json", manifest, columns, rows, n_errors,
                  optimum)
    if n_errors:
        print(f"{n_errors} of {len(rows)} grid points failed; see the error column in {out_path}",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _series_points(series) -> list:
    """The (row, report) pairs of every (labels, grid) series in order, each
    row keyed by its grid's swept axis, then the labels, then
    :data:`MERIT_COLUMNS`."""
    return [
        ({grid.axis_name: row.pop("axis_value"), **labels, **row}, report)
        for labels, grid in series
        for row, report in sweep(grid)
    ]


def _run_preset(name: str, out_path: str) -> int:
    series = PRESETS[name]
    labels, grid = series[0]
    columns = (grid.axis_name, *labels, *MERIT_COLUMNS)
    return _emit_outputs(out_path, columns, _series_points(series), None, name)


def _run_config(config_path: str, out_path: str, require_sweep: bool) -> int:
    config, scenario, grid = load_config(config_path)
    if require_sweep and grid is None:
        raise ConfigError("sweep: required block is missing from the config file")

    if grid is None:
        columns, points = MERIT_COLUMNS, [point(config)]
    else:
        columns = (grid.axis_name, *MERIT_COLUMNS)
        points = _series_points([({}, grid)])
    return _emit_outputs(out_path, columns, points, os.path.abspath(config_path), scenario)


def cmd_run(args) -> int:
    if bool(args.scenario) == bool(args.config):
        raise ConfigError("run needs exactly one of --scenario or --config")
    if args.scenario:
        return _run_preset(args.scenario, args.out)
    return _run_config(args.config, args.out, require_sweep=False)


def cmd_sweep(args) -> int:
    return _run_config(args.config, args.out, require_sweep=True)


def cmd_verify(args) -> int:
    if args.group:
        results = {args.group: run_group(args.group, seed=args.seed, trials=args.trials)}
    else:
        results = run_all(seed=args.seed, trials=args.trials)
    first_fail = None
    for group, checks in results.items():
        for check in checks:
            status = "PASS" if check.ok else "FAIL"
            print(f"{status}  {group}/{check.name}  residual {check.residual:.3e}"
                  + (f"  ({check.detail})" if check.detail and not check.ok else ""))
            if not check.ok and first_fail is None:
                first_fail = (group, check)
    if first_fail:
        group, check = first_fail
        print(f"verify failed at {group}/{check.name}: residual {check.residual:.3e}",
              file=sys.stderr)
        return 1
    print("all oracle groups passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colltherm",
        description="Collisional multi-bath temperature estimation: sweeps, presets, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a preset or a config file")
    p_run.add_argument("--scenario", choices=tuple(PRESETS), help="preset study to run")
    p_run.add_argument("--config", help="YAML config file (alternative to --scenario)")
    p_run.add_argument("--out", required=True, help="output CSV path (JSON summary beside it)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the sweep block of a config file")
    p_sweep.add_argument("--config", required=True, help="YAML config file with a sweep block")
    p_sweep.add_argument("--out", required=True, help="output CSV path (JSON summary beside it)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in oracle suite")
    p_verify.add_argument("--seed", type=int, default=1234, help="seed for randomized checks")
    p_verify.add_argument("--group", choices=sorted(GROUPS), help="run a single oracle group")
    p_verify.add_argument("--trials", type=int, default=200,
                          help="randomized trials per group (default 200); every group runs "
                          "at least 20, theorem1 at least 100")
    p_verify.set_defaults(func=cmd_verify)
    return parser


_parser = None  # built on main's first call


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
