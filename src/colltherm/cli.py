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
and point goes through its public ``check_scenario``, ``point`` and
``sweep``, and one loop turns their ``(row, report)`` pairs into a table.

Exit codes: 0 success; 2 configuration error (message names the offending
field, e.g. ``baths[0].temperature``, or ``scenario`` when the base config
breaks its scenario's precondition); 3 numerical failure (some grid rows
errored; outputs are still written).  ``verify`` exits 1 on the first
failing oracle.

Outputs are written atomically (temp file in the target directory, then
rename), CSV with LF line endings and 12 significant digits, so identical
inputs produce byte-identical tables.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import yaml

from .channels import BathSpec, RotationSpec
from .estimation import EstimationReport
from .presets import PRESETS, get_preset
from .protocols import (
    MERIT_COLUMNS,
    ProtocolConfig,
    SweepGrid,
    SWEEP_AXES,
    check_scenario,
    point,
    scenario_for,
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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _reject_unknown(mapping, known, path=""):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{_field(path, key)}: unknown field (allowed: {sorted(known)})")


def _parse_bath(entry, path) -> BathSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'temperature' key")
    _reject_unknown(entry, {"temperature", "omega", "gamma_t"}, path)
    temperature = _as_number(_required(entry, "temperature", path), f"{path}.temperature")
    omega = _as_number(entry.get("omega", 1.0), f"{path}.omega")
    gamma_t = _as_number(entry.get("gamma_t", 0.5), f"{path}.gamma_t")
    if gamma_t < 0:
        raise ConfigError(f"{path}.gamma_t: must be >= 0, got {gamma_t}")
    try:
        return BathSpec(temperature=temperature, omega=omega, therm_time=gamma_t)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


_RANGE_KEYS = ("start", "stop", "step")


def _parse_sweep(entry, path) -> tuple[str, tuple[float, ...]]:
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected a mapping with an 'axis' key")
    _reject_unknown(entry, {"axis", "values", *_RANGE_KEYS}, path)
    axis = _required(entry, "axis", path)
    if axis not in SWEEP_AXES:
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
    return axis, values


# top-level scalar fields of ProtocolConfig and their converters
_SCALARS = {
    "ancilla_dim": _as_int,
    "n_ancillas": _as_int,
    "correlated": _as_bool,
}


def load_config(path: str):
    """Parse and validate a YAML config file.

    Returns ``(ProtocolConfig, scenario_name, SweepGrid | None)``.
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
                          *_SCALARS})

    baths_raw = _required(raw, "baths")
    if not isinstance(baths_raw, list) or not baths_raw:
        raise ConfigError("baths: expected a nonempty list")
    baths = tuple(_parse_bath(b, f"baths[{i}]") for i, b in enumerate(baths_raw))

    angles_raw = _required(raw, "collision_angles_over_pi")
    if not isinstance(angles_raw, list):
        raise ConfigError("collision_angles_over_pi: expected a list of numbers")
    angles = tuple(
        _as_number(v, f"collision_angles_over_pi[{i}]") * math.pi
        for i, v in enumerate(angles_raw)
    )

    rotation = RotationSpec(math.pi / 4, "x")
    if "rotation" in raw:
        rot_raw = raw["rotation"]
        if not isinstance(rot_raw, dict):
            raise ConfigError("rotation: expected a mapping")
        _reject_unknown(rot_raw, {"theta_over_pi", "axis"}, "rotation")
        theta = _as_number(rot_raw.get("theta_over_pi", 0.25), "rotation.theta_over_pi") * math.pi
        axis = rot_raw.get("axis", "x")
        try:
            rotation = RotationSpec(theta, axis)
        except ValueError as exc:
            raise ConfigError(f"rotation.{exc}") from None

    scalars = {key: convert(raw[key], key) for key, convert in _SCALARS.items() if key in raw}
    try:
        config = ProtocolConfig(baths=baths, collision_angles=angles, rotation=rotation, **scalars)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    grid, placed = None, [config]
    if "sweep" in raw:
        axis, values = _parse_sweep(raw["sweep"], "sweep")
        try:
            grid = SweepGrid(axis, values, config)
            placed = [grid.at(v) for v in grid.values]
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from None

    # unnamed, a sweep runs under its last point's scenario: an n_ancillas
    # series from 1 is a stream, whose n = 1 point is the single run
    scenario = raw.get("scenario")
    if scenario is None:
        scenario = scenario_for(placed[-1])
    try:
        check_scenario(scenario, config)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None
    return config, scenario, grid


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".colltherm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
            "sld_commutator_norm": report.sld_commutator_norm,
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
    finite = [
        (row, report)
        for row, report in points
        if not row.get("error") and math.isfinite(row.get("eta_acc", float("-inf")))
    ]
    if finite:
        return max(finite, key=lambda item: item[0]["eta_acc"])
    usable = [
        (row, report)
        for row, report in points
        if not row.get("error") and math.isfinite(row.get("eta_joint", float("nan")))
    ]
    if usable:
        return max(usable, key=lambda item: item[0]["eta_joint"])
    return None


def _summary_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".json"


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
    write_summary(_summary_path(out_path), manifest, columns, rows, n_errors, optimum)
    if n_errors:
        print(
            f"{n_errors} of {len(rows)} grid points failed; see the error column in {out_path}",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _series_points(axis: str, series) -> list:
    """The (row, report) pairs of every (labels, scenario, grid) series in
    order, each row keyed by the swept ``axis``, then the labels, then
    :data:`MERIT_COLUMNS`."""
    return [
        ({axis: row.pop("axis_value"), **labels, **row}, report)
        for labels, scenario, grid in series
        for row, report in sweep(grid, scenario)
    ]


def _run_preset(name: str, out_path: str) -> int:
    preset = get_preset(name)
    columns = (preset.axis_name, *preset.label_columns, *MERIT_COLUMNS)
    series = [(s.labels, s.scenario, s.grid) for s in preset.series]
    return _emit_outputs(out_path, columns, _series_points(preset.axis_name, series), None, name)


def _run_config(config_path: str, out_path: str, require_sweep: bool) -> int:
    config, scenario, grid = load_config(config_path)
    if require_sweep and grid is None:
        raise ConfigError("sweep: required block is missing from the config file")

    if grid is None:
        columns, points = MERIT_COLUMNS, [point(config, scenario)]
    else:
        columns = (grid.axis_name, *MERIT_COLUMNS)
        points = _series_points(grid.axis_name, [({}, scenario, grid)])
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
