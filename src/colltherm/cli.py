"""Command-line front end.

Subcommands:

* ``run``    — evaluate a preset study (``--scenario fig2..fig5``) or a
               config file (``--config``), writing a CSV table and a JSON
               summary.
* ``sweep``  — like ``run --config`` but requires the config to contain a
               ``sweep`` block (ad-hoc parameter scans).
* ``verify`` — run the built-in oracle suite (all groups or ``--group``).

Exit codes: 0 success; 2 configuration error (message names the offending
field, e.g. ``baths[0].temperature``); 3 numerical failure (some grid rows
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
from dataclasses import dataclass
from datetime import datetime, timezone

import yaml

from .channels import BathSpec, RotationSpec
from .estimation import EstimationReport
from .presets import PRESETS, get_preset
from .protocols import (
    ProtocolConfig,
    SweepGrid,
    SWEEP_AXES,
    _SCENARIOS,
    _point,
    _sweep_points,
    scenario_for,
)
from .verify import GROUPS, run_all, run_group

__all__ = ["main", "ConfigError", "RunManifest", "load_config"]

MERIT_COLUMNS = ("eta_joint", "eta_acc", "det_qfim", "trace_qfim", "singular", "error")
_SCENARIO_NAMES = tuple(_SCENARIOS)


class ConfigError(Exception):
    """Configuration problem; the message names the offending field."""


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every JSON summary."""

    config_path: str | None
    scenario: str
    output_path: str
    seed: int
    emitted_at: str

    def as_dict(self) -> dict:
        return {
            "config_path": self.config_path,
            "scenario": self.scenario,
            "output_path": self.output_path,
            "seed": self.seed,
            "emitted_at": self.emitted_at,
        }


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def _expect(mapping, key, path, *, required=False, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    return mapping[key]


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _parse_bath(entry, path) -> BathSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'temperature' key")
    known = {"temperature", "omega", "gamma", "gamma_t"}
    for key in entry:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field (allowed: {sorted(known)})")
    temperature = _as_number(_expect(entry, "temperature", path, required=True), f"{path}.temperature")
    omega = _as_number(entry.get("omega", 1.0), f"{path}.omega")
    gamma = _as_number(entry.get("gamma", 1.0), f"{path}.gamma")
    gamma_t = _as_number(entry.get("gamma_t", 0.5), f"{path}.gamma_t")
    if gamma_t < 0:
        raise ConfigError(f"{path}.gamma_t: must be >= 0, got {gamma_t}")
    therm_time = gamma_t / gamma if gamma > 0 else 0.0
    try:
        return BathSpec(temperature=temperature, omega=omega, gamma=gamma, therm_time=therm_time)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _parse_sweep(entry, path) -> tuple[str, tuple[float, ...]]:
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected a mapping with an 'axis' key")
    axis = _expect(entry, "axis", path, required=True)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"{path}.axis: unknown axis {axis!r} (allowed: {sorted(SWEEP_AXES)})")
    if "values" in entry:
        raw = entry["values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values: expected a nonempty list of numbers")
        values = tuple(_as_number(v, f"{path}.values[{i}]") for i, v in enumerate(raw))
    else:
        start = _as_number(_expect(entry, "start", path, required=True), f"{path}.start")
        stop = _as_number(_expect(entry, "stop", path, required=True), f"{path}.stop")
        step = _as_number(_expect(entry, "step", path, required=True), f"{path}.step")
        if step <= 0 or stop < start:
            raise ConfigError(f"{path}: need step > 0 and stop >= start")
        count = int(round((stop - start) / step))
        values = tuple(start + i * step for i in range(count + 1))
    return axis, values


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

    known = {
        "baths", "collision_angles_over_pi", "ancilla_dim", "n_ancillas",
        "ancilla_init", "rotation", "rotation_enabled", "correlated",
        "apply_rotation_after_last", "scenario", "sweep",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown field (allowed: {sorted(known)})")

    baths_raw = _expect(raw, "baths", "config", required=True)
    if not isinstance(baths_raw, list) or not baths_raw:
        raise ConfigError("baths: expected a nonempty list")
    baths = tuple(_parse_bath(b, f"baths[{i}]") for i, b in enumerate(baths_raw))

    angles_raw = _expect(raw, "collision_angles_over_pi", "config", required=True)
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
        for key in rot_raw:
            if key not in ("theta_over_pi", "axis"):
                raise ConfigError(f"rotation.{key}: unknown field")
        theta = _as_number(rot_raw.get("theta_over_pi", 0.25), "rotation.theta_over_pi") * math.pi
        axis = rot_raw.get("axis", "x")
        try:
            rotation = RotationSpec(theta, axis)
        except ValueError as exc:
            raise ConfigError(f"rotation.{exc}") from None

    kwargs = dict(
        baths=baths,
        collision_angles=angles,
        rotation=rotation,
    )
    if "ancilla_dim" in raw:
        kwargs["ancilla_dim"] = _as_int(raw["ancilla_dim"], "ancilla_dim")
    if "n_ancillas" in raw:
        kwargs["n_ancillas"] = _as_int(raw["n_ancillas"], "n_ancillas")
    if "ancilla_init" in raw:
        kwargs["ancilla_init"] = _as_int(raw["ancilla_init"], "ancilla_init")
    if "rotation_enabled" in raw:
        kwargs["rotation_enabled"] = _as_bool(raw["rotation_enabled"], "rotation_enabled")
    if "correlated" in raw:
        kwargs["correlated"] = _as_bool(raw["correlated"], "correlated")
    if "apply_rotation_after_last" in raw:
        kwargs["apply_rotation_after_last"] = _as_bool(
            raw["apply_rotation_after_last"], "apply_rotation_after_last"
        )
    try:
        config = ProtocolConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    scenario = raw.get("scenario") or scenario_for(config)
    if scenario not in _SCENARIO_NAMES:
        raise ConfigError(f"scenario: unknown scenario {scenario!r} (allowed: {_SCENARIO_NAMES})")

    grid = None
    if "sweep" in raw:
        axis, values = _parse_sweep(raw["sweep"], "sweep")
        try:
            grid = SweepGrid(axis, values, config)
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from None
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
            "thermal_fim_diag": [float(x) for x in report.thermal.matrix.diagonal()],
            "eta_joint": report.eta_joint,
            "eta_acc": report.eta_acc,
            "det_qfim": report.qfim.det,
            "trace_qfim": report.qfim.trace,
            "sld_commutator_norm": report.sld_commutator_norm,
            "singular": report.singular,
        }
    )


def write_summary(path: str, manifest: RunManifest, columns, rows, optimum) -> None:
    n_errors = sum(1 for r in rows if r.get("error"))
    payload = {
        "manifest": manifest.as_dict(),
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


def _emit_outputs(out_path, columns, points, manifest_args) -> int:
    """Write the table and the summary of (row, report) pairs; the report of
    a failed row is None."""
    rows = [row for row, _report in points]
    write_csv(out_path, columns, rows)

    best = _pick_optimum(points)
    optimum = None
    if best is not None:
        row, report = best
        optimum = {"row": dict(row), "report": _report_payload(report)}
    manifest = RunManifest(
        config_path=manifest_args["config_path"],
        scenario=manifest_args["scenario"],
        output_path=os.path.abspath(out_path),
        seed=manifest_args["seed"],
        emitted_at=datetime.now(timezone.utc).isoformat(),
    )
    write_summary(_summary_path(out_path), manifest, columns, rows, optimum)

    n_errors = sum(1 for r in rows if r.get("error"))
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

def _run_preset(name: str, out_path: str, seed: int) -> int:
    preset = get_preset(name)
    columns = (preset.axis_name, *preset.label_columns, *MERIT_COLUMNS)
    points = []
    for series in preset.series:
        for row, report in _sweep_points(series.grid, series.scenario):
            merged = {preset.axis_name: row.pop("axis_value"), **series.labels, **row}
            points.append((merged, report))
    return _emit_outputs(
        out_path, columns, points,
        {"config_path": None, "scenario": name, "seed": seed},
    )


def _run_config(config_path: str, out_path: str, seed: int, require_sweep: bool) -> int:
    config, scenario, grid = load_config(config_path)
    if require_sweep and grid is None:
        raise ConfigError("sweep: required block is missing from the config file")

    if grid is None:
        points = [_point(config, scenario)]
        columns = MERIT_COLUMNS
    else:
        columns = (grid.axis_name, *MERIT_COLUMNS)
        points = []
        for row, report in _sweep_points(grid, scenario):
            merged = {grid.axis_name: row.pop("axis_value"), **row}
            points.append((merged, report))
    return _emit_outputs(
        out_path, columns, points,
        {"config_path": os.path.abspath(config_path), "scenario": scenario, "seed": seed},
    )


def cmd_run(args) -> int:
    if bool(args.scenario) == bool(args.config):
        raise ConfigError("run needs exactly one of --scenario or --config")
    if args.scenario:
        return _run_preset(args.scenario, args.out, args.seed)
    return _run_config(args.config, args.out, args.seed, require_sweep=False)


def cmd_sweep(args) -> int:
    if not args.config:
        raise ConfigError("sweep needs --config with a sweep block")
    return _run_config(args.config, args.out, args.seed, require_sweep=True)


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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1234, help="seed for randomized checks")

    p_run = sub.add_parser("run", parents=[common], help="evaluate a preset or a config file")
    p_run.add_argument("--scenario", choices=tuple(PRESETS), help="preset study to run")
    p_run.add_argument("--config", help="YAML config file (alternative to --scenario)")
    p_run.add_argument("--out", required=True, help="output CSV path (JSON summary beside it)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run the sweep block of a config file")
    p_sweep.add_argument("--config", required=True, help="YAML config file with a sweep block")
    p_sweep.add_argument("--out", required=True, help="output CSV path (JSON summary beside it)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[common], help="run the built-in oracle suite")
    p_verify.add_argument("--group", choices=sorted(GROUPS), help="run a single oracle group")
    p_verify.add_argument("--trials", type=int, default=200,
                          help="randomized trials per group (default 200)")
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
