"""Command-line front end: single runs, parameter sweeps, outage calibration.

Configs are flat JSON documents whose keys mirror ScenarioConfig exactly;
unknown or missing keys are hard errors so a typo cannot silently change the
physics.

Every CSV (summary, trace, sweep, calibration) is written by `_write_csv`
from the fields of a dataclass: the config echo and `RunMetrics`, `SlotTrace`
or `OutageCalibrationRow`, one column per field and one per user for a
per-user field.  Each column is formatted by its dtype: floats to 17
significant digits so values round-trip, integers in full, booleans as
true/false.  Output is deterministic for a given config and seed.

Exit codes: 0 success, 1 configuration error or memory exhausted, 2 invariant
violation during a run, 3 I/O error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvariantViolation
from .secrecy import PARTIAL, OutageCalibrationRow, calibrate_outage
from .simulator import (
    _DEFAULT_RATIO_GRID, RunMetrics, ScenarioConfig, SlotTrace, _is_int, _is_number, run,
)

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))
# The summary CSV echoes every scalar field, in declaration order.
_CONFIG_ECHO = tuple(f.name for f in dataclasses.fields(ScenarioConfig) if f.type != "tuple")

_AXIS_TO_KEY = {
    "lambda": "arrival_mean",
    "v": "v",
    "n_antennas": "n_antennas",
    "eta": "eta",
}


def scenario_from_doc(doc: dict, source: str = "config") -> ScenarioConfig:
    """Build a ScenarioConfig from a flat key-value document, fail-closed.

    Only the document's shape is checked here; `ScenarioConfig.validate` checks
    every value's type and range."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source} must be a flat JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown {source} keys: {', '.join(unknown)}")
    required = set(_CONFIG_KEYS) - {"eta"}
    missing = sorted(required - set(doc))
    if missing:
        raise ConfigError(f"missing {source} keys: {', '.join(missing)}")
    if doc.get("csi") == PARTIAL and "eta" not in doc:
        raise ConfigError("missing config keys: eta (required when csi is 'partial')")
    if doc.get("csi") != PARTIAL and "eta" in doc:
        raise ConfigError("key conflict: eta is only meaningful when csi is 'partial'")

    config = ScenarioConfig(**doc)
    try:
        return config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _load_json(path: str):
    """Parse a JSON document; NaN, Infinity and numbers beyond the double range
    fail closed."""
    def non_finite(literal):
        raise ConfigError(f"{path}: {literal} is not a finite number")

    def finite(literal, parse=float):
        value = parse(literal)
        try:
            ok = math.isfinite(value)
        except OverflowError:  # an integer too large for a double
            ok = False
        if not ok:
            non_finite(literal)
        return value

    text = Path(path).read_text()
    try:
        return json.loads(text, parse_constant=non_finite, parse_float=finite,
                          parse_int=lambda literal: finite(literal, int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


# One printf conversion per column dtype kind: floats to 17 significant digits,
# so every value round-trips, and integers in full.  Booleans, turned into
# true/false one block at a time, strings and integers beyond 64 bits (object
# columns) are written as they are.
_CONVERSIONS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%s", "U": "%s", "O": "%s"}
_BLOCK = 4096


def _write_csv(fh, columns, header: bool = True):
    """Write `(name, values)` columns as CSV lines ending in CRLF.

    A column with one value per row is one CSV column; a (rows, k) column is k
    columns `name_0` ... `name_{k-1}`.  Rows are formatted 4096 at a time, so
    only one block of strings is alive.  Strings are not quoted: the only ones
    written are the CSI kind, the sweep axis and PASS/FAIL."""
    names, cells = [], []
    for name, values in columns:
        values = np.asarray(values)
        if values.ndim == 1:
            names.append(name)
            cells.append(values)
        else:
            names += [f"{name}_{i}" for i in range(values.shape[1])]
            cells += list(values.T)
    line = ",".join(_CONVERSIONS[cell.dtype.kind] for cell in cells) + "\r\n"
    if header:
        fh.write(",".join(names) + "\r\n")
    for start in range(0, len(cells[0]), _BLOCK):
        block = [cell[start:start + _BLOCK] for cell in cells]
        block = [np.where(cell, "true", "false") if cell.dtype.kind == "b" else cell
                 for cell in block]
        fh.write("".join(line % row for row in zip(*(cell.tolist() for cell in block))))


def _summary_columns(echo: dict, metrics: RunMetrics) -> list:
    """One row: the echoed values, then every RunMetrics field in declaration
    order but `n_slots` (the config echo holds it) and the trace."""
    fields = [(f.name, getattr(metrics, f.name)) for f in dataclasses.fields(RunMetrics)
              if f.name not in ("n_slots", "trace")]
    return [(name, np.asarray(value)[None]) for name, value in [*echo.items(), *fields]]


def _trace_path(out: str | None) -> str:
    if out is None:
        return "run.trace.csv"
    p = Path(out)
    return str(p.parent / (p.stem + ".trace.csv"))


def cmd_run(args) -> int:
    doc = _load_json(args.config)
    if args.seed is not None and isinstance(doc, dict):
        doc["seed"] = args.seed
    config = scenario_from_doc(doc)
    metrics = run(config, collect_trace=args.trace)
    echo = {key: getattr(config, key) for key in _CONFIG_ECHO}
    with _open_out(args.out) as fh:
        _write_csv(fh, _summary_columns(echo, metrics))
    if args.trace:
        with open(_trace_path(args.out), "w", newline="") as fh:
            _write_csv(fh, [(f.name, getattr(metrics.trace, f.name))
                            for f in dataclasses.fields(SlotTrace)])
    return 0


def _sweep_points(doc: dict, seed_override: int | None):
    if not isinstance(doc, dict):
        raise ConfigError("sweep config must be a JSON object")
    allowed = {"base", "axis", "values", "seed_policy"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown sweep keys: {', '.join(unknown)}")
    missing = sorted({"base", "axis", "values"} - set(doc))
    if missing:
        raise ConfigError(f"missing sweep keys: {', '.join(missing)}")
    axis = doc["axis"]
    if axis not in _AXIS_TO_KEY:
        raise ConfigError(
            f"axis must be one of {sorted(_AXIS_TO_KEY)}, got {axis!r}"
        )
    policy = doc.get("seed_policy", "shared")
    if policy not in ("shared", "incremented"):
        raise ConfigError(f"seed_policy must be 'shared' or 'incremented', got {policy!r}")
    values = doc["values"]
    if not isinstance(values, list) or not values or not all(_is_number(v) for v in values):
        raise ConfigError("values must be a non-empty list of numbers")
    if len(set(values)) != len(values):
        raise ConfigError("values must be distinct")
    values = sorted(values)
    base = doc["base"]
    if not isinstance(base, dict):
        raise ConfigError("base must be a flat JSON object")
    key = _AXIS_TO_KEY[axis]
    points = []
    for index, value in enumerate(values):
        point = dict(base, **{key: value})
        if seed_override is not None:
            point["seed"] = seed_override
        if policy == "incremented" and _is_int(point.get("seed")):
            point["seed"] += index
        config = scenario_from_doc(point, source=f"sweep point {axis}={value}")
        points.append((value, config))
    return axis, points


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    axis, points = _sweep_points(_load_json(args.config), args.seed)
    workers = min(args.jobs, len(points))  # a fork pool starts all its workers at once
    with _open_out(args.out) as fh:
        pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
        with pool or contextlib.nullcontext():
            results = (pool.map if pool else map)(run, [config for _, config in points])
            for index, ((value, config), metrics) in enumerate(zip(points, results)):
                echo = {"axis": axis, "value": value, "seed": config.seed}
                _write_csv(fh, _summary_columns(echo, metrics), header=index == 0)
                fh.flush()
    return 0


def cmd_validate_outage(args) -> int:
    rows = calibrate_outage(args.n_antennas, args.n_eves, args.eta, args.colluding,
                            _DEFAULT_RATIO_GRID, args.samples, args.seed)
    # one column per OutageCalibrationRow field, `passed` written as the status
    columns = [("status", ["PASS" if row.passed else "FAIL" for row in rows])
               if f.name == "passed" else (f.name, [getattr(row, f.name) for row in rows])
               for f in dataclasses.fields(OutageCalibrationRow)]
    with _open_out(args.out) as fh:
        _write_csv(fh, columns)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to the config exit code
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="secsched",
        description="Secrecy-aware downlink scheduling: runs, sweeps, outage checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write a summary row")
    p_run.add_argument("--config", required=True, help="path to a flat JSON scenario")
    p_run.add_argument("--out", default=None, help="summary CSV path (default: stdout)")
    p_run.add_argument("--trace", action="store_true",
                       help="also write a per-slot trace next to the summary")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across one parameter axis")
    p_sweep.add_argument("--config", required=True, help="path to a JSON sweep config")
    p_sweep.add_argument("--out", default=None, help="sweep CSV path (default: stdout)")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_val = sub.add_parser("validate-outage",
                           help="Monte-Carlo check of the partial-CSI outage design")
    p_val.add_argument("--n-antennas", type=int, default=6)
    p_val.add_argument("--n-eves", type=int, default=3)
    p_val.add_argument("--eta", type=float, required=True,
                       help="target secrecy-outage level in (0, 1)")
    p_val.add_argument("--colluding", action="store_true")
    p_val.add_argument("--samples", type=int, default=100_000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", default=None, help="calibration CSV path (default: stdout)")
    p_val.set_defaults(handler=cmd_validate_outage)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
