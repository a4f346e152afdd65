"""Command-line front end: single runs, parameter sweeps, outage calibration.

Configs are flat JSON documents whose keys mirror ScenarioConfig exactly;
unknown or missing keys are hard errors so a typo cannot silently change the
physics.  All CSV output is deterministic for a given config and seed, with
floats printed to 17 significant digits so values round-trip.

Exit codes: 0 success, 1 configuration error or memory exhausted, 2 invariant
violation during a run, 3 I/O error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvariantViolation
from .secrecy import PARTIAL, calibrate_outage
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


def _fmt(value) -> str:
    # floats first: they are most of a trace's values, and no bool or int is one
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


# RunMetrics fields in summary-column order: scalars, then one column per user.
_SCALAR_METRICS = (
    "weighted_admission_rate", "avg_power", "empirical_outage",
    "n_transmit_slots", "max_queue", "max_power_queue",
    "power_queue_final", "max_served_rate", "empirical_gamma",
)
_PER_USER_METRICS = ("admission_rate", "avg_queue", "slots_served")


def _metric_columns(k: int) -> list[str]:
    return list(_SCALAR_METRICS) + [
        f"{name}_{i}" for name in _PER_USER_METRICS for i in range(k)
    ]


def _metric_values(metrics: RunMetrics) -> list:
    values = [getattr(metrics, name) for name in _SCALAR_METRICS]
    for name in _PER_USER_METRICS:
        values += list(getattr(metrics, name))
    return values


def _write_summary(fh, config: ScenarioConfig, metrics: RunMetrics):
    writer = csv.writer(fh)
    writer.writerow(list(_CONFIG_ECHO) + _metric_columns(config.n_users))
    echo = [getattr(config, key) for key in _CONFIG_ECHO]
    writer.writerow([_fmt(v) for v in echo + _metric_values(metrics)])


def _write_trace(fh, trace: SlotTrace):
    """One column per SlotTrace field, or per user (`name_i`) for a per-user field."""
    header, columns = [], []
    for field in dataclasses.fields(SlotTrace):
        values = getattr(trace, field.name)
        if values.ndim == 1:
            header.append(field.name)
            columns.append(values)
        else:
            header += [f"{field.name}_{i}" for i in range(values.shape[1])]
            columns += list(values.T)
    writer = csv.writer(fh)
    writer.writerow(header)
    # format 4096 rows at a time, so only one block of strings is alive
    for start in range(0, len(trace.slot), 4096):
        writer.writerows(zip(*(map(_fmt, c[start:start + 4096].tolist()) for c in columns)))


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
    with _open_out(args.out) as fh:
        _write_summary(fh, config, metrics)
    if args.trace:
        with open(_trace_path(args.out), "w", newline="") as fh:
            _write_trace(fh, metrics.trace)
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
    axis, points = _sweep_points(_load_json(args.config), args.seed)
    k = points[0][1].n_users
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "seed"] + _metric_columns(k))
        pool = ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else None
        with pool or contextlib.nullcontext():
            results = (pool.map if pool else map)(run, [config for _, config in points])
            for (value, config), metrics in zip(points, results):
                writer.writerow([_fmt(v) for v in
                                 [axis, value, config.seed] + _metric_values(metrics)])
                fh.flush()
    return 0


def cmd_validate_outage(args) -> int:
    rows = calibrate_outage(args.n_antennas, args.n_eves, args.eta, args.colluding,
                            _DEFAULT_RATIO_GRID, args.samples, args.seed)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        # one column per OutageCalibrationRow field, `passed` written as the status
        writer.writerow(["epsilon", "rate_cost", "eta_target", "eta_estimate",
                         "stderr", "n_samples", "status"])
        for row in rows:
            *values, passed = dataclasses.astuple(row)
            writer.writerow([_fmt(v) for v in values] + ["PASS" if passed else "FAIL"])
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
