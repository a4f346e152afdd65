"""In-memory spans around calls into the program's layers.

A span wraps one call of a public function, installed at the attribute the
consuming module looks up (for example ``secsched.simulator.channel_stats``
for the slot loop, ``secsched.secrecy.channel_stats`` for the outage
calibration), so the production code runs unchanged between the spans.  A
span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time

# Units of the counters, which are summed like self times.
UNITS = {
    "secrecy.capacity_grids.out_mb": "MB",
    "simulator.trace_retained_mb": "MB",
    "cli.trace_csv_mb": "MB",
}


class Tracer:
    """Records spans (name, start, end, parent) and per-name aggregates."""

    def __init__(self):
        self.spans = []         # finished spans, in finishing order
        self.calls = {}         # span name -> times entered
        self.self_s = {}        # span name -> summed self time
        self.counters = {}      # counter name -> summed value
        self.installed = set()  # span names whose wrap was installed
        self.absent = []        # wrap targets that do not exist
        self._stack = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        self.installed.add(name)
        frame = {"name": name, "start": time.perf_counter(), "child": 0.0,
                 "parent": self._stack[-1]["id"] if self._stack else None,
                 "id": self._next_id}
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame["start"]
            if self._stack:
                self._stack[-1]["child"] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame["child"]
            self.spans.append({"id": frame["id"], "parent": frame["parent"], "name": name,
                               "start": frame["start"], "end": end})

    def count(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def metrics(self) -> dict:
        """Per-layer metrics: `<span>.calls` for every installed span, `<span>.self_s`
        for every span entered at least once, and the counters.  A span whose
        target was missing, or that was never entered, has no self time."""
        out = {}
        for name in sorted(self.installed):
            out[f"{name}.calls"] = {"value": self.calls.get(name, 0), "unit": "count"}
            if self.calls.get(name):
                out[f"{name}.self_s"] = {"value": self.self_s[name], "unit": "s"}
        for name, value in sorted(self.counters.items()):
            out[name] = {"value": value, "unit": UNITS[name]}
        return out

    def to_json(self) -> dict:
        return {"spans": self.spans, "absent": self.absent,
                "calls": self.calls, "self_s": self.self_s,
                "counters": self.counters, "installed": sorted(self.installed)}

    @classmethod
    def from_json(cls, doc: dict) -> "Tracer":
        tracer = cls()
        tracer.spans = doc["spans"]
        tracer.absent = doc["absent"]
        tracer.calls = doc["calls"]
        tracer.self_s = doc["self_s"]
        tracer.counters = doc["counters"]
        tracer.installed = set(doc["installed"])
        return tracer

    def merge(self, other: "Tracer"):
        self.spans.extend(other.spans)
        self.absent.extend(other.absent)
        self.installed |= other.installed
        for name, value in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in other.self_s.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        for name, value in other.counters.items():
            self.count(name, value)


def _grid_bytes(result) -> float:
    return float(sum(grid.nbytes for grid in result))


# (module, attribute, span name, counter fed from the result)
WRAPS = (
    ("secsched.simulator", "sample_realization_batch", "channel.sample_realization_batch", None),
    ("secsched.secrecy", "sample_complex_gaussian", "channel.sample_complex_gaussian", None),
    ("secsched.simulator", "channel_stats", "secrecy.channel_stats", None),
    ("secsched.secrecy", "channel_stats", "secrecy.channel_stats", None),
    ("secsched.simulator", "capacity_grids", "secrecy.capacity_grids",
     ("secrecy.capacity_grids.out_mb", lambda result: _grid_bytes(result) / 1e6)),
    ("secsched.simulator", "secrecy_rate_grid", "secrecy.secrecy_rate_grid", None),
    ("secsched.simulator", "rate_cost_table", "secrecy.rate_cost_table", None),
    ("secsched.secrecy", "calibrate_outage", "secrecy.calibrate_outage", None),
    ("secsched.simulator", "run", "simulator.run", None),
    ("secsched.cli", "run", "simulator.run", None),
)

# The benchmark's own span around its call of `secsched.cli.main`.
MAIN_SPAN = "cli.main"

SPAN_NAMES = tuple(sorted({span for _, _, span, _ in WRAPS} | {MAIN_SPAN}))


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"spanned.round_s": "s", **UNITS}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    return dict(sorted(units.items()))


def _wrapped(tracer: Tracer, fn, span_name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(counter[0], counter[1](result))
        return result
    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer, modules):
    """Install every wrap whose module is in `modules`; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name, counter in WRAPS:
            if module_name not in modules:
                continue
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                tracer.absent.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrapped(tracer, fn, span_name, counter))
            tracer.installed.add(span_name)
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
