"""secsched benchmark: three workloads, end-to-end metrics and per-layer spans.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --seed <n>          # every workload, both passes

With ``--trace 0`` a run measures the end-to-end metrics with no spans
installed: one cold set-up in a fresh interpreter, then whole rounds of the
workload's operation until ``--seconds`` have passed, reporting medians over
the rounds.  With ``--trace 1`` the same rounds run with spans around the
layers' public functions and the per-layer metrics are reported.  Either way
the outputs are checked after the timed rounds (see checks.py).  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See README.md for the workloads and what each metric should move.
"""
import os

# One BLAS thread: the benchmark's load stays in one process on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import dataclasses
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, instrumented, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SECONDS = 42
N_SLOTS = 100_000
ETA = 0.1
CAL_SAMPLES = 20_000
RATIO_GRID = tuple(i / 20 for i in range(21))
INTERIOR = tuple(e for e in RATIO_GRID if 0.0 < e < 1.0)
BRUTE_FORCE_SLOTS = 1000
CHILD_TIMEOUT_S = 150

WORKLOADS = ("run-partial-colluding", "cli-trace-inst-noncolluding", "calibrate-outage")


def program_seed(seed: int, workload: str) -> int:
    """The program's seed for this workload, derived from the benchmark seed."""
    entropy = [seed, WORKLOADS.index(workload)]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": openblas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list) -> tuple:
    """Run a subprocess to its end; returns (exit code, wall seconds, peak RSS MB)."""
    with open(OUT / "child.stderr", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_summary(path: Path, n_users: int) -> dict:
    with open(path, newline="") as fh:
        header, values = list(csv.reader(fh))
    row = dict(zip(header, values))
    return {
        "n_slots": int(row["n_slots"]),
        "max_queue": float(row["max_queue"]),
        "avg_power": float(row["avg_power"]),
        "power_queue_final": float(row["power_queue_final"]),
        "empirical_outage": float(row["empirical_outage"]),
        "n_transmit_slots": int(row["n_transmit_slots"]),
        "admission_rate": [float(row[f"admission_rate_{i}"]) for i in range(n_users)],
    }


def read_trace(path: Path, n_users: int) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}

    def col(name):
        return np.array(columns[name], dtype=float)

    def per_user(prefix):
        return np.column_stack([col(f"{prefix}_{i}") for i in range(n_users)])

    return {
        "slot": col("slot"), "arrival": per_user("arrival"),
        "admitted": per_user("admitted"), "user": col("user"),
        "power": col("power"), "data_fraction": col("data_fraction"),
        "secrecy_rate": col("secrecy_rate"),
        "outage": np.array([v == "true" for v in columns["outage"]]),
        "queue": per_user("queue"), "power_queue": col("power_queue"),
    }


def summary_of(metrics) -> dict:
    return {
        "n_slots": metrics.n_slots, "max_queue": metrics.max_queue,
        "avg_power": metrics.avg_power, "power_queue_final": metrics.power_queue_final,
        "empirical_outage": metrics.empirical_outage,
        "n_transmit_slots": metrics.n_transmit_slots,
        "admission_rate": [float(a) for a in metrics.admission_rate],
    }


def config_doc(config) -> dict:
    """The scenario as the flat document the CLI reads."""
    doc = dataclasses.asdict(config)
    for key in ("theta", "power_grid", "ratio_grid"):
        doc[key] = list(doc[key])
    if doc["csi"] != "partial":
        del doc["eta"]
    return doc


# --- workloads ---------------------------------------------------------------

class Workload:
    """One set of inputs; `round` runs the timed operations of one round."""

    name = ""
    modules = ("secsched.simulator", "secsched.secrecy")
    ops_per_round = 1

    def __init__(self, seed: int):
        self.seed = program_seed(seed, self.name)

    def inputs(self) -> dict:
        raise NotImplementedError

    def round(self):
        raise NotImplementedError

    def spanned_round(self, tracer: Tracer):
        with instrumented(tracer, self.modules):
            return self.round()

    def check(self, outputs: list) -> list:
        raise NotImplementedError

    def layer_extras(self, tracer: Tracer):
        """Per-layer measurements taken outside the spanned rounds."""

    def peak_rss_mb(self) -> float:
        """Peak resident set so far of the process that ran the last round."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class RunPartialColluding(Workload):
    name = "run-partial-colluding"
    units_per_round = N_SLOTS

    def inputs(self):
        return {"config": {"csi": "partial", "eta": ETA, "colluding": True,
                           "n_slots": N_SLOTS, "seed": self.seed}}

    def round(self):
        import secsched.simulator as simulator
        config = simulator.ScenarioConfig(**self.inputs()["config"])
        return [summary_of(simulator.run(config))]

    def check(self, outputs):
        import secsched.simulator as simulator
        config = config_doc(simulator.ScenarioConfig(**self.inputs()["config"]))
        summary = outputs[0][0]
        arrivals = checks.regenerate_arrivals(config["seed"], N_SLOTS, config["n_users"],
                                              config["a_max"], config["arrival_mean"])
        problems = (checks.check_queue_cap(summary, config)
                    + checks.check_power_telescoping(summary, config)
                    + checks.check_admitted_totals(summary, arrivals)
                    + checks.check_outage_within_eta(summary, ETA))
        problems += [f"round {i}: output differs from round 0"
                     for i, out in enumerate(outputs) if out != outputs[0]]
        return problems


class CliTraceInstNoncolluding(Workload):
    name = "cli-trace-inst-noncolluding"
    units_per_round = N_SLOTS
    modules = ("secsched.cli", "secsched.simulator")

    def __init__(self, seed):
        super().__init__(seed)
        import secsched.simulator as simulator
        self.config = config_doc(simulator.ScenarioConfig(n_slots=N_SLOTS, seed=self.seed))
        self.config_path = OUT / f"{self.name}.config.json"
        self.summary_path = OUT / f"{self.name}.summary.csv"
        self.trace_path = OUT / f"{self.name}.summary.trace.csv"
        self.config_path.write_text(json.dumps(self.config))
        self.child_peak = None

    def argv(self):
        return ["run", "--config", str(self.config_path), "--out", str(self.summary_path),
                "--trace"]

    def inputs(self):
        return {"argv": self.argv()}

    def round(self):
        code, _, peak = run_child([sys.executable, "-m", "secsched.cli"] + self.argv())
        if code != 0:
            raise RuntimeError(f"secsched run exited with {code}")
        self.child_peak = peak
        return [(file_digest(self.summary_path), file_digest(self.trace_path))]

    def spanned_round(self, tracer):
        spans_path = OUT / f"{self.name}.spans.json"
        code, _, _ = run_child([sys.executable, str(HERE / "child.py"), "spanned-cli",
                                str(spans_path)] + self.argv())
        if code != 0:
            raise RuntimeError(f"spanned secsched run exited with {code}")
        tracer.merge(Tracer.from_json(json.loads(spans_path.read_text())))
        return [(file_digest(self.summary_path), file_digest(self.trace_path))]

    def peak_rss_mb(self):
        return self.child_peak

    def layer_extras(self, tracer):
        """Trace CSV size, and the memory the in-memory trace holds (tracemalloc)."""
        import secsched.simulator as simulator
        tracer.count("cli.trace_csv_mb", self.trace_path.stat().st_size / 1e6)
        config = simulator.ScenarioConfig(**self.config)
        tracemalloc.start()
        try:
            metrics = simulator.run(config, collect_trace=True)
            with_trace = tracemalloc.get_traced_memory()[0]
            metrics.trace = None
            without = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tracer.count("simulator.trace_retained_mb", (with_trace - without) / 1e6)

    def check(self, outputs):
        k = self.config["n_users"]
        summary = read_summary(self.summary_path, k)
        trace = read_trace(self.trace_path, k)
        config = self.config
        arrivals = checks.regenerate_arrivals(config["seed"], N_SLOTS, k,
                                              config["a_max"], config["arrival_mean"])
        slots = np.unique(np.linspace(0, N_SLOTS - 1, BRUTE_FORCE_SLOTS).round().astype(int))
        problems = (checks.check_queue_cap(summary, config)
                    + checks.check_power_telescoping(summary, config)
                    + checks.check_admitted_totals(summary, arrivals)
                    + checks.check_zero_outage(summary, trace)
                    + checks.check_trace_replay(trace, config, arrivals)
                    + checks.check_brute_force(trace, config, slots))
        problems += [f"round {i}: summary or trace CSV differs from round 0"
                     for i, out in enumerate(outputs) if out != outputs[0]]
        return problems


class CalibrateOutage(Workload):
    name = "calibrate-outage"
    units_per_round = 2 * len(INTERIOR) * CAL_SAMPLES
    ops_per_round = 2

    def inputs(self):
        return {"calls": [dict(n_antennas=6, n_eves=3, eta=ETA, colluding=colluding,
                               ratio_grid=list(RATIO_GRID), samples=CAL_SAMPLES,
                               seed=self.seed)
                          for colluding in (False, True)]}

    def round(self):
        import secsched.secrecy as secrecy
        return [[dataclasses.asdict(row) for row in secrecy.calibrate_outage(**call)]
                for call in self.inputs()["calls"]]

    def check(self, outputs):
        problems = []
        calls = self.inputs()["calls"]
        z_limit = checks.calibration_z_limit(len(calls) * len(INTERIOR))
        beyond = sum(checks.rows_beyond(rows, ETA, CAL_SAMPLES) for rows in outputs[0])
        print(f"{self.name}  rows beyond 3 s.e. = {beyond} of {len(calls) * len(INTERIOR)}")
        for call, rows in zip(calls, outputs[0]):
            label = "colluding" if call["colluding"] else "non-colluding"
            problems += [f"{label}: {p}" for p in
                         checks.check_calibration(rows, ETA, CAL_SAMPLES, INTERIOR, z_limit)
                         + checks.check_rate_costs(rows, ETA, call["n_antennas"],
                                                   call["n_eves"], call["colluding"])]
        problems += [f"round {i}: rows differ from round 0"
                     for i, out in enumerate(outputs) if out != outputs[0]]
        return problems


CLASSES = {cls.name: cls for cls in (RunPartialColluding, CliTraceInstNoncolluding,
                                     CalibrateOutage)}


# --- measurement -------------------------------------------------------------

def cold_setup_s(workload: Workload) -> float:
    """Fresh interpreter start to the first slot or sample of the operation."""
    inputs_path = OUT / f"{workload.name}.inputs.json"
    inputs_path.write_text(json.dumps(workload.inputs()))
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload.name,
                           str(inputs_path)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def timed_rounds(workload: Workload, seconds: float, spanned: bool):
    """Whole rounds, starting another only while it should end within `seconds`
    (at least one); returns per-round records."""
    records = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if spanned else None
        t0 = time.perf_counter()
        try:
            output = workload.spanned_round(tracer) if tracer else workload.round()
            error = None
        except Exception as exc:  # an operation that fails is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"wall_s": time.perf_counter() - t0, "output": output,
                        "error": error, "tracer": tracer, "peak_rss_mb": workload.peak_rss_mb()})
        if time.perf_counter() - start + records[-1]["wall_s"] > seconds:
            return records


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workload = CLASSES[name](seed)
    ops_per_round = workload.ops_per_round
    setup = None if trace else cold_setup_s(workload)
    records = timed_rounds(workload, seconds, trace)
    done = [r for r in records if r["error"] is None]
    failed = sum(ops_per_round for r in records if r["error"] is not None)
    problems = workload.check([r["output"] for r in done]) if done else []
    for r in records:
        if r["error"]:
            print(f"failed operation: {r['error']}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(workload, done)
    else:
        rates = [workload.units_per_round / r["wall_s"] for r in done]
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            # a process that ran the operation once, so the round count does not matter
            "peak_rss_mb": {"value": done[0]["peak_rss_mb"], "unit": "MB"},
        } if rates else {}
    return {"correct": not problems, "attempted": ops_per_round * len(records),
            "failed": failed, "metrics": metrics,
            "rounds": [{"wall_s": r["wall_s"], "error": r["error"]} for r in records]}


def layer_metrics(workload: Workload, done: list) -> dict:
    """Median over the spanned rounds of every per-layer metric."""
    if not done:
        return {}
    per_round = [r["tracer"].metrics() for r in done]
    metrics = {}
    for key, first in per_round[0].items():
        values = [m[key]["value"] for m in per_round if key in m]
        metrics[key] = {"value": statistics.median(values), "unit": first["unit"]}
    metrics["spanned.round_s"] = {"value": statistics.median(r["wall_s"] for r in done),
                                  "unit": "s"}
    extras = Tracer()
    workload.layer_extras(extras)
    metrics.update(extras.metrics())
    spans_doc = {"workload": workload.name, "rounds": [r["tracer"].to_json() for r in done]}
    (OUT / f"{workload.name}.spans.all.json").write_text(json.dumps(spans_doc))
    absent = sorted({a for r in done for a in r["tracer"].absent})
    if absent:
        print(f"absent wrap targets: {', '.join(absent)}")
    # Every workload reports every per-layer metric.  A span this workload never
    # enters spent 0 s in 0 calls; its `.calls` tells it apart from a fast span.
    not_run = [name for name in per_layer_units() if name not in metrics]
    for name in not_run:
        metrics[name] = {"value": 0, "unit": per_layer_units()[name]}
    if not_run:
        print(f"not entered or not counted on {workload.name}, reported as 0: "
              f"{', '.join(not_run)}")
    return metrics


def report(name: str, result: dict):
    for key, metric in sorted(result["metrics"].items()):
        print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name}  attempted = {result['attempted']}  failed = {result['failed']}  "
          f"correct = {result['correct']}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, unspanned then spanned, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                raise SystemExit(f"{name} --trace {trace} exited with {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = metric
            report(name, result)
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them, unspanned and spanned)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "secsched" / "__init__.py").is_file():
        print(f"error: no secsched package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import secsched
    if SRC not in Path(secsched.__file__).resolve().parents:
        print(f"error: imported secsched from {secsched.__file__}, not {SRC}", file=sys.stderr)
        return 2

    facts = machine()
    print(f"machine {json.dumps(facts)}")
    if args.workload is None:
        result = run_all(args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      machine=facts)
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        result.pop("rounds")
        report(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
