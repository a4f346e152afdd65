"""Self-test of the benchmark's output checks: each must reject a corrupted output.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the per-layer metrics a traced run
reports.  Runs small versions of the three workloads, confirms every check
passes on the real outputs, then feeds each check a corrupted copy and
confirms it is rejected.  Exits 0 when every case behaves as expected.
"""
import copy
import json
import math
import sys

import numpy as np

import checks
import run as bench
from spans import per_layer_units

N_SLOTS = 3000
SAMPLES = 10_000
SEED = 20240


def partial_run_cases():
    import secsched.simulator as simulator
    config = simulator.ScenarioConfig(csi="partial", eta=bench.ETA, colluding=True,
                                      n_slots=N_SLOTS, seed=SEED)
    summary = bench.summary_of(simulator.run(config))
    config = bench.config_doc(config)
    arrivals = checks.regenerate_arrivals(SEED, N_SLOTS, config["n_users"], config["a_max"],
                                          config["arrival_mean"])

    def all_checks(s):
        return (checks.check_queue_cap(s, config) + checks.check_power_telescoping(s, config)
                + checks.check_admitted_totals(s, arrivals)
                + checks.check_outage_within_eta(s, bench.ETA))

    yield "partial run: real output", all_checks(summary), False
    bad = dict(summary, max_queue=max(config["v"] * t for t in config["theta"])
               + config["a_max"] + 1e-9)
    yield "queue cap: max_queue over V*theta + A_max", checks.check_queue_cap(bad, config), True
    spent, budget = N_SLOTS * summary["avg_power"], N_SLOTS * config["p_av"]
    bad = dict(summary, power_queue_final=spent - budget - 1.0)
    yield "power telescoping: final queue too small", \
        checks.check_power_telescoping(bad, config), True
    rates = list(summary["admission_rate"])
    rates[1] = float(arrivals[:, 1].sum()) / N_SLOTS * (1 + 1e-12)
    yield "admitted totals: more admitted than arrived", \
        checks.check_admitted_totals(dict(summary, admission_rate=rates), arrivals), True
    n = summary["n_transmit_slots"]
    over = bench.ETA + 3.0 * math.sqrt(bench.ETA * (1 - bench.ETA) / n) + 1e-9
    yield "partial outage: outage over eta + 3 s.e.", \
        checks.check_outage_within_eta(dict(summary, empirical_outage=over), bench.ETA), True


def trace_cases():
    import secsched.cli as cli
    import secsched.simulator as simulator
    config = bench.config_doc(simulator.ScenarioConfig(n_slots=N_SLOTS, seed=SEED))
    bench.OUT.mkdir(exist_ok=True)
    config_path = bench.OUT / "selftest.config.json"
    summary_path = bench.OUT / "selftest.summary.csv"
    config_path.write_text(json.dumps(config))
    code = cli.main(["run", "--config", str(config_path), "--out", str(summary_path), "--trace"])
    assert code == 0, f"secsched run exited with {code}"
    k = config["n_users"]
    summary = bench.read_summary(summary_path, k)
    trace = bench.read_trace(bench.OUT / "selftest.summary.trace.csv", k)
    config["eta"] = 0.0
    arrivals = checks.regenerate_arrivals(SEED, N_SLOTS, k, config["a_max"],
                                          config["arrival_mean"])
    slots = np.unique(np.linspace(0, N_SLOTS - 1, 200).round().astype(int))

    yield "trace: real output", (
        checks.check_queue_cap(summary, config) + checks.check_power_telescoping(summary, config)
        + checks.check_admitted_totals(summary, arrivals)
        + checks.check_zero_outage(summary, trace)
        + checks.check_trace_replay(trace, config, arrivals)
        + checks.check_brute_force(trace, config, slots)), False

    row = N_SLOTS // 2
    bad = copy.deepcopy(trace)
    bad["queue"][row, 0] = np.nextafter(bad["queue"][row, 0], np.inf)
    yield "replay: one row's queue perturbed by one ulp", \
        checks.check_trace_replay(bad, config, arrivals), True
    bad = copy.deepcopy(trace)
    bad["power_queue"][row] += 1e-6
    yield "replay: one row's power queue perturbed", \
        checks.check_trace_replay(bad, config, arrivals), True
    bad = copy.deepcopy(trace)
    admitted_row = int(np.flatnonzero(bad["admitted"][:, 0] > 0)[0])
    bad["admitted"][admitted_row, 0] = 0.0
    yield "replay: admission against the V*theta rule", \
        checks.check_trace_replay(bad, config, arrivals), True
    bad = copy.deepcopy(trace)
    bad["arrival"][row, 1] += 1.0
    yield "replay: arrivals not from the arrival stream", \
        checks.check_trace_replay(bad, config, arrivals), True

    swapped = _swappable_slot(trace, config, slots)
    bad = copy.deepcopy(trace)
    bad["user"][swapped] = 1 - bad["user"][swapped]
    yield f"brute force: action at slot {swapped} swapped to the other user", \
        checks.check_brute_force(bad, config, slots), True
    bad = copy.deepcopy(trace)
    bad["outage"][row] = True
    yield "zero outage: one trace row in outage", checks.check_zero_outage(summary, bad), True
    yield "zero outage: summary outage above 0", \
        checks.check_zero_outage(dict(summary, empirical_outage=1.0 / N_SLOTS), trace), True


def _swappable_slot(trace, config, slots) -> int:
    """A sampled slot whose chosen action outscores the other user's same action."""
    power = np.asarray(config["power_grid"])
    fraction = np.asarray(config["ratio_grid"])
    legit = checks.regenerate_channels(SEED, checks.LEGIT, N_SLOTS, 2, config["n_antennas"], slots)
    eves = checks.regenerate_channels(SEED, checks.EVES, N_SLOTS, config["n_eves"],
                                      config["n_antennas"], slots)
    queue = np.vstack([np.zeros((1, 2)), trace["queue"]])
    power_queue = np.concatenate([[0.0], trace["power_queue"]])
    score, _ = checks.action_scores(legit, eves, queue[slots], power_queue[slots], power, fraction)
    for i, slot in enumerate(slots):
        p = int(np.flatnonzero(power == trace["power"][slot])[0])
        f = int(np.flatnonzero(fraction == trace["data_fraction"][slot])[0])
        user = int(trace["user"][slot])
        if score[i, user, p, f] > 1.001 * score[i, 1 - user, p, f] + 1e-6:
            return int(slot)
    raise AssertionError("no sampled slot has a strictly best user")


def calibration_cases():
    import dataclasses
    import secsched.secrecy as secrecy
    z_limit = checks.calibration_z_limit(2 * len(bench.INTERIOR))
    for colluding in (False, True):
        label = "colluding" if colluding else "non-colluding"
        rows = [dataclasses.asdict(r) for r in secrecy.calibrate_outage(
            n_antennas=6, n_eves=3, eta=bench.ETA, colluding=colluding,
            ratio_grid=bench.RATIO_GRID, samples=SAMPLES, seed=SEED)]
        yield f"calibration {label}: real rows", (
            checks.check_calibration(rows, bench.ETA, SAMPLES, bench.INTERIOR, z_limit)
            + checks.check_rate_costs(rows, bench.ETA, 6, 3, colluding)), False
        se = math.sqrt(bench.ETA * (1 - bench.ETA) / SAMPLES)
        bad = copy.deepcopy(rows)
        bad[3]["eta_estimate"] = bench.ETA + (z_limit + 0.1) * se
        bad[3]["passed"] = True
        yield f"calibration {label}: estimate outside the limit, row flag still PASS", \
            checks.check_calibration(bad, bench.ETA, SAMPLES, bench.INTERIOR, z_limit), True
        bad = copy.deepcopy(rows)
        bad[7]["rate_cost"] *= 1.0 + 1e-6
        yield f"calibration {label}: rate cost shifted by 1e-6", \
            checks.check_rate_costs(bad, bench.ETA, 6, 3, colluding), True
        yield f"calibration {label}: a fraction missing", \
            checks.check_calibration(rows[:-1], bench.ETA, SAMPLES, bench.INTERIOR, z_limit), True


def manifest_cases():
    """BENCHMARK.json's per-layer metrics are exactly those a traced run reports."""
    manifest = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

    def mismatches(reported):
        listed = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        return [f"{name}: listed {listed.get(name)}, reported {reported.get(name)}"
                for name in sorted(set(listed) | set(reported))
                if listed.get(name) != reported.get(name)]

    units = per_layer_units()
    yield "manifest: per-layer metrics of a traced run", mismatches(units), False
    dropped = dict(units)
    dropped.pop("cli.main.self_s")
    yield "manifest: a traced run missing one metric", mismatches(dropped), True


def main() -> int:
    if not (bench.SRC / "secsched" / "__init__.py").is_file():
        print(f"error: no secsched package under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    failures = 0
    for cases in (manifest_cases(), partial_run_cases(), trace_cases(),
                  calibration_cases()):
        for label, problems, should_fail in cases:
            ok = bool(problems) == should_fail
            failures += not ok
            verdict = "rejected" if problems else "accepted"
            print(f"[{'ok' if ok else 'WRONG'}] {label}: {verdict}"
                  + (f" ({problems[0]})" if problems else ""))
    print(f"{failures} case(s) behaved unexpectedly")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
