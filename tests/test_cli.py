"""Command-line interface: config handling, CSV output, exit codes."""
import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secsched.cli as cli
import secsched.simulator as simulator
from secsched import (
    ScenarioConfig, SlotTrace, calibrate_outage, run, sample_realization_batch,
)
from secsched.cli import main

BASE = {
    "n_antennas": 6, "n_eves": 3, "n_users": 2,
    "colluding": False, "csi": "instantaneous",
    "v": 100.0, "theta": [1.0, 1.0],
    "power_grid": [0.0, 100.0, 200.0, 300.0],
    "ratio_grid": [i / 20 for i in range(21)],
    "p_av": 200.0, "arrival_mean": 30.0, "a_max": 30,
    "n_slots": 200, "seed": 42,
}


def _write_config(path, **overrides):
    doc = dict(BASE)
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- run ---------------------------------------------------------------------

def test_run_writes_summary(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "summary.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 2
    header, data = rows
    row = dict(zip(header, data))
    assert row["n_antennas"] == "6"
    assert row["csi"] == "instantaneous"
    assert row["colluding"] == "false"
    assert row["seed"] == "42"
    assert int(row["n_transmit_slots"]) > 0
    assert float(row["empirical_outage"]) == 0.0
    assert float(row["max_queue"]) <= 130.0
    assert header == [
        "n_antennas", "n_eves", "n_users", "colluding", "csi", "eta", "v", "p_av",
        "arrival_mean", "a_max", "n_slots", "seed",
        "weighted_admission_rate", "avg_power", "empirical_outage", "n_transmit_slots",
        "max_queue", "max_power_queue", "power_queue_final", "max_served_rate",
        "empirical_gamma", "admission_rate_0", "admission_rate_1", "avg_queue_0",
        "avg_queue_1", "slots_served_0", "slots_served_1",
    ]


def test_run_is_byte_reproducible(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_floats_round_trip(tmp_path):
    import secsched
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "summary.csv"
    main(["run", "--config", cfg, "--out", str(out)])
    header, data = _read_csv(out)
    row = dict(zip(header, data))
    metrics = secsched.run(secsched.ScenarioConfig(
        **{k: (tuple(v) if isinstance(v, list) else v) for k, v in BASE.items()}))
    assert float(row["avg_power"]) == metrics.avg_power
    assert float(row["weighted_admission_rate"]) == metrics.weighted_admission_rate
    assert float(row["empirical_gamma"]) == metrics.empirical_gamma


def test_run_to_stdout(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", n_slots=50)
    assert main(["run", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "weighted_admission_rate" in captured
    assert len(captured.strip().splitlines()) == 2


def test_run_seed_override(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", cfg, "--out", str(out1), "--seed", "42"])
    main(["run", "--config", cfg, "--out", str(out2), "--seed", "43"])
    rows1, rows2 = _read_csv(out1), _read_csv(out2)
    assert dict(zip(*rows1))["seed"] == "42"
    assert dict(zip(*rows2))["seed"] == "43"
    assert rows1[1] != rows2[1]


def test_run_trace(tmp_path):
    cfg = _write_config(tmp_path / "c.json", n_slots=100)
    out = tmp_path / "r.csv"
    assert main(["run", "--config", cfg, "--out", str(out), "--trace"]) == 0
    trace = _read_csv(tmp_path / "r.trace.csv")
    header, data = trace[0], trace[1:]
    assert len(data) == 100
    assert header[0] == "slot"
    q0, q1 = header.index("queue_0"), header.index("queue_1")
    outage_col = header.index("outage")
    for row in data:
        assert float(row[q0]) <= 130.0 and float(row[q1]) <= 130.0
        assert row[outage_col] in ("true", "false")
    assert [r[0] for r in data] == [str(i) for i in range(100)]
    assert header == [
        "slot", "arrival_0", "arrival_1", "admitted_0", "admitted_1", "user", "power",
        "data_fraction", "codeword_rate", "rate_cost", "secrecy_rate",
        "eavesdropper_capacity", "outage", "queue_0", "queue_1", "power_queue",
    ]

    # every column is the library trace's, value for value
    doc = dict(BASE, n_slots=100)
    expected = run(ScenarioConfig(**{k: (tuple(v) if isinstance(v, list) else v)
                                     for k, v in doc.items()}), collect_trace=True).trace
    columns = dict(zip(header, zip(*data)))
    derived = []
    for field in dataclasses.fields(SlotTrace):
        values = getattr(expected, field.name)
        if values.ndim == 1:
            names, values = [field.name], [values]
        else:
            names = [f"{field.name}_{i}" for i in range(values.shape[1])]
            values = list(values.T)
        derived += names
        for name, column in zip(names, values):
            if field.name == "outage":
                assert list(columns[name]) == ["true" if v else "false" for v in column]
            else:
                assert [float(v) for v in columns[name]] == column.tolist()
    assert header == derived


# --- config errors ---------------------------------------------------------------

def test_unknown_key_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", typo_key=1)
    assert main(["run", "--config", cfg]) == 1
    assert "typo_key" in capsys.readouterr().err


def test_missing_key_fails(tmp_path, capsys):
    doc = dict(BASE)
    del doc["p_av"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 1
    assert "p_av" in capsys.readouterr().err


def test_eta_under_instantaneous_is_a_conflict(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", eta=0.3)
    assert main(["run", "--config", cfg]) == 1
    assert "eta" in capsys.readouterr().err


def test_partial_requires_eta(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", csi="partial")
    assert main(["run", "--config", cfg]) == 1
    assert "eta" in capsys.readouterr().err


def test_partial_with_eta_works(tmp_path):
    cfg = _write_config(tmp_path / "c.json", csi="partial", eta=0.3, n_slots=50)
    out = tmp_path / "s.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, data = _read_csv(out)
    assert dict(zip(header, data))["eta"] == "0.29999999999999999"


def test_type_errors_fail_closed(tmp_path):
    assert main(["run", "--config", _write_config(tmp_path / "a.json", n_slots=True)]) == 1
    assert main(["run", "--config", _write_config(tmp_path / "b.json", n_slots=10.5)]) == 1
    assert main(["run", "--config", _write_config(tmp_path / "c.json", colluding="yes")]) == 1
    assert main(["run", "--config", _write_config(tmp_path / "d.json", theta=[])]) == 1
    assert main(["run", "--config", _write_config(tmp_path / "e.json", v="high")]) == 1
    # a null theta is refused, not read as the library's one-per-user default
    assert main(["run", "--config", _write_config(tmp_path / "f.json", theta=None)]) == 1


def test_malformed_json_fails(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_non_object_json_fails(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2, 3]")
    assert main(["run", "--config", str(path)]) == 1


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_invalid_physics_exits_one(tmp_path):
    cfg = _write_config(tmp_path / "c.json", colluding=True, n_eves=6)
    assert main(["run", "--config", cfg]) == 1


def test_run_with_uninvertible_outage_level_exits_one(tmp_path, capsys):
    # 1 - (1 - eta)^(1/n_eves) rounds to 0, so no rate cost meets the target
    cfg = _write_config(tmp_path / "c.json", csi="partial", eta=1e-300)
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "outage level 1e-300" in err


def test_run_without_interior_fractions_needs_no_inversion(tmp_path, capsys):
    # fractions 0 and 1 cost 0 and inf whatever eta is, so eta = 1e-300 runs
    cfg = _write_config(tmp_path / "c.json", csi="partial", eta=1e-300, ratio_grid=[0, 1])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_overflowing_power_grid_exits_one(tmp_path, capsys):
    # X*P reaches n_slots * 1e600 for this grid: rejected before any slot runs
    cfg = _write_config(tmp_path / "c.json", power_grid=[0.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "power_grid" in err and "Traceback" not in err


def test_overflowing_arrival_cap_exits_one(tmp_path, capsys):
    # arrivals are Binomial(a_max, .) draws, whose trial count is a C long
    cfg = _write_config(tmp_path / "c.json", a_max=10**20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "a_max" in err and "Traceback" not in err


@pytest.mark.parametrize("key,literal", [
    ("theta", "[1.0, NaN]"), ("theta", "[NaN, 1.0]"), ("p_av", "Infinity"),
    ("v", "-Infinity"), ("arrival_mean", "1e400"), ("v", "1" + "0" * 400),
    ("n_slots", "1" + "0" * 400),
])
def test_non_finite_numbers_exit_one(tmp_path, capsys, key, literal):
    # json accepts NaN and Infinity literals, reads 1e400 as inf and keeps
    # 10**400 as an int no double holds; a config must not reach the run
    # with any of them
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(BASE, **{key: "@"})).replace('"@"', literal))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1  # --config is required
    assert main(["frobnicate"]) == 1
    assert main(["run", "--config", "x.json", "--seed", "notanint"]) == 1
    capsys.readouterr()


def test_run_bounds_the_chunk_of_a_large_grid(tmp_path, monkeypatch):
    # 64 users x 11 powers x 101 fractions: a slot's cells, their lists and one
    # fraction's temporaries outgrow a 4096-slot chunk, so the chunk shrinks to
    # the memory budget (`ScenarioConfig._slot_doubles`)
    counts = []

    def sample(config, streams, count):
        counts.append(count)
        return sample_realization_batch(config, streams, count)

    monkeypatch.setattr(simulator, "sample_realization_batch", sample)
    cfg = _write_config(tmp_path / "c.json", n_users=64, theta=[1.0] * 64,
                        power_grid=[30.0 * i for i in range(11)],
                        ratio_grid=[i / 100 for i in range(101)], n_slots=200)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    slot = cli.scenario_from_doc(json.loads(Path(cfg).read_text()))._slot_doubles()
    assert sum(counts) == 200 and max(counts) * slot <= simulator._CHUNK_DOUBLES
    assert max(counts) < simulator._CHUNK


def test_run_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    # a trace too long to allocate, without allocating it: numpy raises a
    # MemoryError subclass ("Unable to allocate 7.28 TiB ...")
    def no_memory(cls, n_slots, n_users):
        raise MemoryError(f"Unable to allocate a trace of {n_slots} slots")

    monkeypatch.setattr(SlotTrace, "empty", classmethod(no_memory))
    cfg = _write_config(tmp_path / "c.json", n_slots=10)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.csv"), "--trace"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "10 slots" in err
    assert "Traceback" not in err


# JSON that json.dumps cannot write: the parser must turn each away, not the run.
_RAW_LITERALS = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-" + "9" * 40)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)
_NUMBERS = (st.floats(-1.0, 400.0) | st.integers() | st.floats(allow_nan=False)
            | st.sampled_from([2**63, 2**64, 5e-324]))
# Values of the key's own JSON type, the likeliest to get past the type checks.
_TYPED = {
    "int": st.integers(-1, 64) | st.integers() | st.sampled_from([2**63 - 1, 2**63, 2**64]),
    "float": _NUMBERS,
    "bool": st.booleans(),
    "str": st.sampled_from(["partial", "instantaneous", ""]) | st.text(max_size=4),
    "tuple": st.lists(_NUMBERS, max_size=5),
}
# Sizes that pass validation stay this small, so every run is short and light.
_SIZE_LIMITS = {"n_slots": 50, "n_users": 4, "n_antennas": 8, "n_eves": 8}
# Config keys and their annotations: "int", "float", "bool", "str" or "tuple".
_KINDS = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


@st.composite
def _mutated_config_text(draw):
    doc = dict(BASE, n_slots=draw(st.integers(1, 50)))
    keys = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=2,
                         unique=True))
    literals = {}
    for key in keys:
        kind = draw(st.sampled_from(["raw", "any", "typed", "typed"]))
        if kind == "raw":
            doc[key] = placeholder = f"@raw{len(literals)}@"
            literals[placeholder] = draw(st.sampled_from(_RAW_LITERALS))
            continue
        value = draw(_ANY_JSON if kind == "any" else _TYPED[_KINDS[key]])
        if key in _SIZE_LIMITS and type(value) is int:
            value = min(value, _SIZE_LIMITS[key])
        doc[key] = value
    text = json.dumps(doc)
    for placeholder, literal in literals.items():
        text = text.replace(json.dumps(placeholder), literal)
    return text


@settings(max_examples=60, deadline=None)
@given(text=_mutated_config_text())
def test_run_fails_closed_on_any_config(text):
    # Any document either runs or is refused as a configuration error, with
    # `error:` and no traceback; never an invariant violation or a crash.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "r.csv")])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:")


# --- sweep -----------------------------------------------------------------------

def _write_sweep(path, axis, values, policy=None, base_overrides=None, drop=()):
    base = dict(BASE)
    base.update(base_overrides or {})
    for key in drop:
        del base[key]
    doc = {"base": base, "axis": axis, "values": values}
    if policy is not None:
        doc["seed_policy"] = policy
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_sorted_rows_and_shared_seed(tmp_path):
    cfg = _write_sweep(tmp_path / "s.json", "v", [20.0, 5.0, 10.0])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0][:3] == ["axis", "value", "seed"]
    assert [r[0] for r in rows[1:]] == ["v", "v", "v"]
    assert [float(r[1]) for r in rows[1:]] == [5.0, 10.0, 20.0]
    assert [r[2] for r in rows[1:]] == ["42", "42", "42"]


def test_sweep_incremented_seed_policy(tmp_path):
    cfg = _write_sweep(tmp_path / "s.json", "lambda", [10.0, 20.0, 30.0],
                       policy="incremented")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r[2] for r in rows[1:]] == ["42", "43", "44"]


def test_sweep_seed_override_beats_policy(tmp_path):
    cfg = _write_sweep(tmp_path / "s.json", "v", [5.0, 10.0])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    rows = _read_csv(out)
    assert [r[2] for r in rows[1:]] == ["7", "7"]


def test_sweep_eta_axis(tmp_path):
    cfg = _write_sweep(tmp_path / "s.json", "eta", [0.1, 0.3],
                       base_overrides={"csi": "partial", "n_slots": 100})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len(_read_csv(out)) == 3


def test_sweep_refuses_an_uninvertible_point_before_writing(tmp_path, capsys):
    cfg = _write_sweep(tmp_path / "s.json", "eta", [0.1, 1e-300],
                       base_overrides={"csi": "partial", "n_slots": 100})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "outage level 1e-300" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_errors(tmp_path, capsys):
    bad_axis = _write_sweep(tmp_path / "a.json", "p_av", [100.0])
    assert main(["sweep", "--config", bad_axis]) == 1
    dup = _write_sweep(tmp_path / "b.json", "v", [5.0, 5.0])
    assert main(["sweep", "--config", dup]) == 1
    frac_antennas = _write_sweep(tmp_path / "c.json", "n_antennas", [6.5])
    assert main(["sweep", "--config", frac_antennas]) == 1
    (tmp_path / "d.json").write_text(json.dumps({"axis": "v", "values": [1.0]}))
    assert main(["sweep", "--config", str(tmp_path / "d.json")]) == 1
    extras = json.dumps({"base": BASE, "axis": "v", "values": [5.0], "rogue": 1})
    (tmp_path / "e.json").write_text(extras)
    assert main(["sweep", "--config", str(tmp_path / "e.json")]) == 1
    capsys.readouterr()
    # an incremented seed that is not an integer is refused, never cast
    for index, seed in enumerate(["abc", None, [1], 1.5, True]):
        cfg = _write_sweep(tmp_path / f"seed{index}.json", "v", [5.0, 10.0],
                           policy="incremented", base_overrides={"seed": seed})
        assert main(["sweep", "--config", cfg]) == 1, seed
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err and "Traceback" not in err


def test_sweep_point_errors_name_the_point(tmp_path, capsys):
    # a sweep point that violates the physics should say which point
    cfg = _write_sweep(tmp_path / "s.json", "n_antennas", [2, 6],
                       base_overrides={"colluding": True})
    assert main(["sweep", "--config", cfg]) == 1
    assert "n_antennas=2" in capsys.readouterr().err


def test_sweep_incremented_policy_still_requires_seed(tmp_path, capsys):
    cfg = _write_sweep(tmp_path / "s.json", "v", [5.0, 10.0],
                       policy="incremented", drop=("seed",))
    assert main(["sweep", "--config", cfg]) == 1
    assert "seed" in capsys.readouterr().err


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = _write_sweep(tmp_path / "s.json", "v", [5.0, 10.0, 20.0])
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_bounds_its_worker_count(tmp_path, monkeypatch, capsys):
    # a fork pool starts every worker on its first submit: never more than the points
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    cfg = _write_sweep(tmp_path / "s.json", "v", [5.0, 10.0, 20.0],
                       base_overrides={"n_slots": 20})
    for jobs in ("64", "3", "2", "1"):
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                     "--jobs", jobs]) == 0
    assert started == [3, 3, 2]
    capsys.readouterr()
    for jobs in ("0", "-5"):
        assert main(["sweep", "--config", cfg, "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--jobs" in err
    assert started == [3, 3, 2]


# --- validate-outage ----------------------------------------------------------------

def test_validate_outage_writes_calibration_table(tmp_path):
    out = tmp_path / "cal.csv"
    assert main(["validate-outage", "--eta", "0.3", "--samples", "20000",
                 "--seed", "2", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["epsilon", "rate_cost", "eta_target", "eta_estimate",
                       "stderr", "n_samples", "status"]
    assert len(rows) == 1 + 19  # default grid minus the two endpoints
    eps = [float(r[0]) for r in rows[1:]]
    assert min(eps) == 0.05 and max(eps) == 0.95
    assert all(r[6] in ("PASS", "FAIL") for r in rows[1:])
    assert sum(r[6] == "PASS" for r in rows[1:]) >= 17


def test_validate_outage_colluding_flag(tmp_path):
    out = tmp_path / "cal.csv"
    assert main(["validate-outage", "--eta", "0.5", "--colluding",
                 "--samples", "20000", "--seed", "2", "--out", str(out)]) == 0
    rows = _read_csv(out)
    # colluding eavesdroppers must force a larger rate sacrifice
    costs = {float(r[0]): float(r[1]) for r in rows[1:]}
    assert costs[0.5] > math.log2(6.0) - 1e-9


def test_validate_outage_uninvertible_level_exits_one(capsys):
    assert main(["validate-outage", "--eta", "1e-300", "--samples", "10000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "outage level 1e-300" in err


def test_validate_outage_bad_arguments(capsys):
    assert main(["validate-outage", "--eta", "1.5"]) == 1
    assert main(["validate-outage", "--eta", "0.3", "--samples", "50"]) == 1
    assert main(["validate-outage"]) == 1  # --eta is required
    capsys.readouterr()
    for seed in ("-1", str(2**64)):  # outside the seed range
        assert main(["validate-outage", "--eta", "0.1", "--samples", "10000",
                     f"--seed={seed}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err and "Traceback" not in err


# --- bytes --------------------------------------------------------------------------
# Every table against the per-value rule the writer replaced: csv.writer rows
# of floats to 17 significant digits, integers in full and true/false, with
# the summary metrics in their published order.

_ECHO = ("n_antennas", "n_eves", "n_users", "colluding", "csi", "eta", "v", "p_av",
         "arrival_mean", "a_max", "n_slots", "seed")
_SCALAR_METRICS = ("weighted_admission_rate", "avg_power", "empirical_outage",
                   "n_transmit_slots", "max_queue", "max_power_queue", "power_queue_final",
                   "max_served_rate", "empirical_gamma")
_PER_USER_METRICS = ("admission_rate", "avg_queue", "slots_served")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _reference_csv(header, rows) -> bytes:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return text.getvalue().encode()


def _metric_header(k):
    return list(_SCALAR_METRICS) + [f"{name}_{i}" for name in _PER_USER_METRICS
                                    for i in range(k)]


def _metric_row(metrics):
    return [getattr(metrics, name) for name in _SCALAR_METRICS] + [
        value for name in _PER_USER_METRICS for value in getattr(metrics, name)]


def _library_config(doc):
    return ScenarioConfig(**{k: (tuple(v) if isinstance(v, list) else v) for k, v in doc.items()})


_REGIMES = {
    "inst-non": {}, "inst-col": {"colluding": True},
    "partial-col": {"csi": "partial", "colluding": True, "eta": 0.1},
    "partial-non": {"csi": "partial", "eta": 0.3},
}


@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_run_csv_bytes(tmp_path, regime):
    doc = dict(BASE, n_slots=300, seed=11, **_REGIMES[regime])
    cfg = _write_config(tmp_path / "c.json", **doc)
    out = tmp_path / "r.csv"
    assert main(["run", "--config", cfg, "--out", str(out), "--trace"]) == 0

    config = _library_config(doc)
    metrics = run(config, collect_trace=True)
    echo = [getattr(config, key) for key in _ECHO]
    assert out.read_bytes() == _reference_csv(list(_ECHO) + _metric_header(2),
                                              [echo + _metric_row(metrics)])
    trace = metrics.trace
    header, columns = [], []
    for field in dataclasses.fields(SlotTrace):
        values = getattr(trace, field.name)
        per_user = values.ndim == 2
        header += [f"{field.name}_{i}" for i in range(2)] if per_user else [field.name]
        columns += list(values.T) if per_user else [values]
    assert (tmp_path / "r.trace.csv").read_bytes() == _reference_csv(header, zip(*columns))


def test_run_stdout_bytes(tmp_path):
    doc = dict(BASE, n_slots=300, seed=12)
    proc = subprocess.run([sys.executable, "-m", "secsched.cli", "run", "--config",
                           _write_config(tmp_path / "c.json", **doc)], capture_output=True)
    assert proc.returncode == 0
    config = _library_config(doc)
    echo = [getattr(config, key) for key in _ECHO]
    assert proc.stdout == _reference_csv(list(_ECHO) + _metric_header(2),
                                         [echo + _metric_row(run(config))])


def test_sweep_csv_bytes(tmp_path):
    values = [20, 5.0, 10.5]
    cfg = _write_sweep(tmp_path / "s.json", "v", values, policy="incremented",
                       base_overrides={"n_slots": 300})
    rows = []
    for index, value in enumerate(sorted(values)):
        config = _library_config(dict(BASE, n_slots=300, v=value, seed=BASE["seed"] + index))
        rows.append(["v", value, config.seed] + _metric_row(run(config)))
    expected = _reference_csv(["axis", "value", "seed"] + _metric_header(2), rows)
    for jobs in ("1", "2"):
        out = tmp_path / f"sweep{jobs}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        assert out.read_bytes() == expected, jobs


@pytest.mark.parametrize("colluding", [False, True])
def test_validate_outage_csv_bytes(tmp_path, monkeypatch, colluding):
    calibrated = []

    def calibrate(*args):
        calibrated.append(calibrate_outage(*args))
        return calibrated[-1]

    monkeypatch.setattr(cli, "calibrate_outage", calibrate)
    out = tmp_path / "cal.csv"
    assert main(["validate-outage", "--eta", "0.1", "--samples", "10000", "--seed", "4",
                 "--out", str(out)] + ["--colluding"] * colluding) == 0
    [rows] = calibrated
    assert out.read_bytes() == _reference_csv(
        ["epsilon", "rate_cost", "eta_target", "eta_estimate", "stderr", "n_samples", "status"],
        [[r.epsilon, r.rate_cost, r.eta_target, r.eta_estimate, r.stderr, r.n_samples,
          "PASS" if r.passed else "FAIL"] for r in rows])


# --- console entry point ---------------------------------------------------------------

def test_installed_entry_point(tmp_path):
    exe = shutil.which("secsched")
    if exe is None:
        pytest.skip("console script not on PATH")
    cfg = _write_config(tmp_path / "c.json", n_slots=50)
    proc = subprocess.run([exe, "run", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "weighted_admission_rate" in proc.stdout


def test_module_invocation(tmp_path):
    cfg = _write_config(tmp_path / "c.json", n_slots=50)
    proc = subprocess.run([sys.executable, "-m", "secsched.cli",
                           "run", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "weighted_admission_rate" in proc.stdout
