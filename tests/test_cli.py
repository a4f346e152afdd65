"""Command-line interface: config handling, CSV output, exit codes."""
import csv
import json
import math
import shutil
import subprocess
import sys
import warnings

import pytest

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


def test_overflowing_power_grid_exits_one(tmp_path, capsys):
    # X*P reaches n_slots * 1e600 for this grid: rejected before any slot runs
    cfg = _write_config(tmp_path / "c.json", power_grid=[0.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "power_grid" in err and "Traceback" not in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1  # --config is required
    assert main(["frobnicate"]) == 1
    assert main(["run", "--config", "x.json", "--seed", "notanint"]) == 1
    capsys.readouterr()


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
