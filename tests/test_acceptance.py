"""Acceptance suite: one test per stated guarantee, one PASS/FAIL line each.

Every test prints a single [PASS]/[FAIL] line with the measured numbers
(visible with -s or on failure; the pytest -v node line mirrors it).  Long
runs are computed once in a module fixture and shared across criteria.
"""
import itertools
import math

import numpy as np
import pytest

from secsched import (
    RngStreams,
    ScenarioConfig,
    TransmitParams,
    beamforming_basis,
    calibrate_outage,
    cap_eves_colluding,
    cap_eves_colluding_logdet,
    choose_v,
    colluding_outage_ccdf,
    compute_bounds,
    noncolluding_outage_cdf,
    rate_cost_noncolluding,
    rate_cost_noncolluding_bisect,
    run,
    sample_complex_gaussian,
    sample_realization,
    secrecy_rate,
)
from secsched.secrecy import channel_stats
from secsched.simulator import _DEFAULT_RATIO_GRID

PAIR_SEED = 100  # shared across paired comparisons
ETAS = (0.1, 0.2, 0.3, 0.4, 0.5)
ANTENNAS = (6, 8, 10, 12)
V_VALUES = (5.0, 10.0, 20.0, 100.0)


def _report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def runs():
    """Every 100k-slot run the criteria share, keyed by a short name."""
    matrix = {
        "base-non": ScenarioConfig(seed=1234),
        "base-col": ScenarioConfig(seed=1234, colluding=True),
        "lam1": ScenarioConfig(seed=1234, arrival_mean=1.0),
    }
    for v in V_VALUES:
        matrix[f"v{v:g}"] = ScenarioConfig(seed=PAIR_SEED, v=v)
    for na in ANTENNAS:
        matrix[f"na{na}-non"] = ScenarioConfig(seed=PAIR_SEED, n_antennas=na)
        matrix[f"na{na}-col"] = ScenarioConfig(seed=PAIR_SEED, n_antennas=na,
                                               colluding=True)
    for eta in ETAS:
        matrix[f"eta{eta:g}-non"] = ScenarioConfig(seed=PAIR_SEED, csi="partial",
                                                   eta=eta)
        matrix[f"eta{eta:g}-col"] = ScenarioConfig(seed=PAIR_SEED, csi="partial",
                                                   eta=eta, colluding=True)
    return {name: run(config) for name, config in matrix.items()}


def test_criterion_1_hard_queue_bound(runs):
    worst = -1.0
    for name, m in runs.items():
        cap = 100.0 * 1.0 + 30.0 if not name.startswith("v") else None
        if name.startswith("v"):
            cap = float(name[1:]) * 1.0 + 30.0
        worst = max(worst, m.max_queue - cap)
    _report(
        "criterion 1 (hard queue bound)",
        worst <= 0.0,
        f"max backlog over {len(runs)} runs of 1e5 slots stays within V*theta+A_max "
        f"(worst margin {worst:+.4f})",
    )


def test_criterion_2_average_power(runs):
    worst_avg = 0.0
    telescoping_ok = True
    for m in runs.values():
        telescoping_ok &= (
            m.avg_power * m.n_slots <= m.n_slots * 200.0 + m.power_queue_final + 1e-6
        )
        worst_avg = max(worst_avg, m.avg_power)
    _report(
        "criterion 2 (average power budget)",
        telescoping_ok and worst_avg <= 200.0 * 1.01,
        f"virtual-queue telescoping holds on every run={telescoping_ok}, "
        f"worst avg power {worst_avg:.2f} <= 202.0",
    )


def test_criterion_3_perfect_secrecy_instantaneous(runs):
    non, col = runs["base-non"], runs["base-col"]
    ok = (non.empirical_outage == 0.0 and col.empirical_outage == 0.0
          and non.n_transmit_slots > 0 and col.n_transmit_slots > 0)
    _report(
        "criterion 3 (zero outage, instantaneous CSI)",
        ok,
        f"outage non-colluding={non.empirical_outage} over {non.n_transmit_slots} "
        f"transmit slots, colluding={col.empirical_outage} over {col.n_transmit_slots}",
    )


def test_criterion_4_outage_calibration(runs):
    failures = []
    worst_z = 0.0
    for colluding, eta in itertools.product((False, True), (0.1, 0.3, 0.5)):
        rows = calibrate_outage(6, 3, eta, colluding, _DEFAULT_RATIO_GRID,
                                samples=1_000_000, seed=0)
        for r in rows:
            worst_z = max(worst_z, abs(r.eta_estimate - r.eta_target) / r.stderr)
            if not r.passed:
                failures.append((colluding, eta, r.epsilon))
    realized_ok = True
    worst_excess = -math.inf
    for colluding, eta in itertools.product((False, True), (0.1, 0.3, 0.5)):
        m = runs[f"eta{eta:g}-{'col' if colluding else 'non'}"]
        se = math.sqrt(eta * (1.0 - eta) / m.n_transmit_slots)
        excess = m.empirical_outage - (eta + 3.0 * se)
        worst_excess = max(worst_excess, excess)
        realized_ok &= excess <= 0.0
    _report(
        "criterion 4 (partial-CSI outage calibration)",
        not failures and realized_ok,
        f"114 Monte-Carlo rows at 1e6 samples, worst |z|={worst_z:.2f} "
        f"(limit 3), failures={failures or 'none'}; realized outage stays within "
        f"eta+3se on all six runs (worst excess {worst_excess:+.5f})",
    )


def test_criterion_5_saturation_behavior(runs):
    lam1 = runs["lam1"]
    low_ok = bool(np.all(np.abs(lam1.admission_rate - 1.0) <= 0.02))
    rates = [runs[f"v{v:g}"].weighted_admission_rate for v in V_VALUES]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))
    below = all(r < 30.0 for r in rates)
    _report(
        "criterion 5 (saturation behavior)",
        low_ok and monotone and below,
        f"lambda=1 per-user admission {np.round(lam1.admission_rate, 4).tolist()} "
        f"within 1.00+/-0.02; lambda=30 weighted admission "
        f"{[f'{r:.4f}' for r in rates]} over V={list(V_VALUES)} "
        f"nondecreasing={monotone}, strictly below 30={below}",
    )


def test_criterion_6_ordering_properties(runs):
    checks = {}
    for seed_tag, non, col in (("seed1234", runs["base-non"], runs["base-col"]),
                               ("seed100", runs["na6-non"], runs["na6-col"])):
        checks[f"collusion admission {seed_tag}"] = (
            non.weighted_admission_rate >= col.weighted_admission_rate)
        checks[f"collusion queue {seed_tag}"] = (
            float(np.mean(non.avg_queue)) <= float(np.mean(col.avg_queue)))
    for tag in ("non", "col"):
        seq = [runs[f"na{na}-{tag}"].weighted_admission_rate for na in ANTENNAS]
        checks[f"antennas {tag}"] = all(a <= b for a, b in zip(seq, seq[1:]))
        seq = [runs[f"eta{eta:g}-{tag}"].weighted_admission_rate for eta in ETAS]
        checks[f"eta {tag}"] = all(a <= b for a, b in zip(seq, seq[1:]))
    failed = [k for k, ok in checks.items() if not ok]
    _report(
        "criterion 6 (ordering properties)",
        not failed,
        f"{len(checks)} paired-seed orderings hold" if not failed
        else f"failed orderings: {failed}",
    )


def test_criterion_7_oracle_equivalences():
    # (a) the production run's decisions against a from-scratch enumeration
    # that only uses the scalar one-action secrecy-rate path, from the queue
    # state the run's trace reports entering each slot
    config = ScenarioConfig(n_slots=1000, seed=55)
    regime = config.regime
    trace = run(config, collect_trace=True).trace
    streams = RngStreams(config.seed)
    backlog, power_queue = np.zeros(2), 0.0
    mismatches = 0
    for t in range(config.n_slots):
        real = sample_realization(config, streams)
        best = None
        for user, p, f in itertools.product(
                range(2), config.power_grid, config.ratio_grid):
            res = secrecy_rate(real, user, TransmitParams(p, f, 6), regime)
            score = backlog[user] * res.secrecy_rate - power_queue * p
            if best is None or score > best[0]:
                best = (score, user, p, f)
        if (trace.user[t], trace.power[t], trace.data_fraction[t]) != best[1:]:
            mismatches += 1
        backlog, power_queue = trace.queue[t], trace.power_queue[t]

    # (b) colluding log-det oracle against the rank-one closed form
    rng = RngStreams(8)
    tp = TransmitParams(power=250.0, data_fraction=0.55, n_antennas=6)
    worst_logdet = 0.0
    for _ in range(10_000):
        h = sample_complex_gaussian((6,), rng.legit)
        eves = sample_complex_gaussian((3, 6), rng.eves)
        basis = beamforming_basis(h)
        worst_logdet = max(worst_logdet, abs(
            cap_eves_colluding(eves, basis, tp)
            - cap_eves_colluding_logdet(eves, basis, tp)))

    # (c) closed-form inversion against bisection
    worst_inv = 0.0
    for eps in np.linspace(0.04, 0.96, 20):
        worst_inv = max(worst_inv, abs(
            rate_cost_noncolluding(float(eps), 0.3, 6, 3)
            - rate_cost_noncolluding_bisect(float(eps), 0.3, 6, 3)))

    _report(
        "criterion 7 (oracle equivalences)",
        mismatches == 0 and worst_logdet < 1e-9 and worst_inv < 1e-10,
        f"run vs enumeration mismatches={mismatches}/1000 slots; "
        f"log-det vs rank-one worst diff {worst_logdet:.2e} (<1e-9) on 1e4 draws; "
        f"closed form vs bisection worst diff {worst_inv:.2e} (<1e-10) at 20 points",
    )


def _ks_statistic(samples: np.ndarray, cdf) -> float:
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(f - grid)), np.max(np.abs(f - grid + 1.0 / n))))


def test_criterion_8_distribution_checks():
    n = 1_000_000
    streams = RngStreams(43)
    basis = beamforming_basis(sample_complex_gaussian((6,), streams.legit))

    g = sample_complex_gaussian((n, 6), streams.eves)
    beam_comp = g @ basis.beam
    null_comp = g @ basis.null_basis
    ratio = (np.abs(beam_comp) ** 2) * 5.0 / np.sum(np.abs(null_comp) ** 2, axis=1)
    ks_non = _ks_statistic(ratio, lambda x: noncolluding_outage_cdf(x, 6))

    eves = sample_complex_gaussian((n, 3, 6), streams.eves)
    legit = sample_complex_gaussian((n, 1, 6), streams.legit)
    stats = channel_stats(legit, eves, colluding=True)
    quad = np.sum(stats.beam_weights[:, 0, :] / stats.noise_eigvals[:, 0, :], axis=-1)
    ks_col = _ks_statistic(quad, lambda x: 1.0 - colluding_outage_ccdf(x, 6, 3))

    hand = (noncolluding_outage_cdf(5.0, 6) == 0.96875
            and colluding_outage_ccdf(1.0, 6, 3) == 0.5)
    _report(
        "criterion 8 (distribution checks)",
        ks_non < 0.002 and ks_col < 0.002 and hand,
        f"KS at 1e6 samples: non-colluding ratio {ks_non:.5f}, colluding "
        f"quadratic form {ks_col:.5f} (both < 0.002); hand points "
        f"CDF(5)=0.96875 and tail(1)=0.5 exact={hand}",
    )


def test_criterion_9_bound_constants():
    config = ScenarioConfig()
    bounds = compute_bounds(config, rate_max=10.0, gamma=0.05)
    checks = {
        "B": bounds.queue_drift_bound == 950.0,
        "C": bounds.power_drift_bound == 65000.0,
        "U_max": np.array_equal(bounds.queue_caps, [130.0, 130.0]),
        "X_max": bounds.power_cap == 0.05 * 100.0 + 0.05 * 30.0 + 300.0,
        "gap": bounds.optimality_gap == 659.5,
        "choose_v": (choose_v([130.0, 130.0], [1.0, 1.0], 30.0) == 100.0
                     and choose_v([80.0, 230.0], [1.0, 4.0], 30.0) == 50.0),
    }
    failed = [k for k, ok in checks.items() if not ok]
    _report(
        "criterion 9 (guarantee constants)",
        not failed,
        "B=950, C=65000, U_max=130, X_max, gap=659.5, choose_v all exact"
        if not failed else f"failed constants: {failed}",
    )
