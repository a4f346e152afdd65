"""Output checks computed apart from the program.

Each check takes the program's output (parsed into plain arrays and dicts)
plus inputs regenerated here from the seed, and returns a list of problems;
an empty list means the output passed.  Nothing here compares against a
stored copy of an earlier output.

Random inputs are regenerated from the documented stream layout: Philox
keyed by ``[seed, index]`` with index 0 for user channels, 1 for
eavesdropper channels and 2 for arrivals; a complex Gaussian entry takes
two uniforms in C order through the polar transform.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

LEGIT, EVES, ARRIVALS = 0, 1, 2

# Relative tolerance of the brute-force score comparison.
SCORE_RTOL = 1e-9
# Tolerance of the rate-cost inversions (the bisection stops at 1e-12).
INVERSION_RTOL = 1e-9
# Chance that a correct calibration fails the family of rows checked at once.
CALIBRATION_FALSE_ALARM = 1e-6


def stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def regenerate_arrivals(seed: int, n_slots: int, n_users: int, a_max: int,
                        arrival_mean: float) -> np.ndarray:
    """(n_slots, n_users) arrivals, Binomial(a_max, arrival_mean / a_max)."""
    return stream(seed, ARRIVALS).binomial(a_max, arrival_mean / a_max,
                                           size=(n_slots, n_users)).astype(float)


def regenerate_channels(seed: int, index: int, n_slots: int, rows: int,
                        n_antennas: int, slots: np.ndarray) -> np.ndarray:
    """Channel rows of the chosen slots, (len(slots), rows, n_antennas) complex."""
    u = stream(seed, index).random((n_slots, rows, n_antennas, 2))[slots]
    radius = np.sqrt(-np.log1p(-u[..., 0]))
    angle = 2.0 * np.pi * u[..., 1]
    return radius * (np.cos(angle) + 1j * np.sin(angle))


# --- summary checks, both run workloads ------------------------------------

def check_queue_cap(summary: dict, config: dict) -> list[str]:
    cap = max(config["v"] * t for t in config["theta"]) + config["a_max"]
    if not summary["max_queue"] <= cap:
        return [f"max_queue {summary['max_queue']!r} exceeds V*theta + A_max = {cap!r}"]
    return []


def check_power_telescoping(summary: dict, config: dict) -> list[str]:
    """X_T >= sum_t P_t - T p_av, with sum_t P_t = T * avg_power.

    The allowance covers the rounding of T * avg_power back to the sum.
    """
    t = summary["n_slots"]
    spent = t * summary["avg_power"]
    budget = t * config["p_av"]
    slack = 4.0 * np.finfo(float).eps * (spent + budget)
    if not summary["power_queue_final"] >= spent - budget - slack:
        return [f"power_queue_final {summary['power_queue_final']!r} below "
                f"T*avg_power - T*p_av = {spent - budget!r}"]
    return []


def check_admitted_totals(summary: dict, arrivals: np.ndarray) -> list[str]:
    """Admission rate of each user at most its regenerated arrival rate."""
    t = summary["n_slots"]
    problems = []
    for i, rate in enumerate(summary["admission_rate"]):
        arrived = float(arrivals[:, i].sum()) / t
        if not rate <= arrived:
            problems.append(f"user {i} admitted {rate!r} per slot, more than the "
                            f"{arrived!r} that arrived")
    return problems


def check_outage_within_eta(summary: dict, eta: float) -> list[str]:
    """Realized outage at most eta + 3 binomial standard errors."""
    n = summary["n_transmit_slots"]
    if n == 0:
        return ["the run never transmitted, so its outage is not measured"]
    bound = eta + 3.0 * math.sqrt(eta * (1.0 - eta) / n)
    if not summary["empirical_outage"] <= bound:
        return [f"outage {summary['empirical_outage']!r} above eta + 3 s.e. = {bound!r}"]
    return []


def check_zero_outage(summary: dict, trace: dict) -> list[str]:
    problems = []
    if summary["empirical_outage"] != 0.0:
        problems.append(f"instantaneous CSI outage {summary['empirical_outage']!r} is not 0")
    bad = np.flatnonzero(trace["outage"])
    if bad.size:
        problems.append(f"trace reports an outage at slot {int(trace['slot'][bad[0]])}")
    return problems


# --- trace checks, instantaneous CSI ---------------------------------------

def check_trace_replay(trace: dict, config: dict, arrivals: np.ndarray) -> list[str]:
    """Every row replays the admission rule and both queue recursions exactly."""
    problems = []
    t = config["n_slots"]
    if not np.array_equal(trace["slot"], np.arange(t)):
        return [f"trace slots are not 0..{t - 1}"]
    if not np.array_equal(trace["arrival"], arrivals):
        bad = int(np.flatnonzero(np.any(trace["arrival"] != arrivals, axis=1))[0])
        problems.append(f"slot {bad}: arrivals differ from the arrival stream")
    queue, users = trace["queue"], trace["user"].astype(int)
    before = np.vstack([np.zeros((1, queue.shape[1])), queue[:-1]])
    v_theta = config["v"] * np.asarray(config["theta"])
    admitted = np.where(before <= v_theta, trace["arrival"], 0.0)
    served = np.zeros_like(queue)
    sending = trace["secrecy_rate"] > 0.0
    served[np.flatnonzero(sending), users[sending]] = trace["secrecy_rate"][sending]
    expected_queue = np.maximum(before - served, 0.0) + admitted
    power_before = np.concatenate([[0.0], trace["power_queue"][:-1]])
    expected_power = np.maximum(power_before - config["p_av"], 0.0) + trace["power"]
    for label, got, want in (("admitted", trace["admitted"], admitted),
                             ("queue", queue, expected_queue),
                             ("power_queue", trace["power_queue"], expected_power)):
        mismatch = got != want
        if mismatch.ndim > 1:
            mismatch = np.any(mismatch, axis=1)
        if np.any(mismatch):
            slot = int(np.flatnonzero(mismatch)[0])
            problems.append(f"slot {slot}: {label} {np.asarray(got[slot]).tolist()} does not "
                            f"replay to {np.asarray(want[slot]).tolist()}")
    return problems


def action_scores(legit: np.ndarray, eves: np.ndarray, backlog: np.ndarray,
                  power_queue: np.ndarray, power: np.ndarray, fraction: np.ndarray):
    """Score and secrecy rate of every (user, power, fraction) action.

    Instantaneous CSI, non-colluding eavesdroppers, projector form: with the
    unit beam b = conj(h) / |h|, an eavesdropper row g leaks |g.b|^2 into the
    beam and |g|^2 - |g.b|^2 into the artificial-noise subspace.
    Shapes: legit (S, K, N), eves (S, E, N), backlog (S, K), power_queue (S,);
    results (S, K, n_powers, n_fractions).
    """
    n = legit.shape[-1]
    gain = np.sum(np.abs(legit) ** 2, axis=-1)                        # (S, K)
    beam = np.conj(legit) / np.sqrt(gain)[..., None]
    beam_leak = np.abs(np.einsum("sen,skn->ske", eves, beam)) ** 2     # (S, K, E)
    null_leak = np.sum(np.abs(eves) ** 2, axis=-1)[:, None, :] - beam_leak
    data_power = power[:, None] * fraction[None, :]                   # (P, F)
    noise_power = power[:, None] * (1.0 - fraction[None, :]) / (n - 1)
    user_cap = np.log2(1.0 + data_power * gain[..., None, None])
    leak = (beam_leak[..., None, None] * data_power
            / (null_leak[..., None, None] * noise_power + 1.0))       # (S, K, E, P, F)
    eve_cap = np.log2(1.0 + leak.max(axis=2))
    rate = np.maximum(user_cap - eve_cap, 0.0)
    score = backlog[:, :, None, None] * rate - power_queue[:, None, None, None] * power[None, None, :, None]
    return score, rate


def _close(a, b, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def check_brute_force(trace: dict, config: dict, slots: np.ndarray) -> list[str]:
    """At each sampled slot the chosen action scores the maximum over all actions."""
    power = np.asarray(config["power_grid"])
    fraction = np.asarray(config["ratio_grid"])
    t, k, n = config["n_slots"], config["n_users"], config["n_antennas"]
    legit = regenerate_channels(config["seed"], LEGIT, t, k, n, slots)
    eves = regenerate_channels(config["seed"], EVES, t, config["n_eves"], n, slots)
    queue = np.vstack([np.zeros((1, k)), trace["queue"]])
    power_queue = np.concatenate([[0.0], trace["power_queue"]])
    score, rate = action_scores(legit, eves, queue[slots], power_queue[slots], power, fraction)
    problems = []
    for row, slot in enumerate(slots):
        p_idx = np.flatnonzero(power == trace["power"][slot])
        f_idx = np.flatnonzero(fraction == trace["data_fraction"][slot])
        user = int(trace["user"][slot])
        if p_idx.size != 1 or f_idx.size != 1 or not 0 <= user < k:
            problems.append(f"slot {slot}: chosen action is not on the grids")
            continue
        chosen = float(score[row, user, p_idx[0], f_idx[0]])
        best = float(score[row].max())
        if not _close(chosen, best, SCORE_RTOL):
            problems.append(f"slot {slot}: chosen action scores {chosen!r}, "
                            f"the best action {best!r}")
        if not _close(float(rate[row, user, p_idx[0], f_idx[0]]),
                      float(trace["secrecy_rate"][slot]), SCORE_RTOL):
            problems.append(f"slot {slot}: secrecy rate {trace['secrecy_rate'][slot]!r} "
                            f"differs from the recomputed "
                            f"{float(rate[row, user, p_idx[0], f_idx[0]])!r}")
    return problems


# --- outage calibration ----------------------------------------------------

def calibration_z_limit(n_rows: int, false_alarm: float = CALIBRATION_FALSE_ALARM) -> float:
    """Two-sided normal quantile that n_rows independent correct rows all pass
    with probability 1 - false_alarm (Sidak)."""
    per_row = 1.0 - (1.0 - false_alarm) ** (1.0 / n_rows)
    return NormalDist().inv_cdf(1.0 - per_row / 2.0)


def check_calibration(rows: list[dict], eta: float, samples: int, fractions,
                      z_limit: float) -> list[str]:
    """Rows cover the interior fractions and each estimate lies within
    z_limit binomial standard errors of eta; the rows' own flags are ignored."""
    problems = []
    if [r["epsilon"] for r in rows] != list(fractions):
        return [f"rows cover fractions {[r['epsilon'] for r in rows]}, expected {list(fractions)}"]
    se = math.sqrt(eta * (1.0 - eta) / samples)
    for r in rows:
        if r["n_samples"] != samples or r["eta_target"] != eta:
            problems.append(f"epsilon {r['epsilon']}: row reports n={r['n_samples']}, "
                            f"eta={r['eta_target']}")
        z = abs(r["eta_estimate"] - eta) / se
        if not z <= z_limit:
            problems.append(f"epsilon {r['epsilon']}: estimate {r['eta_estimate']!r} is "
                            f"{z:.2f} s.e. from eta {eta} (limit {z_limit:.2f})")
    return problems


def rows_beyond(rows: list[dict], eta: float, samples: int, z: float = 3.0) -> int:
    """Number of rows more than z binomial standard errors from eta."""
    se = math.sqrt(eta * (1.0 - eta) / samples)
    return sum(abs(r["eta_estimate"] - eta) > z * se for r in rows)


def check_rate_costs(rows: list[dict], eta: float, n_antennas: int, n_eves: int,
                     colluding: bool) -> list[str]:
    """Each rate cost maps back to eta through an inversion the row did not use.

    Non-colluding: the cost equals the bisection of the exact miss probability.
    Colluding: the colluding leakage tail at the implied threshold equals eta.
    """
    from secsched.secrecy import colluding_outage_ccdf, rate_cost_noncolluding_bisect

    problems = []
    m = n_antennas - 1
    for r in rows:
        eps, cost = r["epsilon"], r["rate_cost"]
        if colluding:
            threshold = (2.0 ** cost - 1.0) * (1.0 - eps) / (eps * m)
            tail = colluding_outage_ccdf(threshold, n_antennas, n_eves)
            if not _close(tail, eta, INVERSION_RTOL):
                problems.append(f"epsilon {eps}: cost {cost!r} has outage {tail!r}, not {eta}")
        else:
            reference = rate_cost_noncolluding_bisect(eps, eta, n_antennas, n_eves)
            if not _close(cost, reference, INVERSION_RTOL):
                problems.append(f"epsilon {eps}: cost {cost!r}, bisection gives {reference!r}")
    return problems
