"""Slot-level simulation of the secure downlink under the queue controller.

Per slot: draw block fading for everyone, draw packet arrivals, threshold
admissions, serve the (user, power, data-fraction) action that maximizes the
backlog-weighted secrecy rate minus the power price, audit whether an
eavesdropper could have decoded the slot, update the queues.  `run` is the
only implementation of this drift-plus-penalty controller.  It works on
chunks of slots in three steps:

* batched: channels, capacity and secrecy-rate grids, then the best data
  fraction of every (slot, user, power) cell, which does not depend on the
  queues because backlogs are never negative;
* sequential: the queue recursion in Python floats, scoring the K x |P|
  cells per slot (`_choose_action`) and recording only the chosen action;
* batched again: the audit of the chosen actions, the eavesdropper
  capacity, rate cost and outage of each slot.  Under partial CSI the rates
  never read the eavesdroppers, so only this audit computes their statistics,
  for the served user alone.

Randomness comes from three named substreams of the run seed (legitimate
channels, eavesdropper channels, arrivals), so the same seed reproduces a run
bit for bit and structural changes to one stream never shift the others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _MAX_SEED, RngStreams, sample_realization_batch
from .control import ascending_grid
from .errors import ConfigError, InvariantViolation
from .secrecy import (
    INSTANTANEOUS,
    PARTIAL,
    SecrecyRegime,
    capacity_grids,
    channel_stats,
    legit_capacity_grid,
    rate_cost_table,
    secrecy_rate_grid,
)

_CHUNK = 4096

# Secrecy rates are log2 of finite doubles, so every one lies below this.
_RATE_CEILING = 1024.0

_DEFAULT_POWER_GRID = (0.0, 100.0, 200.0, 300.0)
_DEFAULT_RATIO_GRID = tuple(i / 20 for i in range(21))


@dataclass
class ScenarioConfig:
    """Complete description of one simulated scenario.

    Defaults correspond to the standard evaluation setup: a 6-antenna
    transmitter, 3 eavesdroppers, 2 users, power grid {0,100,200,300} with an
    average budget of 200 and a 21-point data-fraction grid.
    """

    n_antennas: int = 6
    n_eves: int = 3
    n_users: int = 2
    colluding: bool = False
    csi: str = INSTANTANEOUS
    eta: float = 0.0
    v: float = 100.0
    theta: tuple = None
    power_grid: tuple = _DEFAULT_POWER_GRID
    ratio_grid: tuple = _DEFAULT_RATIO_GRID
    p_av: float = 200.0
    arrival_mean: float = 30.0
    a_max: int = 30
    n_slots: int = 100_000
    seed: int = 1234

    def __post_init__(self):
        if self.theta is None:
            self.theta = (1.0,) * int(self.n_users)
        else:
            self.theta = tuple(float(t) for t in np.atleast_1d(self.theta))
        self.power_grid = tuple(float(p) for p in sorted(self.power_grid))
        self.ratio_grid = tuple(float(e) for e in sorted(self.ratio_grid))

    def validate(self) -> "ScenarioConfig":
        """Raise ConfigError naming every violated field; return self when clean."""
        problems = []
        if not (isinstance(self.n_antennas, int) and self.n_antennas >= 2):
            problems.append(f"n_antennas must be an integer >= 2, got {self.n_antennas!r}")
        if not (isinstance(self.n_eves, int) and self.n_eves >= 1):
            problems.append(f"n_eves must be an integer >= 1, got {self.n_eves!r}")
        if not (isinstance(self.n_users, int) and self.n_users >= 1):
            problems.append(f"n_users must be an integer >= 1, got {self.n_users!r}")
        if not isinstance(self.colluding, bool):
            problems.append(f"colluding must be a boolean, got {self.colluding!r}")
        elif self.colluding and isinstance(self.n_antennas, int) \
                and isinstance(self.n_eves, int) and self.n_antennas <= self.n_eves:
            problems.append("colluding eavesdroppers require n_antennas > n_eves")
        try:
            self.regime  # SecrecyRegime holds the csi/eta rule
        except ConfigError as exc:
            problems.append(str(exc))
        if not self.v > 0:
            problems.append(f"v must be positive, got {self.v!r}")
        if len(self.theta) != self.n_users or any(t <= 0 for t in self.theta):
            problems.append("theta needs one positive entry per user")
        try:
            ascending_grid(self.power_grid, "power_grid", require_zero=True)
        except ConfigError as exc:
            problems.append(str(exc))
        try:
            ascending_grid(self.ratio_grid, "ratio_grid", unit_interval=True)
        except ConfigError as exc:
            problems.append(str(exc))
        if not self.p_av > 0:
            problems.append(f"p_av must be positive, got {self.p_av!r}")
        if not (isinstance(self.a_max, int) and self.a_max >= 1):
            problems.append(f"a_max must be an integer >= 1, got {self.a_max!r}")
        elif not 0.0 < self.arrival_mean <= self.a_max:
            problems.append(
                f"arrival_mean must lie in (0, a_max], got {self.arrival_mean!r}"
            )
        if not (isinstance(self.n_slots, int) and self.n_slots >= 1):
            problems.append(f"n_slots must be an integer >= 1, got {self.n_slots!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < _MAX_SEED):
            problems.append(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not problems:
            problems += self._score_overflow()
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def _score_overflow(self) -> list[str]:
        """The slot score U*r - X*P and the run's sums must stay finite.

        The power queue X never exceeds n_slots * p_max, a backlog U never
        exceeds V * theta_max + A_max, and a secrecy rate is the logarithm of
        a finite double, so it stays below 1024 bits.  The summed backlogs
        stay below n_slots * U.
        """
        p_max = self.power_grid[-1]
        u_max = self.v * max(self.theta) + self.a_max
        problems = []
        if not math.isfinite(self.n_slots * p_max * p_max):
            problems.append(
                f"power_grid up to {p_max!r} over n_slots={self.n_slots} overflows the "
                "power price X*P (n_slots * p_max**2 must be finite)"
            )
        if not math.isfinite(u_max * max(_RATE_CEILING, self.n_slots)):
            problems.append(
                f"a backlog cap V*theta + a_max of {u_max!r} overflows the backlog weight "
                f"U*r or the summed backlogs (it times max({_RATE_CEILING:g}, n_slots) "
                "must be finite)"
            )
        return problems

    @property
    def regime(self) -> SecrecyRegime:
        return SecrecyRegime(csi=self.csi, colluding=self.colluding, eta=self.eta)


@dataclass
class SlotTraceRecord:
    slot: int
    arrivals: np.ndarray
    admissions: np.ndarray
    user: int
    power: float
    data_fraction: float
    codeword_rate: float
    rate_cost: float
    secrecy_rate: float
    eavesdropper_capacity: float
    outage: bool
    queues: np.ndarray        # backlogs after this slot's update
    power_queue: float        # virtual power queue after this slot's update


@dataclass
class RunMetrics:
    """Time averages, extrema and counters accumulated over one run."""

    n_slots: int
    admission_rate: np.ndarray
    weighted_admission_rate: float
    avg_queue: np.ndarray
    avg_power: float
    empirical_outage: float
    n_transmit_slots: int
    slots_served: np.ndarray
    max_queue: float
    max_power_queue: float
    power_queue_final: float
    max_served_rate: float
    empirical_gamma: float
    trace: list[SlotTraceRecord] | None = None


def _check_queue_cap(backlog, queue_cap, slot: int):
    """Raise InvariantViolation naming the first user above V theta_i + A_max."""
    for user, (level, cap) in enumerate(zip(backlog, queue_cap)):
        if level > cap:
            raise InvariantViolation(
                f"backlog of user {user} exceeded its deterministic cap at slot {slot}: "
                f"{level!r} > {cap!r}", slot=slot, user=user, backlog=level, cap=cap,
            )


def sample_arrivals(config, rng: np.random.Generator, count: int) -> np.ndarray:
    """Per-user packet arrivals of `count` slots, shape (count, n_users).

    Each draw is Binomial(a_max, arrival_mean / a_max); `ScenarioConfig.validate`
    keeps arrival_mean in (0, a_max].
    """
    draws = rng.binomial(config.a_max, config.arrival_mean / config.a_max,
                         size=(count, config.n_users))
    return draws.astype(float)


def _rate_grids(legit, eves, regime: SecrecyRegime, power, fraction, cost_table):
    """Codeword-rate, eavesdropper-capacity and secrecy-rate grids of one chunk.

    Under partial CSI the secrecy rates read only the users' gains ||h||^2
    (the expression of `beamforming_bases`), so no eavesdropper statistics
    are computed and the eavesdropper grid is None.
    """
    if regime.csi == PARTIAL:
        gain = np.sum(legit.real**2 + legit.imag**2, axis=-1)
        cap_users, cap_eves = legit_capacity_grid(gain, power, fraction), None
    else:
        stats = channel_stats(legit, eves, regime.colluding)
        cap_users, cap_eves = capacity_grids(stats, power, fraction)
    return cap_users, cap_eves, secrecy_rate_grid(cap_users, cap_eves, regime, cost_table)


def _eavesdropper_audit(legit, eves, cap_eves, regime: SecrecyRegime, power, fraction,
                        cost_table, user, p_idx, f_idx):
    """Realized eavesdropper capacity and rate cost of each slot's chosen action.

    Instantaneous CSI gathers both from the full grid.  Under partial CSI the
    cost is the pre-inverted table entry of the chosen fraction, and the
    capacity is computed here from the served user's channel row alone, for
    the slots that transmit: a zero-power action leaks log2(1 + 0) = 0.
    """
    if regime.csi == INSTANTANEOUS:
        eve = cap_eves[np.arange(len(user)), user, p_idx, f_idx]
        return eve, eve
    sent = np.flatnonzero(power[p_idx] > 0.0)
    stats = channel_stats(legit[sent, user[sent]][:, None, :], eves[sent], regime.colluding)
    eve = np.zeros(len(user))
    eve[sent] = capacity_grids(stats, power, fraction)[1][
        np.arange(len(sent)), 0, p_idx[sent], f_idx[sent]]
    return eve, cost_table[f_idx]


def _best_fractions(rates: np.ndarray):
    """Reduce the data-fraction axis of a (..., |F|) secrecy-rate grid.

    Backlogs are never negative, so within one (slot, user, power) cell the
    best fraction does not depend on the queues.  Returns per cell the first
    index of the largest rate, that rate, and the largest rate at an earlier
    fraction (0 when there is none), which `_choose_action` reads to detect
    rounding ties.
    """
    best_f = np.argmax(rates, axis=-1)
    best_rate = np.take_along_axis(rates, best_f[..., None], axis=-1)[..., 0]
    before = np.arange(rates.shape[-1]) < best_f[..., None]
    earlier = np.max(rates, axis=-1, where=before, initial=0.0)
    return best_f, best_rate, earlier


def _choose_action(backlog, price, cell_rate, cell_f, cell_earlier, rates):
    """First maximiser (user, power index, fraction index) of U*r - X*P in one slot.

    `backlog` holds the K backlogs U and `price` the |P| products X*P.
    `cell_rate`, `cell_f` and `cell_earlier` list, per (user, power) cell in
    C order, `_best_fractions`' best rate, its fraction index and the largest
    earlier rate; `rates` is the slot's (K, |P|, |F|) grid, read only on ties.
    Returns (user, p_idx, f_idx, secrecy rate).

    This equals the first flat argmax over the full grid, bit for bit.
    Rounding is monotone: with U >= 0, fl(U*r) and fl(fl(U*r) - c) never
    reorder two rates, they can only merge them into a tie.  So each cell's
    largest score is the score of its best rate, the largest cell score is
    the full-grid maximum m, and the cells holding a score m are exactly
    those whose best score is m.  The first such cell is the first cell of
    the flat argmax; inside it, a fraction before `cell_f` scores m only if
    the largest earlier rate does, and then the first of them wins.
    """
    best = -math.inf  # every score is finite (`ScenarioConfig.validate`)
    cell = 0
    for level in backlog:
        for c in price:
            score = level * cell_rate[cell] - c
            if score > best:
                best, chosen = score, cell
            cell += 1
    user, p_idx = divmod(chosen, len(price))
    f_idx = cell_f[chosen]
    rate = cell_rate[chosen]
    level, c = backlog[user], price[p_idx]
    if f_idx and level * cell_earlier[chosen] - c == best:
        f_idx = int(np.argmax(level * rates[user, p_idx, :f_idx] - c == best))
        rate = float(rates[user, p_idx, f_idx])
    return user, p_idx, f_idx, rate


def run(config: ScenarioConfig, collect_trace: bool = False) -> RunMetrics:
    """Simulate `config.n_slots` slots; deterministic given the config."""
    config.validate()
    regime = config.regime
    k = config.n_users
    power = np.asarray(config.power_grid)
    fraction = np.asarray(config.ratio_grid)
    positive = power > 0
    cost_table = None
    if regime.csi == PARTIAL:
        cost_table = rate_cost_table(fraction, regime, config.n_antennas, config.n_eves)

    streams = RngStreams(config.seed)
    power_levels = list(config.power_grid)
    fractions = list(config.ratio_grid)
    p_av = config.p_av
    v_theta = [config.v * t for t in config.theta]
    queue_cap = [vt + config.a_max for vt in v_theta]
    lowest_cap = min(queue_cap)

    backlog = [0.0] * k
    power_queue = 0.0
    backlog_sum = [0.0] * k
    admitted_sum = [0.0] * k
    served_slots = np.zeros(k, dtype=int)
    power_sum = 0.0
    transmit_slots = 0
    outage_slots = 0
    max_backlog = 0.0
    max_power_queue = 0.0
    max_served_rate = 0.0
    gamma = 0.0
    trace: list[SlotTraceRecord] | None = [] if collect_trace else None

    done = 0
    while done < config.n_slots:
        count = min(_CHUNK, config.n_slots - done)
        legit, eves = sample_realization_batch(config, streams, count)
        arrivals = sample_arrivals(config, streams.arrivals, count)
        cap_users, cap_eves, rates = _rate_grids(legit, eves, regime, power, fraction,
                                                 cost_table)
        best_f, best_rate, earlier = _best_fractions(rates)
        if np.any(positive):
            # r / P rounds monotonically in r, so the best fraction gives the maximum
            chunk_gamma = float(np.max(best_rate[:, :, positive] / power[positive]))
            gamma = max(gamma, chunk_gamma)

        # The sequential recursion, in Python floats; it records the chosen
        # actions, and the audit below fills in their eavesdropper side.
        users, p_idxs, f_idxs, slot_rates = [], [], [], []
        first_record = len(trace) if trace is not None else 0
        for t, (arrived, cell_rate, cell_f, cell_earlier) in enumerate(zip(
                arrivals.tolist(), best_rate.reshape(count, -1).tolist(),
                best_f.reshape(count, -1).tolist(), earlier.reshape(count, -1).tolist())):
            slot = done + t
            backlog_sum = [s + b for s, b in zip(backlog_sum, backlog)]
            # Admission minimizes sum (U_i - V theta_i) R_i over 0 <= R_i <= A_i,
            # the boundary going to full admission; with the allocation below it
            # caps every backlog at V theta_i + A_max.
            admitted = [a if b <= vt else 0.0 for a, b, vt in zip(arrived, backlog, v_theta)]
            # The zero-power action scores 0, so the objective is never negative;
            # argmax ties go to the lowest user, then power, then data fraction.
            price = [power_queue * p for p in power_levels]
            user, p_idx, f_idx, slot_rate = _choose_action(
                backlog, price, cell_rate, cell_f, cell_earlier, rates[t])
            if slot_rate > 0.0:
                backlog[user] = max(backlog[user] - slot_rate, 0.0)
            backlog = [b + a for b, a in zip(backlog, admitted)]
            slot_power = power_levels[p_idx]
            power_queue = max(power_queue - p_av, 0.0) + slot_power
            admitted_sum = [s + a for s, a in zip(admitted_sum, admitted)]
            power_sum += slot_power
            peak = max(backlog)
            if peak > max_backlog:
                max_backlog = peak
            if power_queue > max_power_queue:
                max_power_queue = power_queue
            if peak > lowest_cap:
                _check_queue_cap(backlog, queue_cap, slot)
            users.append(user)
            p_idxs.append(p_idx)
            f_idxs.append(f_idx)
            slot_rates.append(slot_rate)
            if trace is not None:
                trace.append(SlotTraceRecord(
                    slot=slot,
                    arrivals=np.array(arrived),
                    admissions=np.array(admitted),
                    user=user,
                    power=slot_power,
                    data_fraction=fractions[f_idx],
                    codeword_rate=0.0,
                    rate_cost=0.0,
                    secrecy_rate=slot_rate,
                    eavesdropper_capacity=0.0,
                    outage=False,
                    queues=np.array(backlog),
                    power_queue=power_queue,
                ))

        # Audit the chosen actions: whether an eavesdropper could have decoded.
        slots = np.arange(count)
        user = np.array(users)
        p_idx = np.array(p_idxs)
        f_idx = np.array(f_idxs)
        slot_rate = np.array(slot_rates)
        eve, cost = _eavesdropper_audit(legit, eves, cap_eves, regime, power, fraction,
                                        cost_table, user, p_idx, f_idx)
        transmit = slot_rate > 0.0
        outage = transmit & (eve > cost)
        transmit_slots += int(np.count_nonzero(transmit))
        outage_slots += int(np.count_nonzero(outage))
        served_slots += np.bincount(user[transmit], minlength=k)
        max_served_rate = max(max_served_rate, float(slot_rate.max()))
        if trace is not None:
            audited = zip(trace[first_record:], cap_users[slots, user, p_idx, f_idx].tolist(),
                          cost.tolist(), eve.tolist(), outage.tolist())
            for rec, codeword_rate, rate_cost, eve_capacity, slot_outage in audited:
                rec.codeword_rate = codeword_rate
                rec.rate_cost = rate_cost
                rec.eavesdropper_capacity = eve_capacity
                rec.outage = slot_outage
        done += count
        # Release this chunk's grids before the next chunk builds its own.
        del legit, eves, cap_users, cap_eves, rates

    t_total = config.n_slots
    admission_rate = np.array(admitted_sum) / t_total
    return RunMetrics(
        n_slots=t_total,
        admission_rate=admission_rate,
        weighted_admission_rate=float(np.dot(np.asarray(config.theta), admission_rate)),
        avg_queue=np.array(backlog_sum) / t_total,
        avg_power=power_sum / t_total,
        empirical_outage=(outage_slots / transmit_slots) if transmit_slots else 0.0,
        n_transmit_slots=transmit_slots,
        slots_served=served_slots,
        max_queue=max_backlog,
        max_power_queue=max_power_queue,
        power_queue_final=power_queue,
        max_served_rate=max_served_rate,
        empirical_gamma=gamma,
        trace=trace,
    )
