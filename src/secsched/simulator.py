"""Slot-level simulation of the secure downlink under the queue controller.

Per slot: draw block fading for everyone, draw packet arrivals, threshold
admissions, pick one (user, power, data-fraction) action by exhaustive grid
search, audit whether an eavesdropper could have decoded the slot, update the
queues.  `run` is the only implementation of this drift-plus-penalty
controller.  Channel-dependent rate grids are precomputed in batches so a
100k-slot run stays in the seconds range; the sequential part is only the
queue recursion and the argmax.

Randomness comes from three named substreams of the run seed (legitimate
channels, eavesdropper channels, arrivals), so the same seed reproduces a run
bit for bit and structural changes to one stream never shift the others.
"""
from __future__ import annotations

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
    rate_cost_table,
    secrecy_rate_grid,
)

_CHUNK = 4096

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
        if problems:
            raise ConfigError("; ".join(problems))
        return self

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


def sample_arrivals(config, rng: np.random.Generator, count: int) -> np.ndarray:
    """Per-user packet arrivals of `count` slots, shape (count, n_users).

    Each draw is Binomial(a_max, arrival_mean / a_max); `ScenarioConfig.validate`
    keeps arrival_mean in (0, a_max].
    """
    draws = rng.binomial(config.a_max, config.arrival_mean / config.a_max,
                         size=(count, config.n_users))
    return draws.astype(float)


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
    v_theta = config.v * np.asarray(config.theta)
    queue_cap = v_theta + config.a_max

    backlog = np.zeros(k)
    power_queue = 0.0
    backlog_sum = np.zeros(k)
    admitted_sum = np.zeros(k)
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
        stats = channel_stats(legit, eves, regime.colluding)
        cap_users, cap_eves = capacity_grids(stats, power, fraction)
        rates = secrecy_rate_grid(cap_users, cap_eves, regime, cost_table)
        if np.any(positive):
            chunk_gamma = float(np.max(rates[:, :, positive, :] /
                                       power[positive][None, None, :, None]))
            gamma = max(gamma, chunk_gamma)

        for t in range(count):
            slot = done + t
            backlog_sum += backlog
            # Admission minimizes sum (U_i - V theta_i) R_i over 0 <= R_i <= A_i,
            # the boundary going to full admission; with the allocation below it
            # caps every backlog at V theta_i + A_max.
            admitted = np.where(backlog <= v_theta, arrivals[t], 0.0)
            # The zero-power action scores 0, so the objective is never negative;
            # argmax ties go to the lowest user, then power, then data fraction.
            score = backlog[:, None, None] * rates[t] - power_queue * power[:, None]
            user, p_idx, f_idx = np.unravel_index(int(np.argmax(score)), score.shape)
            slot_rate = float(rates[t, user, p_idx, f_idx])
            slot_power = float(power[p_idx])
            realized_eve = float(cap_eves[t, user, p_idx, f_idx])
            if regime.csi == INSTANTANEOUS:
                cost = realized_eve
            else:
                cost = float(cost_table[f_idx])
            outage = False
            if slot_rate > 0.0:
                transmit_slots += 1
                served_slots[user] += 1
                outage = realized_eve > cost
                outage_slots += int(outage)
                if slot_rate > max_served_rate:
                    max_served_rate = slot_rate
                backlog[user] = max(backlog[user] - slot_rate, 0.0)
            backlog += admitted
            power_queue = max(power_queue - config.p_av, 0.0) + slot_power
            admitted_sum += admitted
            power_sum += slot_power
            if backlog.max() > max_backlog:
                max_backlog = float(backlog.max())
            if power_queue > max_power_queue:
                max_power_queue = power_queue
            if np.any(backlog > queue_cap):
                raise InvariantViolation(
                    f"backlog exceeded its deterministic cap at slot {slot}", slot=slot
                )
            if trace is not None:
                trace.append(SlotTraceRecord(
                    slot=slot,
                    arrivals=arrivals[t].copy(),
                    admissions=admitted,
                    user=int(user),
                    power=slot_power,
                    data_fraction=float(fraction[f_idx]),
                    codeword_rate=float(cap_users[t, user, p_idx, f_idx]),
                    rate_cost=cost,
                    secrecy_rate=slot_rate,
                    eavesdropper_capacity=realized_eve,
                    outage=outage,
                    queues=backlog.copy(),
                    power_queue=power_queue,
                ))
        done += count

    t_total = config.n_slots
    admission_rate = admitted_sum / t_total
    return RunMetrics(
        n_slots=t_total,
        admission_rate=admission_rate,
        weighted_admission_rate=float(np.dot(np.asarray(config.theta), admission_rate)),
        avg_queue=backlog_sum / t_total,
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
