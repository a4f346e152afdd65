"""Slot-level simulation of the secure downlink under the queue controller.

Per slot: draw block fading for everyone, draw packet arrivals, threshold
admissions, serve the (user, power, data-fraction) action that maximizes the
backlog-weighted secrecy rate minus the power price, audit whether an
eavesdropper could have decoded the slot, update the queues.  `run` is the
only implementation of this drift-plus-penalty controller (M. J. Neely,
"Stochastic Network Optimization with Application to Communication and
Queueing Systems", Morgan & Claypool, 2010).  It works on chunks of slots in
three steps:

* batched: channels, and each (slot, user, power) cell's best secrecy rate
  and its data fraction, reduced while the fractions are swept one at a time,
  so no grid over them exists.  The sweep is power-major: the powers are the
  kernels' leading axis, so their loops run over slots x users.  Backlogs are
  never negative, so these do not depend on the queues; they cover the
  transmitting powers `power_grid[1:]` alone, since `power_grid[0]` is the
  idle power 0;
* sequential: only the queue recursion in Python floats, which starts every
  slot idle and serves the first cell that scores more, at its best rate
  (`_choose_action`).  It lists only the cells' rates and records one cell
  index per slot;
* batched again: the chunk's `SlotTrace` columns, gathered by those indices,
  with the audit of the chosen actions (codeword rate, eavesdropper capacity,
  rate cost, outage), which in every regime recomputes the served rows'
  channel statistics and evaluates the capacity kernels at each chosen action
  alone, so only the per-cell arrays and the channels cross the recursion.
  The cap check, every metric and the trace are slot-order reductions of them.

A chunk holds at most `_CHUNK` slots, and fewer when its slots would hold
more than `_CHUNK_DOUBLES` doubles (`ScenarioConfig._slot_doubles`).

Randomness comes from three named substreams of the run seed (legitimate
channels, eavesdropper channels, arrivals), so the same seed reproduces a run
bit for bit and structural changes to one stream never shift the others.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .channel import RngStreams, check_seed, sample_realization_batch
from .errors import ConfigError, InvariantViolation
from .secrecy import (
    INSTANTANEOUS,
    PARTIAL,
    SecrecyRegime,
    capacity_grids,
    channel_stats,
    check_outage_design,
    eve_capacity,
    legit_capacity_grid,
    rate_cost_table,
    secrecy_rate_grid,
)

_CHUNK = 4096
_CHUNK_DOUBLES = 2**21  # 16 MiB of float64 per chunk, counted by `_slot_doubles`

# Secrecy rates are log2 of finite doubles, so every one lies below this.
_RATE_CEILING = 1024.0

_DEFAULT_POWER_GRID = (0.0, 100.0, 200.0, 300.0)
_DEFAULT_RATIO_GRID = tuple(i / 20 for i in range(21))


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    flat = isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1
    return flat and all(map(_is_number, value))


# The one type rule per ScenarioConfig annotation, with the kind's name for errors.
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a real number"),
    "bool": (lambda value: isinstance(value, bool), "a boolean"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple": (_is_number_list, "a list of real numbers"),
}

_GRIDS = ("power_grid", "ratio_grid")

# theta's default, one unit priority per user, filled in on construction.  It is
# not None, so an explicit None (a JSON null) is a mistyped theta.  It stays
# unfilled, and unchecked, when n_users is not a user count within the chunk
# budget: `validate` then refuses n_users alone.
_ONE_PER_USER = object()


def _refusal(rule, *args) -> list[str]:
    """The message of the ConfigError that rule(*args) raises, if any."""
    try:
        rule(*args)
    except ConfigError as exc:
        return [str(exc)]
    return []


def _bounded(n: int) -> str:
    """`n` in full up to 15 digits, else its order of magnitude (a 400-digit
    product reads `about 1e400`)."""
    if n < 10**15:
        return str(n)
    exponent, fraction = divmod(math.log10(n), 1.0)
    return f"about {10.0 ** fraction:.3g}e{exponent:.0f}"


def _as_float(value) -> float:
    """float(value), or a signed infinity for an integer beyond the double range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass
class ScenarioConfig:
    """Complete description of one simulated scenario.

    Defaults correspond to the standard evaluation setup: a 6-antenna
    transmitter, 3 eavesdroppers, 2 users, power grid {0,100,200,300} with an
    average budget of 200 and a 21-point data-fraction grid.  `validate` holds
    every field's type and range rule; construction leaves a mistyped field
    as given.
    """

    n_antennas: int = 6
    n_eves: int = 3
    n_users: int = 2
    colluding: bool = False
    csi: str = INSTANTANEOUS
    eta: float = 0.0
    v: float = 100.0
    theta: tuple = _ONE_PER_USER
    power_grid: tuple = _DEFAULT_POWER_GRID
    ratio_grid: tuple = _DEFAULT_RATIO_GRID
    p_av: float = 200.0
    arrival_mean: float = 30.0
    a_max: int = 30
    n_slots: int = 100_000
    seed: int = 1234

    def __post_init__(self):
        """Normalise the well-typed fields: floats to float, lists to float
        tuples, grids sorted.  A mistyped field is left for `validate` to name."""
        users = _is_int(self.n_users) and 1 <= self.n_users <= _CHUNK_DOUBLES  # >= 1 double each
        if self.theta is _ONE_PER_USER and users:
            self.theta = (1.0,) * self.n_users
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and _is_number(value):
                setattr(self, f.name, _as_float(value))
            elif f.type == "tuple" and _is_number_list(value):
                floats = tuple(map(_as_float, value))
                setattr(self, f.name, tuple(sorted(floats)) if f.name in _GRIDS else floats)

    def validate(self) -> "ScenarioConfig":
        """Raise ConfigError naming every violated field; return self when clean."""
        given = [f for f in fields(self) if getattr(self, f.name) is not _ONE_PER_USER]
        problems = [f"{f.name} must be {_FIELD_TYPES[f.type][1]}, got {getattr(self, f.name)!r}"
                    for f in given if not _FIELD_TYPES[f.type][0](getattr(self, f.name))]
        if problems:  # the range checks below compare the fields
            raise ConfigError("; ".join(problems))
        problems += _refusal(check_outage_design, self.n_antennas, self.n_eves, self.colluding)
        if self._slot_doubles() > _CHUNK_DOUBLES:
            problems.append(
                f"one slot needs {_bounded(self._slot_doubles())} doubles, "
                "11*n_users*(len(power_grid) - 1) + 9*n_users*n_eves + 18*n_users + 64 "
                "+ n_antennas*(2*(n_users + n_eves) + 5*max(n_users, n_eves, 2))"
                f"{' + 2*(2*n_users + 1)*n_eves**2' if self.colluding else ''}, more than the "
                f"{_CHUNK_DOUBLES} of a chunk"
            )
        for name in ("n_users", "n_slots"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        problems += _refusal(SecrecyRegime, self.csi, self.colluding, self.eta)  # csi/eta rule
        if not 0 < self.v < math.inf:
            problems.append(f"v must be positive and finite, got {self.v!r}")
        if self.theta is not _ONE_PER_USER and (
                len(self.theta) != self.n_users or not all(0 < t < math.inf for t in self.theta)):
            problems.append(f"theta needs one positive, finite entry per user, got {self.theta!r}")
        for name in _GRIDS:  # sorted on construction
            grid = getattr(self, name)
            if not grid:
                problems.append(f"{name} must not be empty")
            elif not all(map(math.isfinite, grid)):
                problems.append(f"{name} entries must be finite")
            elif len(set(grid)) != len(grid):
                problems.append(f"{name} entries must be distinct")
            elif grid[0] < 0.0:
                problems.append(f"{name} entries must be nonnegative")
            elif name == "ratio_grid" and grid[-1] > 1.0:
                problems.append(f"{name} entries must lie in [0, 1]")
            elif name == "power_grid" and grid[0] != 0.0:
                problems.append(f"{name} must contain 0 so idling is always available")
        if not 0 < self.p_av < math.inf:
            problems.append(f"p_av must be positive and finite, got {self.p_av!r}")
        # Generator.binomial takes a_max as a C long
        if not 1 <= self.a_max <= np.iinfo(np.int64).max:
            problems.append(f"a_max must be an integer in [1, 2**63 - 1], got {self.a_max!r}")
        elif not 0.0 < self.arrival_mean <= self.a_max:
            problems.append(
                f"arrival_mean must lie in (0, a_max], got {self.arrival_mean!r}"
            )
        problems += _refusal(check_seed, self.seed)
        if not problems:
            problems += self._score_overflow()
        if not problems and self.csi == PARTIAL:  # the design must price on its own grid
            problems += _refusal(rate_cost_table, self.ratio_grid, self.regime,
                                 self.n_antennas, self.n_eves)
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def _slot_doubles(self) -> int:
        """Doubles one slot holds in a chunk, each part at its own peak: its cells, (user,
        eavesdropper) pairs and users, its channel rows with their sampling and audit copies
        and, when colluding, its noise Grams with their `eigh` outputs."""
        k, n_eves = self.n_users, self.n_eves
        grams = 2 * (2 * k + 1) * n_eves * n_eves if self.colluding else 0
        return (11 * k * (len(self.power_grid) - 1) + 9 * k * n_eves + 18 * k + 64
                + self.n_antennas * (2 * (k + n_eves) + 5 * max(k, n_eves, 2)) + grams)

    def _score_overflow(self) -> list[str]:
        """The slot score U*r - X*P and the run's sums must stay finite.

        The power queue X never exceeds n_slots * p_max, a backlog U never
        exceeds V * theta_max + A_max, and a secrecy rate is the logarithm of
        a finite double, so it stays below 1024 bits.  The summed backlogs
        stay below n_slots * U.
        """
        p_max = self.power_grid[-1]
        u_max = self.v * max(self.theta) + self.a_max
        n_slots = _as_float(self.n_slots)  # an int beyond the double range is inf
        problems = []
        if not math.isfinite(n_slots * p_max * p_max):
            problems.append(
                f"power_grid up to {p_max!r} over n_slots={self.n_slots} overflows the "
                "power price X*P (n_slots * p_max**2 must be finite)"
            )
        if not math.isfinite(u_max * max(_RATE_CEILING, n_slots)):
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
class SlotTrace:
    """Per-slot trace of one run, one array per trace CSV column stem.

    Row t is slot t.  `arrival`, `admitted` and `queue` hold one column per
    user; `queue` and `power_queue` are the levels after the slot's update.
    """

    slot: np.ndarray
    arrival: np.ndarray
    admitted: np.ndarray
    user: np.ndarray
    power: np.ndarray
    data_fraction: np.ndarray
    codeword_rate: np.ndarray
    rate_cost: np.ndarray
    secrecy_rate: np.ndarray
    eavesdropper_capacity: np.ndarray
    outage: np.ndarray
    queue: np.ndarray
    power_queue: np.ndarray

    @classmethod
    def empty(cls, n_slots: int, n_users: int) -> "SlotTrace":
        """Columns for `n_slots` slots, which `run` fills chunk by chunk."""
        per_user, dtype = ("arrival", "admitted", "queue"), dict(slot=int, user=int, outage=bool)
        return cls(**{f.name: np.empty((n_slots, n_users) if f.name in per_user else n_slots,
                                       dtype.get(f.name, float)) for f in fields(cls)})


@dataclass
class RunMetrics:
    """Time averages, extrema and counters accumulated over one run.

    The summary CSV writes the fields after `n_slots` in this order, one
    column per user (`name_i`) for each per-user array, so a new metric is a
    new field."""

    n_slots: int
    weighted_admission_rate: float
    avg_power: float
    empirical_outage: float
    n_transmit_slots: int
    max_queue: float
    max_power_queue: float
    power_queue_final: float
    max_served_rate: float
    empirical_gamma: float
    admission_rate: np.ndarray
    avg_queue: np.ndarray
    slots_served: np.ndarray
    trace: SlotTrace | None = None


def sample_arrivals(config, rng: np.random.Generator, count: int) -> np.ndarray:
    """Per-user packet arrivals of `count` slots, shape (count, n_users).

    Each draw is Binomial(a_max, arrival_mean / a_max); `ScenarioConfig.validate`
    keeps arrival_mean in (0, a_max].
    """
    draws = rng.binomial(config.a_max, config.arrival_mean / config.a_max,
                         size=(count, config.n_users))
    return draws.astype(float)


def _best_cells(legit, eves, regime: SecrecyRegime, power, fraction, cost_table):
    """Per (slot, user, power) cell of one chunk, the first index of the largest secrecy
    rate over the data fractions and that rate, swept one fraction at a time, so no grid
    over them exists.  A rate is priced at the eavesdropper capacity, or under partial CSI
    at the rate-cost table: then it reads only the gains ||h||^2 (as `channel_stats`).

    The sweep is power-major: the powers enter the kernels as a leading axis, so each
    fraction's rates are (powers, slots, users, 1, 1) in C order and every elementwise op,
    the running maximum and the index update walk slots x users contiguously.  Both
    results are (slots, users, powers): the fraction indices a view of their buffer, the
    rates a C-order copy, so a slot's row lists its cells in (user, power) order."""
    partial = regime.csi == PARTIAL
    stats = None if partial else channel_stats(legit, eves, regime.colluding)
    gain = np.sum(legit.real**2 + legit.imag**2, axis=-1) if partial else None
    lead = power.reshape(-1, 1, 1, 1)  # (powers, 1, 1, 1): `capacity_grids` adds the fraction axis
    best_rate = np.full(power.shape + legit.shape[:-1], -np.inf)
    best_f = np.zeros(best_rate.shape, dtype=np.intp)
    for j in range(len(fraction)):
        rate = (secrecy_rate_grid(legit_capacity_grid(gain, lead[..., None], fraction[j:j + 1]),
                                  cost_table[j:j + 1]) if partial
                else secrecy_rate_grid(*capacity_grids(stats, lead, fraction[j:j + 1])))[..., 0, 0]
        better = rate > best_rate  # strictly, so the first largest rate stays, as in argmax
        np.copyto(best_rate, rate, where=better)
        np.copyto(best_f, j, where=better)
    return np.moveaxis(best_f, 0, -1), np.ascontiguousarray(np.moveaxis(best_rate, 0, -1))


def _audit(legit, eves, regime: SecrecyRegime, power, fraction, cost_table, user, p_idx, f_idx):
    """Codeword rate, eavesdropper capacity and rate cost of each slot's chosen action.

    Both rates are the grid's kernels at the chosen (power, fraction) alone, on
    the statistics of the served user's channel row, for the slots that
    transmit: the idle action (power index 0) has rate log2(1 + 0) = 0.  The
    cost is the eavesdropper capacity, or under partial CSI the pre-inverted
    table entry of the chosen fraction.
    """
    sent = np.flatnonzero(p_idx > 0)
    stats = channel_stats(legit[sent, user[sent]][:, None, :], eves[sent], regime.colluding)
    chosen = power[p_idx[sent], None, None, None], fraction[f_idx[sent], None, None, None]
    codeword, eve = np.zeros(len(user)), np.zeros(len(user))
    codeword[sent] = legit_capacity_grid(stats.legit_gain, *chosen)[:, 0, 0, 0]
    eve[sent] = eve_capacity(stats, *chosen)[:, 0, 0, 0]
    return codeword, eve, eve if regime.csi == INSTANTANEOUS else cost_table[f_idx]


def _choose_action(backlog, price, cell_rate):
    """Flat index of the (user, power) cell that maximizes U*r - X*P in one slot, or -1 to idle.

    `backlog` holds the K backlogs U and `price` the products X*P of the
    transmitting powers `power_grid[1:]`; `cell_rate` lists, per transmitting
    (user, power) cell in C order, `_best_cells`' best rate, so cell c is user
    c // len(price) at power index c % len(price) + 1 of `power_grid`.  The
    slot idles unless a cell scores above 0, and the first cell wins ties, by
    user and then by power.

    A cell is served at its best rate: with U >= 0 a larger rate never scores
    lower, in rounded arithmetic too, so no other fraction of it scores more.
    """
    best, chosen = 0.0, -1  # every score is finite (`ScenarioConfig.validate`)
    cell = 0
    for level in backlog:
        for c in price:
            score = level * cell_rate[cell] - c
            if score > best:
                best, chosen = score, cell
            cell += 1
    return chosen


def run(config: ScenarioConfig, collect_trace: bool = False) -> RunMetrics:
    """Simulate `config.n_slots` slots; deterministic given the config.

    `collect_trace` keeps the run's `SlotTrace` in the metrics and changes nothing else."""
    config.validate()
    regime = config.regime
    k = config.n_users
    power = np.asarray(config.power_grid)
    fraction = np.asarray(config.ratio_grid)
    cost_table = (rate_cost_table(fraction, regime, config.n_antennas, config.n_eves)
                  if regime.csi == PARTIAL else None)

    streams = RngStreams(config.seed)
    transmitting = list(config.power_grid[1:])  # power_grid[0] is the idle action's 0
    n_transmitting = len(transmitting)
    p_av = config.p_av
    v_theta = [config.v * t for t in config.theta]
    queue_cap = [vt + config.a_max for vt in v_theta]

    backlog = [0.0] * k
    power_queue = 0.0
    sums = np.zeros(2 * k + 1)  # in slot order: backlogs entering a slot, admissions, power
    peaks = np.zeros(3)  # the largest backlog, power queue and served secrecy rate
    served_slots = np.zeros(k, dtype=int)
    outage_slots = 0
    gamma = 0.0
    trace = SlotTrace.empty(config.n_slots, k) if collect_trace else None

    chunk = min(_CHUNK, _CHUNK_DOUBLES // config._slot_doubles())
    done = 0
    while done < config.n_slots:
        count = min(chunk, config.n_slots - done)
        legit, eves = sample_realization_batch(config, streams, count)
        arrivals = sample_arrivals(config, streams.arrivals, count)
        best_f, best_rate = _best_cells(legit, eves, regime, power[1:], fraction, cost_table)
        # r / P rounds monotonically in r, so the best fraction gives the maximum
        gamma = float(np.max(best_rate / power[1:], initial=gamma))

        # The sequential recursion, in Python floats.  It only records each
        # slot's chosen cell and levels; checks and metrics read the columns below.
        cell_rates = best_rate.reshape(count, -1)  # the (user, power) cells of each slot
        chosen, admissions, power_queue_rows = [], [], []
        levels = list(backlog)  # k backlogs entering each slot, then k after the last
        for arrived, cell_rate in zip(arrivals.tolist(), cell_rates.tolist()):
            # Admission minimizes sum (U_i - V theta_i) R_i over 0 <= R_i <= A_i,
            # the boundary going to full admission; with the allocation below it
            # caps every backlog at V theta_i + A_max.
            admitted = [a if b <= vt else 0.0 for a, b, vt in zip(arrived, backlog, v_theta)]
            # The idle action scores 0, so the objective is never negative;
            # each cell serves its best rate, and ties go to the lowest user, then power.
            price = [power_queue * p for p in transmitting]
            cell = _choose_action(backlog, price, cell_rate)
            power_queue = max(power_queue - p_av, 0.0)
            if cell >= 0:
                user, p_cell = divmod(cell, n_transmitting)
                backlog[user] = max(backlog[user] - cell_rate[cell], 0.0)
                power_queue += transmitting[p_cell]
            backlog = [b + a for b, a in zip(backlog, admitted)]
            chosen.append(cell)
            admissions += admitted
            levels += backlog
            power_queue_rows.append(power_queue)

        # The chunk's columns, gathered by the chosen cells (idle slots: user 0,
        # power index 0, fraction index 0, rate 0.0), with the audit of the chosen
        # actions: whether an eavesdropper could have decoded.
        chosen = np.array(chosen, dtype=np.intp)
        sent = np.flatnonzero(chosen >= 0)  # empty, so nothing is read, when no power transmits
        user, p_idx, f_idx = (np.zeros(count, dtype=np.intp) for _ in range(3))
        slot_rate = np.zeros(count)
        user[sent], p_cell = np.divmod(chosen[sent], n_transmitting)
        p_idx[sent] = p_cell + 1
        f_idx[sent] = best_f[sent, user[sent], p_cell]
        slot_rate[sent] = cell_rates[sent, chosen[sent]]
        levels = np.array(levels).reshape(count + 1, k)
        codeword, eve, cost = _audit(legit, eves, regime, power, fraction, cost_table,
                                     user, p_idx, f_idx)
        transmit = slot_rate > 0.0
        columns = SlotTrace(
            slot=np.arange(done, done + count), arrival=arrivals,
            admitted=np.array(admissions).reshape(count, k),
            user=user, power=power[p_idx], data_fraction=fraction[f_idx],
            codeword_rate=codeword,
            rate_cost=cost, secrecy_rate=slot_rate, eavesdropper_capacity=eve,
            outage=transmit & (eve > cost), queue=levels[1:],
            power_queue=np.array(power_queue_rows),
        )

        # The first (slot, user) above its cap V theta_i + A_max, in row-major order.
        over = np.flatnonzero(columns.queue > np.array(queue_cap))
        if over.size:
            t, violator = divmod(int(over[0]), k)
            level, cap = float(columns.queue[t, violator]), queue_cap[violator]
            raise InvariantViolation(
                f"backlog of user {violator} exceeded its deterministic cap at slot "
                f"{done + t}: {level!r} > {cap!r}",
                slot=done + t, user=violator, backlog=level, cap=cap,
                served_user=int(user[t]), power=float(columns.power[t]),
                data_fraction=float(columns.data_fraction[t]), secrecy_rate=float(slot_rate[t]),
            )

        # Add in slot order, as a running sum does; np.sum may add pairwise.
        steps = np.column_stack((levels[:-1], columns.admitted, columns.power))
        sums = np.add.accumulate(np.vstack([sums, steps]))[-1]
        peaks = np.maximum(peaks, [columns.queue.max(), columns.power_queue.max(),
                                   slot_rate.max()])
        outage_slots += int(np.count_nonzero(columns.outage))
        served_slots += np.bincount(user[transmit], minlength=k)
        if trace is not None:
            for field in fields(SlotTrace):
                getattr(trace, field.name)[done:done + count] = getattr(columns, field.name)
        done += count
        # Release this chunk's channels and cells before the next chunk makes its own.
        del legit, eves, best_f, best_rate, cell_rates

    t_total = config.n_slots
    transmit_slots = int(served_slots.sum())
    avg_queue, admission_rate, avg_power = np.split(sums / t_total, [k, 2 * k])
    max_queue, max_power_queue, max_served_rate = peaks.tolist()
    return RunMetrics(
        n_slots=t_total,
        admission_rate=admission_rate,
        weighted_admission_rate=float(np.dot(np.asarray(config.theta), admission_rate)),
        avg_queue=avg_queue,
        avg_power=float(avg_power[0]),
        empirical_outage=(outage_slots / transmit_slots) if transmit_slots else 0.0,
        n_transmit_slots=transmit_slots,
        slots_served=served_slots,
        max_queue=max_queue,
        max_power_queue=max_power_queue,
        power_queue_final=power_queue,
        max_served_rate=max_served_rate,
        empirical_gamma=gamma,
        trace=trace,
    )
