"""End-to-end simulator tests: determinism, queue laws, trace fidelity.

The strongest check here replays a traced run through the batched kernels
on regenerated channels and arrivals, with the queue recursions written out,
and demands bit-identical decisions and queue trajectories.
"""
import dataclasses
import functools
import math
import operator
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secsched import (
    ConfigError,
    RngStreams,
    RunMetrics,
    ScenarioConfig,
    SlotTrace,
    run,
    sample_arrivals,
    sample_realization_batch,
)
import secsched.simulator as simulator
from secsched.errors import InvariantViolation
from secsched.secrecy import (
    capacity_grids,
    channel_stats,
    legit_capacity_grid,
    rate_cost_table,
    secrecy_rate_grid,
)


def _small(**kw):
    kw.setdefault("n_slots", 400)
    return ScenarioConfig(**kw)


# --- configuration -------------------------------------------------------------

def test_defaults_validate():
    config = ScenarioConfig().validate()
    assert config.theta == (1.0, 1.0)
    assert config.power_grid == (0.0, 100.0, 200.0, 300.0)
    assert len(config.ratio_grid) == 21
    assert config.regime.csi == "instantaneous"


def test_grids_are_sorted_on_construction():
    config = ScenarioConfig(power_grid=(300.0, 0.0, 100.0), ratio_grid=(1.0, 0.0, 0.5))
    assert config.power_grid == (0.0, 100.0, 300.0)
    assert config.ratio_grid == (0.0, 0.5, 1.0)


def test_validate_collects_all_problems():
    config = ScenarioConfig(n_antennas=1, v=-1.0, p_av=0.0, arrival_mean=50.0)
    with pytest.raises(ConfigError) as err:
        config.validate()
    msg = str(err.value)
    for fragment in ("n_antennas", "v must be positive", "p_av", "arrival_mean"):
        assert fragment in msg


def test_validate_specific_rules():
    with pytest.raises(ConfigError):
        ScenarioConfig(colluding=True, n_antennas=3, n_eves=3).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(csi="partial").validate()  # needs eta
    with pytest.raises(ConfigError):
        ScenarioConfig(csi="instantaneous", eta=0.2).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(power_grid=(100.0, 200.0)).validate()  # no idle action
    with pytest.raises(ConfigError):
        ScenarioConfig(theta=(1.0,)).validate()  # one priority for two users
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=-1).validate()
    ScenarioConfig(csi="partial", eta=0.3).validate()


def test_validate_prices_the_partial_design():
    # the config refuses what its own rate-cost table refuses, before any run
    with pytest.raises(ConfigError, match="outage level 1e-300 is too small"):
        ScenarioConfig(csi="partial", eta=1e-300).validate()
    ScenarioConfig(csi="partial", eta=1e-300, ratio_grid=(0.0, 1.0)).validate()
    ScenarioConfig(csi="partial", eta=1e-300, colluding=True).validate()  # log-form tail


def test_validate_rejects_non_finite_values():
    # max() skips a NaN that is not first and NaN <= 0 is False, so the
    # priorities need an explicit finiteness check
    for theta in ((1.0, math.nan), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ConfigError, match="theta"):
            ScenarioConfig(theta=theta).validate()
    with pytest.raises(ConfigError, match="p_av"):
        ScenarioConfig(p_av=math.inf).validate()
    with pytest.raises(ConfigError, match="v must"):
        ScenarioConfig(v=math.inf).validate()
    # integers beyond the double range read as infinite, never as OverflowError
    for overrides, pattern in ((dict(v=10**400), "v must"),
                               (dict(power_grid=(0, 10**400)), "power_grid entries"),
                               (dict(n_slots=10**400), "n_slots=")):
        with pytest.raises(ConfigError, match=pattern):
            ScenarioConfig(**overrides).validate()


_FIELD_NAMES = [f.name for f in dataclasses.fields(ScenarioConfig)]
_INT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "int"]


def test_validate_rejects_wrongly_typed_numbers():
    # a range check on a string or None raises TypeError, and True passes one;
    # construction never raises, so a mistyped field reaches validate as given
    cases = [(dict(v="1"), "v", "a real number"), (dict(v=True), "v", "a real number"),
             (dict(p_av=None), "p_av", "a real number"),
             (dict(arrival_mean="3"), "arrival_mean", "a real number"),
             (dict(csi="partial", eta="0.1"), "eta", "a real number"),
             (dict(colluding="yes"), "colluding", "a boolean"), (dict(csi=1), "csi", "a string"),
             (dict(theta=("a", 1.0)), "theta", "a list of real numbers"),
             (dict(theta=(1.0, None)), "theta", "a list of real numbers"),
             (dict(theta=None), "theta", "a list of real numbers"),
             (dict(power_grid=("0", 100)), "power_grid", "a list of real numbers"),
             (dict(ratio_grid="abc"), "ratio_grid", "a list of real numbers")]
    cases += [({field: flag}, field, "an integer") for field in _INT_FIELDS
              for flag in (True, False)]
    for overrides, field, kind in cases:
        config = ScenarioConfig(**overrides)
        with pytest.raises(ConfigError, match=f"^{field} must be {kind}, got"):
            config.validate()
    ScenarioConfig(v=np.float64(50.0), p_av=150, arrival_mean=np.int64(3)).validate()


_ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.complex_numbers() | st.floats().map(np.float64) | st.floats().map(np.array)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.lists(st.floats(), max_size=4).map(np.array)
    | st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3).map(np.array),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_field_values_validate_or_raise_config_error(data):
    names = data.draw(st.lists(st.sampled_from(_FIELD_NAMES), min_size=1, max_size=2,
                               unique=True))
    overrides = {name: data.draw(_ANY_VALUE, label=name) for name in names}
    config = ScenarioConfig(**overrides)
    try:
        config.validate()
    except ConfigError:
        pass


def test_validate_rejects_overflowing_scores():
    # X*P reaches n_slots * p_max**2 and U*r reaches (V*theta + A_max) * 1024
    with pytest.raises(ConfigError, match="power_grid"):
        ScenarioConfig(power_grid=(0.0, 1e300)).validate()
    with pytest.raises(ConfigError, match="backlog cap"):
        ScenarioConfig(v=1e306).validate()
    with pytest.raises(ConfigError, match="backlog cap"):
        ScenarioConfig(v=1e302, n_slots=10**7).validate()  # the summed backlogs
    ScenarioConfig(power_grid=(0.0, 1e150)).validate()
    # Generator.binomial takes the arrival cap as a C long
    with pytest.raises(ConfigError, match="a_max"):
        ScenarioConfig(a_max=2**63).validate()
    ScenarioConfig(a_max=2**63 - 1).validate()
    ScenarioConfig(csi="partial", eta=0.1, colluding=True).validate()


@pytest.mark.parametrize("overrides,doubles", [
    (dict(n_users=2**70), "about 1.42e23"), (dict(n_users=10**9), "120000000100"),
    (dict(n_antennas=10**400, csi="partial", eta=0.1), "about 2.5e401"),
], ids=["n_users-2**70", "n_users-10**9", "partial-n_antennas-10**400"])
def test_a_slot_beyond_the_chunk_budget_is_refused(overrides, doubles):
    # refused by its size alone, before theta is filled or the partial design
    # priced, and an oversized product is printed by its order of magnitude
    with pytest.raises(ConfigError) as refused:
        ScenarioConfig(**overrides).validate()
    assert str(refused.value) == (
        f"one slot needs {doubles} doubles (ScenarioConfig._slot_doubles), "
        "more than the 2097152 of a chunk")
    # a theta that was given is still checked against n_users
    with pytest.raises(ConfigError, match="theta needs one positive"):
        ScenarioConfig(**overrides, theta=(1.0,)).validate()


def test_run_rejects_invalid_config():
    with pytest.raises(ConfigError):
        run(_small(v=-5.0))


# --- arrivals --------------------------------------------------------------------

def test_arrival_moments():
    config = ScenarioConfig(arrival_mean=15.0)
    rng = RngStreams(3).arrivals
    draws = sample_arrivals(config, rng, 250_000)
    assert draws.shape == (250_000, 2)
    assert np.all(draws == np.floor(draws))
    assert np.all((0 <= draws) & (draws <= 30))
    assert abs(draws.mean() - 15.0) < 0.05
    var = 30 * 0.5 * 0.5
    assert abs(draws.var() - var) < 0.1


def test_arrivals_at_the_cap_are_constant():
    config = ScenarioConfig(arrival_mean=30.0)
    draws = sample_arrivals(config, RngStreams(0).arrivals, 100)
    assert np.array_equal(draws, np.full((100, 2), 30.0))


def test_arrival_validation():
    bad = ScenarioConfig(arrival_mean=31.0, n_slots=10)  # above a_max
    with pytest.raises(ConfigError, match="arrival_mean"):
        bad.validate()
    with pytest.raises(ConfigError):
        run(bad)


# --- whole-run properties -----------------------------------------------------------

def test_run_is_deterministic():
    a = run(_small(seed=77), collect_trace=True)
    b = run(_small(seed=77), collect_trace=True)
    assert np.array_equal(a.admission_rate, b.admission_rate)
    assert np.array_equal(a.avg_queue, b.avg_queue)
    assert a.avg_power == b.avg_power
    assert a.max_queue == b.max_queue
    for name in ("user", "power", "data_fraction", "secrecy_rate", "queue"):
        assert np.array_equal(getattr(a.trace, name), getattr(b.trace, name))


def test_different_seeds_give_different_runs():
    a = run(_small(seed=1))
    b = run(_small(seed=2))
    assert not np.array_equal(a.avg_queue, b.avg_queue)


def test_substream_isolation_across_structure_changes():
    # adding eavesdroppers must not disturb arrivals or legitimate fading
    a = run(_small(seed=11, n_eves=3), collect_trace=True)
    b = run(_small(seed=11, n_eves=4), collect_trace=True)
    assert np.array_equal(a.trace.arrival, b.trace.arrival)


def test_queue_cap_holds():
    m = run(_small(n_slots=3000))
    assert m.max_queue <= 100.0 * 1.0 + 30.0


def test_queue_cap_breach_raises_at_the_first_slot(monkeypatch):
    # a_max + 1 packets a slot and no power to serve them: user 1's backlog
    # passes V*theta_1 + A_max = 123 at slot 3, user 0's cap of 130 holds
    config = _small(n_slots=50, power_grid=(0.0,), theta=(1.0, 0.93))
    monkeypatch.setattr(simulator, "sample_arrivals",
                        lambda config, rng, count: np.full((count, 2), config.a_max + 1.0))
    v_theta = config.v * np.asarray(config.theta)
    cap = v_theta + config.a_max
    backlog = np.zeros(2)
    for slot in range(config.n_slots):
        backlog = backlog + np.where(backlog <= v_theta, config.a_max + 1.0, 0.0)
        if np.any(backlog > cap):
            break
    user = int(np.argmax(backlog > cap))
    assert (slot, user, backlog[user], cap[user]) == (3, 1, 124.0, 123.0)
    with pytest.raises(InvariantViolation) as err:
        run(config)
    assert str(err.value) == (
        "backlog of user 1 exceeded its deterministic cap at slot 3: 124.0 > 123.0")
    assert (err.value.slot, err.value.user) == (slot, user)
    assert (err.value.backlog, err.value.cap) == (backlog[user], cap[user])
    # the slot's decision: with only the zero power no cell transmits, so the
    # slot keeps the idle action (user 0, power 0, the first fraction, rate 0)
    decision = (err.value.served_user, err.value.power, err.value.data_fraction,
                err.value.secrecy_rate)
    assert decision == (0, 0.0, config.ratio_grid[0], 0.0)


def test_instantaneous_outage_is_identically_zero():
    for colluding in (False, True):
        m = run(_small(n_slots=2000, colluding=colluding))
        assert m.n_transmit_slots > 0
        assert m.empirical_outage == 0.0


def test_power_telescoping_inequality():
    # X(T) >= X(0) + sum P - T * P_av, so the average power obeys the virtual
    # queue bound exactly, not just asymptotically
    for seed in (1, 2, 3):
        m = run(_small(seed=seed, n_slots=1500))
        assert m.avg_power * 1500 <= 1500 * 200.0 + m.power_queue_final + 1e-9
        assert m.avg_power <= 200.0 + m.power_queue_final / 1500 + 1e-12


def test_starved_run_never_transmits():
    m = run(_small(power_grid=(0.0,), n_slots=1500))
    assert m.n_transmit_slots == 0
    assert m.avg_power == 0.0
    assert m.empirical_outage == 0.0
    assert m.max_served_rate == 0.0
    assert m.empirical_gamma == 0.0
    # admissions stop once every backlog crosses V*theta
    assert m.max_queue <= 130.0
    assert m.admission_rate.max() < 1.0


def _running_sum(rows, start):
    """`start` plus each row in slot order, one addition at a time."""
    return functools.reduce(operator.add, rows, start)


@pytest.mark.parametrize("n_users", [1, 2, 3])
def test_metrics_bookkeeping(n_users):
    # The metrics are running sums and maxima of the trace's columns, equal to
    # the last bit: a pairwise sum (np.sum of one user's column) rounds otherwise.
    m = run(_small(n_slots=500, n_users=n_users), collect_trace=True)
    trace = m.trace
    assert m.n_slots == 500 and len(trace.slot) == 500
    assert m.n_transmit_slots == int(m.slots_served.sum())
    before = np.vstack([np.zeros(n_users), trace.queue[:-1]])  # backlogs entering each slot
    assert np.array_equal(m.avg_queue, _running_sum(before, np.zeros(n_users)) / 500)
    assert np.array_equal(m.admission_rate,
                          _running_sum(trace.admitted, np.zeros(n_users)) / 500)
    assert m.avg_power == _running_sum(trace.power.tolist(), 0.0) / 500
    assert m.max_queue == trace.queue.max()
    assert m.max_power_queue == trace.power_queue.max()
    assert m.power_queue_final == trace.power_queue[-1]
    assert m.weighted_admission_rate == pytest.approx(float(m.admission_rate.sum()))


@pytest.mark.parametrize("csi,colluding,overrides", [
    pytest.param("instantaneous", False, {}, id="instantaneous-False"),
    pytest.param("instantaneous", True, {}, id="instantaneous-True"),
    pytest.param("partial", True, {}, id="partial-True"),
    pytest.param("partial", False, {}, id="partial-False"),
    # a budget far below the grid and a large V: backlogs near 9000 and a
    # power queue X in the hundreds, so X*P is large against U*r
    pytest.param("instantaneous", False, dict(p_av=5.0, v=1e4),
                 id="instantaneous-False-low-p_av"),
])
def test_traced_run_replays_through_batched_kernels(csi, colluding, overrides):
    eta = 0.3 if csi == "partial" else 0.0
    config = _small(n_slots=300, csi=csi, eta=eta, colluding=colluding, seed=31, **overrides)
    trace = run(config, collect_trace=True).trace
    t_all, k = config.n_slots, config.n_users
    regime = config.regime
    power = np.asarray(config.power_grid)
    fraction = np.asarray(config.ratio_grid)

    streams = RngStreams(config.seed)
    legit, eves = sample_realization_batch(config, streams, t_all)
    arrivals = sample_arrivals(config, streams.arrivals, t_all)
    assert np.array_equal(trace.arrival, arrivals)

    # queue recursions written out, entering each slot from the previous row
    queues, power_queue = trace.queue, trace.power_queue
    backlog = np.vstack([np.zeros((1, k)), queues[:-1]])
    virtual = np.concatenate([[0.0], power_queue[:-1]])
    admitted = np.where(backlog <= config.v * np.asarray(config.theta), arrivals, 0.0)
    assert np.array_equal(trace.admitted, admitted)

    # the chosen action follows the per-cell rule on the full grid of U * r - X * P
    cost_table = None
    if csi == "partial":
        cost_table = rate_cost_table(fraction, regime, config.n_antennas, config.n_eves)
    stats = channel_stats(legit, eves, colluding)
    cap_users, cap_eves = capacity_grids(stats, power, fraction)
    rates = secrecy_rate_grid(cap_users, cap_eves if cost_table is None else cost_table)
    score = backlog[:, :, None, None] * rates - virtual[:, None, None, None] * power[:, None]
    user, p_idx, f_idx = _rule_choice(score, rates)
    slot = np.arange(t_all)
    assert np.array_equal(trace.user, user)
    assert np.array_equal(trace.power, power[p_idx])
    assert np.array_equal(trace.data_fraction, fraction[f_idx])
    rate = rates[slot, user, p_idx, f_idx]
    assert np.array_equal(trace.secrecy_rate, rate)
    assert np.array_equal(trace.codeword_rate, cap_users[slot, user, p_idx, f_idx])

    served = np.zeros((t_all, k))
    served[slot, user] = rate
    assert np.array_equal(queues, np.maximum(backlog - served, 0.0) + admitted)
    assert np.array_equal(power_queue, np.maximum(virtual - config.p_av, 0.0) + power[p_idx])

    # rate cost and outage: the realized eavesdropper capacity under
    # instantaneous CSI, the pre-inverted table entry under partial CSI
    eve = cap_eves[slot, user, p_idx, f_idx]
    cost = eve if csi == "instantaneous" else cost_table[f_idx]
    assert np.array_equal(trace.eavesdropper_capacity, eve)
    assert np.array_equal(trace.rate_cost, cost)
    assert np.array_equal(trace.outage, (rate > 0.0) & (eve > cost))


@pytest.mark.parametrize("overrides", [
    dict(), dict(colluding=True), dict(csi="partial", eta=0.3),
    dict(csi="partial", eta=0.1, colluding=True), dict(p_av=5.0, v=1e4),
    dict(arrival_mean=1.0), dict(power_grid=(0.0,)),
], ids=["instantaneous-False", "instantaneous-True", "partial-False", "partial-True",
        "low-p_av", "sparse-arrivals", "no-transmitting-power"])
def test_a_slot_transmits_exactly_when_it_serves_a_positive_rate(overrides, monkeypatch):
    # A chosen cell scores U*r - X*P > 0 with U, X*P >= 0, so its rate is
    # positive, and an idle slot sends at power 0 with rate 0: the transmitting
    # slots are one set, and only their rows reach the audit, chunk by chunk.
    audited = []

    def audit(legit, *args):
        audited.append(len(legit))
        return audit_rows(legit, *args)

    audit_rows = simulator._audit
    monkeypatch.setattr(simulator, "_audit", audit)
    monkeypatch.setattr(simulator, "_CHUNK", 700)
    config = _small(n_slots=2000, seed=3, **overrides)
    m = run(config, collect_trace=True)
    sent = m.trace.power > 0
    assert np.array_equal(sent, m.trace.secrecy_rate > 0)
    assert m.n_transmit_slots == np.count_nonzero(sent)
    assert np.array_equal(m.slots_served,
                          np.bincount(m.trace.user[sent], minlength=config.n_users))
    assert len(audited) == 3 and sum(audited) == m.n_transmit_slots


# --- the per-slot action choice -------------------------------------------------

def _rule_choice(score, rates):
    """The per-cell rule by brute force over full (slots, K, |P|, |F|) grids,
    the idle power first: each slot serves the first (user, power) cell, in C
    order, whose best score is the slot's maximum, at the first fraction of
    that cell's largest rate.  The idle cell (0, 0) comes first, so a slot
    idles unless a transmitting cell scores above 0.  The served action's
    rounded score must be the maximum of the whole grid."""
    t_all, _, n_p, _ = score.shape
    slot = np.arange(t_all)
    user, p_idx = np.divmod(np.argmax(score.max(axis=-1).reshape(t_all, -1), axis=1), n_p)
    f_idx = np.argmax(rates[slot, user, p_idx], axis=-1)
    assert np.array_equal(score[slot, user, p_idx, f_idx], score.max(axis=(1, 2, 3)))
    return user, p_idx, f_idx


def _slot_rule(backlog, power_queue, power, rates):
    """`_rule_choice` in one slot whose transmitting `power`s have `rates`,
    with the idle column (power 0, rates 0) added."""
    rates = np.concatenate([np.zeros(rates.shape[:1] + (1,) + rates.shape[2:]), rates], axis=1)
    power = np.concatenate([[0.0], power])
    score = np.asarray(backlog)[:, None, None] * rates - power_queue * power[:, None]
    return tuple(int(index[0]) for index in _rule_choice(score[None], rates[None]))


def _argmax_cells(rates):
    """Per cell of a full grid, the first index of the largest rate over its
    last (fraction) axis, by `np.argmax`, and that rate."""
    best_f = np.argmax(rates, axis=-1)
    return best_f, np.take_along_axis(rates, best_f[..., None], axis=-1)[..., 0]


def _cell_choice(backlog, power_queue, power, rates):
    best_f, best_rate = _argmax_cells(rates)
    cell = simulator._choose_action(
        [float(u) for u in backlog], [power_queue * float(p) for p in power],
        best_rate.ravel().tolist())
    if cell < 0:
        assert cell == -1
        return 0, 0, 0
    assert cell < best_rate.size
    user, p_cell = divmod(cell, len(power))
    return user, p_cell + 1, int(best_f[user, p_cell])


def test_action_choice_serves_each_cell_at_its_best_rate():
    # Each grid below is the transmitting part; the oracle adds the idle column.
    rng = np.random.default_rng(5)
    rates = rng.uniform(0.0, 5.0, size=(2, 3, 4))[:, 1:]
    # U = 0: every fraction of a user scores -X*P
    for backlog, power_queue in (([0.0, 0.0], 0.0), ([0.0, 0.0], 3.0), ([0.0, 2.0], 3.0)):
        assert _cell_choice(backlog, power_queue, [1.0, 2.0], rates) == \
            _slot_rule(backlog, power_queue, [1.0, 2.0], rates)
    assert _cell_choice([0.0, 0.0], 3.0, [1.0, 2.0], rates) == (0, 0, 0)

    # products that round equal: adjacent rates times U = 1.5 * 2**53 (a power
    # of two would multiply exactly); the cell serves its larger rate
    level = 1.5 * 2.0**53
    low, high = 6.004923751903786, 6.004923751903787
    assert low < high and level * low == level * high
    tied = np.array([[[0.5, low, 0.25, high]], [[1.0, 2.0, 3.0, 4.0]]])
    assert _cell_choice([level, 1.0], 0.0, [1.0], tied) == (0, 1, 3)
    assert _slot_rule([level, 1.0], 0.0, [1.0], tied) == (0, 1, 3)

    # X*P = 2**53 leaves U*r - X*P a spacing of 1: 0.6, 1.4 and 1.45 score
    # alike although their products differ; X*P = 2**60 absorbs U*r whole.
    # Every transmitting score is negative, so the slot idles.
    absorbed = np.array([[[0.2, 0.6, 1.4, 1.45]]])
    assert 1.0 * 0.6 - 2.0**53 == 1.0 * 1.45 - 2.0**53
    for power_queue in (2.0**53, 2.0**60):
        assert _cell_choice([1.0], power_queue, [1.0], absorbed) == (0, 0, 0)
        assert _slot_rule([1.0], power_queue, [1.0], absorbed) == (0, 0, 0)

    # a positive tie made by the subtraction: 15 - X and its successor - X
    # both round to 14 with X = 1 + 2**-50, and the cell serves the successor
    price = 1.0 + 2.0**-50
    subtracted = np.array([[[15.0, np.nextafter(15.0, 16.0)]]])
    assert 15.0 - price == np.nextafter(15.0, 16.0) - price == 14.0
    assert _cell_choice([1.0], price, [1.0], subtracted) == (0, 1, 1)
    assert _slot_rule([1.0], price, [1.0], subtracted) == (0, 1, 1)

    # random states, with coarse rates and backlogs so exact ties are common;
    # no transmitting power at all (power_grid = [0]) included
    for _ in range(3000):
        k, n_p, n_f = rng.integers(1, 4), rng.integers(0, 4), rng.integers(1, 7)
        if rng.random() < 0.5:
            grid = rng.integers(0, 4, size=(k, n_p, n_f)) / 2.0
        else:
            grid = rng.uniform(0.0, 10.0, size=(k, n_p, n_f))
        backlog = rng.choice([0.0, 1.0, 3.0, 2.0**53, 1.5 * 2.0**53], size=k)
        if rng.random() < 0.5:
            backlog = rng.uniform(0.0, 200.0, size=k)
        power = np.sort(rng.choice([1.0, 100.0, 250.0, 300.0], size=n_p, replace=False))
        power_queue = float(rng.choice([0.0, 0.5, 40.0, 2.0**53, rng.uniform(0.0, 1e4)]))
        assert _cell_choice(backlog, power_queue, power, grid) == \
            _slot_rule(backlog, power_queue, power, grid)


def _assert_same_run(a: RunMetrics, b: RunMetrics):
    for f in dataclasses.fields(RunMetrics):
        if f.name != "trace":
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
    assert (a.trace is None) == (b.trace is None)
    if a.trace is not None:
        for f in dataclasses.fields(SlotTrace):
            np.testing.assert_array_equal(getattr(a.trace, f.name), getattr(b.trace, f.name))


@pytest.mark.parametrize("config", [
    ScenarioConfig(n_slots=300, seed=12),
    ScenarioConfig(colluding=True, n_slots=300, seed=12),
    ScenarioConfig(csi="partial", eta=0.1, colluding=True, n_slots=300, seed=12),
], ids=["instantaneous-noncolluding", "instantaneous-colluding", "partial-colluding"])
def test_collecting_a_trace_changes_no_result(config):
    traced = run(config, collect_trace=True)
    assert len(traced.trace.slot) == config.n_slots
    _assert_same_run(run(config), dataclasses.replace(traced, trace=None))


@pytest.mark.parametrize("config", [
    ScenarioConfig(arrival_mean=15.0, n_slots=600, seed=8),
    ScenarioConfig(csi="partial", eta=0.3, colluding=True, n_slots=600, seed=8),
], ids=["instantaneous-noncolluding", "partial-colluding"])
def test_results_do_not_depend_on_chunk_size(config, monkeypatch):
    runs = []
    for chunk in (1, 7, 4096):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        runs.append(run(config, collect_trace=True))
    for other in runs[1:]:
        _assert_same_run(runs[0], other)


@pytest.mark.parametrize("config", [
    ScenarioConfig(arrival_mean=15.0, n_slots=600, seed=8),
    ScenarioConfig(colluding=True, n_slots=600, seed=8),
    ScenarioConfig(csi="partial", eta=0.3, colluding=True, n_slots=600, seed=8),
], ids=["instantaneous-noncolluding", "instantaneous-colluding", "partial-colluding"])
def test_a_chunk_bounded_by_memory_changes_no_result(config, monkeypatch):
    unbounded = run(config, collect_trace=True)
    counts = []

    def sample(config, streams, count):
        counts.append(count)
        return sample_realization_batch(config, streams, count)

    monkeypatch.setattr(simulator, "sample_realization_batch", sample)
    monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 7 * config._slot_doubles() + 1)
    _assert_same_run(unbounded, run(config, collect_trace=True))
    assert counts == [7] * 85 + [5]


@pytest.mark.parametrize("config", [
    ScenarioConfig(n_slots=50),
    ScenarioConfig(colluding=True, n_slots=50),
    ScenarioConfig(csi="partial", eta=0.1, colluding=True, n_slots=50),
], ids=["instantaneous-noncolluding", "instantaneous-colluding", "partial-colluding"])
def test_no_grid_or_chunk_statistic_crosses_the_recursion(config, monkeypatch):
    arrays, alive = [], []

    def recorded(kernel):
        def call(*args):
            result = kernel(*args)
            outputs = (vars(result).values() if kernel is channel_stats
                       else result if kernel is capacity_grids else [result])
            arrays.extend(weakref.ref(a) for a in outputs if isinstance(a, np.ndarray))
            return result
        return call

    def choose(*args):
        if not alive:
            alive.append([ref() is not None for ref in arrays])
        return choose_action(*args)

    choose_action = simulator._choose_action
    for kernel in (capacity_grids, legit_capacity_grid, secrecy_rate_grid, channel_stats):
        monkeypatch.setattr(simulator, kernel.__name__, recorded(kernel))
    monkeypatch.setattr(simulator, "_choose_action", choose)
    run(config)
    assert len(alive) == 1 and alive[0] and not any(alive[0])


@pytest.mark.parametrize("config", [
    ScenarioConfig(n_slots=50),
    ScenarioConfig(colluding=True, n_slots=50),
    ScenarioConfig(csi="partial", eta=0.1, colluding=True, n_slots=50),
], ids=["instantaneous-noncolluding", "instantaneous-colluding", "partial-colluding"])
def test_the_grids_hold_only_the_transmitting_powers(config, monkeypatch):
    layouts = []

    def recorded(kernel):
        def call(*args):
            result = kernel(*args)
            layouts.extend((grid.shape, grid.flags.c_contiguous)
                           for grid in (result if kernel is capacity_grids else [result]))
            return result
        return call

    monkeypatch.setattr(simulator, "capacity_grids", recorded(capacity_grids))
    monkeypatch.setattr(simulator, "secrecy_rate_grid", recorded(secrecy_rate_grid))
    run(config)
    # no idle column and no fraction axis: one call per fraction, each one column wide;
    # power-major, so the sweep's elementwise loops run over slots x users, not powers
    per_fraction = 3 if config.csi == "instantaneous" else 1
    assert len(layouts) == per_fraction * len(config.ratio_grid)
    n_powers = len(config.power_grid) - 1
    assert set(layouts) == {((n_powers, config.n_slots, config.n_users, 1, 1), True)}


_REGIMES = [("instantaneous", False, 0.0), ("instantaneous", True, 0.0),
            ("partial", False, 0.3), ("partial", True, 0.3)]


def _full_grid_cells(legit, eves, regime, power, fraction, cost_table):
    """`_best_cells` by the full (slots, K, |P|, |F|) secrecy-rate grid, reduced by
    `np.argmax` over its fraction axis; also returns the grid."""
    cap_users, cap_eves = capacity_grids(channel_stats(legit, eves, regime.colluding),
                                         power, fraction)
    rates = secrecy_rate_grid(cap_users, cap_eves if cost_table is None else cost_table)
    return (*_argmax_cells(rates), rates)


@pytest.mark.parametrize("regime", _REGIMES, ids=lambda regime: "-".join(map(str, regime[:2])))
@pytest.mark.parametrize("power_grid,ratio_grid,ties", [
    (ScenarioConfig.power_grid, ScenarioConfig.ratio_grid, False),
    # a repeated fraction repeats its rate; fraction 0 (no data) has rate 0, and
    # so has fraction 1 (no artificial noise) wherever its price reaches the
    # codeword rate, always under partial CSI: each tie of the largest rate goes
    # to the first index
    ((0.0, 50.0, 300.0), (0.0, 0.3, 0.3, 0.7, 1.0), True),
    ((0.0, 50.0, 300.0), (0.0, 1.0), True),
    ((0.0, 100.0), (0.5,), False),
    ((0.0,), (0.0, 0.5, 1.0), False),
], ids=["defaults", "repeated-fraction", "clamped-fractions", "one-fraction",
        "no-transmitting-power"])
def test_best_cells_match_the_full_grid_argmax(regime, power_grid, ratio_grid, ties):
    csi, colluding, eta = regime
    config = ScenarioConfig(n_users=3, csi=csi, colluding=colluding, eta=eta)
    legit, eves = sample_realization_batch(config, RngStreams(17), 500)
    power, fraction = np.asarray(power_grid)[1:], np.asarray(ratio_grid)
    cost_table = (rate_cost_table(fraction, config.regime, config.n_antennas, config.n_eves)
                  if csi == "partial" else None)
    best_f, best_rate = simulator._best_cells(legit, eves, config.regime, power, fraction,
                                              cost_table)
    oracle_f, oracle_rate, rates = _full_grid_cells(legit, eves, config.regime, power,
                                                    fraction, cost_table)
    assert best_f.shape == best_rate.shape == (500, 3, len(power))
    assert np.array_equal(best_f, oracle_f)
    assert best_rate.tobytes() == oracle_rate.tobytes()
    if ties:  # they happen
        assert np.any(np.sum(rates == best_rate[..., None], axis=-1) > 1)


_LARGE_GRID = dict(n_users=64, power_grid=tuple(30.0 * i for i in range(11)),
                   ratio_grid=tuple(i / 100 for i in range(101)))


@pytest.mark.parametrize("overrides", [
    _LARGE_GRID, dict(n_antennas=512), dict(n_antennas=64, n_eves=40, colluding=True),
    *(dict(csi=csi, colluding=colluding, eta=eta) for csi, colluding, eta in _REGIMES),
], ids=["64x11x101", "512-antennas", "40-colluding-eavesdroppers",
        *("-".join(map(str, regime[:2])) for regime in _REGIMES)])
def test_a_chunk_holds_no_more_than_its_budget(overrides, monkeypatch):
    # the budget binds (the defaults' 4096-slot cap is lifted), and the run
    # covers two full chunks and one more slot
    monkeypatch.setattr(simulator, "_CHUNK", 10**9)
    chunk = simulator._CHUNK_DOUBLES // ScenarioConfig(**overrides)._slot_doubles()
    config = ScenarioConfig(n_slots=2 * chunk + 1, seed=3, **overrides)
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= simulator._CHUNK_DOUBLES * 8


def test_a_long_ratio_grid_is_not_counted_against_the_budget():
    # 64 users x 10 transmitting powers x 3000 fractions: the fractions are
    # swept one at a time, so the grid length adds nothing to a slot's count
    config = ScenarioConfig(n_slots=2, **dict(_LARGE_GRID, ratio_grid=tuple(
        i / 2999 for i in range(3000)))).validate()
    assert config._slot_doubles() == ScenarioConfig(**_LARGE_GRID)._slot_doubles()
    assert run(config).n_slots == 2


@settings(max_examples=25, deadline=None)
@given(
    n_users=st.integers(1, 3),
    regime=st.sampled_from(_REGIMES),
    power_grid=st.sampled_from([(0.0,), (0.0, 300.0), (0.0, 100.0, 200.0, 300.0)]),
    ratio_grid=st.sampled_from([(0.0,), (0.5,), (1.0,), (0.0, 0.5, 1.0)]),
    arrival_mean=st.sampled_from([1.0, 15.0, 30.0]),
    n_slots=st.integers(1, 20),
    seed=st.integers(0, 2**64 - 1),
)
def test_chunk_boundaries_change_no_result(n_users, regime, power_grid, ratio_grid,
                                           arrival_mean, n_slots, seed):
    csi, colluding, eta = regime
    config = ScenarioConfig(n_users=n_users, csi=csi, colluding=colluding, eta=eta,
                            power_grid=power_grid, ratio_grid=ratio_grid,
                            arrival_mean=arrival_mean, n_slots=n_slots, seed=seed)
    runs = []
    for chunk in (1, 3, 4096):
        with mock.patch.object(simulator, "_CHUNK", chunk):
            runs.append(run(config, collect_trace=True))
    for other in runs[1:]:
        _assert_same_run(runs[0], other)


def test_partial_csi_run_has_near_target_outage():
    m = run(ScenarioConfig(csi="partial", eta=0.4, n_slots=6000, seed=19))
    se = np.sqrt(0.4 * 0.6 / m.n_transmit_slots)
    assert m.n_transmit_slots > 1000
    assert abs(m.empirical_outage - 0.4) <= 4 * se
