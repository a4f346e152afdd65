"""End-to-end simulator tests: determinism, queue laws, trace fidelity.

The strongest check here replays a traced run through the batched kernels
on regenerated channels and arrivals, with the queue recursions written out,
and demands bit-identical decisions and queue trajectories.
"""
import dataclasses

import numpy as np
import pytest

from secsched import (
    ConfigError,
    RngStreams,
    RunMetrics,
    ScenarioConfig,
    SlotTraceRecord,
    run,
    sample_arrivals,
    sample_realization_batch,
)
import secsched.simulator as simulator
from secsched.errors import InvariantViolation
from secsched.secrecy import capacity_grids, channel_stats, rate_cost_table, secrecy_rate_grid


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


def test_validate_rejects_overflowing_scores():
    # X*P reaches n_slots * p_max**2 and U*r reaches (V*theta + A_max) * 1024
    with pytest.raises(ConfigError, match="power_grid"):
        ScenarioConfig(power_grid=(0.0, 1e300)).validate()
    with pytest.raises(ConfigError, match="backlog cap"):
        ScenarioConfig(v=1e306).validate()
    with pytest.raises(ConfigError, match="backlog cap"):
        ScenarioConfig(v=1e302, n_slots=10**7).validate()  # the summed backlogs
    ScenarioConfig(power_grid=(0.0, 1e150)).validate()
    ScenarioConfig(csi="partial", eta=0.1, colluding=True).validate()


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
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.user, ra.power, ra.data_fraction) == (rb.user, rb.power, rb.data_fraction)
        assert ra.secrecy_rate == rb.secrecy_rate
        assert np.array_equal(ra.queues, rb.queues)


def test_different_seeds_give_different_runs():
    a = run(_small(seed=1))
    b = run(_small(seed=2))
    assert not np.array_equal(a.avg_queue, b.avg_queue)


def test_substream_isolation_across_structure_changes():
    # adding eavesdroppers must not disturb arrivals or legitimate fading
    a = run(_small(seed=11, n_eves=3), collect_trace=True)
    b = run(_small(seed=11, n_eves=4), collect_trace=True)
    for ra, rb in zip(a.trace, b.trace):
        assert np.array_equal(ra.arrivals, rb.arrivals)


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
    assert (err.value.slot, err.value.user) == (slot, user)
    assert (err.value.backlog, err.value.cap) == (backlog[user], cap[user])


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


def test_metrics_bookkeeping():
    m = run(_small(n_slots=500), collect_trace=True)
    assert m.n_slots == 500 and len(m.trace) == 500
    assert m.n_transmit_slots == int(m.slots_served.sum())
    assert m.avg_power * 500 == pytest.approx(sum(r.power for r in m.trace))
    assert m.max_queue == pytest.approx(max(r.queues.max() for r in m.trace))
    assert m.max_power_queue == pytest.approx(max(r.power_queue for r in m.trace))
    assert m.power_queue_final == m.trace[-1].power_queue
    admitted = np.sum([r.admissions for r in m.trace], axis=0)
    assert np.allclose(m.admission_rate, admitted / 500)
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

    def column(name):
        return np.array([getattr(rec, name) for rec in trace])

    streams = RngStreams(config.seed)
    legit, eves = sample_realization_batch(config, streams, t_all)
    arrivals = sample_arrivals(config, streams.arrivals, t_all)
    assert np.array_equal(column("arrivals"), arrivals)

    # queue recursions written out, entering each slot from the previous row
    queues, power_queue = column("queues"), column("power_queue")
    backlog = np.vstack([np.zeros((1, k)), queues[:-1]])
    virtual = np.concatenate([[0.0], power_queue[:-1]])
    admitted = np.where(backlog <= config.v * np.asarray(config.theta), arrivals, 0.0)
    assert np.array_equal(column("admissions"), admitted)

    # the chosen action is the first argmax of U * r - X * P
    cost_table = None
    if csi == "partial":
        cost_table = rate_cost_table(fraction, regime, config.n_antennas, config.n_eves)
    stats = channel_stats(legit, eves, colluding)
    cap_users, cap_eves = capacity_grids(stats, power, fraction)
    rates = secrecy_rate_grid(cap_users, cap_eves, regime, cost_table)
    score = backlog[:, :, None, None] * rates - virtual[:, None, None, None] * power[:, None]
    flat = np.argmax(score.reshape(t_all, -1), axis=1)
    user, p_idx, f_idx = np.unravel_index(flat, score.shape[1:])
    slot = np.arange(t_all)
    assert np.array_equal(column("user"), user)
    assert np.array_equal(column("power"), power[p_idx])
    assert np.array_equal(column("data_fraction"), fraction[f_idx])
    rate = rates[slot, user, p_idx, f_idx]
    assert np.array_equal(column("secrecy_rate"), rate)
    assert np.array_equal(column("codeword_rate"), cap_users[slot, user, p_idx, f_idx])

    served = np.zeros((t_all, k))
    served[slot, user] = rate
    assert np.array_equal(queues, np.maximum(backlog - served, 0.0) + admitted)
    assert np.array_equal(power_queue, np.maximum(virtual - config.p_av, 0.0) + power[p_idx])

    # rate cost and outage: the realized eavesdropper capacity under
    # instantaneous CSI, the pre-inverted table entry under partial CSI
    eve = cap_eves[slot, user, p_idx, f_idx]
    cost = eve if csi == "instantaneous" else cost_table[f_idx]
    assert np.array_equal(column("eavesdropper_capacity"), eve)
    assert np.array_equal(column("rate_cost"), cost)
    assert np.array_equal(column("outage"), (rate > 0.0) & (eve > cost))


# --- the per-slot action choice -------------------------------------------------

def _full_grid_choice(backlog, power_queue, power, rates):
    score = np.asarray(backlog)[:, None, None] * rates - power_queue * np.asarray(power)[:, None]
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(score)), score.shape))


def _cell_choice(backlog, power_queue, power, rates):
    best_f, best_rate, earlier = simulator._best_fractions(rates)
    user, p_idx, f_idx, rate = simulator._choose_action(
        [float(u) for u in backlog], [power_queue * float(p) for p in power],
        best_rate.ravel().tolist(), best_f.ravel().tolist(), earlier.ravel().tolist(), rates)
    assert rate == rates[user, p_idx, f_idx]
    return user, p_idx, f_idx


def test_action_choice_ties_match_the_full_grid_argmax():
    rng = np.random.default_rng(5)
    rates = rng.uniform(0.0, 5.0, size=(2, 3, 4))
    # U = 0: every fraction of a user scores -X*P
    for backlog, power_queue in (([0.0, 0.0], 0.0), ([0.0, 0.0], 3.0), ([0.0, 2.0], 3.0)):
        assert _cell_choice(backlog, power_queue, [0.0, 1.0, 2.0], rates) == \
            _full_grid_choice(backlog, power_queue, [0.0, 1.0, 2.0], rates)
    assert _cell_choice([0.0, 0.0], 3.0, [0.0, 1.0, 2.0], rates) == (0, 0, 0)

    # products that round equal: adjacent rates times U = 1.5 * 2**53 (a power
    # of two would multiply exactly), so the earlier fraction wins
    level = 1.5 * 2.0**53
    low, high = 6.004923751903786, 6.004923751903787
    assert low < high and level * low == level * high
    tied = np.array([[[0.5, low, 0.25, high]], [[1.0, 2.0, 3.0, 4.0]]])
    assert _cell_choice([level, 1.0], 0.0, [1.0], tied) == (0, 0, 1)
    assert _full_grid_choice([level, 1.0], 0.0, [1.0], tied) == (0, 0, 1)

    # X*P = 2**53 leaves U*r - X*P a spacing of 1: 0.6, 1.4 and 1.45 score
    # alike although their products differ; X*P = 2**60 absorbs U*r whole
    absorbed = np.array([[[0.2, 0.6, 1.4, 1.45]]])
    assert 1.0 * 0.6 - 2.0**53 == 1.0 * 1.45 - 2.0**53
    for power_queue, expected in ((2.0**53, (0, 0, 1)), (2.0**60, (0, 0, 0))):
        assert _cell_choice([1.0], power_queue, [1.0], absorbed) == expected
        assert _full_grid_choice([1.0], power_queue, [1.0], absorbed) == expected

    # random states, with coarse rates and backlogs so exact ties are common
    for _ in range(3000):
        k, n_p, n_f = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 7)
        if rng.random() < 0.5:
            grid = rng.integers(0, 4, size=(k, n_p, n_f)) / 2.0
        else:
            grid = rng.uniform(0.0, 10.0, size=(k, n_p, n_f))
        backlog = rng.choice([0.0, 1.0, 3.0, 2.0**53, 1.5 * 2.0**53], size=k)
        if rng.random() < 0.5:
            backlog = rng.uniform(0.0, 200.0, size=k)
        power = np.sort(rng.choice([0.0, 1.0, 100.0, 250.0, 300.0], size=n_p))
        power_queue = float(rng.choice([0.0, 0.5, 40.0, 2.0**53, rng.uniform(0.0, 1e4)]))
        assert _cell_choice(backlog, power_queue, power, grid) == \
            _full_grid_choice(backlog, power_queue, power, grid)


def _assert_same_run(a: RunMetrics, b: RunMetrics):
    for f in dataclasses.fields(RunMetrics):
        if f.name != "trace":
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        for f in dataclasses.fields(SlotTraceRecord):
            np.testing.assert_array_equal(getattr(ra, f.name), getattr(rb, f.name))


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


def test_partial_csi_run_has_near_target_outage():
    m = run(ScenarioConfig(csi="partial", eta=0.4, n_slots=6000, seed=19))
    se = np.sqrt(0.4 * 0.6 / m.n_transmit_slots)
    assert m.n_transmit_slots > 1000
    assert abs(m.empirical_outage - 0.4) <= 4 * se
