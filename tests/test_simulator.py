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


@pytest.mark.parametrize("csi,colluding", [
    ("instantaneous", False), ("instantaneous", True), ("partial", True),
])
def test_traced_run_replays_through_batched_kernels(csi, colluding):
    eta = 0.3 if csi == "partial" else 0.0
    config = _small(n_slots=300, csi=csi, eta=eta, colluding=colluding, seed=31)
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
