"""The control law (admission threshold, grid allocation, queue recursions)
checked on traced runs of `run`, its only implementation; plus grid
validation and the guarantee constants.
"""
import itertools

import numpy as np
import pytest

from secsched import (
    ConfigError,
    RngStreams,
    ScenarioConfig,
    TransmitParams,
    choose_v,
    compute_bounds,
    run,
    sample_realization,
    secrecy_rate,
)


def _traced(**kw):
    config = ScenarioConfig(**kw)
    return config, run(config, collect_trace=True).trace


def _states_before(config, trace):
    """Backlogs (slots x users) and virtual power queue entering each traced slot."""
    backlogs = np.vstack([np.zeros((1, config.n_users)), trace.queue[:-1]])
    power_queues = np.concatenate([[0.0], trace.power_queue[:-1]])
    return backlogs, power_queues


# --- admission ----------------------------------------------------------------

def test_admission_thresholds_on_backlog():
    # with no transmit power the backlogs only fill, 30 per slot: 30, 60, 90;
    # 90 sits exactly on V*theta, which still admits, and 120 does not
    _, trace = _traced(power_grid=(0.0,), v=90.0, n_slots=5)
    assert trace.admitted.tolist() == [[30.0, 30.0]] * 4 + [[0.0, 0.0]]
    assert trace.queue[-1].tolist() == [120.0, 120.0]


def test_admission_is_the_linear_program_minimizer():
    # the admission step claims to minimize sum (U_i - V theta_i) R_i over the
    # box [0, A_i]; a linear objective is minimized at a vertex, so enumerate
    # all of them and compare
    config, trace = _traced(n_users=3, theta=(0.5, 1.0, 2.0), v=20.0,
                            arrival_mean=12.0, n_slots=300, seed=3)
    v_theta = config.v * np.asarray(config.theta)
    backlogs, _ = _states_before(config, trace)
    for backlog, arrived, admitted in zip(backlogs, trace.arrival, trace.admitted):
        coeff = backlog - v_theta
        best = min(np.dot(coeff, np.where(mask, arrived, 0.0))
                   for mask in itertools.product([False, True], repeat=3))
        assert np.dot(coeff, admitted) <= best + 1e-12


# --- queue recursions -----------------------------------------------------------

def test_data_queue_update():
    # light traffic lets one slot's service exceed the backlog, which floors at 0
    config, trace = _traced(arrival_mean=1.0, n_slots=300, seed=5)
    backlog, _ = _states_before(config, trace)
    slot = np.arange(config.n_slots)
    served = np.zeros_like(backlog)
    served[slot, trace.user] = trace.secrecy_rate  # 0 on idle slots
    assert np.array_equal(trace.queue, np.maximum(backlog - served, 0.0) + trace.admitted)
    floored = np.count_nonzero(trace.secrecy_rate > backlog[slot, trace.user])
    assert floored > 0


def test_power_queue_update():
    config, trace = _traced(n_slots=300, seed=5)
    _, power_queue = _states_before(config, trace)
    assert np.array_equal(trace.power_queue,
                          np.maximum(power_queue - config.p_av, 0.0) + trace.power)
    drained = np.count_nonzero(power_queue < config.p_av)
    above = np.count_nonzero(power_queue > config.p_av)
    assert drained > 0 and above > 0


# --- grids ----------------------------------------------------------------------

def test_ascending_grid_rules():
    # ScenarioConfig sorts both grids on construction and checks them in validate
    config = ScenarioConfig(power_grid=(3.0, 0.0, 1.0)).validate()
    assert config.power_grid == (0.0, 1.0, 3.0)
    for grid, message in (((), "must not be empty"), ((0.0, 0.0, 1.0), "must be distinct"),
                          ((0.0, np.inf), "must be finite"), ((-1.0, 0.0), "nonnegative"),
                          ((1.0, 2.0), "must contain 0")):
        with pytest.raises(ConfigError, match=f"^power_grid .*{message}"):
            ScenarioConfig(power_grid=grid).validate()
    with pytest.raises(ConfigError, match=r"ratio_grid entries must lie in \[0, 1\]"):
        ScenarioConfig(ratio_grid=(0.0, 1.5)).validate()


# --- allocation -------------------------------------------------------------------

def _brute_force(real, backlog, power_queue, config):
    best = None
    for user, p, f in itertools.product(range(config.n_users), config.power_grid,
                                        config.ratio_grid):
        res = secrecy_rate(real, user, TransmitParams(p, f, config.n_antennas), config.regime)
        score = backlog[user] * res.secrecy_rate - power_queue * p
        if best is None or score > best[0]:
            best = (score, user, p, f, res)
    return best


@pytest.mark.parametrize("csi,colluding", [
    ("instantaneous", False), ("instantaneous", True),
    ("partial", False), ("partial", True),
])
def test_chosen_action_matches_brute_force(csi, colluding):
    eta = 0.25 if csi == "partial" else 0.0
    config, trace = _traced(csi=csi, colluding=colluding, eta=eta,
                            ratio_grid=tuple(np.linspace(0.0, 1.0, 11)), n_slots=200, seed=1)
    streams = RngStreams(config.seed)
    backlogs, power_queues = _states_before(config, trace)
    for t in range(config.n_slots):
        real = sample_realization(config, streams)
        if t % 10:
            continue
        score, user, p, f, res = _brute_force(real, backlogs[t], power_queues[t], config)
        assert (trace.user[t], trace.power[t], trace.data_fraction[t]) == (user, p, f)
        assert score >= 0.0
        assert trace.secrecy_rate[t] == pytest.approx(res.secrecy_rate, abs=1e-9)
        assert trace.codeword_rate[t] == pytest.approx(res.codeword_rate, abs=1e-9)


def test_action_ties_break_to_first_action():
    # empty queues score every action 0: the first one, idling, is chosen
    _, trace = _traced(n_slots=1)
    assert (trace.user[0], trace.power[0], trace.data_fraction[0]) == (0, 0.0, 0.0)
    assert trace.secrecy_rate[0] == 0.0 and not trace.outage[0]


def test_chosen_objective_never_negative():
    config, trace = _traced(colluding=True, power_grid=(0.0, 50.0, 300.0),
                            ratio_grid=(0.0, 0.25, 0.75), n_slots=500, seed=2)
    backlog, power_queue = _states_before(config, trace)
    score = (backlog[np.arange(config.n_slots), trace.user] * trace.secrecy_rate
             - power_queue * trace.power)
    assert np.all(score >= 0.0)


def test_run_validates_its_grids():
    with pytest.raises(ConfigError):
        run(ScenarioConfig(power_grid=(100.0, 200.0), n_slots=10))  # no idle power
    with pytest.raises(ConfigError):
        run(ScenarioConfig(ratio_grid=(0.0, 1.5), n_slots=10))


# --- guarantee constants -----------------------------------------------------------

def test_bound_constants_for_the_standard_setup():
    config = ScenarioConfig()
    bounds = compute_bounds(config, rate_max=10.0, gamma=0.1)
    assert bounds.queue_drift_bound == (2 * 30**2 + 10**2) / 2.0  # 950
    assert bounds.power_drift_bound == (300**2 + 200**2) / 2.0    # 65000
    assert np.array_equal(bounds.queue_caps, [130.0, 130.0])
    assert bounds.power_cap == 0.1 * 100.0 * 1.0 + 0.1 * 30 + 300.0
    assert bounds.optimality_gap == (950.0 + 65000.0) / 100.0
    with pytest.raises(ValueError):
        compute_bounds(config, rate_max=-1.0, gamma=0.1)


def test_choose_v():
    assert choose_v(np.array([130.0, 130.0]), np.array([1.0, 1.0]), 30.0) == 100.0
    # the tightest (target - a_max) / theta wins
    assert choose_v(np.array([130.0, 230.0]), np.array([1.0, 4.0]), 30.0) == 50.0
    with pytest.raises(ConfigError):
        choose_v(np.array([30.0, 130.0]), np.array([1.0, 1.0]), 30.0)
    with pytest.raises(ValueError):
        choose_v(np.array([130.0]), np.array([1.0, 1.0]), 30.0)
    with pytest.raises(ValueError):
        choose_v(np.array([130.0]), np.array([-1.0]), 30.0)
