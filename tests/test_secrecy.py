"""Secrecy-rate formulas, outage laws, and the rate-cost inversions.

Closed forms are pinned to hand-computed values and cross-checked against
independent numerical paths (log-det oracle, projector identity, bisection).
"""
import itertools
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secsched import (
    ConfigError,
    DegenerateChannelError,
    RngStreams,
    ScenarioConfig,
    SecrecyRegime,
    TransmitParams,
    beamforming_basis,
    calibrate_outage,
    cap_eve_noncolluding,
    cap_eve_upper_noncolluding,
    cap_eves_colluding,
    cap_eves_colluding_logdet,
    cap_eves_upper_colluding,
    cap_legit,
    colluding_outage_ccdf,
    noncolluding_outage_cdf,
    rate_cost_colluding,
    rate_cost_noncolluding,
    rate_cost_noncolluding_bisect,
    rate_cost_table,
    sample_complex_gaussian,
    secrecy_rate,
)
from secsched import secrecy
from secsched.oracle import ChannelRealization
from secsched.secrecy import (
    capacity_grids,
    channel_stats,
    eve_capacity,
    legit_capacity_grid,
    noise_free_bound,
    secrecy_rate_grid,
)


def _draw(seed, n_users=2, n_eves=3, n=6):
    s = RngStreams(seed)
    legit = sample_complex_gaussian((n_users, n), s.legit)
    eves = sample_complex_gaussian((n_eves, n), s.eves)
    return ChannelRealization(legit=legit, eves=eves)


# --- transmit parameter bookkeeping -----------------------------------------

def test_power_split():
    tp = TransmitParams(power=100.0, data_fraction=0.2, n_antennas=6)
    assert tp.data_power == pytest.approx(20.0)
    assert tp.noise_power == pytest.approx(16.0)  # 80 over 5 directions
    assert TransmitParams(50.0, 1.0, 6).noise_power == 0.0
    assert TransmitParams(50.0, 0.0, 6).data_power == 0.0


def test_transmit_params_validation():
    with pytest.raises(ValueError):
        TransmitParams(-1.0, 0.5, 6)
    with pytest.raises(ValueError):
        TransmitParams(1.0, 1.5, 6)
    with pytest.raises(ValueError):
        TransmitParams(1.0, 0.5, 1)


def test_regime_validation():
    SecrecyRegime(csi="instantaneous", colluding=False)
    SecrecyRegime(csi="partial", colluding=True, eta=0.3)
    with pytest.raises(ConfigError):
        SecrecyRegime(csi="full", colluding=False)
    with pytest.raises(ConfigError):
        SecrecyRegime(csi="instantaneous", colluding=False, eta=0.1)
    with pytest.raises(ConfigError):
        SecrecyRegime(csi="partial", colluding=False, eta=0.0)
    with pytest.raises(ConfigError):
        SecrecyRegime(csi="partial", colluding=False, eta=1.0)


# --- per-realization capacities ---------------------------------------------

def test_cap_legit_hand_value():
    # unit channel gain, all power on the beam
    assert cap_legit(1.0, TransmitParams(300.0, 1.0, 6)) == math.log2(301.0)
    assert cap_legit(2.0, TransmitParams(100.0, 0.5, 6)) == math.log2(101.0)
    assert cap_legit(5.0, TransmitParams(0.0, 0.5, 6)) == 0.0
    with pytest.raises(ValueError):
        cap_legit(-1.0, TransmitParams(1.0, 0.5, 6))


def test_noncolluding_capacity_projector_identity():
    # the noise-subspace leakage must equal the projector complement of the
    # beam leakage, so the capacity can be recomputed without the basis
    rng = RngStreams(5)
    tp = TransmitParams(power=200.0, data_fraction=0.3, n_antennas=6)
    for _ in range(100):
        h = sample_complex_gaussian((6,), rng.legit)
        g = sample_complex_gaussian((6,), rng.eves)
        basis = beamforming_basis(h)
        signal = abs(np.vdot(np.conj(g), basis.beam)) ** 2
        noise = np.linalg.norm(g) ** 2 - signal
        expected = math.log2(1.0 + signal * tp.data_power / (noise * tp.noise_power + 1.0))
        assert cap_eve_noncolluding(g, basis, tp) == pytest.approx(expected, abs=1e-10)


def test_colluding_logdet_oracle():
    rng = RngStreams(17)
    tp = TransmitParams(power=150.0, data_fraction=0.45, n_antennas=6)
    worst = 0.0
    for _ in range(500):
        h = sample_complex_gaussian((6,), rng.legit)
        eves = sample_complex_gaussian((3, 6), rng.eves)
        basis = beamforming_basis(h)
        a = cap_eves_colluding(eves, basis, tp)
        b = cap_eves_colluding_logdet(eves, basis, tp)
        worst = max(worst, abs(a - b))
    assert worst < 1e-9


def test_colluding_needs_spare_dimensions():
    basis = beamforming_basis(np.ones(3, dtype=complex))
    eves = np.ones((3, 3), dtype=complex)
    with pytest.raises(ConfigError):
        cap_eves_colluding(eves, basis, TransmitParams(10.0, 0.5, 3))


def test_collusion_dominates_single_eavesdroppers():
    rng = RngStreams(23)
    tp = TransmitParams(power=100.0, data_fraction=0.6, n_antennas=6)
    for _ in range(100):
        h = sample_complex_gaussian((6,), rng.legit)
        eves = sample_complex_gaussian((3, 6), rng.eves)
        basis = beamforming_basis(h)
        joint = cap_eves_colluding(eves, basis, tp)
        best_alone = max(cap_eve_noncolluding(g, basis, tp) for g in eves)
        assert joint >= best_alone - 1e-12


def test_single_eavesdropper_collusion_is_moot():
    rng = RngStreams(31)
    tp = TransmitParams(power=80.0, data_fraction=0.35, n_antennas=5)
    for _ in range(50):
        h = sample_complex_gaussian((5,), rng.legit)
        g = sample_complex_gaussian((1, 5), rng.eves)
        basis = beamforming_basis(h)
        assert cap_eves_colluding(g, basis, tp) == pytest.approx(
            cap_eve_noncolluding(g[0], basis, tp), abs=1e-12)
        assert cap_eves_upper_colluding(g, basis, 0.35) == pytest.approx(
            cap_eve_upper_noncolluding(g[0], basis, 0.35), abs=1e-12)


def test_upper_bounds_dominate_and_are_tight_at_high_power():
    rng = RngStreams(41)
    for _ in range(50):
        h = sample_complex_gaussian((6,), rng.legit)
        eves = sample_complex_gaussian((3, 6), rng.eves)
        basis = beamforming_basis(h)
        for frac in (0.1, 0.5, 0.9):
            up_non = max(cap_eve_upper_noncolluding(g, basis, frac) for g in eves)
            up_col = cap_eves_upper_colluding(eves, basis, frac)
            for power in (1.0, 100.0, 1e4):
                tp = TransmitParams(power, frac, 6)
                assert max(cap_eve_noncolluding(g, basis, tp) for g in eves) <= up_non + 1e-12
                assert cap_eves_colluding(eves, basis, tp) <= up_col + 1e-12
            tp = TransmitParams(1e9, frac, 6)
            assert max(cap_eve_noncolluding(g, basis, tp) for g in eves) == pytest.approx(
                up_non, abs=1e-5)
            assert cap_eves_colluding(eves, basis, tp) == pytest.approx(up_col, abs=1e-5)


def test_upper_bounds_reject_boundary_fractions():
    basis = beamforming_basis(np.ones(4, dtype=complex))
    g = np.ones((2, 4), dtype=complex)
    for frac in (0.0, 1.0):
        with pytest.raises(ValueError):
            cap_eve_upper_noncolluding(g[0], basis, frac)
        with pytest.raises(ValueError):
            cap_eves_upper_colluding(g, basis, frac)


def test_basis_rotation_invariance():
    # any orthonormal completion of the beam gives the same physics; rotate
    # the noise subspace by a random unitary and check nothing moves
    rng = RngStreams(53)
    tp = TransmitParams(power=120.0, data_fraction=0.4, n_antennas=6)
    for _ in range(25):
        h = sample_complex_gaussian((6,), rng.legit)
        eves = sample_complex_gaussian((3, 6), rng.eves)
        basis = beamforming_basis(h)
        q, _ = np.linalg.qr(sample_complex_gaussian((5, 5), rng.eves))
        rotated = type(basis)(beam=basis.beam, null_basis=basis.null_basis @ q,
                              source_gain=basis.source_gain)
        for g in eves:
            assert cap_eve_noncolluding(g, rotated, tp) == pytest.approx(
                cap_eve_noncolluding(g, basis, tp), abs=1e-9)
        assert cap_eves_colluding(eves, rotated, tp) == pytest.approx(
            cap_eves_colluding(eves, basis, tp), abs=1e-9)
        assert cap_eves_upper_colluding(eves, rotated, 0.4) == pytest.approx(
            cap_eves_upper_colluding(eves, basis, 0.4), abs=1e-9)


# --- outage laws --------------------------------------------------------------

def test_noncolluding_cdf_hand_value():
    assert noncolluding_outage_cdf(5.0, 6) == 0.96875
    assert noncolluding_outage_cdf(0.0, 6) == 0.0
    assert noncolluding_outage_cdf(0.0, 2) == 0.0


def test_noncolluding_cdf_shape():
    x = np.linspace(0.0, 50.0, 200)
    cdf = noncolluding_outage_cdf(x, 6)
    assert np.all(np.diff(cdf) > 0)
    assert 0.0 <= cdf[0] and cdf[-1] < 1.0
    assert noncolluding_outage_cdf(1e9, 6) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        noncolluding_outage_cdf(-0.1, 6)
    with pytest.raises(ValueError):
        noncolluding_outage_cdf(1.0, 1)


def test_colluding_ccdf_hand_value():
    # m=5, three eavesdroppers: (1 + 5 + 10) / 2^5
    assert colluding_outage_ccdf(1.0, 6, 3) == 0.5
    assert colluding_outage_ccdf(0.0, 6, 3) == 1.0


def test_colluding_ccdf_shape():
    x = np.linspace(0.0, 30.0, 200)
    tail = colluding_outage_ccdf(x, 6, 3)
    assert np.all(np.diff(tail) < 0)
    assert tail[0] == 1.0
    assert colluding_outage_ccdf(1e9, 6, 3) < 1e-12
    with pytest.raises(ValueError):
        colluding_outage_ccdf(-1.0, 6, 3)
    with pytest.raises(ConfigError):
        colluding_outage_ccdf(1.0, 3, 3)
    with pytest.raises(ValueError):
        colluding_outage_ccdf(1.0, 6, 0)


def test_ccdf_reduces_to_single_eve_cdf():
    # with one eavesdropper the colluding tail must match the per-eve law,
    # after aligning the two statistics' scalings
    x = np.linspace(0.01, 20.0, 50)
    m = 5
    single = 1.0 - noncolluding_outage_cdf(x * m, 6)
    joint = colluding_outage_ccdf(x, 6, 1)
    assert np.max(np.abs(single - joint)) < 1e-12


# --- rate-cost inversions ------------------------------------------------------

def test_rate_cost_boundaries():
    for fn in (rate_cost_noncolluding, rate_cost_noncolluding_bisect, rate_cost_colluding):
        assert fn(0.0, 0.3, 6, 3) == 0.0
        assert fn(1.0, 0.3, 6, 3) == math.inf
    with pytest.raises(ValueError):
        rate_cost_noncolluding(0.5, 0.0, 6, 3)
    with pytest.raises(ValueError):
        rate_cost_noncolluding(0.5, 1.0, 6, 3)
    with pytest.raises(ValueError):
        rate_cost_noncolluding(-0.1, 0.5, 6, 3)
    with pytest.raises(ConfigError):
        rate_cost_colluding(0.5, 0.5, 3, 3)


def test_rate_cost_colluding_hand_value():
    # eta = 0.5 hits the tail's hand point at statistic 1, so the cost is
    # log2(1 + 5 * 1 * 0.5/0.5) = log2(6)
    assert rate_cost_colluding(0.5, 0.5, 6, 3) == pytest.approx(math.log2(6.0), abs=1e-9)


def test_rate_cost_closed_form_matches_bisection():
    worst = 0.0
    for eps in np.linspace(0.05, 0.95, 20):
        for eta in (0.1, 0.3, 0.5):
            a = rate_cost_noncolluding(float(eps), eta, 6, 3)
            b = rate_cost_noncolluding_bisect(float(eps), eta, 6, 3)
            worst = max(worst, abs(a - b))
    assert worst < 1e-10


def test_noncolluding_law_inverts_at_many_antennas():
    # m**m overflows a double from n_antennas = 145 on; the law and its
    # bisection must not
    assert noncolluding_outage_cdf(1.0, 200) == pytest.approx(1.0 - (199 / 200) ** 199)
    for eps in (0.1, 0.5, 0.9):
        closed = rate_cost_noncolluding(eps, 0.1, 200, 3)
        assert rate_cost_noncolluding_bisect(eps, 0.1, 200, 3) == pytest.approx(closed, rel=1e-9)


def test_rate_cost_roundtrips_through_the_laws():
    # pushing the designed cost back through the outage law must recover eta
    for eps in (0.1, 0.35, 0.7, 0.95):
        for eta in (0.05, 0.2, 0.5, 0.9):
            cost = rate_cost_noncolluding(eps, eta, 6, 3)
            x = (2.0**cost - 1.0) * (1.0 - eps) / eps
            miss = 1.0 - noncolluding_outage_cdf(x, 6) ** 3
            assert miss == pytest.approx(eta, abs=1e-9)
            cost = rate_cost_colluding(eps, eta, 6, 3)
            x = (2.0**cost - 1.0) * (1.0 - eps) / (5.0 * eps)
            assert colluding_outage_ccdf(x, 6, 3) == pytest.approx(eta, abs=1e-9)


def test_rate_cost_monotonicity():
    etas = (0.05, 0.1, 0.2, 0.4, 0.8)
    for fn in (rate_cost_noncolluding, rate_cost_colluding):
        costs = [fn(0.5, e, 6, 3) for e in etas]
        assert all(a > b for a, b in zip(costs, costs[1:]))  # laxer target, cheaper
        by_eps = [fn(e, 0.3, 6, 3) for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(by_eps, by_eps[1:]))  # more beam power leaks more


def test_colluding_cost_exceeds_noncolluding():
    for eps in (0.2, 0.5, 0.8):
        for eta in (0.1, 0.3):
            assert rate_cost_colluding(eps, eta, 6, 3) > rate_cost_noncolluding(eps, eta, 6, 3)


def test_single_eve_costs_agree():
    for eps in (0.2, 0.5, 0.8):
        for eta in (0.1, 0.4):
            assert rate_cost_colluding(eps, eta, 6, 1) == pytest.approx(
                rate_cost_noncolluding(eps, eta, 6, 1), abs=1e-9)


def test_rate_cost_table():
    regime = SecrecyRegime(csi="partial", colluding=False, eta=0.3)
    grid = (0.0, 0.25, 0.5, 1.0)
    table = rate_cost_table(grid, regime, 6, 3)
    assert table[0] == 0.0 and math.isinf(table[3])
    assert table[1] == rate_cost_noncolluding(0.25, 0.3, 6, 3)
    with pytest.raises(ConfigError):
        rate_cost_table(grid, SecrecyRegime(csi="instantaneous", colluding=False), 6, 3)
    # the design is refused even when no fraction needs the threshold
    for fractions in ([], [0.0, 1.0]):
        with pytest.raises(ConfigError, match="n_antennas must be at least 2"):
            rate_cost_table(fractions, SecrecyRegime("partial", True, 0.1), 1, 5)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), colluding=st.booleans(), n=st.integers(2, 12),
       eta=st.floats(1e-9, 1.0 - 1e-9),
       grid=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=25))
def test_rate_cost_table_is_the_per_fraction_costs(data, colluding, n, eta, grid):
    n_eves = data.draw(st.integers(1, n - 1 if colluding else 8), label="n_eves")
    table = rate_cost_table(grid, SecrecyRegime("partial", colluding, eta), n, n_eves)
    fn = rate_cost_colluding if colluding else rate_cost_noncolluding
    assert np.array_equal(table, [fn(e, eta, n, n_eves) for e in grid])


def test_rate_cost_table_inverts_the_tail_once(monkeypatch):
    bisect = secrecy._bisect_decreasing
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return bisect(*args, **kwargs)

    monkeypatch.setattr(secrecy, "_bisect_decreasing", counted)
    regime = SecrecyRegime("partial", colluding=True, eta=0.1)
    rate_cost_table([i / 20 for i in range(21)], regime, 6, 3)
    assert len(calls) == 1
    calibrate_outage(6, 3, 0.1, True, (0.3, 0.6), samples=10_000, seed=0)
    assert len(calls) == 2


def test_rate_cost_boundaries_skip_the_inversion():
    # eta = 1e-300 cannot be inverted non-colluding, but the boundary
    # fractions never need the threshold
    assert rate_cost_noncolluding(0.0, 1e-300, 6, 3) == 0.0
    assert rate_cost_noncolluding(1.0, 1e-300, 6, 3) == math.inf
    with pytest.raises(ConfigError, match="too small to invert"):
        rate_cost_noncolluding(0.5, 1e-300, 6, 3)


def _log_colluding_tail(t, n_antennas, n_eves):
    """Log of the colluding tail at t > 0 from lgamma and log1p: the reference."""
    m = n_antennas - 1
    terms = [math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1) + k * math.log(t)
             for k in range(n_eves)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(v - top) for v in terms)) - m * math.log1p(t)


@settings(max_examples=150, deadline=None)
@given(design=st.integers(2, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       log_eta=st.floats(-320.0, -1.0))
def test_colluding_threshold_meets_eta_or_refuses(design, log_eta):
    # past the double range the linear tail underflows; the threshold must
    # still meet eta, or no finite threshold may exist
    n, n_eves = design
    eta, m = 10.0**log_eta, n - 1
    try:
        x = secrecy.leakage_threshold(eta, n, n_eves, colluding=True)
    except ConfigError:
        assert _log_colluding_tail(sys.float_info.max / m, n, n_eves) > math.log(eta) - 1e-9
        return
    assert abs(math.expm1(_log_colluding_tail(x / m, n, n_eves) - math.log(eta))) < 1e-9


@pytest.mark.parametrize("n,n_eves", [(2000, 1500), (10**9 + 1, 10**9)])
def test_large_colluding_designs_price_or_refuse_quickly(n, n_eves):
    start = time.perf_counter()
    try:
        x = secrecy.leakage_threshold(0.1, n, n_eves, colluding=True)
    except ConfigError:
        x = None
    assert time.perf_counter() - start < 1.0
    if x is not None:
        assert abs(math.expm1(_log_colluding_tail(x / (n - 1), n, n_eves) - math.log(0.1))) < 1e-9


@pytest.mark.parametrize("colluding", [False, True])
@pytest.mark.parametrize("fraction", [np.float32(0.3), np.float16(0.3), np.float64(0.3), 0.3, 0, 1])
def test_scalar_costs_convert_the_fraction_as_the_table_does(fraction, colluding):
    table = rate_cost_table([fraction], SecrecyRegime("partial", colluding, 0.1), 6, 3)
    fn = rate_cost_colluding if colluding else rate_cost_noncolluding
    assert fn(fraction, 0.1, 6, 3) == table[0]


def _refuses(call) -> bool:
    try:
        call()
    except ConfigError:
        return True
    return False


def test_every_outage_design_check_agrees():
    # the config, the table, the threshold, the scalar costs and the
    # calibration accept the same designs; any other exception fails the test
    grid = tuple(i / 20 for i in range(21))
    etas = (-0.1, 0.0, 1e-300, 1e-200, 1e-40, 0.1, 1.0, 1.5)
    for n, n_eves, colluding, eta in itertools.product(range(8), range(8), (False, True), etas):
        calls = [
            lambda: ScenarioConfig(n_antennas=n, n_eves=n_eves, colluding=colluding,
                                   csi="partial", eta=eta).validate(),
            lambda: rate_cost_table(grid, SecrecyRegime("partial", colluding, eta), n, n_eves),
            lambda: secrecy.leakage_threshold(eta, n, n_eves, colluding),
            lambda: calibrate_outage(n, n_eves, eta, colluding, (0.5,), samples=10_000, seed=0),
        ]
        calls += [lambda fn=fn: fn(0.5, eta, n, n_eves) for fn in
                  ([rate_cost_colluding] if colluding
                   else [rate_cost_noncolluding, rate_cost_noncolluding_bisect])]
        outcomes = [_refuses(call) for call in calls]
        assert len(set(outcomes)) == 1, (n, n_eves, colluding, eta, outcomes)


# --- grid kernels vs the scalar path ------------------------------------------

@pytest.mark.parametrize("csi,colluding", [
    ("instantaneous", False), ("instantaneous", True),
    ("partial", False), ("partial", True),
])
def test_grid_kernel_matches_scalar_path(csi, colluding):
    eta = 0.3 if csi == "partial" else 0.0
    regime = SecrecyRegime(csi=csi, colluding=colluding, eta=eta)
    real = _draw(61)
    power = np.array([0.0, 100.0, 200.0, 300.0])
    fraction = np.linspace(0.0, 1.0, 21)
    stats = channel_stats(real.legit, real.eves, colluding)
    cap_users, cap_eves = capacity_grids(stats, power, fraction)
    price = cap_eves
    if csi == "partial":
        price = rate_cost_table(fraction, regime, 6, 3)
    rates = secrecy_rate_grid(cap_users, price)
    for k in range(real.n_users):
        for i, p in enumerate(power):
            for j, f in enumerate(fraction):
                ref = secrecy_rate(real, k, TransmitParams(float(p), float(f), 6), regime)
                assert rates[k, i, j] == pytest.approx(ref.secrecy_rate, abs=1e-12)
                assert cap_users[k, i, j] == pytest.approx(ref.codeword_rate, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 16), colluding=st.booleans(), n_eves=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_projector_kernels_match_the_householder_oracle(n, colluding, n_eves, seed):
    # the batched projector-form statistics against the scalar path, which
    # builds the Householder null basis; collusion uses every spare antenna
    n_eves = n - 1 if colluding else n_eves
    s = RngStreams(seed)
    legit = sample_complex_gaussian((3, 2, n), s.legit)
    eves = sample_complex_gaussian((3, n_eves, n), s.eves)
    power = np.array([0.0, 1.0, 50.0, 300.0])
    fraction = np.linspace(0.0, 1.0, 11)
    cap_users, cap_eves = capacity_grids(channel_stats(legit, eves, colluding), power, fraction)
    assert np.all(cap_users[..., 0, :] == 0.0) and np.all(cap_eves[..., 0, :] == 0.0)
    bounds = {f: noise_free_bound(legit, eves, f, colluding) for f in (0.1, 0.5, 0.9)}
    for t in range(3):
        for k in range(2):
            basis = beamforming_basis(legit[t, k])
            for f, bound in bounds.items():
                if colluding:
                    ref = cap_eves_upper_colluding(eves[t], basis, f)
                else:
                    ref = max(cap_eve_upper_noncolluding(g, basis, f) for g in eves[t])
                assert bound[t, k] == pytest.approx(ref, abs=1e-9)
            for i, p in enumerate(power):
                for j, f in enumerate(fraction):
                    tp = TransmitParams(float(p), float(f), n)
                    if colluding:
                        ref = cap_eves_colluding(eves[t], basis, tp)
                    else:
                        ref = max(cap_eve_noncolluding(g, basis, tp) for g in eves[t])
                    assert cap_eves[t, k, i, j] == pytest.approx(ref, abs=1e-9)
                    assert cap_users[t, k, i, j] == pytest.approx(
                        cap_legit(basis.source_gain, tp), abs=1e-9)


def _norm2(v) -> Fraction:
    return sum(Fraction(x.real) ** 2 + Fraction(x.imag) ** 2 for x in v)


def _exact_null_leak(h, g) -> Fraction:
    """||g||^2 - |g.conj(h)|^2 / ||h||^2 in exact rational arithmetic."""
    re = sum(Fraction(a.real) * Fraction(b.real) + Fraction(a.imag) * Fraction(b.imag)
             for a, b in zip(g, h))
    im = sum(Fraction(a.imag) * Fraction(b.real) - Fraction(a.real) * Fraction(b.imag)
             for a, b in zip(g, h))
    return _norm2(g) - (re**2 + im**2) / _norm2(h)


@pytest.mark.parametrize("n", [2, 6, 16])
def test_null_leak_cancellation_bound(n):
    # g = c conj(b) + delta w with w.b = 0 lies ever closer to the beam; the
    # projector form's null leakage must stay within the documented absolute
    # error 4 n eps ||g||^2 of the exact value and never go negative
    s = RngStreams(97 + n)
    tp = TransmitParams(300.0, 0.5, n)
    for _ in range(8):
        h = sample_complex_gaussian((n,), s.legit)
        beam = np.conj(h) / np.linalg.norm(h)
        w = sample_complex_gaussian((n,), s.eves)
        w = w - (w @ beam) * np.conj(beam)
        for delta in (1e-2, 1e-4, 1e-6, 1e-8, 0.0):
            g = (1.5 - 0.5j) * np.conj(beam) + delta * w
            stats = channel_stats(h[None, :], g[None, :], colluding=False)
            null_leak = float(stats.null_leak[0, 0])
            limit = 4 * n * np.finfo(float).eps * float(np.sum(np.abs(g) ** 2))
            assert null_leak >= 0.0
            assert abs(Fraction(null_leak) - _exact_null_leak(h, g)) <= Fraction(limit)
            cap = capacity_grids(stats, np.array([tp.power]), np.array([tp.data_fraction]))[1]
            ref = cap_eve_noncolluding(g, beamforming_basis(h), tp)
            assert float(cap[0, 0, 0]) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("n,n_eves,colluding", [
    pytest.param(6, 3, False, id="False"), pytest.param(6, 3, True, id="True"),
    pytest.param(10, 9, False, id="False-10x9"), pytest.param(10, 9, True, id="True-10x9"),
])
def test_pointwise_eve_capacity_equals_the_grid(n, n_eves, colluding):
    # the run's audit evaluates both kernels at one (power, fraction) pair per
    # slot; each must reproduce the grid entry of that pair bit for bit, also
    # when there are enough colluding eavesdroppers (8 or more) for numpy to
    # sum an eavesdropper axis pairwise
    s = RngStreams(7)
    legit = sample_complex_gaussian((500, 1, n), s.legit)
    eves = sample_complex_gaussian((500, n_eves, n), s.eves)
    stats = channel_stats(legit, eves, colluding)
    power = np.array([0.0, 100.0, 200.0, 300.0])
    fraction = np.linspace(0.0, 1.0, 21)
    legit_grid, grid = capacity_grids(stats, power, fraction)
    pick = np.random.default_rng(3)
    p_idx, f_idx = pick.integers(0, 4, 500), pick.integers(0, 21, 500)
    chosen = power[p_idx, None, None, None], fraction[f_idx, None, None, None]
    point = eve_capacity(stats, *chosen)
    assert np.array_equal(point[:, 0, 0, 0], grid[np.arange(500), 0, p_idx, f_idx])
    legit_point = legit_capacity_grid(stats.legit_gain, *chosen)
    assert np.array_equal(legit_point[:, 0, 0, 0], legit_grid[np.arange(500), 0, p_idx, f_idx])


@pytest.mark.parametrize("n,n_eves,colluding", [
    pytest.param(6, 3, False, id="False"), pytest.param(6, 3, True, id="True"),
    pytest.param(10, 9, True, id="True-10x9"), pytest.param(2, 1, False, id="False-2x1"),
])
def test_zero_power_rates_are_exactly_positive_zero(n, n_eves, colluding):
    # the run leaves power 0 out of its grids and serves the idle action at
    # rate 0.0, so both kernels must give exactly +0.0 there, at every fraction
    s = RngStreams(11)
    legit = sample_complex_gaussian((200, 2, n), s.legit)
    eves = sample_complex_gaussian((200, n_eves, n), s.eves)
    fraction = np.array([0.0, 1e-300, 0.5, 1.0])
    grids = capacity_grids(channel_stats(legit, eves, colluding), np.array([0.0, 100.0]), fraction)
    for grid in grids:
        zero = grid[..., 0, :]
        assert not zero.any() and not np.signbit(zero).any()


def test_channel_stats_validation():
    legit = np.ones((2, 6), dtype=complex)
    with pytest.raises(ValueError):
        channel_stats(legit, np.ones((3, 5), dtype=complex), colluding=False)
    with pytest.raises(ConfigError):
        channel_stats(legit, np.ones((6, 6), dtype=complex), colluding=True)


def test_secrecy_rate_misuse():
    real = _draw(71)
    tp = TransmitParams(100.0, 0.5, 6)
    regime = SecrecyRegime(csi="instantaneous", colluding=False)
    with pytest.raises(ValueError):
        secrecy_rate(real, 5, tp, regime)
    with pytest.raises(ValueError):
        secrecy_rate(real, 0, TransmitParams(100.0, 0.5, 4), regime)
    empty = ChannelRealization(legit=real.legit, eves=np.zeros((0, 6), dtype=complex))
    with pytest.raises(ValueError):
        secrecy_rate(empty, 0, tp, regime)


def test_secrecy_rate_never_negative_and_clamps_sentinel():
    real = _draw(83)
    regime = SecrecyRegime(csi="partial", colluding=False, eta=0.2)
    res = secrecy_rate(real, 0, TransmitParams(300.0, 1.0, 6), regime)
    assert math.isinf(res.rate_cost) and res.secrecy_rate == 0.0
    for f in (0.0, 0.3, 0.9):
        r = secrecy_rate(real, 1, TransmitParams(300.0, f, 6), regime)
        assert r.secrecy_rate >= 0.0


# --- Monte-Carlo calibration ----------------------------------------------------

def test_calibrate_outage_smoke():
    rows = calibrate_outage(6, 3, 0.3, False, (0.0, 0.25, 0.5, 0.75, 1.0),
                            samples=20_000, seed=2)
    assert [r.epsilon for r in rows] == [0.25, 0.5, 0.75]  # endpoints skipped
    for r in rows:
        assert r.eta_target == 0.3
        assert r.n_samples == 20_000
        assert r.stderr == pytest.approx(math.sqrt(0.3 * 0.7 / 20_000))
        assert abs(r.eta_estimate - 0.3) <= 3.0 * r.stderr
        assert r.passed


def test_calibrate_outage_colluding_smoke():
    rows = calibrate_outage(6, 3, 0.5, True, (0.3, 0.6), samples=20_000, seed=2)
    assert all(r.passed for r in rows)


def _serial_calibration(n_antennas, n_eves, eta, colluding, ratio_grid, samples, seed):
    """The calibration as one loop over the rows on the two run streams, in 50k-draw blocks."""
    regime = SecrecyRegime("partial", colluding, eta)
    interior = [float(e) for e in ratio_grid if 0.0 < float(e) < 1.0]
    costs = rate_cost_table(interior, regime, n_antennas, n_eves)
    streams = RngStreams(seed)
    stderr = math.sqrt(eta * (1.0 - eta) / samples)
    rows = []
    for eps, cost in zip(interior, costs.tolist()):
        exceed = 0
        for start in range(0, samples, 50_000):
            count = min(50_000, samples - start)
            legit = sample_complex_gaussian((count, 1, n_antennas), streams.legit)
            eves = sample_complex_gaussian((count, n_eves, n_antennas), streams.eves)
            bound = noise_free_bound(legit, eves, eps, colluding)[:, 0]
            exceed += int(np.count_nonzero(bound > cost))
        estimate = exceed / samples
        rows.append(secrecy.OutageCalibrationRow(eps, cost, eta, estimate, stderr, samples,
                                                 passed=abs(estimate - eta) <= 3.0 * stderr))
    return rows


@pytest.mark.parametrize("colluding", [False, True])
def test_calibration_rows_do_not_depend_on_the_worker_count(monkeypatch, colluding):
    # 5 antennas x 10_001 samples is odd, so row offsets fall mid-block of Philox's 4
    # doubles; each row spans two blocks of the calibration and one of the reference
    assert 10_001 > secrecy._CALIBRATION_CHUNK
    for seed, samples in [(2**64 - 1, 10_001), (4, 60_001)]:
        args = (5, 3, 0.3, colluding, (0.0, 0.2, 0.5, 0.7, 1.0), samples, seed)
        expected = _serial_calibration(*args)
        for workers in (1, 2, 3):
            monkeypatch.setattr(secrecy, "_cpu_count", lambda: workers)
            assert calibrate_outage(*args) == expected, (seed, workers)


def test_a_worker_exception_reaches_the_caller_and_no_worker_outlives_it(monkeypatch):
    class Injected(Exception):
        pass

    def fail(shape, rng):
        raise Injected(threading.current_thread().name)

    monkeypatch.setattr(secrecy, "_cpu_count", lambda: 3)
    monkeypatch.setattr(secrecy, "sample_complex_gaussian", fail)
    before = threading.active_count()
    with pytest.raises(Injected, match="calibrate_outage"):
        calibrate_outage(6, 3, 0.3, True, (0.2, 0.5, 0.7), samples=10_000, seed=0)
    workers = [t for t in threading.enumerate() if t.name.startswith("calibrate_outage")]
    for t in workers:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in workers)
    assert threading.active_count() == before


def test_calibrate_outage_refuses_a_non_integer_sample_count(monkeypatch):
    def draw(shape, rng):
        raise AssertionError("drew before refusing the sample count")

    monkeypatch.setattr(secrecy, "sample_complex_gaussian", draw)
    for samples in (20_000.0, 1e6, True, np.float64(20_000), "20000", None):
        with pytest.raises(ConfigError, match="samples must be an integer"):
            calibrate_outage(6, 3, 0.3, False, (0.5,), samples=samples, seed=0)


def test_calibrate_outage_validation():
    with pytest.raises(ConfigError):
        calibrate_outage(6, 3, 0.3, False, (0.5,), samples=100, seed=0)
    with pytest.raises(ConfigError):
        calibrate_outage(6, 3, 1.5, False, (0.5,), samples=20_000, seed=0)
    with pytest.raises(ConfigError):
        calibrate_outage(6, 3, 0.3, False, (0.0, 1.0), samples=20_000, seed=0)
    with pytest.raises(ConfigError):
        calibrate_outage(3, 3, 0.3, True, (0.5,), samples=20_000, seed=0)
