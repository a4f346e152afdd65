"""Achievable rates against eavesdroppers and the secrecy-outage design rules.

Four regimes are covered, the cross product of two eavesdropper CSI
assumptions and two eavesdropper behaviors:

* instantaneous CSI: the transmitter sees every eavesdropper channel and the
  rate sacrificed to confuse them (the rate cost) equals their realized
  capacity, so leakage never happens;
* partial CSI (statistics only): the rate cost is pre-computed by inverting
  the tail of the eavesdroppers' capacity upper bound at a target outage
  level;
* non-colluding: each eavesdropper decodes alone, the strongest one matters;
* colluding: eavesdroppers joint-process their observations.

Receiver noise is normalized to unit variance throughout.
"""
from __future__ import annotations

import math
import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import channel_streams_at, check_seed, sample_complex_gaussian
from .errors import ConfigError, DegenerateChannelError

INSTANTANEOUS = "instantaneous"
PARTIAL = "partial"
_CALIBRATION_CHUNK = 8192  # channel draws per `calibrate_outage` block, per worker


@dataclass(frozen=True)
class SecrecyRegime:
    """Eavesdropper knowledge assumption plus collusion behavior."""

    csi: str
    colluding: bool
    eta: float = 0.0  # tolerated secrecy-outage probability, partial CSI only

    def __post_init__(self):
        if self.csi not in (INSTANTANEOUS, PARTIAL):
            raise ConfigError(f"csi must be '{INSTANTANEOUS}' or '{PARTIAL}', got {self.csi!r}")
        if self.csi == INSTANTANEOUS and self.eta != 0.0:
            raise ConfigError("eta must be 0 under instantaneous csi")
        if self.csi == PARTIAL and not 0.0 < self.eta < 1.0:
            raise ConfigError(f"eta must lie in (0, 1) under partial csi, got {self.eta!r}")


def check_outage_design(n_antennas: int, n_eves: int, colluding: bool) -> None:
    """The antenna and eavesdropper rules of every outage analysis: artificial noise needs a
    direction besides the beam, and colluding eavesdroppers must not null all of them."""
    if n_antennas < 2:
        raise ConfigError(f"n_antennas must be at least 2, got {n_antennas!r}")
    if n_eves < 1:
        raise ConfigError(f"n_eves must be at least 1, got {n_eves!r}")
    if colluding and n_antennas <= n_eves:
        raise ConfigError("colluding eavesdroppers require n_antennas > n_eves, "
                          f"got {n_antennas!r} and {n_eves!r}")


# --- outage statistics under partial CSI -----------------------------------

def noncolluding_outage_cdf(x, n_antennas: int):
    """CDF of one eavesdropper's beam-to-noise leakage ratio statistic.

    The statistic is |g.beam|^2 (n_antennas - 1) / ||g.null_basis||^2 for an
    isotropic complex Gaussian row g; its law does not depend on the channel
    that defined the basis.
    """
    check_outage_design(n_antennas, 1, colluding=False)  # the law of one eavesdropper
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("the leakage ratio is nonnegative")
    m = n_antennas - 1
    out = 1.0 - (m / (arr + m)) ** m  # m**m itself overflows from m = 144 on
    return float(out) if np.ndim(x) == 0 else out


def colluding_outage_ccdf(x, n_antennas: int, n_eves: int):
    """Tail of the colluding eavesdroppers' noise-whitened leakage statistic, (1 + x)^-m
    sum_{k < n_eves} C(m, k) x^k with m = n_antennas - 1, evaluated by `_colluding_tail`."""
    check_outage_design(n_antennas, n_eves, colluding=True)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("the leakage statistic is nonnegative")
    value, in_log = _colluding_tail(arr, n_antennas, n_eves)
    out = np.where(in_log, np.exp(value), value)
    return float(out) if np.ndim(x) == 0 else out


_MAX_TAIL_TERMS = 10_000  # log-form terms per evaluation, which bounds an inversion's cost


def _colluding_tail(arr: np.ndarray, n_antennas, n_eves):
    """The colluding tail at arr >= 0, each entry linear or as its log, and the mask of logs.

    The linear form poly(x) (1 + x)^-m, poly(x) = sum_{k < n_eves} C(m, k) x^k, holds
    while m <= 1023 (every C(m, k) < 2^m is a double; rounding 1 + x costs at most m
    ulps) and (1 + x)^-m is a normal double (so poly <= (1 + x)^m is finite).  Past
    that, where it underflows, an entry is log(poly) - m log1p(x), log(poly) being a
    log-sum-exp of log C(m, k) + k log(x)."""
    m, n_eves = operator.index(n_antennas) - 1, operator.index(n_eves)
    value, in_log = np.empty(arr.shape), np.ones(arr.shape, dtype=bool)
    with np.errstate(all="ignore"):
        if m <= 1023:
            factor = (1.0 + arr) ** (-m)
            value = np.array(sum(math.comb(m, k) * arr**k for k in range(n_eves)) * factor)
            in_log = np.asarray(factor < np.finfo(float).tiny)
        if np.any(in_log):
            if n_eves > _MAX_TAIL_TERMS:
                raise ConfigError(f"n_eves must be at most {_MAX_TAIL_TERMS} to sum the "
                                  f"colluding leakage tail in log form, got {n_eves!r}")
            k = np.arange(1.0, n_eves)
            log_coef = np.cumsum(np.log((m + 1.0 - k) / k))  # log C(m, k), k >= 1
            for j in np.flatnonzero(in_log):
                terms = log_coef + k * np.log(arr.flat[j])
                top = terms.max(initial=0.0)  # the k = 0 term is log 1
                value.flat[j] = (top + math.log(math.exp(-top) + np.exp(terms - top).sum())
                                 - m * math.log1p(arr.flat[j]))
    return value, in_log


_BISECT_REL_TOL = 1e-12  # `_bisect_decreasing` stops at this width relative to max(hi, 1)
_BISECT_MAX_ITER = 200


def _bisect_decreasing(exceeds) -> float:
    """Root of a continuous strictly decreasing fn on [0, inf) given exceeds(x) = fn(x) > target;
    inf when fn exceeds the target even at the largest double."""
    lo, hi = 0.0, 1.0
    while exceeds(hi):
        if hi == sys.float_info.max:
            return math.inf
        hi = min(2.0 * hi, sys.float_info.max)
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_REL_TOL * max(hi, 1.0):
            break
        mid = 0.5 * lo + 0.5 * hi  # = 0.5 * (lo + hi), which can overflow
        if exceeds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def leakage_threshold(outage_level: float, n_antennas: int, n_eves: int, colluding: bool) -> float:
    """Level x that the eavesdroppers' leakage statistic s exceeds with probability eta.

    The noise-free capacity bound at data fraction e is log2(1 + s e / (1 - e))
    and the law of s does not depend on e, so one x serves every fraction.
    Non-colluding, x is closed form: the target fixes the per-eavesdropper
    CDF level (1 - eta)^(1/n_eves).  Colluding, s is n_antennas - 1 times the
    statistic of `colluding_outage_ccdf`, a tail with no tractable inverse
    that falls strictly from 1 at the origin, so it is bisected, in log form
    wherever `_colluding_tail` keeps the log.
    """
    SecrecyRegime(PARTIAL, colluding, outage_level)  # the eta rule
    check_outage_design(n_antennas, n_eves, colluding)
    m = n_antennas - 1
    if colluding:
        log_level = math.log(outage_level)

        def exceeds(t):
            value, in_log = _colluding_tail(np.asarray(t), n_antennas, n_eves)
            return float(value) > (log_level if in_log else outage_level)

        x = m * _bisect_decreasing(exceeds)
    else:  # 0 when (1 - eta)^(1/n_eves) rounds to 1
        per_eve_tail = 1.0 - (1.0 - outage_level) ** (1.0 / n_eves)
        x = m * (per_eve_tail ** (-1.0 / m) - 1.0) if per_eve_tail else math.inf
    if x == math.inf:
        raise ConfigError(f"outage level {outage_level!r} is too small to invert in double "
                          "precision: no finite leakage threshold meets it")
    return x


def rate_cost_table(ratio_grid, regime: SecrecyRegime, n_antennas: int, n_eves: int) -> np.ndarray:
    """Smallest rate cost keeping the eavesdroppers' outage at eta, per data fraction.

    Partial CSI only.  One `leakage_threshold` x prices every interior
    fraction e at log2(1 + x e / (1 - e)); it is computed only when the grid
    has one, but the design is checked even where no fraction reads it.
    Fraction 0 carries no message, so zero cost; fraction 1 (no artificial
    noise) makes eavesdroppers arbitrarily strong, hence the infinite
    sentinel.  `secrecy_rate_grid` maps both to zero secrecy, so the sentinel
    never reaches an objective.
    """
    if regime.csi != PARTIAL:
        raise ConfigError("rate-cost tables only apply under partial CSI")
    check_outage_design(n_antennas, n_eves, regime.colluding)
    fractions = [float(e) for e in ratio_grid]
    for e in fractions:
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"data fraction must lie in [0, 1], got {e}")
    if any(0.0 < e < 1.0 for e in fractions):  # x is read only at interior fractions
        x = leakage_threshold(regime.eta, n_antennas, n_eves, regime.colluding)
    return np.array([0.0 if e == 0.0 else math.inf if e == 1.0
                     else math.log2(1.0 + x * e / (1.0 - e)) for e in fractions])


def rate_cost_noncolluding(data_fraction: float, outage_level: float,
                           n_antennas: int, n_eves: int) -> float:
    """`rate_cost_table` at one fraction against non-colluding eavesdroppers."""
    regime = SecrecyRegime(PARTIAL, False, outage_level)
    return float(rate_cost_table([data_fraction], regime, n_antennas, n_eves)[0])


def rate_cost_noncolluding_bisect(data_fraction: float, outage_level: float,
                                  n_antennas: int, n_eves: int) -> float:
    """Numerical fallback for `rate_cost_noncolluding`; verifies the closed form.  It refuses
    what that form refuses, below which its miss probability cannot resolve eta either."""
    rate_cost_noncolluding(data_fraction, outage_level, n_antennas, n_eves)
    fraction = float(data_fraction)
    if fraction == 0.0:
        return 0.0
    if fraction == 1.0:
        return math.inf

    def miss(rate):
        x = (2.0**rate - 1.0) * (1.0 - fraction) / fraction
        return 1.0 - noncolluding_outage_cdf(x, n_antennas) ** n_eves

    return _bisect_decreasing(lambda rate: miss(rate) > outage_level)


def rate_cost_colluding(data_fraction: float, outage_level: float,
                        n_antennas: int, n_eves: int) -> float:
    """`rate_cost_table` at one fraction against colluding eavesdroppers."""
    regime = SecrecyRegime(PARTIAL, True, outage_level)
    return float(rate_cost_table([data_fraction], regime, n_antennas, n_eves)[0])


# --- vectorized sufficient statistics and rate grids ------------------------

@dataclass
class ChannelStats:
    """Everything the capacity kernels need, per (slot, user), batched.

    With the unit beam b = conj(h) / ||h|| of a user's channel row h, an
    eavesdropper row g leaks `beam_leak` = |g.b|^2 into the data beam and
    `null_leak` = ||g||^2 - |g.b|^2 into the artificial-noise subspace, the
    projector complement of the beam (Goel & Negi, IEEE TWC 2008; Zhou &
    McKay, IEEE TVT 2010).  No basis of that subspace is built.
    `noise_eigvals`/`beam_weights` diagonalize the colluding eavesdroppers'
    artificial-noise Gram matrix G G^H - u u^H, with G the matrix of
    eavesdropper rows and u = G b, so the joint capacity is a scalar sum over
    eavesdroppers (added in index order by `eve_capacity`) for any power split.

    The subtraction cancels when g lies almost along conj(b): its absolute
    error is at most 4 n eps ||g||^2 (eps = 2^-52), so the relative error of
    `null_leak` is at most 4 n eps ||g||^2 / null_leak.  A result that
    rounds below zero is clamped to 0.
    """

    legit_gain: np.ndarray            # (..., K)
    beam_leak: np.ndarray             # (..., K, n_eves)
    null_leak: np.ndarray             # (..., K, n_eves)
    noise_eigvals: np.ndarray | None  # (..., K, n_eves), colluding only
    beam_weights: np.ndarray | None   # (..., K, n_eves), colluding only
    n_antennas: int


def _beam_components(legit: np.ndarray, eves: np.ndarray):
    """Users' squared channel norms and u = g.b for every (user, eavesdropper) pair.

    legit: (..., K, n); eves: (..., n_eves, n).  Returns shapes (..., K) and
    (..., K, n_eves).
    """
    if eves.shape[-1] != legit.shape[-1]:
        raise ValueError("user and eavesdropper rows disagree on antenna count")
    gain = np.sum(legit.real**2 + legit.imag**2, axis=-1)
    if np.any(gain == 0.0):
        raise DegenerateChannelError("zero channel vector has no beam direction")
    beam = np.conj(legit) / np.sqrt(gain)[..., None]
    return gain, np.einsum("...en,...kn->...ke", eves, beam)


def _noise_gram(eves: np.ndarray, beam_comp: np.ndarray) -> np.ndarray:
    """Artificial-noise Gram matrix G (I - b b^H) G^H = G G^H - u u^H per user.

    eves: (..., n_eves, n); beam_comp: (..., K, n_eves) from `_beam_components`.
    Returns (..., K, n_eves, n_eves).
    """
    full = np.einsum("...en,...fn->...ef", eves, np.conj(eves))
    return full[..., None, :, :] - beam_comp[..., :, None] * np.conj(beam_comp[..., None, :])


def channel_stats(legit: np.ndarray, eves: np.ndarray, colluding: bool) -> ChannelStats:
    """Reduce raw channel draws to capacity sufficient statistics, in projector form.

    legit: (..., n_users, n_antennas); eves: (..., n_eves, n_antennas).
    Leading dimensions are carried through unchanged.  `ChannelStats`
    bounds the cancellation error of `null_leak`; each colluding Gram entry
    carries an absolute error of the same order, so an eigenvalue far below
    ||g||^2 is correspondingly less accurate in relative terms.
    """
    legit = np.asarray(legit, dtype=complex)
    eves = np.asarray(eves, dtype=complex)
    n = legit.shape[-1]
    check_outage_design(n, eves.shape[-2], colluding)
    gain, beam_comp = _beam_components(legit, eves)
    beam_leak = beam_comp.real**2 + beam_comp.imag**2
    eve_norm = np.sum(eves.real**2 + eves.imag**2, axis=-1)
    null_leak = np.maximum(eve_norm[..., None, :] - beam_leak, 0.0)
    noise_eigvals = beam_weights = None
    if colluding:
        noise_eigvals, vecs = np.linalg.eigh(_noise_gram(eves, beam_comp))
        rotated = np.einsum("...kfe,...kf->...ke", np.conj(vecs), beam_comp)
        beam_weights = rotated.real**2 + rotated.imag**2
    return ChannelStats(
        legit_gain=gain,
        beam_leak=beam_leak,
        null_leak=null_leak,
        noise_eigvals=noise_eigvals,
        beam_weights=beam_weights,
        n_antennas=n,
    )


def legit_capacity_grid(legit_gain: np.ndarray, power: np.ndarray,
                        fraction: np.ndarray) -> np.ndarray:
    """Intended receivers' rates log2(1 + P e ||h||^2).

    Needs only the squared channel norms, since artificial noise is invisible
    to the intended receiver.  `power` and `fraction` broadcast as in
    `eve_capacity`, so the run's audit of one chosen pair equals the grid,
    and so does the run's power-major sweep.
    """
    grid = 1.0 + power * fraction * legit_gain[..., None, None]
    return np.log2(grid, out=grid)


def capacity_grids(stats: ChannelStats, power_grid: np.ndarray, ratio_grid: np.ndarray):
    """Receiver and eavesdropper rates for every (power, data fraction) pair.

    Returns (legit, eve) arrays of shape stats.legit_gain.shape + (n_powers,
    n_fractions): `legit_capacity_grid` and `eve_capacity` on the whole grid.
    `power_grid` gains one trailing axis, so a grid of shape (n_powers, 1, ..., 1)
    with stats.legit_gain.ndim + 1 unit axes puts the powers first instead:
    (n_powers,) + stats.legit_gain.shape + (1, n_fractions), power-major in C order.
    """
    power = np.asarray(power_grid, dtype=float)[:, None]
    fraction = np.asarray(ratio_grid, dtype=float)
    return (legit_capacity_grid(stats.legit_gain, power, fraction),
            eve_capacity(stats, power, fraction))


def eve_capacity(stats: ChannelStats, power: np.ndarray, fraction: np.ndarray) -> np.ndarray:
    """Realized capacity of the configured eavesdroppers, thermal noise included.

    `power` and `fraction` broadcast against the statistics' shape
    stats.legit_gain.shape + (1, 1).  A (n_powers, 1) column and a fraction row
    give the grid stats.legit_gain.shape + (n_powers, n_fractions), and the
    run's audit passes each slot's chosen pair as a 1 x 1 grid.  A power array
    with stats.legit_gain.ndim + 2 unit axes after its own, (n_powers, 1, ..., 1),
    broadcasts as a leading axis: the result is (n_powers,) +
    stats.legit_gain.shape + (1, n_fractions), and each of its elementwise loops
    runs over the statistics, not over the powers.  Eavesdroppers are folded in
    index order (a running max or sum), never reduced as an axis, which numpy
    may sum pairwise: a value does not depend on the grid around it, so the
    audit equals `capacity_grids`.
    """
    data_power = power * fraction
    noise_power = power * (1.0 - fraction) / (stats.n_antennas - 1)
    colluding = stats.noise_eigvals is not None
    terms = (stats.beam_weights[..., e, None, None]
             / (noise_power * stats.noise_eigvals[..., e, None, None] + 1.0) if colluding
             else stats.beam_leak[..., e, None, None] * data_power
             / (stats.null_leak[..., e, None, None] * noise_power + 1.0)
             for e in range(stats.beam_leak.shape[-1]))
    acc = next(terms)
    for term in terms:
        (np.add if colluding else np.maximum)(acc, term, out=acc)
    if colluding:
        acc *= data_power
    acc += 1.0
    return np.log2(acc, out=acc)


def secrecy_rate_grid(cap_users: np.ndarray, rate_cost) -> np.ndarray:
    """Nonnegative secrecy rate of every action: the codeword rate less its price.

    The price is the eavesdropper grid under instantaneous CSI and the
    `rate_cost_table`, broadcast over the fraction axis, under partial CSI;
    infinite costs clamp to zero.
    """
    return np.maximum(cap_users - rate_cost, 0.0)


# --- Monte-Carlo calibration of the outage design ---------------------------

def noise_free_bound(legit: np.ndarray, eves: np.ndarray, data_fraction: float,
                     colluding: bool) -> np.ndarray:
    """Eavesdroppers' capacity upper bound with thermal noise dropped, batched.

    legit: (..., K, n); eves: (..., n_eves, n); returns (..., K).  The batched
    form of `oracle.cap_eve_upper_noncolluding` (strongest eavesdropper) and
    `oracle.cap_eves_upper_colluding`, whose u^H Gram^-1 u is one n_eves x
    n_eves solve per user (u = G b, artificial-noise Gram G G^H - u u^H).
    Only calibration reads it, so no grid needs to match it bit for bit.
    """
    legit = np.asarray(legit, dtype=complex)
    eves = np.asarray(eves, dtype=complex)
    m = legit.shape[-1] - 1
    if colluding:
        _, beam_comp = _beam_components(legit, eves)
        sol = np.linalg.solve(_noise_gram(eves, beam_comp), beam_comp[..., None])[..., 0]
        quad = np.sum((np.conj(beam_comp) * sol).real, axis=-1)
        return np.log2(1.0 + m * data_fraction / (1.0 - data_fraction) * quad)
    stats = channel_stats(legit, eves, colluding)
    per_eve = stats.beam_leak * m * data_fraction / (stats.null_leak * (1.0 - data_fraction))
    return np.log2(1.0 + np.max(per_eve, axis=-1))


@dataclass(frozen=True)
class OutageCalibrationRow:
    epsilon: float
    rate_cost: float
    eta_target: float
    eta_estimate: float
    stderr: float
    n_samples: int
    passed: bool


def calibrate_outage(n_antennas: int, n_eves: int, eta: float, colluding: bool,
                     ratio_grid, samples: int, seed: int) -> list[OutageCalibrationRow]:
    """Check the rate-cost inversion against fresh channel draws.

    For each interior data fraction on the grid, draws `samples` independent
    (user, eavesdropper) channel realizations, evaluates the noise-free
    eavesdropping capacity bound, and compares its exceedance frequency over
    the designed rate cost with the target outage level.  A row passes when
    the estimate lands within three binomial standard errors of the target.

    Row r reads the draws that follow rows 0..r-1 on the legitimate and
    eavesdropper streams, reached by counter offset, so the rows run on
    threads, up to one per CPU this process may use, and are identical for
    any number of them.
    """
    if isinstance(samples, bool) or not isinstance(samples, int | np.integer):
        raise ConfigError(f"samples must be an integer, got {samples!r}")
    if samples < 10_000:
        raise ConfigError(f"need at least 10000 samples for a meaningful estimate, got {samples}")
    samples, seed = int(samples), check_seed(seed)
    regime = SecrecyRegime(PARTIAL, colluding, eta)
    check_outage_design(n_antennas, n_eves, colluding)
    interior = [float(e) for e in ratio_grid if 0.0 < float(e) < 1.0]
    if not interior:
        raise ConfigError("the ratio grid has no interior points to calibrate")
    costs = rate_cost_table(interior, regime, n_antennas, n_eves).tolist()

    def exceedances(row: int) -> int:
        legit_rng, eve_rng = channel_streams_at(seed, row * 2 * n_antennas * samples,
                                                row * 2 * n_antennas * n_eves * samples)
        exceed = 0
        for start in range(0, samples, _CALIBRATION_CHUNK):
            count = min(_CALIBRATION_CHUNK, samples - start)
            legit = sample_complex_gaussian((count, 1, n_antennas), legit_rng)
            eves = sample_complex_gaussian((count, n_eves, n_antennas), eve_rng)
            bound = noise_free_bound(legit, eves, interior[row], colluding)[:, 0]
            exceed += int(np.count_nonzero(bound > costs[row]))
        return exceed

    with ThreadPoolExecutor(min(len(interior), _cpu_count()),
                            thread_name_prefix="calibrate_outage") as pool:
        counts = list(pool.map(exceedances, range(len(interior))))
    stderr = math.sqrt(eta * (1.0 - eta) / samples)
    return [OutageCalibrationRow(eps, cost, eta, exceed / samples, stderr, samples,
                                 passed=abs(exceed / samples - eta) <= 3.0 * stderr)
            for eps, cost, exceed in zip(interior, costs, counts)]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
