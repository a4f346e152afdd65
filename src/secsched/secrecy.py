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
from dataclasses import dataclass

import numpy as np

from .channel import (
    BeamformingBasis,
    ChannelRealization,
    RngStreams,
    beamforming_bases,
    beamforming_basis,
    sample_complex_gaussian,
)
from .errors import ConfigError, DegenerateChannelError

INSTANTANEOUS = "instantaneous"
PARTIAL = "partial"

_LN2 = math.log(2.0)


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


@dataclass(frozen=True)
class TransmitParams:
    """Total power and its split between the data beam and artificial noise.

    A fraction `data_fraction` of `power` drives the data symbol; the rest is
    spread evenly over the n_antennas - 1 noise directions.
    """

    power: float
    data_fraction: float
    n_antennas: int

    def __post_init__(self):
        if self.power < 0:
            raise ValueError(f"power must be nonnegative, got {self.power}")
        if not 0.0 <= self.data_fraction <= 1.0:
            raise ValueError(f"data fraction must lie in [0, 1], got {self.data_fraction}")
        if self.n_antennas < 2:
            raise ValueError("artificial noise needs at least 2 transmit antennas")

    @property
    def data_power(self) -> float:
        return self.data_fraction * self.power

    @property
    def noise_power(self) -> float:
        # per noise direction
        return (1.0 - self.data_fraction) * self.power / (self.n_antennas - 1)


@dataclass(frozen=True)
class SecrecyRateResult:
    codeword_rate: float  # what the intended receiver can decode
    rate_cost: float      # rate given up to keep eavesdroppers ignorant
    secrecy_rate: float   # confidential bits per slot, never negative


# --- per-realization capacities -------------------------------------------

def cap_legit(channel_gain: float, tp: TransmitParams) -> float:
    """Intended receiver's rate; artificial noise is invisible to it."""
    if channel_gain < 0:
        raise ValueError(f"channel gain must be nonnegative, got {channel_gain}")
    return math.log2(1.0 + tp.data_power * channel_gain)


def _beam_and_null_leakage(g: np.ndarray, basis: BeamformingBasis):
    g = np.asarray(g, dtype=complex)
    if g.shape != basis.beam.shape:
        raise ValueError(f"eavesdropper row {g.shape} does not match basis {basis.beam.shape}")
    comp = g @ basis.beam
    row = g @ basis.null_basis
    return comp.real**2 + comp.imag**2, float(np.sum(row.real**2 + row.imag**2))


def cap_eve_noncolluding(g: np.ndarray, basis: BeamformingBasis, tp: TransmitParams) -> float:
    """One eavesdropper's rate: beam leakage over artificial noise plus thermal noise."""
    signal, noise = _beam_and_null_leakage(g, basis)
    return math.log2(1.0 + signal * tp.data_power / (noise * tp.noise_power + 1.0))


def _joint_components(eves: np.ndarray, basis: BeamformingBasis):
    eves = np.asarray(eves, dtype=complex)
    if eves.ndim != 2 or eves.shape[1] != basis.beam.shape[0]:
        raise ValueError("eavesdropper matrix does not match the basis dimension")
    if eves.shape[0] >= basis.beam.shape[0]:
        raise ConfigError(
            "colluding analysis needs fewer eavesdroppers than transmit antennas"
        )
    return eves @ basis.beam, eves @ basis.null_basis


def cap_eves_colluding(eves: np.ndarray, basis: BeamformingBasis, tp: TransmitParams) -> float:
    """Joint-processing eavesdroppers' rate via the rank-one quadratic form."""
    beam_comp, null_comp = _joint_components(eves, basis)
    gram = null_comp @ null_comp.conj().T
    cov = tp.noise_power * gram + np.eye(gram.shape[0])
    sol = np.linalg.solve(cov, beam_comp)
    return math.log2(1.0 + tp.data_power * float(np.real(np.vdot(beam_comp, sol))))


def cap_eves_colluding_logdet(eves: np.ndarray, basis: BeamformingBasis, tp: TransmitParams) -> float:
    """Same quantity as a log-det ratio of received covariances; kept as an oracle."""
    beam_comp, null_comp = _joint_components(eves, basis)
    cov = tp.noise_power * (null_comp @ null_comp.conj().T) + np.eye(null_comp.shape[0])
    full = cov + tp.data_power * np.outer(beam_comp, np.conj(beam_comp))
    _, ld_full = np.linalg.slogdet(full)
    _, ld_cov = np.linalg.slogdet(cov)
    return (ld_full - ld_cov) / _LN2


def _check_fraction_interior(data_fraction: float):
    if not 0.0 < data_fraction < 1.0:
        raise ValueError(
            f"the noise-free upper bound needs a data fraction in (0, 1), got {data_fraction}"
        )


def cap_eve_upper_noncolluding(g: np.ndarray, basis: BeamformingBasis, data_fraction: float) -> float:
    """Upper bound on one eavesdropper's rate: thermal noise dropped.

    Depends on the power split but not on total power, which is what makes
    the outage level controllable without knowing the transmit power.
    """
    _check_fraction_interior(data_fraction)
    signal, noise = _beam_and_null_leakage(g, basis)
    if noise == 0.0:
        raise DegenerateChannelError("eavesdropper row orthogonal to the noise subspace")
    n = basis.beam.shape[0]
    ratio = signal * (n - 1) * data_fraction / (noise * (1.0 - data_fraction))
    return math.log2(1.0 + ratio)


def cap_eves_upper_colluding(eves: np.ndarray, basis: BeamformingBasis, data_fraction: float) -> float:
    """Upper bound on the colluding eavesdroppers' rate, thermal noise dropped."""
    _check_fraction_interior(data_fraction)
    beam_comp, null_comp = _joint_components(eves, basis)
    gram = null_comp @ null_comp.conj().T
    try:
        sol = np.linalg.solve(gram, beam_comp)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelError("singular artificial-noise Gram matrix") from exc
    quad = float(np.real(np.vdot(beam_comp, sol)))
    n = basis.beam.shape[0]
    return math.log2(1.0 + (n - 1) * data_fraction / (1.0 - data_fraction) * quad)


# --- outage statistics under partial CSI -----------------------------------

def noncolluding_outage_cdf(x, n_antennas: int):
    """CDF of one eavesdropper's beam-to-noise leakage ratio statistic.

    The statistic is |g.beam|^2 (n_antennas - 1) / ||g.null_basis||^2 for an
    isotropic complex Gaussian row g; its law does not depend on the channel
    that defined the basis.
    """
    if n_antennas < 2:
        raise ValueError("need at least 2 antennas")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("the leakage ratio is nonnegative")
    m = n_antennas - 1
    out = 1.0 - float(m) ** m * (arr + m) ** (1 - n_antennas)
    return float(out) if np.ndim(x) == 0 else out


def colluding_outage_ccdf(x, n_antennas: int, n_eves: int):
    """Tail of the colluding eavesdroppers' noise-whitened leakage statistic."""
    if n_eves < 1:
        raise ValueError("need at least one eavesdropper")
    if n_antennas <= n_eves:
        raise ConfigError("colluding analysis needs fewer eavesdroppers than transmit antennas")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("the leakage statistic is nonnegative")
    m = n_antennas - 1
    poly = sum(math.comb(m, k) * arr**k for k in range(n_eves))
    out = poly * (1.0 + arr) ** (-m)
    return float(out) if np.ndim(x) == 0 else out


def _check_inversion_args(data_fraction, outage_level, n_antennas, n_eves):
    if not 0.0 <= data_fraction <= 1.0:
        raise ValueError(f"data fraction must lie in [0, 1], got {data_fraction}")
    if not 0.0 < outage_level < 1.0:
        raise ValueError(f"outage level must lie in (0, 1), got {outage_level}")
    if n_antennas < 2:
        raise ValueError("need at least 2 antennas")
    if n_eves < 1:
        raise ValueError("need at least one eavesdropper")


def _bisect_decreasing(fn, target: float, rel_tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of fn(x) = target for a continuous strictly decreasing fn on [0, inf)."""
    lo, hi = 0.0, 1.0
    while fn(hi) > target:
        hi *= 2.0
        if not math.isfinite(hi):
            raise RuntimeError("failed to bracket the root")
    while hi - lo > rel_tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
        max_iter -= 1
        if max_iter <= 0:
            break
    return 0.5 * (lo + hi)


def rate_cost_noncolluding(data_fraction: float, outage_level: float,
                           n_antennas: int, n_eves: int) -> float:
    """Smallest rate cost keeping the strongest eavesdropper's outage at the target.

    Closed form: the target fixes the per-eavesdropper CDF level
    (1 - eta)^(1/n_eves); inverting the leakage-ratio CDF at that level gives
    a threshold that maps through the power split to a rate.  No artificial
    noise (fraction 1) makes eavesdroppers arbitrarily strong, hence the
    infinite sentinel; fraction 0 carries no message, so zero cost.
    """
    _check_inversion_args(data_fraction, outage_level, n_antennas, n_eves)
    if data_fraction == 0.0:
        return 0.0
    if data_fraction == 1.0:
        return math.inf
    m = n_antennas - 1
    per_eve_tail = 1.0 - (1.0 - outage_level) ** (1.0 / n_eves)
    if per_eve_tail == 0.0:
        raise ConfigError(
            f"outage level {outage_level!r} is too small to invert in double precision: "
            f"(1 - eta)^(1/{n_eves}) rounds to 1"
        )
    threshold = m * (per_eve_tail ** (-1.0 / m) - 1.0)
    return math.log2(1.0 + threshold * data_fraction / (1.0 - data_fraction))


def rate_cost_noncolluding_bisect(data_fraction: float, outage_level: float,
                                  n_antennas: int, n_eves: int) -> float:
    """Numerical fallback for `rate_cost_noncolluding`; verifies the closed form."""
    _check_inversion_args(data_fraction, outage_level, n_antennas, n_eves)
    if data_fraction == 0.0:
        return 0.0
    if data_fraction == 1.0:
        return math.inf

    def miss(rate):
        x = (2.0**rate - 1.0) * (1.0 - data_fraction) / data_fraction
        return 1.0 - noncolluding_outage_cdf(x, n_antennas) ** n_eves

    return _bisect_decreasing(miss, outage_level)


def rate_cost_colluding(data_fraction: float, outage_level: float,
                        n_antennas: int, n_eves: int) -> float:
    """Smallest rate cost keeping the colluding eavesdroppers' outage at the target.

    The tail has no tractable inverse, so bisect it; the tail is strictly
    decreasing from 1 at the origin.
    """
    _check_inversion_args(data_fraction, outage_level, n_antennas, n_eves)
    if n_antennas <= n_eves:
        raise ConfigError("colluding analysis needs fewer eavesdroppers than transmit antennas")
    if data_fraction == 0.0:
        return 0.0
    if data_fraction == 1.0:
        return math.inf
    threshold = _bisect_decreasing(
        lambda t: colluding_outage_ccdf(t, n_antennas, n_eves), outage_level
    )
    m = n_antennas - 1
    return math.log2(1.0 + threshold * m * data_fraction / (1.0 - data_fraction))


def rate_cost_table(ratio_grid, regime: SecrecyRegime, n_antennas: int, n_eves: int) -> np.ndarray:
    """Pre-inverted rate cost for every data fraction on the grid (partial CSI).

    Entries for fractions 0 and 1 carry the boundary conventions (0 and the
    infinite sentinel); downstream secrecy-rate code maps both to zero
    secrecy, so the sentinel never reaches an objective.
    """
    if regime.csi != PARTIAL:
        raise ConfigError("rate-cost tables only apply under partial CSI")
    fn = rate_cost_colluding if regime.colluding else rate_cost_noncolluding
    return np.array([fn(float(e), regime.eta, n_antennas, n_eves) for e in ratio_grid])


# --- vectorized sufficient statistics and rate grids ------------------------

@dataclass
class ChannelStats:
    """Everything the capacity formulas need, per (slot, user), batched.

    `noise_eigvals`/`beam_weights` diagonalize the colluding eavesdroppers'
    artificial-noise Gram matrix so the joint capacity becomes a scalar sum
    for every power split, instead of one linear solve per grid point.
    """

    legit_gain: np.ndarray            # (..., K)
    beam_leak: np.ndarray             # (..., K, n_eves)
    null_leak: np.ndarray             # (..., K, n_eves)
    noise_eigvals: np.ndarray | None  # (..., K, n_eves), colluding only
    beam_weights: np.ndarray | None   # (..., K, n_eves), colluding only
    n_antennas: int


def channel_stats(legit: np.ndarray, eves: np.ndarray, colluding: bool) -> ChannelStats:
    """Reduce raw channel draws to capacity sufficient statistics.

    legit: (..., n_users, n_antennas); eves: (..., n_eves, n_antennas).
    Leading dimensions are carried through unchanged.
    """
    legit = np.asarray(legit, dtype=complex)
    eves = np.asarray(eves, dtype=complex)
    n = legit.shape[-1]
    if eves.shape[-1] != n:
        raise ValueError("user and eavesdropper rows disagree on antenna count")
    if colluding and eves.shape[-2] >= n:
        raise ConfigError("colluding analysis needs fewer eavesdroppers than transmit antennas")
    beam, null_basis, gain = beamforming_bases(legit)
    beam_comp = np.einsum("...en,...kn->...ke", eves, beam)
    beam_leak = beam_comp.real**2 + beam_comp.imag**2
    null_comp = np.einsum("...en,...knm->...kem", eves, null_basis)
    null_leak = np.sum(null_comp.real**2 + null_comp.imag**2, axis=-1)
    noise_eigvals = beam_weights = None
    if colluding:
        gram = np.einsum("...kem,...kfm->...kef", null_comp, np.conj(null_comp))
        noise_eigvals, vecs = np.linalg.eigh(gram)
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


def legit_capacity_grid(legit_gain: np.ndarray, power_grid, ratio_grid) -> np.ndarray:
    """Intended receivers' rates for every (power, data fraction) pair.

    Needs only the squared channel norms, since artificial noise is invisible
    to the intended receiver.  Shape legit_gain.shape + (n_powers, n_fractions).
    """
    power = np.asarray(power_grid, dtype=float)
    fraction = np.asarray(ratio_grid, dtype=float)
    data_power = power[:, None] * fraction[None, :]
    return np.log2(1.0 + data_power * legit_gain[..., None, None])


def capacity_grids(stats: ChannelStats, power_grid: np.ndarray, ratio_grid: np.ndarray):
    """Receiver and eavesdropper rates for every (power, data fraction) pair.

    Returns (legit, eve) arrays of shape stats.legit_gain.shape + (n_powers,
    n_fractions).  The eve array is the realized eavesdropping capacity of
    the configured collusion behavior, thermal noise included.
    """
    power = np.asarray(power_grid, dtype=float)
    fraction = np.asarray(ratio_grid, dtype=float)
    data_power = power[:, None] * fraction[None, :]
    noise_power = power[:, None] * (1.0 - fraction[None, :]) / (stats.n_antennas - 1)
    cap_users = legit_capacity_grid(stats.legit_gain, power, fraction)
    if stats.noise_eigvals is None:
        ratio = stats.beam_leak[..., None, None] * data_power / (
            stats.null_leak[..., None, None] * noise_power + 1.0
        )
        cap_eves = np.log2(1.0 + np.max(ratio, axis=-3))
    else:
        quad = np.sum(
            stats.beam_weights[..., None, None]
            / (noise_power * stats.noise_eigvals[..., None, None] + 1.0),
            axis=-3,
        )
        cap_eves = np.log2(1.0 + data_power * quad)
    return cap_users, cap_eves


def secrecy_rate_grid(cap_users: np.ndarray, cap_eves: np.ndarray,
                      regime: SecrecyRegime, cost_table: np.ndarray | None = None) -> np.ndarray:
    """Nonnegative secrecy rate for every action; infinite costs clamp to zero."""
    if regime.csi == INSTANTANEOUS:
        return np.maximum(cap_users - cap_eves, 0.0)
    if cost_table is None:
        raise ValueError("partial CSI needs a pre-inverted rate-cost table")
    return np.maximum(cap_users - cost_table, 0.0)


def secrecy_rate(realization: ChannelRealization, user: int,
                 tp: TransmitParams, regime: SecrecyRegime) -> SecrecyRateResult:
    """Secrecy rate of serving `user` with `tp` under `regime`, one slot."""
    if not 0 <= user < realization.n_users:
        raise ValueError(f"user index {user} out of range")
    if realization.n_antennas != tp.n_antennas:
        raise ValueError("transmit parameters disagree with the realization's antenna count")
    if realization.n_eves < 1:
        raise ValueError("need at least one eavesdropper row")
    basis = beamforming_basis(realization.legit[user])
    codeword = cap_legit(basis.source_gain, tp)
    if regime.csi == INSTANTANEOUS:
        if regime.colluding:
            cost = cap_eves_colluding(realization.eves, basis, tp)
        else:
            cost = max(cap_eve_noncolluding(g, basis, tp) for g in realization.eves)
    else:
        fn = rate_cost_colluding if regime.colluding else rate_cost_noncolluding
        cost = fn(tp.data_fraction, regime.eta, realization.n_antennas, realization.n_eves)
    secrecy = 0.0 if math.isinf(cost) else max(codeword - cost, 0.0)
    return SecrecyRateResult(codeword_rate=codeword, rate_cost=cost, secrecy_rate=secrecy)


# --- Monte-Carlo calibration of the outage design ---------------------------

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
                     ratio_grid, samples: int, seed: int,
                     chunk: int = 50_000) -> list[OutageCalibrationRow]:
    """Check the rate-cost inversion against fresh channel draws.

    For each interior data fraction on the grid, draws `samples` independent
    (user, eavesdropper) channel realizations, evaluates the noise-free
    eavesdropping capacity bound, and compares its exceedance frequency over
    the designed rate cost with the target outage level.  A row passes when
    the estimate lands within three binomial standard errors of the target.
    """
    if samples < 10_000:
        raise ConfigError(f"need at least 10000 samples for a meaningful estimate, got {samples}")
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"outage level must lie in (0, 1), got {eta}")
    if n_eves < 1 or n_antennas < 2:
        raise ConfigError("need at least one eavesdropper and two antennas")
    if colluding and n_antennas <= n_eves:
        raise ConfigError("colluding analysis needs fewer eavesdroppers than transmit antennas")
    interior = [float(e) for e in ratio_grid if 0.0 < float(e) < 1.0]
    if not interior:
        raise ConfigError("the ratio grid has no interior points to calibrate")
    cost_fn = rate_cost_colluding if colluding else rate_cost_noncolluding
    streams = RngStreams(seed)
    stderr = math.sqrt(eta * (1.0 - eta) / samples)
    rows = []
    for eps in interior:
        cost = cost_fn(eps, eta, n_antennas, n_eves)
        exceed = 0
        remaining = samples
        while remaining > 0:
            count = min(chunk, remaining)
            legit = sample_complex_gaussian((count, 1, n_antennas), streams.legit)
            eves = sample_complex_gaussian((count, n_eves, n_antennas), streams.eves)
            stats = channel_stats(legit, eves, colluding)
            if colluding:
                quad = np.sum(stats.beam_weights[:, 0, :] / stats.noise_eigvals[:, 0, :], axis=-1)
                bound = np.log2(1.0 + (n_antennas - 1) * eps / (1.0 - eps) * quad)
            else:
                per_eve = stats.beam_leak[:, 0, :] * (n_antennas - 1) * eps / (
                    stats.null_leak[:, 0, :] * (1.0 - eps)
                )
                bound = np.log2(1.0 + np.max(per_eve, axis=-1))
            exceed += int(np.count_nonzero(bound > cost))
            remaining -= count
        estimate = exceed / samples
        rows.append(OutageCalibrationRow(
            epsilon=eps,
            rate_cost=cost,
            eta_target=eta,
            eta_estimate=estimate,
            stderr=stderr,
            n_samples=samples,
            passed=abs(estimate - eta) <= 3.0 * stderr,
        ))
    return rows
