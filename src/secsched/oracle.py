"""Scalar capacity formulas on an explicit Householder basis: the oracle path.

Each function evaluates one slot and one user the textbook way.  The data
beam and an orthonormal basis of the artificial-noise subspace are built
explicitly (one Householder reflector), and every eavesdropper capacity is a
scalar formula or a small linear solve on that basis.  The production path
(`secrecy.channel_stats`, `secrecy.capacity_grids`, `secrecy.eve_capacity`)
uses the projector I - b b^H instead and never imports this module; the
tests, the demos and acceptance criterion 7 compare the two, on one slot's
`ChannelRealization` drawn by `sample_realization`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RngStreams, sample_realization_batch
from .errors import ConfigError, DegenerateChannelError
from .secrecy import INSTANTANEOUS, SecrecyRegime, rate_cost_table

_LN2 = math.log(2.0)


@dataclass
class ChannelRealization:
    """One slot's channel state: per-user rows and per-eavesdropper rows."""

    legit: np.ndarray  # (n_users, n_antennas) complex
    eves: np.ndarray   # (n_eves, n_antennas) complex

    def __post_init__(self):
        self.legit = np.asarray(self.legit, dtype=complex)
        self.eves = np.asarray(self.eves, dtype=complex)
        if self.legit.ndim != 2 or self.eves.ndim != 2:
            raise ValueError("channel matrices must be 2-d (rows = receivers)")
        if self.legit.shape[1] != self.eves.shape[1]:
            raise ValueError("user and eavesdropper rows disagree on antenna count")

    @property
    def n_users(self) -> int:
        return self.legit.shape[0]

    @property
    def n_eves(self) -> int:
        return self.eves.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.legit.shape[1]


def sample_realization(config, streams: RngStreams) -> ChannelRealization:
    """Draw one slot of fading for all users and eavesdroppers."""
    legit, eves = sample_realization_batch(config, streams, 1)
    return ChannelRealization(legit=legit[0], eves=eves[0])


@dataclass
class BeamformingBasis:
    """Orthonormal transmit basis split into data beam and noise subspace.

    `beam` is the unit vector that maximizes the intended receiver's SNR and
    `null_basis` holds the remaining orthonormal columns, all lying in the
    null space of the receiver's channel row, so artificial noise sent there
    is invisible to the intended receiver.  `source_gain` is the squared
    channel norm seen on the data beam.
    """

    beam: np.ndarray        # (n_antennas,) complex, unit norm
    null_basis: np.ndarray  # (n_antennas, n_antennas-1) complex, orthonormal columns
    source_gain: float


def beamforming_bases(channels: np.ndarray):
    """Vectorized basis construction for channel rows in the trailing axis.

    Returns (beam, null_basis, source_gain) with shapes (..., n), (..., n, n-1)
    and (...,).  The completion uses a single Householder reflector mapping the
    first coordinate axis onto the beam direction; the reflector's remaining
    columns are the noise subspace.  It serves the scalar oracle path: the
    batched kernels (`secrecy.channel_stats`) use the projector
    I - beam beam^H instead of a basis.
    """
    channels = np.asarray(channels, dtype=complex)
    n = channels.shape[-1]
    if n < 2:
        raise ValueError(f"need at least 2 antennas, got {n}")
    gain = np.sum(channels.real**2 + channels.imag**2, axis=-1)
    if np.any(gain == 0.0):
        raise DegenerateChannelError("zero channel vector has no beam direction")
    beam = np.conj(channels) / np.sqrt(gain)[..., None]

    # Reflector through w = beam + phase*e1 sends e1 to a unit-phase multiple
    # of beam; its trailing columns are then orthonormal and orthogonal to
    # beam.  Adding the phase keeps w away from cancellation for any input.
    first = beam[..., 0]
    mag = np.abs(first)
    phase = np.where(mag > 0.0, first / np.where(mag > 0.0, mag, 1.0), 1.0 + 0j)
    w = beam.copy()
    w[..., 0] += phase
    wnorm2 = np.sum(w.real**2 + w.imag**2, axis=-1)
    null_basis = -(2.0 / wnorm2[..., None, None]) * (
        w[..., :, None] * np.conj(w[..., None, 1:])
    )
    idx = np.arange(1, n)
    null_basis[..., idx, idx - 1] += 1.0
    return beam, null_basis, gain


def beamforming_basis(h: np.ndarray) -> BeamformingBasis:
    """Basis for one channel row; see `beamforming_bases`."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 1:
        raise ValueError("expected a single channel row")
    beam, null_basis, gain = beamforming_bases(h[None, :])
    return BeamformingBasis(beam=beam[0], null_basis=null_basis[0], source_gain=float(gain[0]))


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
        cost = float(rate_cost_table([tp.data_fraction], regime, realization.n_antennas,
                                     realization.n_eves)[0])
    secrecy = 0.0 if math.isinf(cost) else max(codeword - cost, 0.0)
    return SecrecyRateResult(codeword_rate=codeword, rate_cost=cost, secrecy_rate=secrecy)
