"""Block-fading channel sampling and the beamforming / artificial-noise basis.

Each slot the transmitter points a unit beam at the intended receiver and
spreads isotropic artificial noise over the orthogonal complement of that
receiver's channel, so only eavesdroppers are jammed.  Entries of every
channel vector are i.i.d. circularly-symmetric complex Gaussian with unit
variance, and receiver thermal noise is normalized to unit variance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError

# Substream indices.  Legitimate channels, eavesdropper channels, and packet
# arrivals each draw from their own counter-based stream so that, e.g.,
# changing the number of eavesdroppers leaves the legitimate draws untouched.
_LEGIT_STREAM = 0
_EVE_STREAM = 1
_ARRIVAL_STREAM = 2

_MAX_SEED = 2**64


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class RngStreams:
    """Named random substreams derived from a single run seed."""

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        self.legit = _stream(seed, _LEGIT_STREAM)
        self.eves = _stream(seed, _EVE_STREAM)
        self.arrivals = _stream(seed, _ARRIVAL_STREAM)


def sample_complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian array.

    Built from uniform pairs via a polar (Box-Muller style) transform so the
    value stream depends only on the generator's bit stream: two uniforms per
    complex entry, consumed in C order.  Real and imaginary parts each have
    variance 1/2.
    """
    u = rng.random(tuple(shape) + (2,))
    radius = np.sqrt(-np.log1p(-u[..., 0]))
    angle = 2.0 * np.pi * u[..., 1]
    return radius * (np.cos(angle) + 1j * np.sin(angle))


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
    legit = sample_complex_gaussian((config.n_users, config.n_antennas), streams.legit)
    eves = sample_complex_gaussian((config.n_eves, config.n_antennas), streams.eves)
    return ChannelRealization(legit=legit, eves=eves)


def sample_realization_batch(config, streams: RngStreams, count: int):
    """Draw `count` slots at once; identical values to `count` sequential calls."""
    legit = sample_complex_gaussian((count, config.n_users, config.n_antennas), streams.legit)
    eves = sample_complex_gaussian((count, config.n_eves, config.n_antennas), streams.eves)
    return legit, eves


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
