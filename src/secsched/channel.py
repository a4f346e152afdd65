"""Block-fading channel sampling from named random substreams.

Entries of every channel vector are i.i.d. circularly-symmetric complex
Gaussian with unit variance, and receiver thermal noise is normalized to unit
variance.  The beamforming geometry lives elsewhere: `secrecy.channel_stats`
projects onto the beam's orthogonal complement, where the artificial noise
goes, and the scalar oracle (`oracle.beamforming_basis`) builds a basis of it.
"""
from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError

# Substream indices.  Legitimate channels, eavesdropper channels, and packet
# arrivals each draw from their own counter-based stream so that, e.g.,
# changing the number of eavesdroppers leaves the legitimate draws untouched.
_LEGIT_STREAM = 0
_EVE_STREAM = 1
_ARRIVAL_STREAM = 2

_MAX_SEED = 2**64


def check_seed(seed) -> int:
    """The one seed rule: an integer, not a bool, in [0, 2**64); returns it as an int.

    NumPy integers pass; floats, strings and bools raise ConfigError."""
    try:
        if isinstance(seed, bool):
            raise TypeError("a bool is not a seed")
        seed = operator.index(seed)
    except TypeError:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < _MAX_SEED:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _stream(seed: int, index: int, doubles: int = 0) -> np.random.Generator:
    """Substream `index` of `seed` as it stands after `doubles` draws of one double each."""
    key = np.array([seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.advance(doubles // 4)  # Philox counts blocks of four doubles
    rng.random(doubles % 4)
    return rng


def channel_streams_at(seed: int, legit_doubles: int, eve_doubles: int):
    """The legitimate and eavesdropper streams of `seed`, each as it stands after the given
    number of doubles drawn from it.  Philox is counter-based (Salmon et al., SC 2011), so
    the streams jump there without drawing what comes before."""
    seed = check_seed(seed)
    return _stream(seed, _LEGIT_STREAM, legit_doubles), _stream(seed, _EVE_STREAM, eve_doubles)


class RngStreams:
    """Named random substreams derived from a single run seed."""

    def __init__(self, seed: int):
        self.seed = seed = check_seed(seed)
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
    z = np.empty(radius.shape, dtype=complex)
    np.multiply(radius, np.cos(angle), out=z.real)
    np.multiply(radius, np.sin(angle), out=z.imag)
    return z


def sample_realization_batch(config, streams: RngStreams, count: int):
    """Draw `count` slots at once; identical values to `count` sequential calls."""
    legit = sample_complex_gaussian((count, config.n_users, config.n_antennas), streams.legit)
    eves = sample_complex_gaussian((count, config.n_eves, config.n_antennas), streams.eves)
    return legit, eves
