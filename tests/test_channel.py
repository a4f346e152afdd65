"""Channel sampling and beamforming-basis tests.

The basis construction is checked against an independent SVD-based null
space, and the sampler against its stated moments, so the rest of the suite
can treat both as ground truth.
"""
import numpy as np
import pytest
import scipy.linalg

from secsched import (
    ConfigError,
    DegenerateChannelError,
    RngStreams,
    beamforming_basis,
    sample_complex_gaussian,
    sample_realization_batch,
)
from secsched.channel import channel_streams_at
from secsched.oracle import ChannelRealization, beamforming_bases, sample_realization
from secsched.secrecy import calibrate_outage


def test_same_seed_reproduces_draws():
    a = sample_complex_gaussian((50, 6), RngStreams(7).legit)
    b = sample_complex_gaussian((50, 6), RngStreams(7).legit)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = sample_complex_gaussian((50, 6), RngStreams(7).legit)
    b = sample_complex_gaussian((50, 6), RngStreams(8).legit)
    assert not np.allclose(a, b)


def test_substreams_are_independent_of_each_other():
    s = RngStreams(7)
    a = sample_complex_gaussian((50, 6), s.legit)
    b = sample_complex_gaussian((50, 6), s.eves)
    assert not np.allclose(a, b)
    # consuming one stream must not shift another
    s1 = RngStreams(7)
    s1.eves.random(12345)
    a_again = sample_complex_gaussian((50, 6), s1.legit)
    assert np.array_equal(a, a_again)


def test_seed_range_is_enforced():
    with pytest.raises(ValueError):
        RngStreams(-1)
    with pytest.raises(ValueError):
        RngStreams(2**64)
    RngStreams(2**64 - 1)  # top of the range is fine
    # a seed is an integer, never converted: no float, bool or string passes
    for seed in (3.7, 1.0, True, False, np.True_, "5", None):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            RngStreams(seed)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        calibrate_outage(6, 3, 0.1, False, [0.5], 10_000, 1.5)
    assert RngStreams(np.int64(5)).seed == 5
    assert RngStreams(np.uint64(2**64 - 1)).seed == 2**64 - 1


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_sampling_assembly_keeps_the_bits_of_the_complex_expression(seed):
    for shape in [(1,), (7, 3), (50, 6), (4, 3, 6)]:
        u = RngStreams(seed).legit.random(shape + (2,))
        radius = np.sqrt(-np.log1p(-u[..., 0]))
        angle = 2.0 * np.pi * u[..., 1]
        expected = radius * (np.cos(angle) + 1j * np.sin(angle))
        z = sample_complex_gaussian(shape, RngStreams(seed).legit)
        assert z.dtype == expected.dtype and z.shape == expected.shape
        assert z.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [3, 2**64 - 1])
def test_stream_offsets_equal_draw_and_discard(seed):
    for legit_doubles, eve_doubles in [(0, 1), (2, 3), (4, 4097), (10_002, 30_003)]:
        legit, eves = RngStreams(seed).legit, RngStreams(seed).eves
        legit.random(legit_doubles)
        eves.random(eve_doubles)
        legit_at, eves_at = channel_streams_at(seed, legit_doubles, eve_doubles)
        assert np.array_equal(legit_at.random(11), legit.random(11))
        assert np.array_equal(eves_at.random(11), eves.random(11))
    # far out, where drawing is impossible: the counter Philox defines a block by
    far = 2**40 + 6
    key = np.array([seed, 0], dtype=np.uint64)
    reference = np.random.Generator(np.random.Philox(key=key, counter=far // 4))
    reference.random(far % 4)
    legit_at, _ = channel_streams_at(seed, far, 0)
    assert np.array_equal(legit_at.random(11), reference.random(11))
    legit_before, _ = channel_streams_at(seed, far - 3, 0)
    assert np.array_equal(legit_before.random(14)[3:], channel_streams_at(seed, far, 0)[0].random(11))


def test_complex_gaussian_moments():
    z = sample_complex_gaussian((1_000_000,), RngStreams(11).legit)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(np.mean(z)) < 0.005
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01
    # circular symmetry: no real/imag correlation
    assert abs(np.mean(z.real * z.imag)) < 0.005


def test_channel_norm_moments():
    h = sample_complex_gaussian((200_000, 6), RngStreams(3).legit)
    gain = np.sum(np.abs(h) ** 2, axis=1)
    assert abs(np.mean(gain) - 6.0) < 0.05
    assert abs(np.var(gain) - 6.0) < 0.2  # sum of 12 chi-square halves


def test_batch_equals_sequential_draws():
    class Cfg:
        n_users, n_eves, n_antennas = 2, 3, 6

    batch_legit, batch_eves = sample_realization_batch(Cfg, RngStreams(42), 17)
    streams = RngStreams(42)
    for t in range(17):
        r = sample_realization(Cfg, streams)
        assert np.array_equal(r.legit, batch_legit[t])
        assert np.array_equal(r.eves, batch_eves[t])


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_basis_invariants(n):
    rng = RngStreams(123).legit
    h = sample_complex_gaussian((500, n), rng)
    beam, null_basis, gain = beamforming_bases(h)
    full = np.concatenate([beam[:, :, None], null_basis], axis=2)
    eye = np.einsum("tij,tik->tjk", np.conj(full), full)
    assert np.max(np.abs(eye - np.eye(n))) < 1e-10
    # the noise subspace is invisible to the intended receiver
    assert np.max(np.abs(np.einsum("tn,tnm->tm", h, null_basis))) < 1e-10
    # the beam collects the whole channel norm
    comp = np.einsum("tn,tn->t", h, beam)
    assert np.max(np.abs(comp - np.sqrt(gain))) < 1e-10
    assert np.max(np.abs(np.sum(np.abs(h) ** 2, axis=1) - gain)) < 1e-10


def test_basis_against_svd_nullspace():
    rng = RngStreams(9).legit
    for _ in range(50):
        h = sample_complex_gaussian((6,), rng)
        basis = beamforming_basis(h)
        oracle = scipy.linalg.null_space(h[None, :])
        # compare projectors, which are basis-choice independent
        p_ours = basis.null_basis @ basis.null_basis.conj().T
        p_oracle = oracle @ oracle.conj().T
        assert np.max(np.abs(p_ours - p_oracle)) < 1e-10
        # and the beam spans the complement
        p_beam = np.outer(basis.beam, np.conj(basis.beam))
        assert np.max(np.abs(p_beam + p_ours - np.eye(6))) < 1e-10


def test_axis_aligned_channels():
    for h in (np.eye(4)[0], 2.5 * np.eye(4)[1], (1j) * np.eye(4)[3],
              np.array([-3.0, 0, 0, 0])):
        basis = beamforming_basis(h)
        stack = np.concatenate([basis.beam[:, None], basis.null_basis], axis=1)
        assert np.max(np.abs(stack.conj().T @ stack - np.eye(4))) < 1e-12
        assert np.max(np.abs(h @ basis.null_basis)) < 1e-12
        assert basis.source_gain == pytest.approx(np.sum(np.abs(h) ** 2))


def test_scalar_basis_matches_batched():
    h = sample_complex_gaussian((8, 5), RngStreams(77).legit)
    beam, null_basis, gain = beamforming_bases(h)
    for t in range(8):
        single = beamforming_basis(h[t])
        assert np.array_equal(single.beam, beam[t])
        assert np.array_equal(single.null_basis, null_basis[t])
        assert single.source_gain == float(gain[t])


def test_degenerate_and_invalid_inputs():
    with pytest.raises(DegenerateChannelError):
        beamforming_basis(np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        beamforming_basis(np.array([1.0 + 0j]))  # single antenna
    with pytest.raises(ValueError):
        beamforming_basis(np.ones((2, 3), dtype=complex))  # not a row


def test_realization_validation():
    good = ChannelRealization(legit=np.ones((2, 4), dtype=complex),
                              eves=np.ones((3, 4), dtype=complex))
    assert good.n_users == 2 and good.n_eves == 3 and good.n_antennas == 4
    with pytest.raises(ValueError):
        ChannelRealization(legit=np.ones((2, 4)), eves=np.ones((3, 5)))
    with pytest.raises(ValueError):
        ChannelRealization(legit=np.ones(4), eves=np.ones((3, 4)))
