import math

import numpy as np
import pytest

from otafl import (
    ChannelConfig,
    FadingModel,
    StableParams,
    measure_snr,
    sample_fading,
    sample_sas,
    transmit,
)
from otafl.fl_core import _STREAM_CHANNEL, _RoundWords, _SharedDraws, channel_rng


def noisy_channel(alpha=1.5, tau=0.1, fading=None):
    return ChannelConfig(fading or FadingModel.no_fading(), StableParams(alpha, tau))


def test_fading_model_validation():
    with pytest.raises(ValueError):
        FadingModel("rician")
    with pytest.raises(ValueError):
        FadingModel("deterministic", 0.0)
    # only deterministic fading reads its gain; any other would go unused
    for kind in ("rayleigh", "none"):
        with pytest.raises(ValueError, match=f"fading gain 5.0 applies to deterministic fading only, not to '{kind}'"):
            FadingModel(kind, 5.0)
    with pytest.raises(ValueError):
        sample_fading(FadingModel.no_fading(), 0, np.random.default_rng(0))


def test_channel_noise_is_a_stable_law_or_none():
    # a bare (alpha, tau) pair once constructed, and failed only at the first noisy round
    for noise in ((1.5, 0.1), 0.1, "cauchy"):
        with pytest.raises(ValueError, match="^noise must be a StableParams or None"):
            ChannelConfig(FadingModel.no_fading(), noise)
    assert ChannelConfig(FadingModel.no_fading(), None) == ChannelConfig.ideal()


def test_no_fading_gains_are_ones():
    gains = sample_fading(FadingModel.no_fading(), 5, np.random.default_rng(0))
    np.testing.assert_array_equal(gains, np.ones(5))


def test_deterministic_gains():
    gains = sample_fading(FadingModel("deterministic", 0.5), 3, np.random.default_rng(0))
    np.testing.assert_array_equal(gains, np.full(3, 0.5))


def test_rayleigh_unit_mean_and_variance():
    rng = np.random.default_rng(1)
    gains = sample_fading(FadingModel.rayleigh_unit_mean(), 10**6, rng)
    assert np.all(gains >= 0.0)
    assert abs(gains.mean() - 1.0) < 0.01
    expected_var = (4.0 - math.pi) / math.pi
    assert abs(gains.var() - expected_var) < 0.05 * expected_var


def test_aggregate_plain_average():
    cfg = ChannelConfig.ideal()
    out = transmit([np.array([1.0, 1.0]), np.array([3.0, 3.0])], np.ones(2), cfg, np.random.default_rng(0))[0]
    np.testing.assert_array_equal(out, [2.0, 2.0])


def test_aggregate_applies_given_gains():
    cfg = ChannelConfig.ideal()
    out = transmit([np.array([2.0])], np.array([0.5]), cfg, np.random.default_rng(0))[0]
    np.testing.assert_array_equal(out, [1.0])


def test_aggregate_zero_signal_isolates_noise():
    d = 10**5
    cfg = noisy_channel()
    rng = np.random.default_rng(2)
    out, noise = transmit(np.zeros((3, d)), np.ones(3), cfg, rng)
    np.testing.assert_array_equal(out, noise)
    assert abs(np.median(out)) < 0.005
    # the additive term is exactly one SaS draw from the round's stream
    np.testing.assert_array_equal(noise, sample_sas(cfg.noise, d, np.random.default_rng(2)))


def test_aggregate_shape_errors():
    cfg = ChannelConfig.ideal()
    with pytest.raises(ValueError):
        transmit([np.array([1.0, 2.0]), np.array([1.0])], np.ones(2), cfg, np.random.default_rng(0))[0]
    with pytest.raises(ValueError):
        transmit([np.array([1.0, 2.0])], np.ones(2), cfg, np.random.default_rng(0))[0]
    # one client's vector, or a stack beyond the replica axis
    for grads in (np.ones(3), np.ones((2, 2, 2, 3))):
        with pytest.raises(ValueError, match=r"\(N, d\) or \(R, N, d\)"):
            transmit(grads, np.ones(grads.shape[:-1]), cfg, np.random.default_rng(0))


def test_rows_sharing_sources_take_their_source_draws():
    # through the engine's shared draws, row r takes the fades and noise of
    # the round-k stream of seed source[r], as a run drawing from that
    # stream alone would
    cfg = noisy_channel()
    grads = np.random.default_rng(5).normal(size=(3, 4, 6))
    source, k = np.array([1, 0, 1]), 70
    rng = _SharedDraws(_RoundWords([(s, _STREAM_CHANNEL) for s in (7, 8)]), k, source)
    gains = sample_fading(FadingModel.rayleigh_unit_mean(), 4, rng)
    out, noise = transmit(grads, gains, cfg, rng)
    for r, s in enumerate(source):
        rng_alone = channel_rng((7, 8)[s], k)
        alone = transmit(grads[r], sample_fading(FadingModel.rayleigh_unit_mean(), 4, rng_alone), cfg, rng_alone)
        assert out[r].tobytes() == alone[0].tobytes() and noise[r].tobytes() == alone[1].tobytes()
    # unfaded rows share N unit gains, which give the exact mean of each row
    unit = sample_fading(FadingModel.no_fading(), 4, rng)
    assert unit.shape == (4,)
    assert transmit(grads, unit, ChannelConfig.ideal(), rng)[0].tobytes() == grads.mean(axis=1).tobytes()
    for bad in (np.ones(3), np.ones(5), np.ones((1, 4)), np.ones((3, 5))):
        with pytest.raises(ValueError, match="gains of shape"):
            transmit(grads, bad, cfg, rng)


def test_aggregate_linearity_matches_mean():
    rng = np.random.default_rng(3)
    grads = rng.normal(size=(7, 10**4))
    out = transmit(grads, np.ones(7), ChannelConfig.ideal(), np.random.default_rng(0))[0]
    np.testing.assert_allclose(out, grads.mean(axis=0), atol=1e-12)


def test_fresh_noise_across_rounds():
    cfg = noisy_channel()
    rng = np.random.default_rng(4)
    grads = np.zeros((2, 50))
    first = transmit(grads, np.ones(2), cfg, rng)[0]
    second = transmit(grads, np.ones(2), cfg, rng)[0]
    assert not np.array_equal(first, second)


def test_unit_mean_effective_gain_over_rounds():
    rng = np.random.default_rng(5)
    n_rounds, n_clients = 10**4, 4
    total = np.zeros(n_clients)
    for _ in range(n_rounds):
        total += sample_fading(FadingModel.rayleigh_unit_mean(), n_clients, rng)
    np.testing.assert_allclose(total / n_rounds, np.ones(n_clients), atol=0.02)


def test_measure_snr_values():
    # one value per row of (R, d) inputs, the only form the round loop passes
    assert measure_snr(np.array([[1.0]]), np.array([[1.0]])).tolist() == [0.0]
    assert measure_snr(np.array([[1.0]]), np.array([[math.sqrt(1e5)]]))[0] == pytest.approx(-50.0)
    assert measure_snr(np.array([[2.0]]), np.array([[1.0]]))[0] == pytest.approx(10 * math.log10(4.0))


def test_measure_snr_sentinels():
    assert measure_snr(np.ones((1, 3)), np.zeros((1, 3))).tolist() == [math.inf]
    assert measure_snr(np.zeros((1, 3)), np.ones((1, 3))).tolist() == [-math.inf]
