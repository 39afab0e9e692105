import itertools

import numpy as np
import pytest

from conftest import mac_reference
from otafl import (
    ClipMethod,
    apply_blockwise,
    clip_statistics,
    gnc_clip,
    mac_clip,
    vector_median,
)
from otafl.stable_noise import StableParams, sample_sas


def heavy_tailed_vectors(n_vectors, max_dim, seed):
    """Random vectors with SaS-mixture entries at assorted scales."""
    rng = np.random.default_rng(seed)
    for _ in range(n_vectors):
        d = int(rng.integers(1, max_dim + 1))
        alpha = float(rng.uniform(1.05, 2.0))
        tau = float(10.0 ** rng.uniform(-2, 2))
        v = sample_sas(StableParams(alpha, tau), d, rng)
        if rng.random() < 0.5:
            v = v + rng.normal(0, 10.0)
        yield v, float(10.0 ** rng.uniform(-2, 2))


def test_vector_median_examples():
    assert vector_median(np.array([3.0, 1.0, 2.0])) == 2.0
    assert vector_median(np.array([1.0, 2.0, 3.0, 4.0])) == 2.5
    assert vector_median(np.array([5.0, 5.0, 5.0, 1e9])) == 5.0
    v = np.random.default_rng(0).normal(size=101)
    assert vector_median(v) == vector_median(v[::-1])
    assert vector_median(v) in v  # odd length: an actual entry
    with pytest.raises(ValueError):
        vector_median(np.array([]))


def test_vector_median_is_np_median_bit_for_bit_per_row():
    # the engine clips a (replicas, d) stack row by row, and diverging runs
    # feed it non-finite rows: a row holding nan has a nan median, and every
    # median has np.median's bytes, signed zeros included
    rng = np.random.default_rng(21)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324])
    for _ in range(1000):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 40)))
        v = rng.standard_cauchy(shape) * rng.choice([0.0, -0.0, 1.0, 1e300], size=shape)
        v = np.where(rng.random(shape) < 0.05, rng.choice(specials, size=shape), v)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = vector_median(v)
            assert rows.tobytes() == np.median(v, axis=-1).tobytes()
            for row, m in zip(v, rows):
                assert np.float64(vector_median(row)).tobytes() == m.tobytes()
        assert np.array_equal(np.isnan(rows), np.isnan(v).any(axis=-1))


def test_mac_clip_examples():
    np.testing.assert_array_equal(mac_clip(np.array([1.0, 2.0, 3.0]), 10.0), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(mac_clip(np.array([0.0, 0.0, 100.0]), 1.0), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(
        mac_clip(np.array([10.0, 11.0, 12.0, 1e6]), 2.0), [10.0, 11.0, 12.0, 13.5]
    )
    with pytest.raises(ValueError):
        mac_clip(np.array([1.0]), 0.0)


def test_mac_matches_scalar_reference_bitwise():
    for v, c in heavy_tailed_vectors(500, 64, seed=1):
        np.testing.assert_array_equal(mac_clip(v, c), mac_reference(v, c))


def test_mac_three_step_pipeline_agrees():
    # centralize -> clip -> recover differs from the closed form only by the
    # float round trip of subtracting and re-adding the median
    for v, c in heavy_tailed_vectors(200, 64, seed=2):
        m = vector_median(v)
        centered = v - m
        pipeline = np.sign(centered) * np.minimum(np.abs(centered), c) + m
        np.testing.assert_allclose(mac_clip(v, c), pipeline, rtol=1e-12, atol=1e-12)


def test_mac_identity_when_threshold_covers_deviations():
    rng = np.random.default_rng(3)
    v = rng.normal(size=33)
    c = float(np.max(np.abs(v - np.median(v))))
    np.testing.assert_array_equal(mac_clip(v, c), v)


def test_mac_shift_equivariance():
    for v, c in heavy_tailed_vectors(200, 32, seed=4):
        shift = 3.7
        left = mac_clip(v + shift, c)
        right = mac_clip(v, c) + shift
        scale = max(1.0, float(np.max(np.abs(right))))
        np.testing.assert_allclose(left, right, atol=1e-9 * scale)


def test_mac_odd_symmetry_bitwise():
    for v, c in heavy_tailed_vectors(200, 32, seed=5):
        np.testing.assert_array_equal(mac_clip(-v, c), -mac_clip(v, c))


def test_mac_boundedness_and_order_preservation():
    for v, c in heavy_tailed_vectors(300, 32, seed=6):
        out = mac_clip(v, c)
        m = vector_median(v)
        # recovery may round the boundary up by one ulp of the median
        slack = 4.0 * np.finfo(float).eps * max(abs(m), c, 1.0)
        assert np.max(np.abs(out - m)) <= c + slack
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(out[order]) >= 0.0)


def test_mac_weak_idempotence():
    # a second pass never pushes an entry beyond threshold range of the
    # first output's median
    for v, c in heavy_tailed_vectors(100, 32, seed=7):
        once = mac_clip(v, c)
        twice = mac_clip(once, c)
        m1 = vector_median(once)
        slack = 4.0 * np.finfo(float).eps * max(abs(m1), c, 1.0)
        assert np.max(np.abs(twice - m1)) <= c + slack


def test_gnc_examples():
    np.testing.assert_array_equal(gnc_clip(np.array([3.0, 4.0]), 10.0), [3.0, 4.0])
    np.testing.assert_array_equal(gnc_clip(np.array([3.0, 4.0]), 5.0), [3.0, 4.0])
    np.testing.assert_allclose(gnc_clip(np.array([6.0, 8.0]), 5.0), [3.0, 4.0], rtol=1e-15)
    np.testing.assert_array_equal(gnc_clip(np.zeros(4), 1.0), np.zeros(4))
    with pytest.raises(ValueError):
        gnc_clip(np.array([1.0]), -1.0)


def test_gnc_norm_property():
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 40)) * 10.0 ** rng.uniform(-3, 3)
        c = float(10.0 ** rng.uniform(-3, 3))
        out = gnc_clip(v, c)
        assert np.linalg.norm(out) <= min(np.linalg.norm(v), c) * (1.0 + 1e-12)
        # direction preserved: a nonnegative multiple of the input
        if np.linalg.norm(v) > 0:
            ratio = out[np.abs(v) > 0] / v[np.abs(v) > 0]
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_apply_blockwise():
    g = np.array([0.0, 0.0, 100.0, 1.0, 2.0, 3.0])
    out, fractions = apply_blockwise(g, [3, 3], ClipMethod.mac(1.0))
    np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
    # one of three entries clipped, as 1 - clip_statistics' unclipped share
    assert fractions.tolist() == [0.33333333333333326, 0.0]

    same, fractions = apply_blockwise(g, [3, 3], ClipMethod.none())
    np.testing.assert_array_equal(same, g)
    assert same is not g
    assert fractions.tolist() == [0.0, 0.0]

    out, fractions = apply_blockwise(np.array([6.0, 8.0]), [2], ClipMethod.gnc(5.0))
    np.testing.assert_allclose(out, [3.0, 4.0], rtol=1e-15)
    assert fractions.tolist() == [1.0]

    # a stack of vectors is clipped and counted row by row, as each alone
    rows = np.stack([g, g[::-1]])
    for method, layout in itertools.product((ClipMethod.mac(1.0), ClipMethod.gnc(5.0)), ([3, 3], [2, 1, 3])):
        out, fractions = apply_blockwise(rows, layout, method)
        for r in range(2):
            alone, alone_fractions = apply_blockwise(rows[r], layout, method)
            assert out[r].tobytes() == alone.tobytes()
            assert fractions[r].tobytes() == alone_fractions.tobytes()


def test_clip_method_validation():
    with pytest.raises(ValueError):
        ClipMethod("mac", None)
    with pytest.raises(ValueError):
        ClipMethod.gnc(0.0)
    with pytest.raises(ValueError):
        ClipMethod("none", 1.0)
    with pytest.raises(ValueError):
        ClipMethod("median", 1.0)


def test_clip_statistics_examples():
    assert clip_statistics(np.array([0.0, 0.0, 100.0]), 1.0) == (1, pytest.approx(2 / 3))
    assert clip_statistics(np.array([1.0, 2.0, 3.0]), 10.0) == (0, 1.0)
    # a deviation exactly at the threshold is kept
    assert clip_statistics(np.array([0.0, 0.0, 1.0]), 1.0) == (0, 1.0)
    with pytest.raises(ValueError, match="empty vector"):
        clip_statistics(np.array([]), 1.0)


def test_clip_statistics_on_pure_noise():
    # With ~1e6 symmetric entries the sample median is essentially zero, so
    # the unclipped fraction matches the single-draw law P(|xi| <= C). The
    # two-independent-draw window model of estimate_unclipped_prob predicts
    # an exceedance about 2x larger (scales 2**(1/alpha)*tau vs tau).
    rng = np.random.default_rng(9)
    noise = sample_sas(StableParams(1.5, 0.1), 10**6, rng)
    _, frac = clip_statistics(noise, 1.0)
    single_draw = float(np.mean(np.abs(sample_sas(StableParams(1.5, 0.1), 10**6, np.random.default_rng(10))) <= 1.0))
    assert abs(frac - single_draw) < 0.005
    from otafl import estimate_unclipped_prob

    pair_draw = estimate_unclipped_prob(StableParams(1.5, 0.1), [1.0], 0.0, 10**6, np.random.default_rng(11))[0]
    assert (1.0 - pair_draw) == pytest.approx(2.0 * (1.0 - frac), rel=0.25)


def test_apply_blockwise_rejects_a_layout_of_the_wrong_length():
    # checked before the none method's early return, so every method rejects it
    for method in (ClipMethod.mac(1.0), ClipMethod.gnc(1.0), ClipMethod.none()):
        with pytest.raises(ValueError, match=r"^block layout \[3, 3\] does not sum to vector length 10$"):
            apply_blockwise(np.arange(10.0), [3, 3], method)
