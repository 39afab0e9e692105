import math
import time

import numpy as np
import pytest

from conftest import fit_tail_exponent, gaussian_cdf, ks_distance
from otafl import (
    RegimeError,
    StableParams,
    estimate_unclipped_prob,
    sample_sas,
    tail_prob_simplified,
)


def test_invalid_params_rejected():
    for alpha, tau in [(0.0, 1.0), (-1.0, 1.0), (2.5, 1.0), (1.5, 0.0), (1.5, -0.1), (1.5, math.inf), (1.5, math.nan)]:
        with pytest.raises(ValueError):
            StableParams(alpha, tau)
    with pytest.raises(ValueError):
        sample_sas(StableParams(1.5, 0.1), 0, np.random.default_rng(0))


def test_gaussian_case_variance():
    # SaS(2, tau) is N(0, 2 tau^2)
    rng = np.random.default_rng(42)
    s = sample_sas(StableParams(2.0, 1.0), 10**6, rng)
    assert abs(s.var() - 2.0) < 0.1
    assert abs(s.mean()) < 0.01


def test_cauchy_case_quartiles():
    rng = np.random.default_rng(42)
    s = sample_sas(StableParams(1.0, 0.5), 10**6, rng)
    assert abs(np.median(s)) < 0.01
    # upper quartile of a Cauchy with scale tau is tau * tan(pi/4) = tau
    assert abs(np.quantile(s, 0.75) - 0.5) < 0.025


def test_gaussian_case_ks_distance():
    rng = np.random.default_rng(0)
    tau = 0.7
    s = sample_sas(StableParams(2.0, tau), 10**5, rng)
    assert ks_distance(s, lambda x: gaussian_cdf(x, math.sqrt(2.0) * tau)) < 0.005


def test_tail_exponent_recovery_and_seed_agreement():
    slopes = []
    for seed in (11, 12):
        rng = np.random.default_rng(seed)
        s = sample_sas(StableParams(1.5, 0.1), 10**6, rng)
        slopes.append(fit_tail_exponent(s, start_quantile=0.99, decades=1.0))
    for slope in slopes:
        assert abs(slope + 1.5) < 0.15
    assert abs(slopes[0] - slopes[1]) < 0.1


def test_determinism_bitwise():
    p = StableParams(1.5, 0.1)
    a = sample_sas(p, 1000, np.random.default_rng(123))
    b = sample_sas(p, 1000, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_sign_symmetry_across_alphas():
    for alpha in (1.1, 1.5, 1.9, 2.0):
        rng = np.random.default_rng(7)
        s = sample_sas(StableParams(alpha, 1.0), 10**6, rng)
        assert abs(np.mean(np.sign(s))) < 0.01


def test_scale_equivariance():
    # a power-of-two factor commutes with rounding, so the match is bitwise
    base = sample_sas(StableParams(1.3, 0.25), 10**4, np.random.default_rng(5))
    doubled = sample_sas(StableParams(1.3, 0.5), 10**4, np.random.default_rng(5))
    assert np.array_equal(doubled, 2.0 * base)
    tripled = sample_sas(StableParams(1.3, 0.75), 10**4, np.random.default_rng(5))
    np.testing.assert_allclose(tripled, 3.0 * base, rtol=1e-15)


def test_tail_prob_simplified_values():
    assert tail_prob_simplified(StableParams(1.5, 0.1), 0.1) == 1.0
    assert abs(tail_prob_simplified(StableParams(1.5, 0.1), 1.0) - 0.1**1.5) < 1e-15
    assert tail_prob_simplified(StableParams(2.0, 1.0), 10.0) == pytest.approx(0.01)
    # clamped below the scale, monotone decreasing above it
    assert tail_prob_simplified(StableParams(1.5, 0.1), 0.01) == 1.0
    grid = [0.2, 0.5, 1.0, 5.0, 100.0]
    vals = [tail_prob_simplified(StableParams(1.5, 0.1), c) for c in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4
    with pytest.raises(ValueError):
        tail_prob_simplified(StableParams(1.5, 0.1), 0.0)


def test_unclipped_prob_huge_threshold_is_one():
    rng = np.random.default_rng(0)
    p = estimate_unclipped_prob(StableParams(1.5, 0.1), 1e6 * 0.1, 0.0, 10**5, rng)
    assert p > 0.999


def test_unclipped_prob_gaussian_closed_form():
    # difference of two N(0, 2 tau^2) draws is N(0, 4 tau^2)
    rng = np.random.default_rng(1)
    p = estimate_unclipped_prob(StableParams(2.0, 0.1), 0.4, 0.0, 10**6, rng)
    expected = math.erf(0.4 / (0.2 * math.sqrt(2.0)))
    assert abs(p - expected) < 0.01


def test_unclipped_prob_tail_slope():
    params = StableParams(1.5, 0.1)
    cs = np.array([0.5, 1.0, 2.0, 4.0])
    comp = []
    for i, c in enumerate(cs):
        rng = np.random.default_rng(100 + i)
        comp.append(1.0 - estimate_unclipped_prob(params, c, 0.0, 10**6, rng))
    slope = np.polyfit(np.log(cs), np.log(comp), 1)[0]
    assert abs(slope + 1.5) < 0.15


def test_unclipped_prob_regime_violation():
    with pytest.raises(RegimeError):
        estimate_unclipped_prob(StableParams(1.5, 0.1), 1.0, 1.0, 1000, np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_unclipped_prob(StableParams(1.5, 0.1), 1.0, -0.5, 1000, np.random.default_rng(0))
    # a nan bound once scored every entry as clipped
    with pytest.raises(ValueError, match="g must be >= 0, got nan"):
        estimate_unclipped_prob(StableParams(1.5, 0.1), [1.0, 2.0], math.nan, 1000, np.random.default_rng(0))
    # one threshold at sqrt(2)*g fails the whole vector call
    with pytest.raises(RegimeError, match="C=1.414"):
        estimate_unclipped_prob(
            StableParams(1.5, 0.1), [2.0, math.sqrt(2.0), 4.0], 1.0, 1000, np.random.default_rng(0)
        )
    for bad in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="1-D"):
            estimate_unclipped_prob(StableParams(1.5, 0.1), bad, 0.0, 1000, np.random.default_rng(0))


def test_unclipped_prob_vector_matches_scalar_calls():
    params = StableParams(1.5, 0.1)
    cs = [0.3, 0.5, 1.0, 2.0]
    for law in ("exact", "sqrt2"):
        vec = estimate_unclipped_prob(params, cs, 0.1, 10**5, np.random.default_rng(21), law)
        scalar = [
            estimate_unclipped_prob(params, c, 0.1, 10**5, np.random.default_rng(21), law)
            for c in cs
        ]
        assert all(isinstance(p, float) for p in scalar)
        assert vec.tolist() == scalar
        assert np.all(np.diff(vec) >= 0.0)


def _reference_unclipped_prob(params, c, g, chunk_sizes, rng):
    """Draw the chunks estimate_unclipped_prob draws, keep them all, take the mean."""
    deviation = np.concatenate(
        [sample_sas(params, k, rng) - sample_sas(params, k, rng) for k in chunk_sizes]
    )
    return float(np.mean(np.abs(deviation) <= c - math.sqrt(2.0) * g))


def test_unclipped_prob_streams_chunks_like_reference():
    params = StableParams(1.5, 0.1)
    cs = [0.5, 1.0, 2.0]
    got = estimate_unclipped_prob(params, cs, 0.1, 2**20 + 7, np.random.default_rng(8))
    want = [
        _reference_unclipped_prob(params, c, 0.1, (2**20, 7), np.random.default_rng(8))
        for c in cs
    ]
    assert got.tolist() == want


def test_difference_laws():
    params = StableParams(1.5, 0.1)
    # the exact two-draw difference has scale 2**(1/alpha)*tau, heavier than
    # the sqrt(2)*tau single-draw variant, so more mass escapes the window
    pe = estimate_unclipped_prob(params, 1.0, 0.0, 4 * 10**5, np.random.default_rng(3), "exact")
    ps = estimate_unclipped_prob(params, 1.0, 0.0, 4 * 10**5, np.random.default_rng(3), "sqrt2")
    assert (1.0 - pe) > (1.0 - ps)
    # at alpha = 2 the two coincide in distribution
    g2 = StableParams(2.0, 0.1)
    pe2 = estimate_unclipped_prob(g2, 0.4, 0.0, 4 * 10**5, np.random.default_rng(4), "exact")
    ps2 = estimate_unclipped_prob(g2, 0.4, 0.0, 4 * 10**5, np.random.default_rng(5), "sqrt2")
    assert abs(pe2 - ps2) < 0.005
    with pytest.raises(ValueError):
        estimate_unclipped_prob(params, 1.0, 0.0, 100, np.random.default_rng(0), "bogus")


def test_fit_tail_exponent_validation():
    with pytest.raises(ValueError):
        fit_tail_exponent(np.ones(10))


def test_sample_sas_fuzz_shape_finite_and_fast():
    # Seeded fuzz over the parameter space, alpha in [0.1, 2] with the two
    # short-circuit-adjacent values 1 and 2 always included. Finite is a
    # property of the draws only while the law's mass beyond the float
    # maximum is negligible: at alpha = 0.1 it is about 1e-31, but at
    # alpha = 0.01 about 1e-3 of the draws are inf, as the law says.
    fuzz = np.random.default_rng(20260)
    alphas = [1.0, 2.0, 0.1] + fuzz.uniform(0.1, 2.0, size=297).tolist()
    t0 = time.perf_counter()
    for alpha in alphas:
        tau = float(10.0 ** fuzz.uniform(-3.0, 3.0))
        dim = int(fuzz.integers(1, 300))
        seed = int(fuzz.integers(2**32))
        s = sample_sas(StableParams(alpha, tau), dim, np.random.default_rng(seed))
        assert s.shape == (dim,), (alpha, tau, dim, seed)
        assert np.all(np.isfinite(s)), (alpha, tau, dim, seed)
    assert time.perf_counter() - t0 < 0.1
