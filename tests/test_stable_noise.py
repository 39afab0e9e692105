import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import cms_reference, fit_tail_exponent, gaussian_cdf, ks_distance
from otafl import (
    BoundParams,
    ChannelConfig,
    ClipMethod,
    FadingModel,
    FLConfig,
    LogisticModel,
    MlpModel,
    PartitionSpec,
    QuadraticClientData,
    QuadraticModel,
    RegimeError,
    StableParams,
    clip_survival_report,
    compute_smoothness,
    estimate_unclipped_prob,
    gaussian_unclipped_prob,
    gnc_clip,
    mac_clip,
    make_quadratic_testbed,
    make_synthetic_classification,
    method_variant,
    run_threshold_sweep,
    sample_fading,
    sample_sas,
    tail_prob_simplified,
)
from otafl import stable_noise


def test_invalid_params_rejected():
    for alpha, tau in [(0.0, 1.0), (-1.0, 1.0), (2.5, 1.0), (1.5, 0.0), (1.5, -0.1), (1.5, math.inf), (1.5, math.nan)]:
        with pytest.raises(ValueError):
            StableParams(alpha, tau)
    with pytest.raises(ValueError):
        sample_sas(StableParams(1.5, 0.1), 0, np.random.default_rng(0))
    # True is an Integral: it once reached numpy as a size
    with pytest.raises(ValueError, match="dim must be an integer, got True"):
        sample_sas(StableParams(1.5, 0.1), True, np.random.default_rng(0))


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
    # (tau/C)**alpha would overflow a float
    assert tail_prob_simplified(StableParams(2.0, 1e200), 1.0) == 1.0
    grid = [0.2, 0.5, 1.0, 5.0, 100.0]
    vals = [tail_prob_simplified(StableParams(1.5, 0.1), c) for c in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4
    with pytest.raises(ValueError):
        tail_prob_simplified(StableParams(1.5, 0.1), 0.0)


def test_unclipped_prob_huge_threshold_is_one():
    rng = np.random.default_rng(0)
    p = estimate_unclipped_prob(StableParams(1.5, 0.1), [1e6 * 0.1], 0.0, 10**5, rng)[0]
    assert p > 0.999


def test_unclipped_prob_gaussian_closed_form():
    # difference of two N(0, 2 tau^2) draws is N(0, 4 tau^2)
    rng = np.random.default_rng(1)
    p = estimate_unclipped_prob(StableParams(2.0, 0.1), [0.4], 0.0, 10**6, rng)[0]
    expected = math.erf(0.4 / (0.2 * math.sqrt(2.0)))
    assert abs(p - expected) < 0.01


def test_unclipped_prob_tail_slope():
    params = StableParams(1.5, 0.1)
    cs = np.array([0.5, 1.0, 2.0, 4.0])
    comp = []
    for i, c in enumerate(cs):
        rng = np.random.default_rng(100 + i)
        comp.append(1.0 - estimate_unclipped_prob(params, [c], 0.0, 10**6, rng)[0])
    slope = np.polyfit(np.log(cs), np.log(comp), 1)[0]
    assert abs(slope + 1.5) < 0.15


def test_unclipped_prob_regime_violation():
    with pytest.raises(RegimeError):
        estimate_unclipped_prob(StableParams(1.5, 0.1), [1.0], 1.0, 1000, np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_unclipped_prob(StableParams(1.5, 0.1), [1.0], -0.5, 1000, np.random.default_rng(0))
    # a nan bound once scored every entry as clipped
    with pytest.raises(ValueError, match="g must be a finite number, got nan"):
        estimate_unclipped_prob(StableParams(1.5, 0.1), [1.0, 2.0], math.nan, 1000, np.random.default_rng(0))
    # so was a nan threshold
    with pytest.raises(RegimeError, match="C=nan"):
        estimate_unclipped_prob(StableParams(1.5, 0.1), [math.nan, 2.0], 0.0, 1000, np.random.default_rng(0))
    # one threshold at sqrt(2)*g fails the whole vector call
    with pytest.raises(RegimeError, match="C=1.414"):
        estimate_unclipped_prob(
            StableParams(1.5, 0.1), [2.0, math.sqrt(2.0), 4.0], 1.0, 1000, np.random.default_rng(0)
        )
    for bad in (1.0, [], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="1-D"):
            estimate_unclipped_prob(StableParams(1.5, 0.1), bad, 0.0, 1000, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
        estimate_unclipped_prob(StableParams(1.5, 0.1), [1.0], 0.0, 0, np.random.default_rng(0))
    # True once gave a one-sample estimate, and 2.5 a TypeError from range
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match=f"n_samples must be an integer, got {bad}"):
            estimate_unclipped_prob(StableParams(1.5, 0.1), [1.0], 0.0, bad, np.random.default_rng(0))


def test_unclipped_prob_vector_matches_scalar_calls():
    params = StableParams(1.5, 0.1)
    cs = [0.3, 0.5, 1.0, 2.0]
    for law in ("exact", "sqrt2"):
        vec = estimate_unclipped_prob(params, cs, 0.1, 10**5, np.random.default_rng(21), law)
        single = [
            estimate_unclipped_prob(params, [c], 0.1, 10**5, np.random.default_rng(21), law)[0]
            for c in cs
        ]
        assert vec.tolist() == single
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
    pe = estimate_unclipped_prob(params, [1.0], 0.0, 4 * 10**5, np.random.default_rng(3), "exact")[0]
    ps = estimate_unclipped_prob(params, [1.0], 0.0, 4 * 10**5, np.random.default_rng(3), "sqrt2")[0]
    assert (1.0 - pe) > (1.0 - ps)
    # at alpha = 2 the two coincide in distribution
    g2 = StableParams(2.0, 0.1)
    pe2 = estimate_unclipped_prob(g2, [0.4], 0.0, 4 * 10**5, np.random.default_rng(4), "exact")[0]
    ps2 = estimate_unclipped_prob(g2, [0.4], 0.0, 4 * 10**5, np.random.default_rng(5), "sqrt2")[0]
    assert abs(pe2 - ps2) < 0.005
    with pytest.raises(ValueError):
        estimate_unclipped_prob(params, [1.0], 0.0, 100, np.random.default_rng(0), "bogus")


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


class _RowsRng:
    """Per-row draws of several generators stacked as (R, dim) arrays, as
    the shared channel draws of a batched round give them."""

    def __init__(self, seeds, source):
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self.source = source

    def _rows(self, draw):
        return np.stack([draw(rng) for rng in self.rngs])[self.source]

    def uniform(self, low, high, size):
        return self._rows(lambda rng: rng.uniform(low, high, size))

    def standard_exponential(self, size):
        return self._rows(lambda rng: rng.standard_exponential(size))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_blocked_transform_is_bit_identical_to_one_pass(alpha):
    # sample_sas transforms in _BLOCK-sample slices of a flat view, in place;
    # every variate equals the one-pass expression's on both sides of each
    # block edge and across the row edges of (R, dim) draws
    block = stable_noise._BLOCK
    params = StableParams(alpha, 0.3)
    source = np.array([0, 2, 1, 2])
    for dim in (1, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1, 3 * block + 7, 6 * block + 1):
        got = sample_sas(params, dim, np.random.default_rng(dim))
        assert got.shape == (dim,)
        np.testing.assert_array_equal(got, cms_reference(params, dim, np.random.default_rng(dim)))
    for dim in (10, 738, block // 3 + 5, block + 3):
        got = sample_sas(params, dim, _RowsRng([4, 5, 6], source))
        assert got.shape == (4, dim)
        np.testing.assert_array_equal(got, cms_reference(params, dim, _RowsRng([4, 5, 6], source)))


def test_spans_keep_the_callers_error_state():
    # every block of the transform runs under the caller's numpy error
    # state, silenced in estimate_unclipped_prob and not in a bare draw
    params, n = StableParams(0.01, 0.1), 4 * stable_noise._BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at alpha = 0.01 cos(u)**100 underflows to 0 and some draws are inf
        p = estimate_unclipped_prob(params, [1.0, 2.0], 0.0, n, np.random.default_rng(0))
        assert 0.0 < p[0] <= p[1] < 1.0
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            sample_sas(params, n, np.random.default_rng(0))


@pytest.mark.parametrize("alpha, arrays", [(1.5, 3.25), (1.0, 2.25)])
def test_one_chunk_peaks_near_three_chunk_arrays(alpha, arrays):
    # the transform writes into the uniform draw and the second draw is
    # subtracted in place: one chunk holds the first deviation plus the
    # second call's u and w (no w at alpha = 1), and two cache-sized blocks
    params, chunk = StableParams(alpha, 0.1), stable_noise._CHUNK
    estimate_unclipped_prob(params, [1.0, 2.0], 0.0, 1000, np.random.default_rng(0))
    tracemalloc.start()
    try:
        estimate_unclipped_prob(params, [1.0, 2.0], 0.0, chunk, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array_bytes = chunk * 8
    assert peak <= arrays * array_bytes, f"peak {peak} B is {peak / array_bytes:.2f} chunk arrays"


_FL = dict(n_clients=2, rounds=3, learning_rate=0.1, clip=ClipMethod.none(), channel=ChannelConfig.ideal(),
           local_epochs=1, batch_size=4, seed=0, eval_every=1, projection_radius=2.0)


class _Planned(Exception):
    pass


def _sweep_plan(method):
    # the sweep checks its whole grid before it builds a task: building one means the plan passed
    def stop(seed):
        raise _Planned

    with pytest.raises(_Planned):
        run_threshold_sweep(stop, FLConfig(**_FL), {method: [1.0]}, 1)


def _case(call, valid, counts={}, positive=(), finite=(), nonnegative=(), choices={}, number=()):
    return call, valid, counts, set(positive), set(finite), set(nonnegative), choices, set(number)


# Every public type and function that takes a count, a number or a choice:
# the call, valid arguments, counts with the least value their rule allows,
# positive, finite and non-negative fields (a field may be both positive and
# finite), choices with their valid values, and fields that are numbers but
# no bool. An entry of _NAMED is the word a field's message names it by.
_NUMBER_FIELDS = [
    _case(FLConfig, _FL,
          counts=dict(n_clients=1, rounds=1, local_epochs=1, batch_size=1, seed=0, eval_every=1),
          positive={"learning_rate", "projection_radius"}),
    _case(ClipMethod.mac, dict(threshold=1.0), positive={"threshold"}),
    _case(ClipMethod.gnc, dict(threshold=1.0), positive={"threshold"}),
    _case(ClipMethod, dict(kind="mac", threshold=1.0), choices=dict(kind=("mac", "gnc", "none"))),
    _case(lambda value: FadingModel("deterministic", value), dict(value=0.5), positive={"value"}),
    _case(lambda gain: FadingModel("none", gain), dict(gain=1.0), number={"gain"}),
    _case(lambda fading: FadingModel(fading), dict(fading="rayleigh"),
          choices=dict(fading=("rayleigh", "none", "deterministic"))),
    _case(PartitionSpec, dict(kind="dirichlet", n_clients=3, concentration=0.3, seed=0),
          counts=dict(n_clients=1, seed=0), positive={"concentration"}, choices=dict(kind=("iid", "dirichlet"))),
    _case(QuadraticModel, dict(dim=3), counts=dict(dim=1)),
    _case(LogisticModel, dict(feature_dim=3, n_classes=3), counts=dict(feature_dim=1, n_classes=2)),
    _case(MlpModel, dict(feature_dim=3, hidden_units=4, n_classes=2, activation="relu", loss_kind="cross_entropy"),
          counts=dict(feature_dim=1, hidden_units=1, n_classes=2),
          choices=dict(activation=("relu", "tanh"), loss_kind=("cross_entropy", "squared_error"))),
    _case(lambda **kw: make_synthetic_classification(rng=np.random.default_rng(0), **kw),
          dict(n_samples=10, feature_dim=3, n_classes=2, class_separation=1.0),
          counts=dict(n_samples=1, feature_dim=1, n_classes=2), nonnegative={"class_separation"}),
    _case(make_quadratic_testbed, dict(dim=2, n_clients=2, seed=0, b_scale=1.0),
          counts=dict(dim=1, n_clients=1, seed=0), finite={"b_scale"}),
    _case(BoundParams, dict(l=1.0, g=1.0, f0=5.0, f_star=0.0, eta=0.5, c=3.0, k=100, d=10, noise=StableParams(1.5, 0.1)),
          counts=dict(k=1, d=1), positive={"l", "eta"}, finite={"c", "f0", "f_star"}, nonnegative={"g"}),
    _case(gaussian_unclipped_prob, dict(tau=0.1, c=2.0, g=0.5), positive={"tau"}, nonnegative={"g"}, number={"c"}),
    _case(lambda radius: compute_smoothness([QuadraticClientData(a=np.eye(2), b=np.ones(2))], radius),
          dict(radius=1.0), positive={"radius"}),
    _case(lambda n_clients: sample_fading(FadingModel.rayleigh_unit_mean(), n_clients, np.random.default_rng(0)),
          dict(n_clients=3), counts=dict(n_clients=1)),
    _case(lambda threshold: mac_clip(np.arange(4.0), threshold), dict(threshold=1.0), positive={"threshold"}),
    _case(lambda threshold: gnc_clip(np.arange(4.0), threshold), dict(threshold=1.0), positive={"threshold"}),
    _case(lambda g, n_samples, difference_law: estimate_unclipped_prob(
              StableParams(1.5, 0.1), [2.0], g, n_samples, np.random.default_rng(0), difference_law),
          dict(g=0.5, n_samples=10, difference_law="exact"), counts=dict(n_samples=1), nonnegative={"g"},
          choices=dict(difference_law=("exact", "sqrt2"))),
    _case(lambda c_grid, **kw: clip_survival_report(alphas=(1.5,), tau=0.1, c_grid=(c_grid,), **kw),
          dict(c_grid=2.0, g=0.5, n_samples=10, seed=0, difference_law="exact"),
          counts=dict(n_samples=1, seed=0), positive={"c_grid"}, finite={"c_grid"}, nonnegative={"g"},
          choices=dict(difference_law=("exact", "sqrt2"))),
    _case(lambda threshold: tail_prob_simplified(StableParams(1.5, 0.1), threshold),
          dict(threshold=1.0), positive={"threshold"}),
    _case(StableParams, dict(alpha=1.5, tau=0.1), positive={"tau"}, finite={"alpha", "tau"}),
    _case(lambda method: method_variant(FLConfig(**_FL), method, 1.0, 1.0),
          dict(method="mac"), choices=dict(method=("ideal", "mac", "gnc", "none"))),
    _case(_sweep_plan, dict(method="mac"), choices=dict(method=("mac", "gnc"))),
]
_NAMED = {"l": "L", "value": "deterministic gain", "gain": "fading gain"}


def test_number_fields_fuzz_bad_values():
    # Seeded fuzz: each count, number or choice field of the table in turn
    # takes a bad value, the others valid. A bool is no count, number or
    # choice (True once ran as 1), a fraction is no count (a seed of 2.5 once
    # ran seed 2's streams), nan, +-inf, zero, a negative or None is no
    # positive number, nan or +-inf is no finite number, a negative is not
    # >= 0, and a misspelling or None is no choice. Each must raise
    # ValueError whose message starts with the field's name; a valid value,
    # numpy's scalars included, must still construct.
    fuzz = np.random.default_rng(2525)
    for _ in range(3):
        for call, valid, counts, positives, finites, nonnegatives, choices, numbers in _NUMBER_FIELDS:
            call(**valid)
            for name in [*counts, *sorted(positives | finites | nonnegatives | numbers), *choices]:
                goods, bads = [], []
                if name in counts:
                    low = counts[name]
                    goods = [np.int64(valid[name])]
                    bads = [2.5, low + float(fuzz.uniform(0.1, 0.9)), low - int(fuzz.integers(1, 1000))]
                if name in positives:
                    unset = [None] if name == "projection_radius" else []  # None leaves the projection off
                    goods = [np.float64(valid[name]), float(10.0 ** fuzz.uniform(-3.0, 0.0)), *unset]
                    bads = [math.nan, math.inf, -math.inf, 0, 0.0, -1, -float(10.0 ** fuzz.uniform(-3.0, 3.0)),
                            *([] if unset else [None])]
                if name in finites | nonnegatives | numbers:
                    goods = goods or [np.float64(valid[name])]
                if name in finites | nonnegatives:
                    bads += [math.nan, math.inf, -math.inf]
                if name in nonnegatives:
                    goods += [0.0]
                    bads += [-float(10.0 ** fuzz.uniform(-3.0, 3.0))]
                if name in choices:
                    goods = [valid[name]]
                    for choice in choices[name]:  # one letter dropped
                        i = int(fuzz.integers(len(choice)))
                        bads.append(choice[:i] + choice[i + 1:])
                    bads.append(None)
                for good in goods:
                    call(**{**valid, name: good})
                for bad in bads + [True, False, np.True_]:
                    with pytest.raises(ValueError) as exc:
                        call(**{**valid, name: bad})
                    word = _NAMED.get(name, name)
                    assert str(exc.value).startswith(f"{word} must be"), (call, name, bad, str(exc.value))
