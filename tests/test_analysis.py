import inspect
import math
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest

from otafl import (
    BoundParams,
    ChannelConfig,
    ClipMethod,
    FadingModel,
    FLConfig,
    QuadraticClientData,
    RegimeError,
    clip_survival_report,
    convergence_bound,
    decompose_clip_event,
    gaussian_unclipped_prob,
    mac_clip,
    make_quadratic_testbed,
    run_replicas,
    verify_convergence_bound,
)
from otafl import analysis, fl_core
from otafl.analysis import BoundCheckRow
from otafl.models import global_loss
from otafl.stable_noise import StableParams, sample_sas


def params(**overrides):
    base = dict(l=1.0, g=1.0, f0=5.0, f_star=0.0, eta=0.5, c=3.0, k=100, d=10, noise=StableParams(1.5, 0.1))
    base.update(overrides)
    return BoundParams(**base)


def test_bound_collapses_to_descent_term():
    # noiseless limit with the window closed: the residual term vanishes and
    # only the descent term survives
    p = params(noise=None, g=1.0, c=math.sqrt(2.0))
    assert p.simplified_p_unclipped() == 1.0
    expected = 2.0 * 5.0 / (100 * (2.0 - 0.5) * 0.5)
    assert convergence_bound(p) == pytest.approx(expected, rel=1e-12)
    assert convergence_bound(params(noise=None, c=None)) == pytest.approx(expected)


def test_bound_at_optimum_is_residual_only():
    p = params(f0=0.0)
    pc = p.simplified_p_unclipped()
    window = math.sqrt(2.0) / 2.0 * 3.0 - 1.0
    residual = 0.5 * 0.5**2 * 10 * 1.0 * (pc * window**2 + (1 - pc) * 9.0)
    assert convergence_bound(p) == pytest.approx(residual, rel=1e-12)


def test_bound_learning_rate_boundary_errors():
    with pytest.raises(RegimeError, match="boundary"):
        params(l=2.0, eta=1.0)
    with pytest.raises(RegimeError):
        params(f0=1.0, eta=1.0, l=2.0, k=10, c=None, noise=None)
    # a tiny positive eta overflows the descent term: named, not inf
    with pytest.raises(RegimeError, match="not finite at eta = 1e-320"):
        convergence_bound(params(f0=1.0, eta=1e-320, l=2.0, k=10, c=None, noise=None))
    with pytest.raises(RegimeError, match="not finite at eta = 1e-320"):
        convergence_bound(params(eta=1e-320))


def test_bound_regime_validation():
    with pytest.raises(RegimeError, match="sqrt"):
        params(c=1.0, g=1.0)
    # boundary C = sqrt(2)*G is allowed: the window term is exactly zero
    p = params(c=math.sqrt(2.0), g=1.0)
    assert convergence_bound(p) > 0.0
    with pytest.raises(ValueError):
        params(f0=-1.0, f_star=0.0)
    for bad, message in [
        (dict(l=0.0), "L must be positive"),
        (dict(g=-1.0), "g must be >= 0"),
        (dict(k=0), "k must be >= 1, got 0"),
        (dict(d=0), "d must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            params(**bad)
    # a nan constant once gave a nan bound
    for name in ("g", "c", "f0", "f_star"):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got nan"):
            params(**{name: math.nan})
    # the ideal channel's bound, its descent term alone, once returned a
    # negative bound for f0 < f_star or K < 0, a value for L < 0, and
    # divided by zero at K = 0
    for bad, message in [
        (dict(f0=-1.0), "^f0=-1.0 below the lower bound"),
        (dict(k=0), "^k must be >= 1, got 0"),
        (dict(k=-10), "^k must be >= 1, got -10"),
        (dict(l=-1.0), "^L must be positive, got -1.0"),
    ]:
        with pytest.raises(ValueError, match=message):
            params(c=None, noise=None, **bad)
    # an unclipped heavy-tailed channel has no bound
    with pytest.raises(RegimeError, match="unclipped channel with noise"):
        params(c=None, noise=StableParams(1.5, 0.1))


def test_bound_noise_is_a_stable_law_or_none():
    # a bare (alpha, tau) pair once constructed, and convergence_bound raised AttributeError
    for noise in ((1.5, 0.1), 0.1):
        with pytest.raises(ValueError, match="^noise must be a StableParams or None"):
            params(noise=noise)


def test_bound_monotonicity():
    base = params()
    ks = [10, 100, 1000]
    vals = [convergence_bound(params(k=k)) for k in ks]
    assert vals[0] > vals[1] > vals[2]
    assert convergence_bound(params(d=20)) > convergence_bound(base)
    assert convergence_bound(params(l=1.5)) > convergence_bound(base)
    # a wider noise law lowers the survival probability, which never helps
    wide = params(noise=StableParams(1.5, 0.5))
    assert wide.simplified_p_unclipped() < base.simplified_p_unclipped()
    assert convergence_bound(wide) > convergence_bound(base)


def test_decompose_examples():
    g = np.array([0.0, 0.0, 100.0])
    dec = decompose_clip_event(g, 1.0)
    np.testing.assert_array_equal(dec.selection, [1.0, 1.0, 0.0])
    assert dec.boundary[2] == 1.0
    np.testing.assert_array_equal(dec.reconstruct(g), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(dec.reconstruct(g), mac_clip(g, 1.0))

    mild = np.array([1.0, 2.0, 3.0])
    dec = decompose_clip_event(mild, 10.0)
    np.testing.assert_array_equal(dec.selection, np.ones(3))
    np.testing.assert_array_equal(dec.reconstruct(mild), mild)
    with pytest.raises(ValueError, match="threshold must be positive, got 0.0"):
        decompose_clip_event(mild, 0.0)


def test_decompose_symmetric_boundary_entries_cancel():
    # symmetric about the median with half the deviations clipped: the
    # saturated entries carry +C and -C in equal numbers
    g = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
    dec = decompose_clip_event(g, 2.0)
    saturated = dec.boundary[dec.selection == 0.0]
    assert saturated.size == 2
    assert saturated.sum() == 0.0
    assert set(np.abs(saturated)) == {2.0}


def test_decompose_reconstruction_bit_exact_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = int(rng.integers(1, 64))
        v = sample_sas(StableParams(float(rng.uniform(1.1, 2.0)), 1.0), d, rng)
        v *= 10.0 ** rng.uniform(-2, 2)
        c = float(10.0 ** rng.uniform(-2, 2))
        dec = decompose_clip_event(v, c)
        np.testing.assert_array_equal(dec.reconstruct(v), mac_clip(v, c))
        clipped_entries = dec.boundary[dec.selection == 0.0]
        assert np.all(np.abs(clipped_entries) == c)


def test_decompose_residual():
    g = np.array([0.0, 0.0, 100.0])
    noise = np.array([0.5, -0.5, 99.0])
    dec = decompose_clip_event(g, 1.0)
    np.testing.assert_array_equal(dec.residual(noise), [0.5, -0.5, 1.0])


def test_gaussian_unclipped_prob_closed_form():
    assert gaussian_unclipped_prob(0.1, 0.4, 0.0) == pytest.approx(math.erf(math.sqrt(2.0)))
    with pytest.raises(RegimeError):
        gaussian_unclipped_prob(0.1, 0.5, 1.0)
    # a negative g once returned 1.0; a bad tau is in the number-field fuzz
    with pytest.raises(ValueError, match="^g must be >= 0, got -1.0"):
        gaussian_unclipped_prob(0.1, 3.0, -1.0)
    with pytest.raises(ValueError, match="^g must be a finite number, got nan"):
        gaussian_unclipped_prob(0.1, 3.0, math.nan)


@pytest.mark.parametrize("c", [math.nan, math.inf, "x"])
def test_gaussian_unclipped_prob_rejects_a_nonfinite_c(c):
    # nan was once reported by the window rule, inf returned 1.0 and "x"
    # raised a TypeError from the window's comparison
    with pytest.raises(ValueError, match=f"^c must be a finite number, got {c!r}$"):
        gaussian_unclipped_prob(0.1, c, 0.0)


@pytest.mark.parametrize("b_scale", [math.nan, math.inf, -math.inf])
def test_testbed_rejects_a_nonfinite_b_scale(b_scale):
    # nan once gave G = nan and f_star = nan, inf gave G = inf
    with pytest.raises(ValueError, match=f"^b_scale must be a finite number, got {b_scale}"):
        make_quadratic_testbed(dim=2, n_clients=2, b_scale=b_scale)


def test_testbed_rejects_a_b_scale_that_overflows_its_constants():
    # 1e300 once returned G = inf and f_star = nan, with four overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^b_scale must keep G and f_star finite, got 1e[+]300"):
            make_quadratic_testbed(dim=2, n_clients=2, b_scale=1e300)
        assert math.isfinite(make_quadratic_testbed(dim=2, n_clients=2, b_scale=1e100).info.g)


def test_survival_report_flags_and_slope():
    report = clip_survival_report(
        [1.5], 0.1, [0.1, 0.5, 1.0, 2.0, 4.0], 0.0, 10**5, seed=0
    )
    rows = report.rows_for(1.5)
    # C = tau sits far outside the asymptotic regime
    assert rows[0].note == "outside_asymptotic_regime"
    assert rows[0].empirical_clip_prob > 0.3
    assert all(r.note == "" for r in rows[2:])
    assert report.slopes[1.5] == pytest.approx(-1.5, abs=0.3)


def test_survival_report_clip_prob_non_increasing_in_c():
    # thresholds 1% apart: independent draws per threshold would cross
    c_grid = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05]
    report = clip_survival_report([1.1, 1.5, 1.9], 0.1, c_grid, 0.0, 10**4, seed=0)
    for alpha in (1.1, 1.5, 1.9):
        probs = [r.empirical_clip_prob for r in report.rows_for(alpha)]
        assert [r.threshold for r in report.rows_for(alpha)] == c_grid
        assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_survival_report_regime_violation_rows():
    report = clip_survival_report([1.5], 0.1, [0.5, 2.0], 1.0, 10**4, seed=0)
    rows = report.rows_for(1.5)
    assert rows[0].note == "regime_violation"
    assert math.isnan(rows[0].empirical_clip_prob)
    assert rows[1].note == "" and not math.isnan(rows[1].empirical_clip_prob)


def test_survival_report_gaussian_oracle_column():
    report = clip_survival_report([2.0], 0.1, [0.3, 0.5], 0.0, 10**5, seed=0)
    for row in report.rows_for(2.0):
        assert row.gaussian_oracle_err is not None
        assert row.gaussian_oracle_err < 0.01
    report = clip_survival_report([1.5], 0.1, [0.5], 0.0, 10**4, seed=0)
    assert report.rows_for(1.5)[0].gaussian_oracle_err is None


def test_survival_report_defaults_are_the_criterion_3_check():
    # otafl lemma1 with no flags is clip_survival_report(); its provenance
    # line was once built in the CLI from the CLI's own copy of these values
    defaults = {
        name: p.default for name, p in inspect.signature(clip_survival_report).parameters.items()
    }
    assert defaults == {
        "alphas": (1.1, 1.5, 1.9), "tau": 0.1, "c_grid": tuple(float(c) for c in np.logspace(0, 1, 6)),
        "g": 0.0, "n_samples": 10**6, "seed": 0,
    }
    assert type(defaults["g"]) is float  # the header reads g=0.0
    report = clip_survival_report(n_samples=100)
    assert report.config_summary == (
        "alphas=1.1,1.5,1.9 tau=0.1 c_grid=1.0,1.5848931924611136,2.51188643150958,3.981071705534973,"
        "6.309573444801933,10.0 g=0.0 samples=100 seed=0"
    )
    assert list(report.slopes) == [1.1, 1.5, 1.9]


def test_quadratic_testbed_constants():
    tb = make_quadratic_testbed(dim=6, n_clients=3, seed=0)
    assert np.linalg.norm(tb.w0) == pytest.approx(3.0)
    a_mean = np.mean([d.a for d in tb.client_datas], axis=0)
    assert tb.info.l == pytest.approx(np.linalg.eigvalsh(a_mean)[-1])
    assert tb.info.f_star == 0.0
    top = max(np.linalg.eigvalsh(d.a)[-1] for d in tb.client_datas)
    assert tb.info.g == pytest.approx(top * 3.0)
    eigs = np.concatenate([np.linalg.eigvalsh(d.a) for d in tb.client_datas])
    assert 0.5 - 1e-12 <= eigs.min() and eigs.max() <= 1.5 + 1e-12


def test_verify_bound_small_run():
    report = verify_convergence_bound(
        dim=4, n_clients=3, k_grid=(5, 20), n_seeds=3, seed=1
    )
    assert [r.rounds for r in report.rows] == [5, 20]
    for row in report.rows:
        assert math.isfinite(row.empirical_avg)
        assert row.margin_ratio == pytest.approx(row.empirical_avg / row.bound_rhs)
    assert report.rows[0].empirical_avg > report.rows[1].empirical_avg
    assert 0.0 < report.p_unclipped_used <= 1.0
    assert 0.0 < report.p_unclipped_empirical <= 1.0
    assert "eta=" in report.config_summary


def test_verify_bound_ideal_matches_classical():
    report = verify_convergence_bound(
        dim=4, n_clients=3, k_grid=(10, 100), n_seeds=1, seed=2, ideal=True
    )
    assert report.ideal
    assert report.p_unclipped_used == 1.0
    for row in report.rows:
        assert row.margin_ratio <= 1.0


def test_verify_bound_ideal_rows_are_the_one_bound_bit_for_bit():
    # the ideal rows go through convergence_bound without a clip or a noise
    # law, which gives the classical descent bound 2(f0 - f*)/(K(2 - eta*L)eta)
    kwargs = dict(dim=3, n_clients=2, seed=5)
    report = verify_convergence_bound(k_grid=(5, 20), n_seeds=1, ideal=True, eta_grid=(0.1, 0.05), **kwargs)
    bed = make_quadratic_testbed(**kwargs)
    l, f_star = bed.info.l, bed.info.f_star
    f0 = global_loss(bed.model, bed.w0, bed.client_datas)
    for row in report.rows:
        k, eta = row.rounds, row.eta
        one = BoundParams(l=l, g=bed.info.g, f0=f0, f_star=f_star, eta=eta, c=None, k=k, d=3, noise=None)
        assert row.bound_rhs == convergence_bound(one)
        assert row.bound_rhs == 2.0 * (f0 - f_star) / (k * (2.0 - eta * l) * eta)
    assert len(report.rows) == 4


def test_verify_bound_ideal_uses_no_threshold():
    # the default c was once written into an ideal run's provenance line
    report = verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, ideal=True)
    assert report.c is None
    assert " c=None " in report.config_summary


@pytest.mark.parametrize("name, value", [("alpha", 5.0), ("tau", -3.0)])
def test_verify_bound_ideal_checks_the_noise_law(monkeypatch, name, value):
    # the ideal channel draws no noise, but the provenance line still
    # records the law; alpha=5.0 and tau=-3.0 were once written there unchecked
    _forbid_runs(monkeypatch)
    for ideal in (True, False):
        with pytest.raises(ValueError, match=rf"^{name} must "):
            verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, ideal=ideal, **{name: value})


def test_verify_bound_eta_sweep_rows():
    report = verify_convergence_bound(
        dim=3, n_clients=2, k_grid=(10, 4), n_seeds=2, seed=3, eta_grid=(0.1, 0.05)
    )
    # one row for every (K, eta) point: the rates in their given order, each over the sorted K grid
    assert [(r.rounds, r.eta) for r in report.rows] == [(4, 0.1), (10, 0.1), (4, 0.05), (10, 0.05)]
    for row in report.rows:
        assert type(row) is BoundCheckRow
        assert math.isfinite(row.empirical_avg)
    assert " eta=0.1,0.05 " in report.config_summary


def test_bound_check_runs_every_rate_in_one_call(monkeypatch):
    # the rows of two rates are those of each rate alone, run as one call
    kwargs = dict(dim=3, n_clients=2, k_grid=(2, 5), n_seeds=2)
    alone = [verify_convergence_bound(**kwargs, eta_grid=(e,)) for e in (0.05, 0.1)]
    n_rows = []
    run_replicas = fl_core.run_replicas

    def counting(cfgs, *args, **kw):
        n_rows.append(len(cfgs))
        return run_replicas(cfgs, *args, **kw)

    # one usable core keeps the rows in one call in this process, where they are counted
    monkeypatch.setattr(fl_core, "_CORES", 1)
    monkeypatch.setattr(fl_core, "run_replicas", counting)
    report = verify_convergence_bound(**kwargs, eta_grid=(0.05, 0.1))
    assert n_rows == [2 * 2]
    # repr compares the floats bit for bit
    assert repr(report.rows) == repr(alone[0].rows + alone[1].rows)


def test_bound_check_batches_its_seeds(monkeypatch):
    # every (learning rate, seed) pair is a row of one round loop: one
    # run_round call per round, not one per round, learning rate and seed
    calls = []
    run_round = fl_core.run_round

    def counting(*args, **kwargs):
        calls.append(args[1])
        return run_round(*args, **kwargs)

    monkeypatch.setattr(fl_core, "run_round", counting)
    # on one usable core, so that no row runs in a worker, where its calls would be counted
    monkeypatch.setattr(fl_core, "_CORES", 1)
    verify_convergence_bound(dim=3, n_clients=2, k_grid=(7,), n_seeds=4, eta_grid=(0.1, 0.05))
    assert calls == list(range(7))


@pytest.mark.parametrize("fork", [True, False])
def test_bound_check_rows_on_workers_equal_one_loop(monkeypatch, fork):
    # the 9 rows (3 rates x 3 seeds) of one call run as blocks on 2 workers,
    # or without os.fork as one loop in this process, where rounds are counted
    kwargs = dict(dim=3, n_clients=2, k_grid=(4, 9), n_seeds=3, seed=3, fading="rayleigh", eta_grid=(0.1, 0.05, 0.02))
    monkeypatch.setattr(fl_core, "_CORES", 1)
    want = verify_convergence_bound(**kwargs)
    calls = []
    run_round = fl_core.run_round

    def counting(*args, **kwargs):
        calls.append(args[1])
        return run_round(*args, **kwargs)

    monkeypatch.setattr(fl_core, "run_round", counting)
    monkeypatch.setattr(fl_core, "_CORES", 2)
    if not fork:
        monkeypatch.delattr(os, "fork")
    got = verify_convergence_bound(**kwargs)
    assert multiprocessing.active_children() == []
    assert calls == ([] if fork else list(range(9)))
    # repr compares the floats bit for bit
    for name in ("rows", "p_unclipped_empirical", "config_summary"):
        assert repr(getattr(got, name)) == repr(getattr(want, name))


@pytest.mark.parametrize("cores, fork", [(2, True), (3, True), (3, False)])
def test_survival_report_tail_indices_on_workers_equal_one_loop(monkeypatch, cores, fork):
    # the 3 tail indices are 3 units: on fewer workers, as many, or without
    # os.fork none, when they run in this process, where their draws are counted
    kwargs = dict(alphas=(1.1, 1.5, 2.0), tau=0.1, c_grid=(0.1, 1.0, 2.0), g=0.2, n_samples=5000, seed=4)
    calls = []
    estimate = analysis.estimate_unclipped_prob

    def counting(params, *args):
        calls.append(params.alpha)
        return estimate(params, *args)

    monkeypatch.setattr(analysis, "estimate_unclipped_prob", counting)
    monkeypatch.setattr(fl_core, "_CORES", 1)
    want = clip_survival_report(**kwargs)
    assert calls == [1.1, 1.5, 2.0]
    calls.clear()
    monkeypatch.setattr(fl_core, "_CORES", cores)
    if not fork:
        monkeypatch.delattr(os, "fork")
    got = clip_survival_report(**kwargs)
    assert multiprocessing.active_children() == []
    assert calls == ([] if fork else [1.1, 1.5, 2.0])
    assert [r.note for r in got.rows[:3]] == ["regime_violation", "", ""]
    # repr compares the floats bit for bit
    for name in ("rows", "slopes", "config_summary"):
        assert repr(getattr(got, name)) == repr(getattr(want, name))


def test_bound_check_builds_no_round_records(monkeypatch):
    # the check reads the (seeds x rounds) telemetry columns; a record per
    # seed and round would cost ~0.3 kB each
    class NoRecords:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the bound check built a RoundRecord")

    monkeypatch.setattr(fl_core, "RoundRecord", NoRecords)
    report = verify_convergence_bound(dim=3, n_clients=2, k_grid=(3, 7), n_seeds=5, seed=2, fading="rayleigh")
    assert [r.rounds for r in report.rows] == [3, 7]
    assert all(math.isfinite(r.empirical_avg) for r in report.rows)


class _RunStarted(AssertionError):
    pass


def _forbid_runs(monkeypatch):
    # Patches the engine entry point that the bound check's rows reach, in
    # this process or in a worker. A name they do not reach would let the
    # "before any run" tests pass vacuously, so the positive control below
    # checks that this one is reached.
    def run_replicas(*args, **kwargs):
        raise _RunStarted("a training run started before the regime check")

    monkeypatch.setattr(fl_core, "run_replicas", run_replicas)


def test_forbid_runs_reaches_the_engine_on_valid_input(monkeypatch):
    l = make_quadratic_testbed(dim=3, n_clients=2, seed=4).info.l
    _forbid_runs(monkeypatch)
    with pytest.raises(_RunStarted):
        verify_convergence_bound(
            dim=3, n_clients=2, k_grid=(5,), n_seeds=1, seed=4, eta_grid=(0.5 / l,)
        )


@pytest.mark.parametrize("factor", [1.0, 0.5])
def test_verify_bound_rejects_c_at_and_below_regime_before_any_run(monkeypatch, factor):
    g = make_quadratic_testbed(dim=3, n_clients=2, seed=4).info.g
    _forbid_runs(monkeypatch)
    with pytest.raises(RegimeError, match="sqrt"):
        verify_convergence_bound(
            dim=3, n_clients=2, k_grid=(5,), n_seeds=1, seed=4, c=factor * math.sqrt(2.0) * g
        )


def test_verify_bound_rejects_eta_grid_entry_before_any_run(monkeypatch):
    l = make_quadratic_testbed(dim=3, n_clients=2, seed=4).info.l
    _forbid_runs(monkeypatch)
    with pytest.raises(RegimeError, match="2/L"):
        verify_convergence_bound(
            dim=3, n_clients=2, k_grid=(5,), n_seeds=1, seed=4, eta_grid=(0.5 / l, 2.5 / l)
        )


def test_verify_bound_ideal_takes_no_threshold(monkeypatch):
    # the ideal channel is not clipped; a given c was once written into the
    # summary line unchecked
    _forbid_runs(monkeypatch)
    for c in (-1.0, 5.0):
        with pytest.raises(ValueError, match="no threshold"):
            verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, seed=4, ideal=True, c=c)


@pytest.mark.parametrize("bad", [dict(eta_grid=(0.0,)), dict(eta_grid=(0.05, 0.0))])
def test_verify_bound_ideal_rejects_zero_eta_before_any_run(monkeypatch, bad):
    # the classical bound divides by eta: this was a ZeroDivisionError
    _forbid_runs(monkeypatch)
    with pytest.raises(ValueError, match="^eta must be positive, got 0.0"):
        verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, ideal=True, **bad)


def test_verify_bound_diverged_run_is_a_regime_error():
    # at alpha = 0.01 some noise draws are +-inf, an entry's median becomes
    # inf and the projection turns it into nan; this was a RuntimeError
    with pytest.raises(RegimeError, match="diverged at seed 0"):
        verify_convergence_bound(dim=1, n_clients=1, k_grid=(20,), n_seeds=1, alpha=0.01)


def test_verify_bound_rejects_bad_eta():
    with pytest.raises(RegimeError):
        verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, eta_grid=(100.0,))


def _forbid_draws(monkeypatch):
    # the survival report's Monte Carlo draw, and the bound check's runs
    def draw(*args, **kwargs):
        raise _RunStarted("a draw started before the argument check")

    monkeypatch.setattr(analysis, "estimate_unclipped_prob", draw)
    _forbid_runs(monkeypatch)


def test_repeated_grid_entries_are_rejected_before_any_draw(monkeypatch):
    # a repeated alpha once wrote its rows twice with one slope for both, a
    # repeated threshold counted twice in the fit, a repeated eta ran twice
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="alphas must be distinct"):
        clip_survival_report([1.5, 1.5], 0.1, [1.0, 2.0], 0.0, 100)
    with pytest.raises(ValueError, match="c_grid must be distinct"):
        clip_survival_report([1.5], 0.1, [1.0, 1.0, 2.0], 0.0, 100)
    # an empty grid gave an empty report, with tau=True in its summary line
    with pytest.raises(ValueError, match="alphas must be distinct and non-empty"):
        clip_survival_report([], True, [1.0, 2.0], 0.0, 100)
    with pytest.raises(ValueError, match="c_grid must be distinct and non-empty"):
        clip_survival_report([1.5], 0.1, np.array([]), 0.0, 100)
    with pytest.raises(ValueError, match="eta_grid must be distinct and non-empty"):
        verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, seed=4, eta_grid=(0.05, 0.05))
    with pytest.raises(ValueError, match="eta_grid must be distinct and non-empty"):
        verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, seed=4, eta_grid=())
    # a repeated K was dropped silently
    with pytest.raises(ValueError, match="k_grid must be distinct"):
        verify_convergence_bound(dim=3, n_clients=2, k_grid=(20, 5, 5), n_seeds=1, seed=4)


@pytest.mark.parametrize("call, name", [
    # ran unfaded and wrote fading=Rayleigh into the provenance line
    (lambda: verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, fading="Rayleigh"), "fading"),
    # died with a bare StopIteration
    (lambda: clip_survival_report([1.5], 0.1, [1.0, 2.0], math.nan, 100), "g"),
    # was accepted
    (lambda: clip_survival_report([1.5], 0.1, [1.0], 1.0, 0), "n_samples"),
])
def test_bad_analysis_input_is_named_before_any_draw(monkeypatch, call, name):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be"):
        call()


def _misspelled(word, fuzz):
    # a dropped, doubled or swapped letter, a capital, or trailing space
    i = int(fuzz.integers(len(word) - 1))
    return [
        word[:i] + word[i + 1:],
        word[:i] + word[i] + word[i:],
        word[:i] + word[i + 1] + word[i] + word[i + 2:],
        word.capitalize(),
        word + " ",
    ][int(fuzz.integers(5))]


def test_analysis_entry_points_fuzz_bad_scalars(monkeypatch):
    # Seeded fuzz: each argument of the bound check (non-ideal) and of the
    # survival report in turn is nan, +-inf, 0 (where 0 is invalid), 1e200
    # (where a huge value is invalid), a random negative or a random
    # misspelling, True, False or numpy's True (a bool is no count, rate,
    # scale or threshold), the others valid; a grid argument carries the bad
    # value, or None or a string, as its only entry. Each must raise
    # ValueError naming the argument before any run or draw; any other
    # exception fails the test. A grid entry of None or 'x' once raised
    # TypeError, or a ValueError of float() that named no argument.
    _forbid_draws(monkeypatch)
    bound = dict(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, seed=4, alpha=1.5, tau=0.1, eta_grid=(0.05,), c=None, fading="rayleigh")
    survival = dict(alphas=[1.5], tau=0.1, c_grid=[1.0, 2.0], g=0.0, n_samples=100, seed=0)
    # both reach their draws with nothing bad in them
    for entry, kwargs in ((verify_convergence_bound, bound), (clip_survival_report, survival)):
        with pytest.raises(_RunStarted):
            entry(**kwargs)
    integers = {"dim", "n_clients", "n_seeds", "seed", "k_grid", "n_samples"}
    grids = {"k_grid", "eta_grid", "alphas", "c_grid"}
    valid_zero = {"seed", "g"}
    valid_huge = {"tau", "g", "c_grid"}  # a huge scale, bound or threshold is a regime, not an error
    named = {"alphas": "alpha", "eta_grid": "eta"}  # entries are checked as the scalar they are
    fuzz = np.random.default_rng(1515)
    for _ in range(5):
        for entry, kwargs in ((verify_convergence_bound, bound), (clip_survival_report, survival)):
            for name, good in kwargs.items():
                if isinstance(good, str):
                    bads = [_misspelled(good, fuzz) for _ in range(3)]
                else:
                    magnitude = int(fuzz.integers(1, 1000)) if name in integers else float(10.0 ** fuzz.uniform(-3.0, 3.0))
                    bads = [math.nan, math.inf, -math.inf, -magnitude] + ([] if name in valid_zero else [0])
                    bads += [] if name in valid_huge else [1e200]
                    bads += [True, False, np.True_] + ([None, "x"] if name in grids else [])
                for bad in bads:
                    with pytest.raises(ValueError) as exc:
                        entry(**{**kwargs, name: (bad,) if name in grids else bad})
                    word = named.get(name, name)
                    assert re.search(rf"\b{word}\b", str(exc.value), re.IGNORECASE), (name, bad, str(exc.value))


# ---------------------------------------------------------------------------
# scale and limit relations: each holds without reference values, and fails
# for a formula that is right at one scale and wrong at the others


@pytest.mark.parametrize("k", [10, -10])
def test_survival_report_is_scale_covariant(k):
    # tau, C and G scaled by a power of two scale every draw and margin
    # exactly, so every row is bit for bit the same; only the slopes move,
    # by the last ulps of log(C)
    s = 2.0**k
    alphas, c_grid, g = [1.1, 1.5, 1.9, 2.0], [0.2, 0.45, 1.0, 2.0, 5.0], 0.3
    base = clip_survival_report(alphas, 0.1, c_grid, g, 20_000, seed=1)
    scaled = clip_survival_report(alphas, 0.1 * s, [c * s for c in c_grid], g * s, 20_000, seed=1)
    notes = {r.note for r in base.rows}
    assert notes == {"regime_violation", "outside_asymptotic_regime", ""}
    assert any(r.empirical_clip_prob == 0.0 for r in base.rows) and any(r.gaussian_oracle_err for r in base.rows)
    for r, rs in zip(base.rows, scaled.rows, strict=True):
        assert rs.threshold == r.threshold * s
        same = [(x.empirical_clip_prob, x.asymptote, x.gaussian_oracle_err, x.note) for x in (r, rs)]
        assert repr(same[0]) == repr(same[1])  # repr: a nan clip probability equals itself
    assert list(scaled.slopes) == alphas
    for alpha in alphas:
        assert scaled.slopes[alpha] == pytest.approx(base.slopes[alpha], rel=1e-12)


@pytest.mark.parametrize("fading", ["none", "rayleigh"])
@pytest.mark.parametrize("b_scale", [0.0, 1.0])
def test_engine_is_scale_covariant(fading, b_scale):
    # A_n, b_n, tau and C scaled by s and eta by 1/s: every gradient, noise
    # draw and clip scales by s, and every step eta*g is the same, so the
    # iterates are bit-identical, losses scale by s and ||grad f||^2 by s^2.
    # At tau = 1 both the clip and the projection act.
    tb = make_quadratic_testbed(dim=6, n_clients=4, seed=2, b_scale=b_scale)
    eta, c = 1.0 / tb.info.l, 2.0 * math.sqrt(2.0) * tb.info.g

    def run(s):
        datas = [QuadraticClientData(a=d.a * s, b=d.b * s) for d in tb.client_datas]
        cfgs = [
            FLConfig(n_clients=4, rounds=200, learning_rate=eta / s, clip=ClipMethod.mac(c * s),
                     channel=ChannelConfig(FadingModel(fading), StableParams(1.5, s)), seed=seed,
                     projection_radius=tb.info.radius)
            for seed in range(8)
        ]
        return run_replicas(cfgs, tb.model, datas, w0=tb.w0)

    base = run(1.0)
    assert any(r.columns["clipped_fraction"].any() for r in base)
    assert any(np.linalg.norm(r.final_w) == pytest.approx(tb.info.radius) for r in base)
    for s in (2.0**10, 2.0**-10):
        for r, rs in zip(base, run(s), strict=True):
            assert not r.diverged and not rs.diverged
            np.testing.assert_array_equal(rs.final_w, r.final_w)
            np.testing.assert_array_equal(rs.columns["grad_norm_sq"], r.columns["grad_norm_sq"] * s**2)
            np.testing.assert_array_equal(rs.columns["global_loss"], r.columns["global_loss"] * s)
            for name in ("clipped_fraction", "update_norm"):
                np.testing.assert_array_equal(rs.columns[name], r.columns[name])


def test_bound_check_noiseless_limit_is_the_ideal_run():
    # at tau = 1e-6 no entry leaves the mac window, and the running averages
    # of ||grad f||^2 are the noiseless channel's to 5 digits
    noisy = verify_convergence_bound(tau=1e-6, n_seeds=4)
    ideal = verify_convergence_bound(tau=1e-6, n_seeds=4, ideal=True)
    assert noisy.p_unclipped_empirical == 1.0
    assert [r.rounds for r in noisy.rows] == [r.rounds for r in ideal.rows] == [10, 100, 1000]
    for r, ri in zip(noisy.rows, ideal.rows):
        assert r.empirical_avg == pytest.approx(ri.empirical_avg, rel=1e-5)
