import math

import numpy as np
import pytest

from otafl import (
    BoundParams,
    RegimeError,
    classical_descent_bound,
    clip_survival_report,
    convergence_bound,
    decompose_clip_event,
    gaussian_unclipped_prob,
    mac_clip,
    make_quadratic_testbed,
    verify_convergence_bound,
)
from otafl import analysis, fl_core
from otafl.stable_noise import StableParams, sample_sas


def params(**overrides):
    base = dict(l=1.0, g=1.0, f0=5.0, f_star=0.0, eta=0.5, c=3.0, k=100, d=10, alpha=1.5, tau=0.1)
    base.update(overrides)
    return BoundParams(**base)


def test_bound_collapses_to_descent_term():
    # noiseless limit with the window closed: the residual term vanishes and
    # only the descent term survives
    p = params(tau=0.0, g=1.0, c=math.sqrt(2.0))
    assert p.simplified_p_unclipped() == 1.0
    expected = 2.0 * 5.0 / (100 * (2.0 - 0.5) * 0.5)
    assert convergence_bound(p) == pytest.approx(expected, rel=1e-12)
    assert classical_descent_bound(5.0, 0.0, 0.5, 1.0, 100) == pytest.approx(expected)


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
        classical_descent_bound(1.0, 0.0, 1.0, 2.0, 10)


def test_bound_regime_validation():
    with pytest.raises(RegimeError, match="sqrt"):
        params(c=1.0, g=1.0)
    # boundary C = sqrt(2)*G is allowed: the window term is exactly zero
    p = params(c=math.sqrt(2.0), g=1.0)
    assert convergence_bound(p, p_unclipped=1.0) > 0.0
    with pytest.raises(ValueError):
        params(f0=-1.0, f_star=0.0)
    # a nan constant once gave a nan bound
    for name in ("g", "c", "tau", "f0", "f_star"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got nan"):
            params(**{name: math.nan})
    with pytest.raises(ValueError):
        convergence_bound(params(), p_unclipped=0.0)


def test_bound_monotonicity():
    base = params()
    ks = [10, 100, 1000]
    vals = [convergence_bound(params(k=k)) for k in ks]
    assert vals[0] > vals[1] > vals[2]
    assert convergence_bound(params(d=20)) > convergence_bound(base)
    assert convergence_bound(params(l=1.5)) > convergence_bound(base)
    # lower survival probability never helps, other factors fixed
    assert convergence_bound(base, p_unclipped=0.7) > convergence_bound(base, p_unclipped=0.9)


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


def test_verify_bound_eta_sweep_rows():
    report = verify_convergence_bound(
        dim=3, n_clients=2, k_grid=(10,), n_seeds=2, seed=3, eta_grid=(0.1, 0.05)
    )
    assert [round(r.eta, 3) for r in report.eta_rows] == [0.1, 0.05]
    for row in report.eta_rows:
        assert math.isfinite(row.empirical_avg)


def test_bound_check_batches_its_seeds(monkeypatch):
    # the seeds run as replicas of one round loop: one run_round call per
    # round, not one per round and seed
    calls = []
    run_round = fl_core.run_round

    def counting(*args, **kwargs):
        calls.append(args[1])
        return run_round(*args, **kwargs)

    monkeypatch.setattr(fl_core, "run_round", counting)
    verify_convergence_bound(dim=3, n_clients=2, k_grid=(7,), n_seeds=4)
    assert calls == list(range(7))


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
    # Patches the engine entry point that _grad_norm_matrix calls. A name it
    # does not call would let the "before any run" tests pass vacuously, so
    # the positive control below checks that this one is reached.
    def run_replicas(*args, **kwargs):
        raise _RunStarted("a training run started before the regime check")

    monkeypatch.setattr(analysis, "run_replicas", run_replicas)


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


def test_verify_bound_rejects_bad_eta():
    with pytest.raises(RegimeError):
        verify_convergence_bound(dim=3, n_clients=2, k_grid=(5,), n_seeds=1, eta=100.0)
