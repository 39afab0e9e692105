"""End-to-end acceptance checks.

Each test pins one verifiable claim at its stated tolerance and wall-time
budget and prints a single pass/fail line (visible with ``pytest -s``). The
Monte Carlo checks run over fixed seeds, so they are deterministic for a
pinned numpy version. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import finite_difference_gradient, fit_tail_exponent, gaussian_cdf, ks_distance, mac_reference
from otafl import (
    ChannelConfig,
    ClipMethod,
    FadingModel,
    FLConfig,
    LogisticModel,
    MlpModel,
    PartitionSpec,
    QuadraticModel,
    StableParams,
    clip_survival_report,
    decompose_clip_event,
    mac_clip,
    make_synthetic_classification,
    partition,
    sample_sas,
    train_test_split,
    verify_convergence_bound,
)
from otafl.cli import main
from otafl.fl_core import compare_methods, run_threshold_sweep, vector_median

pytestmark = pytest.mark.acceptance


def _report(tag: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {tag}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{tag} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"
    assert ok


# -- robustness-ordering task (shared by the ordering and sweep checks) ------

_TASK_SEED_STREAM = 5
_MAC_THRESHOLD = 0.4
_GNC_THRESHOLD = 4.0


def _ordering_task(seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TASK_SEED_STREAM]))
    full = make_synthetic_classification(2000, 20, 2, 5.0, rng)
    train, test = train_test_split(full, 0.2, rng)
    clients = partition(train, PartitionSpec("iid", 50, seed=seed))
    model = MlpModel(20, 32, 2, loss_kind="squared_error")
    return model, clients, test


def _ordering_config() -> FLConfig:
    return FLConfig(
        n_clients=50,
        rounds=200,
        learning_rate=0.03,
        local_epochs=5,
        batch_size=10,
        clip=ClipMethod.none(),
        channel=ChannelConfig(FadingModel.rayleigh_unit_mean(), StableParams(1.5, 0.1)),
        seed=0,
        eval_every=200,
    )


def test_criterion_1_mac_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 65))
        alpha = float(rng.uniform(1.05, 2.0))
        tau = float(10.0 ** rng.uniform(-2, 2))
        v = sample_sas(StableParams(alpha, tau), d, rng)
        if rng.random() < 0.5:
            v = v + rng.normal(0.0, 10.0)
        c = float(10.0 ** rng.uniform(-2, 2))
        out = mac_clip(v, c)
        # bit-exact match with the scalar per-entry statement
        assert np.array_equal(out, mac_reference(v, c))
        # odd symmetry is exact in IEEE arithmetic
        assert np.array_equal(mac_clip(-v, c), -out)
        # boundedness (recovery may round by an ulp of the median)
        m = vector_median(v)
        slack = 4.0 * np.finfo(float).eps * max(abs(m), c, 1.0)
        assert np.max(np.abs(out - m)) <= c + slack
        # order preservation
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(out[order]) >= 0.0)
        # shift equivariance at float tolerance
        shifted = mac_clip(v + 2.5, c)
        scale = max(1.0, float(np.max(np.abs(out))))
        assert np.allclose(shifted, out + 2.5, atol=1e-9 * scale)
        checked += 1
    _report("criterion 1 (mac closed-form equivalence + invariants)", checked == 10_000,
            f"{checked} random vectors, bit-exact", t0, budget=5.0)


def test_criterion_2_stable_sampler():
    t0 = time.time()
    # Gaussian case: variance and KS distance
    rng = np.random.default_rng(42)
    tau = 1.0
    s2 = sample_sas(StableParams(2.0, tau), 10**5, rng)
    var_err = abs(s2.var() / (2.0 * tau**2) - 1.0)
    ks = ks_distance(s2, lambda x: gaussian_cdf(x, math.sqrt(2.0) * tau))
    # Cauchy case: upper quartile equals the scale
    s1 = sample_sas(StableParams(1.0, 0.5), 10**6, np.random.default_rng(42))
    quart_err = abs(np.quantile(s1, 0.75) / 0.5 - 1.0)
    # tail exponents; the power-law regime starts deeper as alpha nears 2,
    # so the fit window moves out with alpha (estimator choice; tolerance
    # and sample count as stated)
    tail_errs = {}
    for alpha, quantile in ((1.1, 0.99), (1.5, 0.99), (1.9, 0.999)):
        s = sample_sas(StableParams(alpha, 0.1), 10**6, np.random.default_rng(15))
        slope = fit_tail_exponent(s, start_quantile=quantile, decades=1.0)
        tail_errs[alpha] = abs(slope + alpha)
    ok = (
        var_err < 0.05
        and ks < 0.005
        and quart_err < 0.05
        and all(err < 0.15 for err in tail_errs.values())
    )
    detail = (
        f"var_err={var_err:.4f} ks={ks:.4f} quartile_err={quart_err:.4f} "
        f"tail_errs={{{', '.join(f'{a}: {e:.3f}' for a, e in tail_errs.items())}}}"
    )
    _report("criterion 2 (stable sampler laws)", ok, detail, t0, budget=30.0)


def test_criterion_3_clip_survival_tail_law():
    t0 = time.time()
    report = clip_survival_report(
        [1.1, 1.5, 1.9], tau=0.1, c_grid=np.logspace(0.0, 1.0, 6), g=0.0,
        n_samples=4 * 10**6, seed=0,
    )
    slope_errs = {a: abs(report.slopes[a] + a) for a in (1.1, 1.5, 1.9)}
    gauss = clip_survival_report(
        [2.0], tau=0.1, c_grid=[0.2, 0.3, 0.4, 0.6, 1.0], g=0.0,
        n_samples=10**6, seed=0,
    )
    max_oracle_err = max(r.gaussian_oracle_err for r in gauss.rows)
    ok = all(e < 0.15 for e in slope_errs.values()) and max_oracle_err < 0.005
    detail = (
        f"slope_errs={{{', '.join(f'{a}: {e:.3f}' for a, e in slope_errs.items())}}} "
        f"gaussian_oracle_err={max_oracle_err:.5f}"
    )
    _report("criterion 3 (clip-probability tail law)", ok, detail, t0, budget=60.0)


def test_criterion_4_selection_decomposition_identity():
    t0 = time.time()
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        d = int(rng.integers(1, 65))
        alpha = float(rng.uniform(1.05, 2.0))
        tau = float(10.0 ** rng.uniform(-2, 2))
        v = sample_sas(StableParams(alpha, tau), d, rng)
        c = float(10.0 ** rng.uniform(-2, 2))
        dec = decompose_clip_event(v, c)
        assert np.array_equal(dec.reconstruct(v), mac_clip(v, c))
        saturated = dec.boundary[dec.selection == 0.0]
        assert np.all(np.abs(saturated) == c)
    _report("criterion 4 (selection-matrix reconstruction)", True,
            "bit-exact on 10000 random inputs", t0, budget=5.0)


def test_criterion_5_convergence_bound():
    t0 = time.time()
    report = verify_convergence_bound(
        dim=10, n_clients=5, k_grid=(10, 100, 500, 1000), n_seeds=20,
        alpha=1.5, tau=0.1, seed=0,
    )
    by_k = {row.rounds: row for row in report.rows}
    margin = by_k[500].margin_ratio
    decreasing = (
        by_k[10].empirical_avg > by_k[100].empirical_avg > by_k[1000].empirical_avg
    )
    ok = margin <= 1.0 and decreasing
    detail = (
        f"margin_ratio(K=500)={margin:.4f} empirical 10/100/1000 = "
        f"{by_k[10].empirical_avg:.3f}/{by_k[100].empirical_avg:.3f}/"
        f"{by_k[1000].empirical_avg:.3f} (eta=1/L={report.eta:.3f}, "
        f"C=2*sqrt(2)*G={report.c:.2f})"
    )
    _report("criterion 5 (convergence bound on quadratic testbed)", ok, detail, t0, budget=120.0)


def test_criterion_6_robustness_ordering():
    t0 = time.time()
    results = compare_methods(
        _ordering_task, _ordering_config(), ["ideal", "mac", "gnc", "none"],
        n_seeds=20, mac_threshold=_MAC_THRESHOLD, gnc_threshold=_GNC_THRESHOLD,
    )
    medians = {
        m: float(np.median([r.final_eval_accuracy for r in results[m]])) for m in results
    }
    diverged = {m: sum(r.diverged for r in results[m]) for m in results}
    ok = (
        medians["ideal"] >= medians["mac"]
        and medians["mac"] > medians["gnc"]
        and medians["gnc"] >= medians["none"]
        and medians["ideal"] - medians["mac"] < 0.05
        and diverged["none"] >= 1
    )
    detail = (
        f"median acc ideal/mac/gnc/none = {medians['ideal']:.4f}/{medians['mac']:.4f}/"
        f"{medians['gnc']:.4f}/{medians['none']:.4f}; none diverged on "
        f"{diverged['none']}/20 seeds"
    )
    _report("criterion 6 (robustness ordering)", ok, detail, t0, budget=300.0)


def test_criterion_7_threshold_insensitivity():
    t0 = time.time()
    grids = {
        "mac": [_MAC_THRESHOLD / 2, _MAC_THRESHOLD, 2 * _MAC_THRESHOLD],
        "gnc": [_GNC_THRESHOLD / 2, _GNC_THRESHOLD, 2 * _GNC_THRESHOLD],
    }
    rows = run_threshold_sweep(_ordering_task, _ordering_config(), grids, n_seeds=10)
    spread = {}
    for method in grids:
        accs = [r.median_final_accuracy for r in rows if r.method == method]
        spread[method] = max(accs) - min(accs)
    ok = spread["mac"] < 0.05 and spread["gnc"] > spread["mac"]
    detail = (
        f"median-accuracy spread over a 4x threshold range: mac={spread['mac']:.4f}, "
        f"gnc={spread['gnc']:.4f}"
    )
    _report("criterion 7 (threshold insensitivity)", ok, detail, t0, budget=600.0)


def test_criterion_8_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0

    def check(model, make_args, n_probes=100, kink_guard=None):
        nonlocal worst
        done = 0
        while done < n_probes:
            w, args = make_args()
            if kink_guard is not None and not kink_guard(w, *args):
                continue
            analytic = model.gradient(w, *args)
            numeric = finite_difference_gradient(lambda v: model.loss(v, *args), w)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, err)
            assert err < 1e-4
            done += 1

    quad = QuadraticModel(6)
    def quad_args():
        a = rng.normal(size=(6, 6))
        # a quadratic client is a one-sample payload: x = A[None], y = b[None]
        return rng.normal(size=6), ((a @ a.T + np.eye(6))[None], rng.normal(size=6)[None])
    check(quad, quad_args)

    x = rng.normal(size=(25, 4))
    y2 = rng.integers(2, size=25)
    y3 = rng.integers(3, size=25)
    check(LogisticModel(4, 2), lambda: (rng.normal(scale=0.5, size=5), (x, y2)))
    check(LogisticModel(4, 3), lambda: (rng.normal(scale=0.5, size=15), (x, y3)))

    tanh_mlp = MlpModel(4, 5, 3, activation="tanh")
    check(tanh_mlp, lambda: (rng.normal(scale=0.5, size=tanh_mlp.dim), (x, y3)))

    mse_mlp = MlpModel(4, 5, 2, activation="tanh", loss_kind="squared_error")
    check(mse_mlp, lambda: (rng.normal(scale=0.5, size=mse_mlp.dim), (x, y2)))

    relu_mlp = MlpModel(4, 5, 2, activation="relu")

    def relu_guard(w, xx, yy):
        # central differences are invalid within the step of a relu kink
        pre, _, _ = relu_mlp._forward(w, xx)
        return float(np.min(np.abs(pre))) > 1e-3

    check(relu_mlp, lambda: (rng.normal(scale=0.5, size=relu_mlp.dim), (x, y2)),
          kink_guard=relu_guard)

    _report("criterion 8 (gradient correctness)", True,
            f"6 model heads x 100 probes, worst relative error {worst:.2e}", t0, budget=10.0)


def test_criterion_9_byte_identical_reruns(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        "\n".join([
            "rounds: 3",
            "n_clients: 3",
            "n_samples: 60",
            "feature_dim: 3",
            "model: logistic",
            "methods: [mac, gnc, none, ideal]",
            "name: det",
            f"output_dir: {tmp_path / 'a'}",
            "local_epochs: 2",
            "batch_size: 5",
            "c_grid: [0.5, 1.0]",
            "n_seeds: 2",
        ]) + "\n"
    )
    produced = []
    for out in ("a", "b"):
        assert main(["train", str(cfg), "--set", f"output_dir={tmp_path / out}"]) == 0
        assert main(["sweep", str(cfg), "--set", f"output_dir={tmp_path / out}"]) == 0
        l1 = tmp_path / out / "l1.csv"
        assert main(["lemma1", "--alphas", "1.5", "--c-grid", "1,2,4",
                     "--samples", "20000", "--out", str(l1)]) == 0
        t1 = tmp_path / out / "t1.csv"
        assert main(["theorem1", "--dim", "4", "--n-clients", "2", "--k-grid", "5,20",
                     "--seeds", "2", "--out", str(t1)]) == 0
        files = sorted(p.name for p in (tmp_path / out).glob("*.csv"))
        produced.append({name: (tmp_path / out / name).read_bytes() for name in files})
    ok = produced[0] == produced[1] and len(produced[0]) >= 7
    first, second = produced
    differ = sorted(n for n in set(first) & set(second) if first[n] != second[n])
    detail = (f"{len(first)} CSV files identical across reruns" if ok else
              f"{len(first)} CSV files in run a, {len(second)} in run b (at least 7 expected); "
              f"differ: {differ}; only in a: {sorted(set(first) - set(second))}; "
              f"only in b: {sorted(set(second) - set(first))}")
    _report("criterion 9 (byte-identical reruns)", ok, detail, t0, budget=60.0)
