"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import otafl  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, percentile, self_times, tail_percentile  # noqa: E402

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Letters, digits, '_', '.' and '-', at most 64, starting alphanumeric."""
    return _METRIC_NAME.fullmatch(name) is not None


# -- self time --------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_of_back_to_back_spans():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 0.0, 5.0, 0),
        Span("c", 5.0, 10.0, 0),
        Span("x", 10.0, 11.0, -1),
        Span("y", 11.0, 12.5, -1),
    ]
    assert self_times(spans) == [0.0, 5.0, 5.0, 1.0, 1.5]


def test_self_time_counts_covered_time_once_and_only_inside_the_parent():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 2.0, 6.0, 0),
        Span("c", 4.0, 12.0, 0),  # overlaps b and runs past a's end
    ]
    assert self_times(spans)[0] == 2.0


def test_self_times_add_up_to_top_level_durations():
    spans = [
        Span("a", 0.0, 7.0, -1),
        Span("b", 0.5, 3.0, 0),
        Span("c", 1.0, 2.0, 1),
        Span("d", 3.0, 6.5, 0),
        Span("e", 8.0, 9.0, -1),
    ]
    assert sum(self_times(spans)) == pytest.approx(7.0 + 1.0)


# -- tail percentile --------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (2000, 99.5),
     (10000, 99.9), (20000, 99.95), (100000, 99.99)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_rule_leaves_at_least_ten_samples_beyond_the_value():
    for n in range(20, 3000, 7):
        pct = tail_percentile(n)
        values = list(range(n))
        assert sum(v > percentile(values, pct) for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile(values[::-1], 99.0) == 99


# -- tracing ----------------------------------------------------------------


def _small_training():
    bed = otafl.analysis.make_quadratic_testbed(dim=4, n_clients=3, seed=1)
    cfg = otafl.FLConfig(
        n_clients=3, rounds=5, learning_rate=0.1, clip=otafl.ClipMethod.mac(1.0),
        channel=otafl.ChannelConfig(otafl.FadingModel.rayleigh_unit_mean(),
                                    otafl.StableParams(1.5, 0.1)),
        seed=2,
    )
    return otafl.fl_core.run_training(cfg, bed.model, bed.client_datas, w0=bed.w0)


def test_tracer_wraps_every_binding_and_restores_them():
    from otafl import analysis, clipping, fl_core, models

    original = clipping.vector_median
    gradient = models.MlpModel.gradient
    t = tracer.Tracer()
    t.install()
    try:
        for module in (clipping, fl_core, analysis, otafl):
            assert module.vector_median is not original
            assert module.vector_median.__wrapped__ is original
        assert models.MlpModel.gradient is not gradient
        assert not t.is_clean()
    finally:
        t.restore()
    assert t.is_clean()
    for module in (clipping, fl_core, analysis, otafl):
        assert module.vector_median is original
    assert models.MlpModel.gradient is gradient


def test_traced_run_is_bit_identical_and_its_time_adds_up():
    plain = _small_training()
    t = tracer.Tracer()
    t.install()
    try:
        traced = _small_training()
    finally:
        t.restore()
    assert traced.final_w.tobytes() == plain.final_w.tobytes()
    assert [r.global_loss for r in traced.records] == [r.global_loss for r in plain.records]

    spans = t.spans()
    summary = tracer.summarize(spans, t.span_names, wall_s=spans[-1].end - spans[0].start + 1.0)
    assert summary["spans"]["fl_core.run_round"]["calls"] == 5
    assert summary["spans"]["clipping.vector_median"]["calls"] == 15  # 3 per mac round on one block
    assert t.counts["stable_noise.sample_sas.variates"] == 5 * 4
    total = sum(summary["layers"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(summary["wall_s"], rel=1e-12)


def test_gradient_flops_follow_the_argument_shapes():
    import numpy as np

    mlp = otafl.MlpModel(20, 32, 2)
    w = np.zeros((50, mlp.dim))
    x = np.zeros((50, 10, 20))
    assert tracer.gradient_flops(mlp, w, x) == 50 * 10 * (4 * 20 * 32 + 6 * 32 * 2)
    logistic = otafl.LogisticModel(20, 3)
    assert tracer.gradient_flops(logistic, np.zeros(logistic.dim), np.zeros((7, 20))) == 4 * 7 * 20 * 3
    quad = otafl.QuadraticModel(10)
    assert tracer.gradient_flops(quad, np.zeros((5, 10)), np.zeros((5, 10, 10))) == 5 * 2 * 100


# -- metric names and the metric set -----------------------------------------


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_name_is_valid():
    t = tracer.Tracer()
    t.install()
    try:
        _small_training()
    finally:
        t.restore()
    summary = tracer.summarize(t.spans(), t.span_names, wall_s=1.0)
    names = set(tracer.layer_metrics([summary], t.counts, 0)) | {"trace.overhead_frac"}
    spec = _spec()
    listed = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    for name in names | set(listed) | {w["name"] for w in spec["workloads"]}:
        assert valid_metric_name(name), name
    assert set(m["name"] for m in spec["per_layer"]) <= names
    assert len(listed) == len(set(listed))


@pytest.mark.parametrize("name", ["a", "fl_core.run_round.p50_ms", "x-1.y_2", "9lives"])
def test_valid_names_pass(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "per/s", "a" * 65, "ünï"])
def test_invalid_names_fail(name):
    assert not valid_metric_name(name)


def test_seed_changes_every_workloads_inputs(tmp_path):
    for wl in workloads.WORKLOADS.values():
        assert wl.prepare(0, tmp_path) != wl.prepare(1, tmp_path), wl.name
    _, clients0, _ = workloads.FlMlpIid.task(0)
    _, clients1, _ = workloads.FlMlpIid.task(1)
    assert clients0[0].x.tobytes() != clients1[0].x.tobytes()


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_seed_does_not_change_the_set_of_metrics(trace, key):
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    for seed in ("0", "1"):
        proc = _bench("--workload", "fl_mlp_iid", "--seed", seed, "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fl_mlp_iid", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_end_to_end_names_match_the_spec():
    report = {"walls": [1.0, 2.0], "rounds": 10, "variates": 100, "peak_rss_mb": 40.0}
    assert {m["name"] for m in _spec()["end_to_end"]} <= set(run.end_to_end([0.5], report))
