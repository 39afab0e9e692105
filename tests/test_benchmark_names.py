"""The span names the benchmark reads must exist in the package.

The benchmark's tracer (bench/tracer.py) wraps every public function of each
otafl layer module and every public method of the model classes, and its
runner fails with a KeyError when a span that BENCHMARK.json lists is
missing. This test reads BENCHMARK.json and checks each of those names
against the package, so a rename or a deletion fails here instead of in a
benchmark run. It also checks the bindings the benchmark's own tests pin and
builds every workload's inputs, so a changed signature of the API the
workloads call fails here too.
"""

import importlib
import inspect
import json
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Spans the tracer indexes by name whatever BENCHMARK.json lists.
TRACER_SPANS = (
    "models.gradient",
    "fl_core.run_round",
    "clipping.vector_median",
    "data.partition",
    "stable_noise.sample_sas",
)


def _listed_spans():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = set()
    for metric in spec["per_layer"]:
        match = re.fullmatch(r"(\w+)\.(\w+)\.(calls|self_share)", metric["name"])
        if match:
            spans.add(f"{match[1]}.{match[2]}")
    return spans


def _model_methods():
    models = importlib.import_module("otafl.models")
    return {
        attr
        for cls in vars(models).values()
        if inspect.isclass(cls) and cls.__module__ == models.__name__ and hasattr(cls, "gradient")
        for attr, fn in vars(cls).items()
        if not attr.startswith("_") and inspect.isfunction(fn)
    }


def test_benchmark_lists_function_spans():
    assert _listed_spans(), "no <layer>.<fn>.calls or .self_share metric in BENCHMARK.json"


@pytest.mark.parametrize("span", sorted(_listed_spans() | set(TRACER_SPANS)))
def test_benchmark_span_is_a_public_function(span):
    layer, name = span.split(".")
    module = importlib.import_module(f"otafl.{layer}")
    obj = vars(module).get(name)
    defined_here = inspect.isfunction(obj) and obj.__module__ == module.__name__
    model_method = layer == "models" and name in _model_methods()
    assert not name.startswith("_") and (defined_here or model_method), (
        f"{span} is neither a public function of otafl.{layer} nor a model method"
    )


def test_vector_median_is_bound_where_the_tracer_looks():
    # bench/test_bench.py asserts the tracer wraps each of these bindings
    clipping = importlib.import_module("otafl.clipping")
    for name in ("otafl", "otafl.clipping", "otafl.fl_core", "otafl.analysis"):
        module = importlib.import_module(name)
        assert vars(module).get("vector_median") is clipping.vector_median, name


def _bench_workloads():
    """bench/workloads.py as a module, executed from its source so that no
    bytecode is written under bench/."""
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("_bench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_benchmark_workloads_build_their_inputs(tmp_path):
    from otafl.config import load_config

    workloads = _bench_workloads()
    prepared = {name: w.prepare(0, tmp_path) for name, w in workloads.WORKLOADS.items()}
    assert all(inputs["seed"] == 0 for inputs in prepared.values())
    sweep_config = prepared["sweep_logistic_iid"]["config"]
    assert load_config(sweep_config).c_grid == workloads.SweepLogisticIid.grid
    model, clients, test = workloads.FlMlpIid.task(0)
    assert len(clients) == 50 and model.dim == 20 * 32 + 32 + 32 * 2 + 2
    assert test.x.shape[1] == 20


def test_benchmark_outcomes_pass_on_small_runs(tmp_path):
    # the workloads judge what otafl returns (TrainResult.records, the bound
    # report), so a change to those fails here, not only in a benchmark run
    from otafl.analysis import verify_convergence_bound

    workloads = _bench_workloads()
    mlp = workloads.FlMlpIid()
    mlp.rounds, mlp.n_seeds = 2, 1
    inputs = mlp.prepare(0, tmp_path)
    bound = workloads.FlQuadraticBound()
    report = verify_convergence_bound(dim=3, n_clients=2, k_grid=(3, 7), n_seeds=2)
    # the sweep's checks: one row per threshold, one best row, finite losses
    sweep = workloads.SweepLogisticIid()
    sweep.rounds, sweep.n_seeds = 2, 1
    sweep_inputs = sweep.prepare(0, tmp_path)
    outcomes = (
        mlp.outcome(mlp.run(inputs), inputs),
        bound.outcome(report, {}),
        sweep.outcome(sweep.run(sweep_inputs), sweep_inputs),
    )
    for outcome in outcomes:
        failed = [name for name, ok in outcome.checks if not ok]
        assert outcome.checks and not failed, failed
