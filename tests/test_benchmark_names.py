"""The span names the benchmark reads must exist in the package.

The benchmark's tracer (bench/tracer.py) wraps every public function of each
otafl layer module and every public method of the model classes, and its
runner fails with a KeyError when a span that BENCHMARK.json lists is
missing. This test reads BENCHMARK.json and checks each of those names
against the package, so a rename or a deletion fails here instead of in a
benchmark run.
"""

import importlib
import inspect
import json
import re
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
