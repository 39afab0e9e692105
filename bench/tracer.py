"""Span tracing of otafl's layers, installed from outside the package.

Every public function of each layer module is replaced, in every module of
the package that binds it by name, by a wrapper that records one span per
call: the function's name, its start and end on the ``perf_counter`` clock,
and the span that was open when it was called. Public methods of the model
classes are wrapped on the class. ``Tracer.restore`` puts every original
object back. Nothing inside ``src/`` knows about the tracer.

A span's self time is its duration minus the part of its interval that its
direct child spans cover, so the self times of all spans plus the time spent
outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass

# The package modules, one layer each.
LAYERS = (
    "stable_noise",
    "channel",
    "clipping",
    "models",
    "data",
    "fl_core",
    "analysis",
    "config",
    "cli",
)

# Candidate percentiles for the tail figure, in basis points (1/100 of a
# percent) so that ranks are computed in exact integer arithmetic.
_TAIL_LADDER_BP = (5000, 7500, 9000, 9500, 9900, 9950, 9990, 9995, 9999)
MIN_BEYOND_TAIL = 10


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals, each clipped to the span's own interval."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for j in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo, hi = max(spans[j].start, s.start), min(spans[j].end, s.end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


def _rank(bp: int, n: int) -> int:
    """1-based nearest rank of the percentile `bp` (basis points) among n."""
    return max(1, -(-bp * n // 10000))


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND_TAIL) -> float | None:
    """Highest ladder percentile with at least `min_beyond` of the n samples
    strictly beyond its nearest rank; None when even the median has fewer."""
    best = None
    for bp in _TAIL_LADDER_BP:
        if n - _rank(bp, n) >= min_beyond:
            best = bp
    return None if best is None else best / 100.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(round(pct * 100), len(ordered)) - 1]


# ---------------------------------------------------------------------------
# per-call counters derived from arguments


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(w) -> int:
    return int(math.prod(w.shape[:-1])) if getattr(w, "ndim", 1) > 1 else 1


def gradient_flops(model, w, payload) -> int:
    """Multiply-add flops (2 per multiply-add) of the matrix products in one
    model.gradient call, computed from the argument shapes."""
    rows = _rows(w)
    kind = type(model).__name__
    if kind == "QuadraticModel":
        return 2 * rows * model.dim * model.dim
    m = payload.shape[-2]
    if kind == "LogisticModel":
        c = 1 if model.n_classes == 2 else model.n_classes
        return 4 * rows * m * model.feature_dim * c
    if kind == "MlpModel":
        p, h, c = model.feature_dim, model.hidden_units, model.n_classes
        return rows * m * (4 * p * h + 6 * h * c)
    return 0


def _count_sample_sas(counts, args, kwargs):
    counts["stable_noise.sample_sas.variates"] += int(_arg(args, kwargs, 1, "dim"))


def _count_gradient(counts, args, kwargs):
    model, w, payload = args[0], args[1], args[2]
    counts["models.gradient.client_rows"] += _rows(w)
    counts["models.gradient.flops"] += gradient_flops(model, w, payload)


_COUNTERS = {
    "stable_noise.sample_sas": _count_sample_sas,
    "models.gradient": _count_gradient,
}
COUNT_NAMES = (
    "stable_noise.sample_sas.variates",
    "models.gradient.client_rows",
    "models.gradient.flops",
)


# ---------------------------------------------------------------------------
# the tracer


def _public_functions(owner, module_name: str):
    """Public functions defined in `module_name` and bound on `owner`, a
    module or a class."""
    for attr, obj in vars(owner).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module_name:
            yield attr, obj


def _model_classes(module):
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and hasattr(obj, "gradient"):
            yield obj


class Tracer:
    """Wraps the package's public functions while installed and records spans."""

    def __init__(self, package: str = "otafl"):
        self.package = importlib.import_module(package)
        self.modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        # function object -> span name, keyed by id so any binding is found
        self._targets: dict[int, tuple[object, str]] = {}
        for layer, module in zip(LAYERS, self.modules):
            for attr, fn in _public_functions(module, module.__name__):
                self._targets[id(fn)] = (fn, f"{layer}.{attr}")
        self._methods = []
        for cls in _model_classes(importlib.import_module(f"{package}.models")):
            for attr, fn in _public_functions(cls, cls.__module__):
                self._methods.append((cls, attr, fn))
        self.span_names = sorted(
            {name for _, name in self._targets.values()}
            | {f"models.{attr}" for _, attr, _ in self._methods}
        )
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts = {name: 0 for name in COUNT_NAMES}

    def _wrap(self, fn, name: str):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        counter = _COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(counts, args, kwargs)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Start a fresh recording and wrap every binding: the defining module,
        each module that imported the function by name, the package
        namespace, and the model classes."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self.reset()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in self._targets.items()}
        for module in [self.package, *self.modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and obj is self._targets[id(obj)][0]:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for cls, attr, fn in self._methods:
            self._installed.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, f"models.{attr}"))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def is_clean(self) -> bool:
        """True when no binding in the package still holds a wrapper."""
        for module in [self.package, *self.modules]:
            for obj in vars(module).values():
                if inspect.isfunction(obj) and hasattr(obj, "__wrapped__") and id(obj.__wrapped__) in self._targets:
                    return False
        return all(vars(cls)[attr] is fn for cls, attr, fn in self._methods)

    def spans(self) -> list[Span]:
        return [
            Span(n, s, e, p) for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


# ---------------------------------------------------------------------------
# per-layer figures of one traced call


def summarize(spans: list[Span], span_names, wall_s: float) -> dict:
    """Calls, total and self seconds per span name and per layer, the time
    outside every span, and the run_round durations."""
    selfs = self_times(spans)
    per_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in span_names}
    per_layer = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    round_s = []
    for span, own in zip(spans, selfs):
        entry = per_name[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own
        per_layer[span.name.split(".", 1)[0]] += own
        if span.parent < 0:
            covered += span.end - span.start
        if span.name == "fl_core.run_round":
            round_s.append(span.end - span.start)
    return {
        "wall_s": wall_s,
        "unattributed_s": wall_s - covered,
        "spans": per_name,
        "layers": per_layer,
        "round_s": round_s,
    }


def layer_metrics(summaries: list[dict], counts: dict, csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer figure of the traced calls, as name -> (value, unit).

    Times and shares are medians over the calls; counts are those of the
    first call; round percentiles pool the rounds of every call. The set of
    names depends only on the tracer's span names, never on which functions
    a workload happened to call.
    """
    def median_of(fn):
        return statistics.median(fn(s) for s in summaries)

    first = summaries[0]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (median_of(lambda s: s["layers"][layer]), "s")
        out[f"{layer}.share"] = (median_of(lambda s: s["layers"][layer] / s["wall_s"]), "frac")
    for name, entry in first["spans"].items():
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.self_s"] = (median_of(lambda s: s["spans"][name]["self_s"]), "s")
        out[f"{name}.self_share"] = (
            median_of(lambda s: s["spans"][name]["self_s"] / s["wall_s"]), "frac")

    def per_call(span: str, count: float, scale: float):
        return median_of(lambda s: s["spans"][span]["self_s"]) / count * scale if count else 0.0

    variates = counts["stable_noise.sample_sas.variates"]
    out["stable_noise.sample_sas.variates"] = (variates, "count")
    out["stable_noise.sample_sas.ns_per_variate"] = (
        per_call("stable_noise.sample_sas", variates, 1e9), "ns")
    grad_calls = first["spans"]["models.gradient"]["calls"]
    out["models.gradient.client_rows"] = (counts["models.gradient.client_rows"], "count")
    out["models.gradient.flops"] = (counts["models.gradient.flops"], "flop")
    out["models.gradient.us_per_call"] = (per_call("models.gradient", grad_calls, 1e6), "us")

    rounds = first["spans"]["fl_core.run_round"]["calls"]
    medians = first["spans"]["clipping.vector_median"]["calls"]
    out["clipping.medians_per_round"] = (medians / rounds if rounds else 0.0, "1/round")
    out["data.task_builds"] = (first["spans"]["data.partition"]["calls"], "count")
    out["cli.csv_bytes"] = (csv_bytes, "B")

    round_ms = [1e3 * r for s in summaries for r in s["round_s"]]
    tail = tail_percentile(len(round_ms))
    out["fl_core.run_round.p50_ms"] = (percentile(round_ms, 50.0) if round_ms else 0.0, "ms")
    out["fl_core.run_round.tail_ms"] = (percentile(round_ms, tail) if tail else 0.0, "ms")
    out["fl_core.run_round.tail_pct"] = (tail or 0.0, "%")
    out["fl_core.run_round.samples"] = (len(round_ms), "count")

    out["trace.wall_s"] = (median_of(lambda s: s["wall_s"]), "s")
    out["trace.unattributed_s"] = (median_of(lambda s: s["unattributed_s"]), "s")
    out["trace.unattributed_share"] = (median_of(lambda s: s["unattributed_s"] / s["wall_s"]), "frac")
    return out
