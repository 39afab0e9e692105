"""One workload process: set up, run the experiment in a closed loop, report.

Started by run.py, never by hand. It imports otafl from the checkout's
``src/``, turns the seed into inputs, and prints the monotonic time at which
set-up ended. Unless ``--setup-only`` is given it then calls the experiment
again and again, one call after the other in this one thread, until the
time budget is spent, checking every output. With ``--trace 1`` the second
half of the budget runs with the tracer installed. The last stdout line is
one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_otafl():
    sys.path.insert(0, str(SRC))
    import otafl

    if not Path(otafl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"otafl was imported from {otafl.__file__}, not from {SRC}")


def blas_facts() -> dict:
    """BLAS name and version as numpy reports them, and the thread count
    the loaded OpenBLAS library reports, when it exposes one."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def _enough(calls: list[dict], seconds: float) -> bool:
    """Three calls give a median that one slow call cannot move. When one
    call takes over 0.6 of the budget, a third would overrun it, so two do."""
    return len(calls) >= (2 if calls[0]["wall_s"] > 0.6 * seconds else 3)


def _loop(wl, inputs, until: float, enough, tracer=None) -> list[dict]:
    """Call the experiment until `until` (perf_counter) has passed and
    `enough(calls)` holds; one record per call."""
    calls = []
    while True:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = wl.run(inputs)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        outcome = wl.outcome(result, inputs)
        record = {"wall_s": wall, "outcome": outcome}
        if tracer is not None:
            record["summary"] = tracing.summarize(tracer.spans(), tracer.span_names, wall)
            record["counts"] = dict(tracer.counts)
            record["clean"] = tracer.is_clean()
        calls.append(record)
        if time.perf_counter() >= until and enough(calls):
            return calls


def measure(wl, inputs, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    if trace:
        untraced = _loop(wl, inputs, start + seconds / 2, bool)
        traced = _loop(wl, inputs, start + seconds, bool, tracing.Tracer())
    else:
        untraced = _loop(wl, inputs, start + seconds, lambda calls: _enough(calls, seconds))
        traced = []

    first = untraced[0]["outcome"]
    checks = []
    for i, call in enumerate(untraced + traced):
        kind = "traced" if "summary" in call else "untraced"
        checks += [(f"call {i}: {name}", ok) for name, ok in call["outcome"].checks]
        if i:
            checks.append((f"call {i} ({kind}) output bit-identical to call 0",
                           call["outcome"].digest == first.digest))
    report = {
        "walls": [c["wall_s"] for c in untraced],
        "rounds": first.rounds,
        "variates": first.variates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        summaries = [c["summary"] for c in traced]
        for i, call in enumerate(traced):
            checks.append((f"traced call {i}: every wrapper restored", call["clean"]))
            total = sum(call["summary"]["layers"].values()) + call["summary"]["unattributed_s"]
            checks.append((f"traced call {i}: layer self times + unattributed = wall",
                           abs(total - call["wall_s"]) <= 1e-9 * max(1.0, call["wall_s"])))
            checks.append((f"traced call {i}: counts equal those of traced call 0",
                           call["counts"] == traced[0]["counts"]
                           and all(call["summary"]["spans"][n]["calls"] == e["calls"]
                                   for n, e in summaries[0]["spans"].items())))
        layer = tracing.layer_metrics(summaries, traced[0]["counts"], first.csv_bytes)
        overhead = (statistics.median(c["wall_s"] for c in traced)
                    / statistics.median(report["walls"]) - 1.0)
        layer["trace.overhead_frac"] = (overhead, "frac")
        layer["trace.calls"] = (len(traced), "count")
        report["layer"] = layer
        report["summary"] = summaries[0]
    report["checks"] = checks
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        _import_otafl()
    except ImportError as exc:
        print(f"worker: cannot import otafl from {SRC}: {exc}", file=sys.stderr)
        return 3
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.prepare(args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        report = measure(wl, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["ready"] = ready
    report["machine"] = blas_facts()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
