"""Benchmark harness for otafl: run one workload, print its metrics.

    python3 bench/run.py --workload fl_mlp_iid --seed 0 --seconds 12 --trace 0

Run from the root of a checkout. The harness pins the BLAS thread count in
its own environment, then starts workload processes (worker.py): a few that
only set up, to time set-up, and one that runs the experiment in a closed
loop for ``--seconds``. It prints the machine facts, a table of every metric
with its unit and sample count, and, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json; with
``--trace 1`` they are the ``per_layer`` list, taken from a run with the
tracer installed, and the full trace summary is written to ``.bench_out/``.
Exits non-zero, printing no result, when otafl cannot be run from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "otafl"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fl_mlp_iid", "fl_quadratic_bound", "mc_clip_survival", "sweep_logistic_iid")

# One BLAS thread: each workload is one caller in one thread, and one is at
# most nproc on every machine.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # set-up is timed this many times per run; the median is reported
DEADLINE_S = 170.0  # the whole run ends well inside 180 s or fails


class BenchError(RuntimeError):
    pass


def commit_of(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without looking above the root."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package's source files, which names the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start one workload process; return its set-up seconds and its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - started, report


def _benchmark_lists() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]]}


def end_to_end(setups: list[float], report: dict) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end figure: name -> (value, unit, sample count)."""
    walls = report["walls"]
    wall = statistics.median(walls)
    n = len(walls)
    out = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (wall, "s", n),
        "variates_per_s": (report["variates"] / wall, "1/s", n),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", 1),
    }
    if report["rounds"]:
        out["rounds_per_s"] = (report["rounds"] / wall, "1/s", n)
    return out


def _print_table(title: str, rows: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, *rest) in rows.items():
        samples = f"  n={rest[0]}" if rest else ""
        print(f"#   {name:<44} {value:>16.6g} {unit:<8}{samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="otafl benchmark: run one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    try:
        if not (SRC / "__init__.py").is_file():
            raise BenchError(f"no otafl package under {SRC}")
        lists = _benchmark_lists()
        setups = [_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, report = _worker(args, deadline, setup_only=False)
        setups.append(setup)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **report["machine"],
        "blas_threads_env": BLAS_THREADS,
        "commit": commit_of(ROOT),
        "source_sha256": source_digest(SRC),
    }
    print("# machine " + json.dumps(machine))
    checks = report["checks"]
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"# FAILED check: {name}")
    title = f"{args.workload} seed={args.seed} trace={args.trace}"
    e2e = end_to_end(setups, report)
    e2e["fail_fraction"] = (len(failed) / len(checks), "frac", len(checks))
    _print_table(f"{title}: end to end", e2e)

    if args.trace:
        layer = report["layer"]
        _print_table(f"{title}: per layer (zero values omitted)",
                     {k: v for k, v in sorted(layer.items()) if v[0]})
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps({"machine": machine, "metrics": layer,
                                          "summary": report["summary"]}, indent=1))
        chosen = {name: layer[name] for name in lists["per_layer"]}
    else:
        chosen = {name: e2e[name] for name in lists["end_to_end"]}
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
