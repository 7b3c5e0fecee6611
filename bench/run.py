#!/usr/bin/env python3
"""Benchmark of arithcap's public Python API, one workload per process.

Run from the root of a source checkout; arithcap is imported from its src/:

    python3 bench/run.py --workload patch-flagship --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each workload is a closed loop with one caller and one operation at a time.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics.  The last line
of standard output is a JSON record.  bench/README.md describes the workloads,
the metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SCRIPT = Path(__file__).resolve()
SRC = SCRIPT.parent.parent / "src"
# the keys of workloads.WORKLOADS; that module imports arithcap, so it loads only after the BLAS cap is set
WORKLOADS = ("patch-flagship", "patch-infeasible", "overflow-def", "overflow-energy")
SETUP_SAMPLES = 9  # this process plus eight fresh ones, each importing anew


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup(workload: str, seed: int):
    """Imports, input construction, domain validation and Green solves."""
    start = time.perf_counter()
    import workloads

    work = workloads.WORKLOADS[workload](seed)
    return work, time.perf_counter() - start


def setup_times(args, first: float) -> list[float]:
    cmd = [sys.executable, str(SCRIPT), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    times = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_pass(work):
    """Run every operation once; wall time sums the operations, not their checks."""
    wall, outcomes = 0.0, []
    for op in work.ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # the check decides whether this outcome is a failure
            result = exc
        wall += time.perf_counter() - start
        outcome = op.check(result)
        if not outcome.ok:
            print(f"FAILED {op.name}: {outcome.detail}", file=sys.stderr)
            if isinstance(result, BaseException):
                traceback.print_exception(result)
        outcomes.append(outcome)
    return wall, outcomes


def measure(work, seconds: int):
    """Passes until the next one would be expected to end after the window."""
    walls, outcomes = [], []
    start = time.perf_counter()
    while True:
        wall, outs = run_pass(work)
        walls.append(wall)
        outcomes += outs
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, outcomes


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import mpmath
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
    }


def report(metrics: dict, outcomes, printed_only: dict | None = None):
    """Print each metric as `name value unit samples`, then the JSON record of `metrics`."""
    for name, (value, unit, samples) in {**metrics, **(printed_only or {})}.items():
        print(f"{name:36s} {value:<14.6g} {unit:6s} {samples}")
    failed = sum(not o.ok for o in outcomes)
    record = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(record))


def end_to_end(args, work, setup_s: float):
    walls, outcomes = measure(work, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_times(args, setup_s)
    metrics = {
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "MiB", "1 process"),
    }
    # 0 when all is well, or absent from a workload: printed, not in BENCHMARK.json
    failed = sum(not o.ok for o in outcomes)
    printed_only = {"fail_ratio": (failed / len(outcomes), "1", f"{failed} of {len(outcomes)} operations")}
    gaps = [o.gap for o in outcomes if o.gap is not None]
    if gaps:
        printed_only["route_gap_max"] = (max(gaps), "1", f"max over {len(gaps)} operations")
    report(metrics, outcomes, printed_only)
    return 0


def per_layer(args, work):
    import tracing
    import workloads

    untraced_s, outcomes = run_pass(work)
    with tracing.Tracer().installed() as setup_tracer:
        work = workloads.WORKLOADS[args.workload](args.seed)
    with tracing.Tracer().installed() as tracer:
        traced_s, traced_outcomes = run_pass(work)
    missing = tracing.uncovered(args.workload, setup_tracer, tracer)
    if missing:
        print(f"error: traced layers recorded no call on {args.workload}: {', '.join(missing)}", file=sys.stderr)
        return 1

    metrics = {}
    for layer in tracing.TARGETS:
        spans = setup_tracer if layer in tracing.SETUP_LAYERS else tracer
        phase = "set-up" if spans is setup_tracer else "traced pass"
        metrics[f"{layer}.self_s"] = (spans.self_s[layer], "s", phase)
        metrics[f"{layer}.calls"] = (spans.calls[layer], "count", phase)
    metrics["curves.winding.points"] = (tracer.points["curves.winding"], "count", "traced pass")
    for name, count in workloads.certificate_counts(traced_outcomes).items():
        metrics[name] = (count, "count", "certificate")
    metrics["greens.collocation_residual"] = (work.collocation_residual, "1", "worst solve")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", "traced - untraced pass")
    metrics["trace.unattributed_s"] = (traced_s - sum(tracer.self_s.values()), "s", "traced pass - self times")
    report(metrics, outcomes + traced_outcomes)
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(SCRIPT), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="feeds PatchConfig.seed (spot-check points)")
    ap.add_argument("--seconds", type=int, default=20, help="measurement window of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    if not (SRC / "arithcap" / "__init__.py").is_file():
        print(f"error: no arithcap sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())

    work, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 caller, "
          f"{len(work.ops)} operations per pass, PatchConfig.threads=1")
    print("env " + json.dumps(environment()))
    return per_layer(args, work) if args.trace else end_to_end(args, work, setup_s)


if __name__ == "__main__":
    sys.exit(main())
