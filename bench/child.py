"""One workload in a fresh process: a set-up probe, or the measured runs.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--setup-probe`` it times ``import stratlearn`` plus input generation and
exits; with ``--reference-probe`` it times a fixed set of standard-library
imports and exits.  Otherwise it makes as many runs as fill ``--seconds`` on the box the
run estimates were taken on (the count depends on ``--seconds`` only, so
two invocations with one seed do the same work), and prints one JSON line.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies; the maximum stands in.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def setup_probe(args) -> dict:
    """CPU and wall seconds of ``import stratlearn`` plus input generation."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    import workloads  # imports stratlearn

    w = workloads.get(args.workload, args.size)
    workdir = OUT / f"setup-{args.workload}-{os.getpid()}"
    try:
        workloads.make_inputs(w, workloads.sub_seed(args.seed, 0), workdir)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"cpu_s": cpu, "wall_s": wall}


# Standard-library modules that neither stratlearn, numpy nor this script
# load before the reference probe; importing them is work of the same kind
# as the set-up (finding, unmarshalling and executing modules) that no
# change to stratlearn can move.
REFERENCE_MODULES = (
    "asyncio", "email.mime.multipart", "unittest", "xml.etree.ElementTree", "http.client",
    "logging.handlers", "csv", "tarfile", "sqlite3", "difflib", "inspect", "pydoc",
)


def reference_probe() -> dict:
    """CPU seconds of importing ``REFERENCE_MODULES``; ``run.py`` scales set-up by it."""
    cpu0 = time.process_time()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return {"cpu_s": time.process_time() - cpu0}


def measure(args, wrap=None) -> dict:
    """Measured runs; ``wrap`` wraps every backend, so a test can inject a fault."""
    import numpy
    import tracing
    import workloads

    w = workloads.get(args.workload, args.size)
    per_run = w.run_estimate_s * (2 if args.trace else 1)
    runs = max(1, round(args.seconds / per_run))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    records, traced = [], []
    try:
        for j in range(runs):
            seed = workloads.sub_seed(args.seed, j)
            records.append(workloads.run_once(w, seed, workdir, wrap=wrap, calibrate=tracer is None))
            if tracer is not None:
                traced.append(workloads.run_once(w, seed, workdir, tracer=tracer, wrap=wrap))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = records + traced
    failed_runs = [r for r in everything if r.problems]
    for r in failed_runs:
        print(f"bench: run with seed {r.seed} failed: {'; '.join(r.problems)}", file=sys.stderr)
    attempted = sum(1 + r.calls for r in everything)
    failed = len(failed_runs) + sum(r.errors for r in everything)
    ok = [r for r in records if not r.problems]
    info = {
        "workload": w.name,
        "runs": runs,
        "wall_run_s_each": [r.wall_s for r in records],
        "run_s_each": [r.run_s for r in records],
        "speed_scale_each": [r.scale for r in records],
        "numpy": numpy.__version__,
        "trajectory_sha256": {str(r.seed): r.trajectory_sha256 for r in records},
    }
    if tracer is None:
        advances = [a for r in ok for a in r.advances_s]
        tail, pct = _tail(advances) if advances else (math.nan, math.nan)
        info["advance_samples"] = len(advances)
        info["advance_tail_percentile"] = pct
        metrics = {
            "run_s": statistics.median(r.run_s for r in ok) if ok else math.nan,
            "advance_p50_ms": 1e3 * statistics.median(advances) if advances else math.nan,
            "advance_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "virtual_total": statistics.median(r.virtual_total for r in ok) if ok else math.nan,
            "solve_speedup": statistics.median(r.solve_speedup for r in ok) if ok else math.nan,
            "ops_ok": 1.0 - failed / attempted,
        }
    else:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (
            statistics.median(r.run_s for r in traced) - statistics.median(r.run_s for r in records)
        )
        info["layers"] = tracer.layer_times()
        info["absent"] = sorted(tracer.absent)
        spans = OUT / f"spans-{w.name}-seed{args.seed}.tsv.gz"
        tracer.dump(spans)
        info["spans"] = str(spans.relative_to(ROOT))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--reference-probe", action="store_true")
    args = parser.parse_args(argv)
    if args.reference_probe:
        result = reference_probe()
    else:
        result = setup_probe(args) if args.setup_probe else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
