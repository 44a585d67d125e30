"""stratlearn benchmark: one workload per fresh process, checked and timed.

Usage, from the repository root:

    python3 bench/run.py --workload fit-heavy --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0          # every workload, in turn

``BENCHMARK.json`` at the root lists the workloads and the metrics with
their units and directions.  ``--trace 0`` prints the end-to-end metrics of
untraced runs; ``--trace 1`` prints the per-layer metrics of traced runs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context (versions, load, raw wall times, trajectory
hashes, tail percentile and sample count).  Spans of traced runs go to
``.bench_out/``.

The run and advance times are at reference speed (see
``workloads.at_reference_speed``): each run times a fixed calibration slice
at every base solve, and on the CLI workload also a bare interpreter launch
at every fourth backend call.  In-process time is scaled by the slices'
reference time over their measured time, and time inside solver processes
by the launches', which keeps the host's speed drift out of the figures.
``setup_s`` is at reference speed too: nine times, a set-up probe and then a
reference probe (fixed standard-library imports) each run in a fresh
process and time their CPU seconds, and ``setup_s`` is the median of the
nine ratios times ``REF_IMPORT_CPU_S``.  CPU time leaves out waits for a
core; the ratio leaves out the host's speed drift, which moved the raw
figure by a quarter between runs minutes apart.  Each workload runs in a
fresh single-threaded process; ``--seconds`` fixes how many runs are made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = {"full": 9, "tiny": 1}
# Median CPU seconds of child.py's reference probe on an idle 2-core x86 box.
REF_IMPORT_CPU_S = 0.085
DEADLINE_S = 175.0


def _child(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name: str, args, spec: dict) -> dict:
    """Set-up probes, then the measured process; returns the result with units."""
    started = time.monotonic()
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    common = ["--workload", name, "--seed", str(args.seed), "--size", args.size]
    load = os.getloadavg()
    probes, references = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES[args.size]):
            probes.append(_child([*common, "--setup-probe"], env, DEADLINE_S))
            references.append(_child([*common, "--reference-probe"], env, DEADLINE_S)["cpu_s"])
    remaining = DEADLINE_S - (time.monotonic() - started)
    result = _child(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, remaining
    )
    measured = result.pop("metrics")
    if probes:
        measured["setup_s"] = REF_IMPORT_CPU_S * statistics.median(
            p["cpu_s"] / r for p, r in zip(probes, references)
        )
        result["info"].update(
            setup_wall_s_each=[p["wall_s"] for p in probes],
            setup_cpu_s_each=[p["cpu_s"] for p in probes],
            reference_cpu_s_each=references,
        )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result["info"].update(
        git_sha=_git_sha(), python=sys.version.split()[0], nproc=os.cpu_count(),
        loadavg_start=load, seed=args.seed, seconds=args.seconds, trace=args.trace,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="inputs are generated from this seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SETUP_PROBES), default="full",
                        help="'tiny' shrinks every workload to a smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stratlearn" / "__init__.py").is_file():
        print(f"bench: no stratlearn sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if not set(names) <= set(known):
        parser.error(f"unknown workload {args.workload!r}; choose from {known} or 'all'")

    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    for name in names:
        result = run_workload(name, args, spec)
        results[name] = result
        for metric, cell in result["metrics"].items():
            print(f"{name:15} {metric:28} {cell['value']:>16.6g} {cell['unit']:8} "
                  f"({directions[metric]} is better)")
        print(f"{name:15} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print(json.dumps({"info": result.pop("info")}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
