"""Benchmark workloads: inputs generated from a seed, one measured run, and its checks.

Each workload is dominated by a different layer, so a change to one layer
moves one workload and leaves the others alone:

- ``fit-heavy``: 8 UNSAT problems on the 13-option kissat space with an
  unbounded learning budget, so every advance runs an epoch and the run is
  almost all forest fitting (7 epochs, up to 700 points, 20 trees).  The
  score threshold is out of reach, so each epoch refits at depths 4 and 5
  whatever the seed: the fit work, and with it the wall time, does not
  depend on how quickly the forest happens to score well.  Forest-kernel
  work shows here and almost nowhere else.
- ``predict-heavy``: 60 problems and a budget that admits exactly one
  epoch, so the run is one small fit followed by 59 strategize chains of
  single-row ``predict`` calls.  It reads the forest where fit-heavy
  writes it.
- ``subprocess-cli``: 12 problems driven through
  ``cli.parse_args``/``cli.execute`` with an ``ExternalBackend`` that
  launches ``solver.py`` for every evaluation (3 epochs of 50 samples,
  about 120 launches).  It is the production path and bypasses the forest
  hot spots; its virtual trajectory must equal the in-process
  ``SyntheticBackend`` run of the same landscape and seed.  The landscape
  keeps the acceptance suite's convergence optimum and schedule.

In every landscape a few options carry most of the penalty, so learning
finds them on almost every seed; with evenly spread weights the learned
speedup varied by a quarter from seed to seed and no run-sized sample
could show a change in it.

Layer functions are always called through their module attribute
(``engine.run``, ``cli.execute``) so that a traced run sees its wrappers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stratlearn import cli, engine
from stratlearn.backends import SyntheticBackend, SyntheticLandscape, Verdict, geometric_schedule
from stratlearn.engine import EpochPolicy, ForestConfig
from stratlearn.sampler import SamplerConfig
from stratlearn.space import StrategySpace, builtin_space, default_strategy, serialize_space

SOLVER = Path(__file__).resolve().with_name("solver.py")
# calibration_slice() and launch_slice() on an idle 2-core x86 box.
REF_SLICE_S = 0.003
REF_LAUNCH_S = 0.019
LAUNCH_EVERY = 4


def calibration_slice() -> float:
    """Seconds taken by a fixed few-millisecond mix of interpreter and small-array work.

    The host's speed drifts by up to 2x within minutes (other tenants), and
    it moves this slice and the workloads alike.  A calibrated run times one
    slice at every base solve, subtracts the slices from its wall time and
    scales each advance by ``REF_SLICE_S`` over the mean of the two slices
    around it, and the rest of the run by ``REF_SLICE_S`` over their median,
    so the reported times are at reference speed.  A change to stratlearn
    cannot move the slice.  Time spent in solver processes follows the
    speed of process launches instead, which the slice does not track; see
    ``launch_slice``.
    """
    started = time.perf_counter()
    memo: dict = {}
    for i in range(4000):
        key = (i % 13, i % 7, i % 5)
        memo[key] = memo.get(key, 0) + sum(key)
    values = np.arange(64.0)
    for _ in range(300):
        values = np.cumsum(values[::-1]) % 97.0
    return time.perf_counter() - started


def launch_slice() -> float:
    """Seconds taken to start and reap a bare interpreter, as the CLI workload's solver runs.

    The speed of process launches drifts apart from that of in-process work,
    so a calibrated run of the CLI workload times one at every
    ``LAUNCH_EVERY``-th backend call, amid the launches it calibrates, and
    scales the time spent inside backend calls by ``REF_LAUNCH_S`` over
    their median.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-E", "-c", "pass"], check=True)
    return time.perf_counter() - started


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``optimum`` holds value positions within each domain and, with
    ``weights``, defines the hidden-optimum landscape.  When ``permute`` is
    set each run shuffles both across the options, which keeps the landscape
    isomorphic (same penalties, same default cost) while the seed decides
    which options matter.  ``budget`` None admits exactly one epoch.
    ``run_estimate_s`` is one run's wall time on a 2-core x86 box; it sizes
    the number of runs that fill ``--seconds``.
    """

    name: str
    space: str
    problems: int
    growth: float
    optimum: tuple[int, ...]
    weights: tuple[float, ...]
    permute: bool
    budget: float | None
    samples_per_epoch: int
    strategize_samples: int
    forest: ForestConfig
    run_estimate_s: float
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-heavy",
            space="kissat_large",
            problems=8,
            growth=1.05,
            optimum=(1, 1, 1, 1) + (1, 0) * 4 + (1,),
            weights=(1.2, 0.9, 0.6, 0.3) + (0.05,) * 9,
            permute=True,
            budget=math.inf,
            samples_per_epoch=100,
            strategize_samples=500,
            forest=ForestConfig(trees=20, init_depth=4, depth_cap=5, score_threshold=1.0),
            run_estimate_s=4.0,
        ),
        Workload(
            name="predict-heavy",
            space="kissat_large",
            problems=60,
            growth=1.02,
            optimum=(1,) * 4 + (0,) * 9,
            weights=(0.4, 0.3, 0.2, 0.1) + (0.0,) * 9,
            permute=True,
            budget=None,
            samples_per_epoch=100,
            strategize_samples=500,
            forest=ForestConfig(trees=50),
            run_estimate_s=5.0,
        ),
        Workload(
            name="subprocess-cli",
            space="kissat_small",
            problems=12,
            growth=1.6,
            # The acceptance suite's optimum (0, 1, 2, 1, 2, 9) as value positions.
            optimum=(1, 0, 2, 0, 0, 2),
            weights=(0.9, 0.0, 0.7, 0.0, 0.0, 1.1),
            permute=False,
            budget=26000.0,
            samples_per_epoch=50,
            strategize_samples=500,
            forest=ForestConfig(trees=50),
            run_estimate_s=4.5,
            via_cli=True,
        ),
    )
}


def get(name: str, size: str = "full") -> Workload:
    """The named workload; ``size="tiny"`` shrinks it to a sub-second smoke run."""
    w = WORKLOADS[name]
    if size == "tiny":
        w = dataclasses.replace(
            w, problems=4, samples_per_epoch=10, strategize_samples=20,
            forest=dataclasses.replace(w.forest, trees=3), run_estimate_s=0.3,
        )
    return w


def sub_seed(seed: int, run: int) -> int:
    """Seed of the ``run``-th run of a benchmark invocation with ``seed``."""
    return int(np.random.SeedSequence([seed, run]).generate_state(1)[0])


@dataclass
class Inputs:
    space: StrategySpace
    landscape: SyntheticLandscape
    budget: float
    argv: list[str] | None = None  # subprocess-cli only: CLI flags shared by both runs
    out: Path | None = None


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the landscape for ``seed``; for the CLI workload also write its files."""
    space = builtin_space(w.space)
    optimum, weights = w.optimum, w.weights
    if w.permute:
        perm = np.random.default_rng(seed).permutation(space.k)
        optimum = tuple(optimum[p] for p in perm)
        weights = tuple(weights[p] for p in perm)
    landscape = SyntheticLandscape(
        optimum=tuple(d.values[c] for d, c in zip(space.domains, optimum)),
        weights=weights,
        base_metrics=geometric_schedule(50.0, w.growth, w.problems),
        verdicts=(Verdict.UNSAT,) * w.problems,
    )
    budget = w.budget
    if budget is None:
        # Exactly the estimate of the first epoch; later ones cannot fit.
        budget = w.samples_per_epoch * landscape.metric(1, default_strategy(space))
    inputs = Inputs(space, landscape, budget)
    if w.via_cli:
        inputs.argv, inputs.out = _write_cli_inputs(w, inputs, seed, workdir)
    return inputs


def _write_cli_inputs(w: Workload, inputs: Inputs, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    land = inputs.landscape
    manifest = []
    for i in range(1, land.num_problems + 1):
        path = workdir / f"p{i}.problem"
        path.write_text(
            f"base={land.base_metrics[i - 1]!r}\nverdict={land.verdicts[i - 1].value}\n"
            f"optimum={';'.join(land.optimum)}\nweights={';'.join(map(repr, land.weights))}\n",
            encoding="utf-8",
        )
        manifest.append(f"{i}\t{path}\n")
    (workdir / "manifest.tsv").write_text("".join(manifest), encoding="utf-8")
    (workdir / "space.csv").write_text(serialize_space(inputs.space), encoding="utf-8")
    params = " ".join(f"{{{name}}}" for name in inputs.space.names)
    command = f"{shlex.quote(sys.executable)} -S -E {shlex.quote(str(SOLVER))} {{problem}} {params}"
    (workdir / "adapter.cfg").write_text(
        f"command = {command}\nmetric_pattern = ^c metric: (\\S+)\nbudget_flag = --budget {{budget}}\n",
        encoding="utf-8",
    )
    argv = [
        "--space", str(workdir / "space.csv"), "--manifest", str(workdir / "manifest.tsv"),
        "--adapter", str(workdir / "adapter.cfg"), "--virtual-clock", "--seed", str(seed),
        "--samples-per-epoch", str(w.samples_per_epoch),
        "--strategize-samples", str(w.strategize_samples), "--trees", str(w.forest.trees),
    ]
    return argv, workdir / "run.tsv"


class Probe:
    """Backend proxy at the benchmark boundary.

    Counts calls and errors, and records when each call starts and returns
    (with the calibration seconds inside it) and when each base solve (a
    call without a budget) does, which gives the advance times.  With
    ``calibrate`` it times a calibration slice inside each base-solve window,
    outside every advance, and with ``launches`` a launch slice inside every
    ``LAUNCH_EVERY``-th call.
    With a tracer it also records a ``backends.solve`` span per call.
    """

    def __init__(self, inner, tracer=None, calibrate=False, launches=False):
        self.inner = inner
        self.calls = 0
        self.errors = 0
        self.windows: list[tuple[float, float, float]] = []
        self.base_solves: list[tuple[float, float]] = []
        self.slices: list[float] = []
        self.launch_slices: list[float] = []
        self._calibrate = calibrate
        self._launches = launches
        self._solve = inner.solve if tracer is None else tracer.wrap_callable(inner.solve, "backends.solve")

    @property
    def num_problems(self) -> int:
        return self.inner.num_problems

    def solve(self, index, strategy, budget=None):
        self.calls += 1
        start = time.perf_counter()
        sliced = 0.0
        try:
            if budget is None and self._calibrate:
                self.slices.append(calibration_slice())
                sliced += self.slices[-1]
            if self._launches and self.calls % LAUNCH_EVERY == 0:
                self.launch_slices.append(launch_slice())
                sliced += self.launch_slices[-1]
            return self._solve(index, strategy, budget)
        except Exception:
            self.errors += 1
            raise
        finally:
            end = time.perf_counter()
            self.windows.append((start, end, sliced))
            if budget is None:
                self.base_solves.append((start, end))


def at_reference_speed(wall_s: float, probes: list[Probe]) -> tuple[float, float, list[float]]:
    """(scale, run seconds, advance seconds) of a run, at reference speed.

    Calibration seconds are taken out of the wall time.  Backend time (inside
    solve calls) is scaled by the median launch slice when there are any,
    and otherwise counts as in-process time.  In-process time within an advance
    is scaled by the mean of the two calibration slices around it, and the
    rest by their median.  Without slices the run is left as measured.
    """
    solves = sorted(s for probe in probes for s in probe.base_solves)
    gaps = [(prev[1], nxt[0]) for prev, nxt in zip(solves, solves[1:])]
    advances = [hi - lo for lo, hi in gaps]
    slices = [s for probe in probes for s in probe.slices]
    if not slices:
        return 1.0, wall_s, advances
    scale = REF_SLICE_S / statistics.median(slices)
    local = [2 * REF_SLICE_S / (a + b) for a, b in zip(slices, slices[1:])]
    windows = [w for probe in probes for w in probe.windows]
    launches = [s for probe in probes for s in probe.launch_slices]
    launch_scale = REF_LAUNCH_S / statistics.median(launches) if launches else None

    def inside(lo, hi):
        """(backend, calibration) seconds of the calls within [lo, hi]."""
        calls = [w for w in windows if lo <= w[0] and w[1] <= hi]
        cut = math.fsum(w[2] for w in calls)
        return math.fsum(end - start for start, end, _ in calls) - cut, cut

    split = [inside(lo, hi) for lo, hi in gaps]
    backend_all, cut_all = inside(-math.inf, math.inf)
    backend_out = backend_all - math.fsum(b for b, _ in split)
    cut_out = cut_all - math.fsum(c for _, c in split)
    if launch_scale is None:
        scaled = [(a - c) * f for a, (_, c), f in zip(advances, split, local)]
        backend_out, launch_scale = 0.0, 0.0  # counted as in-process time
    else:
        scaled = [(a - b - c) * f + b * launch_scale for a, (b, c), f in zip(advances, split, local)]
    rest = wall_s - math.fsum(advances) - backend_out - cut_out
    run_s = math.fsum(scaled) + rest * scale + backend_out * launch_scale
    return scale, run_s, scaled


@dataclass
class RunRecord:
    """One learned run with its no-learn twin; ``problems`` empty means correct.

    ``run_s`` and ``advances_s`` are at reference speed (see
    ``at_reference_speed``); ``scale`` is the factor of in-process time
    outside the advances, 1 for an uncalibrated run.
    """

    seed: int
    wall_s: float
    scale: float
    run_s: float
    advances_s: list[float]
    virtual_total: float
    solve_speedup: float
    trajectory_sha256: str
    calls: int
    errors: int
    problems: list[str]


def trajectory_sha256(trajectory) -> str:
    digest = hashlib.sha256()
    for event in trajectory:
        digest.update(repr(dataclasses.astuple(event)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def expected_answer(landscape: SyntheticLandscape) -> tuple[str, int]:
    """(outcome, largest solved index) that every correct run must report."""
    for index, verdict in enumerate(landscape.verdicts, start=1):
        if verdict is Verdict.SAT:
            return "SUCCESS", index
    return "FAILURE", landscape.num_problems


def _engine_run(w: Workload, inputs: Inputs, seed: int, backend, learn: bool):
    policy = EpochPolicy(
        samples_per_epoch=w.samples_per_epoch,
        learning_budget=inputs.budget if learn else 0.0,
        strategize_samples=w.strategize_samples,
    )
    return engine.run(
        backend, policy, space=inputs.space, sampler_config=SamplerConfig(seed=seed),
        forest_config=w.forest, seed=seed,
    )


def _cli_run(inputs: Inputs, make_probe, learn: bool):
    """Run the CLI path; its ExternalBackend is created inside ``execute``."""
    if learn:
        argv = inputs.argv + ["--budget-seconds", repr(inputs.budget), "--out", str(inputs.out)]
    else:
        argv = inputs.argv + ["--no-learn"]
    real = cli.ExternalBackend
    cli.ExternalBackend = lambda *args, **kwargs: make_probe(real(*args, **kwargs))
    try:
        result, _ = cli.execute(cli.parse_args(argv))
    finally:
        cli.ExternalBackend = real
    return result


def run_once(w: Workload, seed: int, workdir: Path, tracer=None, wrap=None, calibrate=False) -> RunRecord:
    """One timed learned run, then its untimed no-learn twin and checks.

    ``tracer`` traces and ``calibrate`` calibrates the learned run only.
    ``wrap`` wraps every backend the runs use, which lets a test inject a
    faulty solver.  A run that raises is reported in ``problems``; it does
    not stop the benchmark.
    """
    inputs = make_inputs(w, seed, workdir)
    probes: list[Probe] = []

    def make_probe(inner, learned=False):
        traced = learned and tracer is not None
        probe = Probe(
            wrap(inner) if wrap else inner, tracer if traced else None,
            calibrate=learned and calibrate, launches=learned and calibrate and w.via_cli,
        )
        probes.append(probe)
        return probe

    def one(learn: bool):
        if w.via_cli:
            return _cli_run(inputs, lambda inner: make_probe(inner, learn), learn)
        return _engine_run(w, inputs, seed, make_probe(SyntheticBackend(inputs.landscape), learn), learn)

    expected = expected_answer(inputs.landscape)
    problems: list[str] = []
    wall_s, scale, run_s, advances = math.nan, 1.0, math.nan, []
    virtual_total, speedup, sha = math.nan, math.nan, ""
    try:
        if tracer is not None:
            tracer.install()
        started = time.perf_counter()
        try:
            learned = one(learn=True)
            wall_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall(time.perf_counter() - started)
        scale, run_s, advances = at_reference_speed(wall_s, probes)
        baseline = one(learn=False)
        got = engine.summarize(learned.trajectory, learned.outcome)
        base = engine.summarize(baseline.trajectory, baseline.outcome)
        for label, summary in (("learned", got), ("no-learn", base)):
            answer = (summary.outcome, summary.largest_solved_index)
            if answer != expected:
                problems.append(f"{label} run answered {answer}, expected {expected}")
        if (got.outcome, got.largest_solved_index) != (base.outcome, base.largest_solved_index):
            problems.append("learning changed the verdict")
        sha = trajectory_sha256(learned.trajectory)
        if w.via_cli:
            reference = _engine_run(w, inputs, seed, SyntheticBackend(inputs.landscape), learn=True)
            if trajectory_sha256(reference.trajectory) != sha:
                problems.append("CLI trajectory differs from the in-process synthetic run")
        virtual_total = learned.trajectory.cumulative_time
        speedup = base.solving_time / got.solving_time
    except Exception as exc:  # a failed run is counted, not fatal
        problems.append(f"raised {type(exc).__name__}: {exc}")
    return RunRecord(
        seed=seed, wall_s=wall_s, scale=scale, run_s=run_s, advances_s=advances, virtual_total=virtual_total,
        solve_speedup=speedup, trajectory_sha256=sha,
        calls=sum(p.calls for p in probes), errors=sum(p.errors for p in probes),
        problems=problems,
    )
