"""Command-line front end: run configuration, trajectory emission, ablation grids.

Trajectory files are line-delimited text with a versioned header: one
tab-separated record per event, followed by per-index cumulative solve times
and a final summary record.  The format is diff-able in CI and trivial to
load from any plotting stack.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from .backends import (
    ExternalBackend,
    SyntheticBackend,
    load_adapter_config,
    load_landscape,
    load_manifest,
)
from .engine import (
    EpochPolicy,
    ForestConfig,
    Outcome,
    RunResult,
    RunSummary,
    Trajectory,
    TrajectoryEvent,
    run,
    summarize,
)
from .space import Strategy, load_space

logger = logging.getLogger(__name__)

TRAJECTORY_FORMAT = "stratlearn-trajectory v1"


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; mirrors the command-line flags."""

    space_path: str
    manifest_path: str | None = None
    landscape_path: str | None = None
    adapter_path: str | None = None
    budget_fraction: float = 0.15
    budget_seconds: float | None = None
    samples_per_epoch: int = 100
    strategize_samples: int = 500
    trees: int = 50
    init_depth: int | None = None
    fixed_depth: int | None = None
    seed: int = 0
    time_limit: float | None = None
    no_learn: bool = False
    virtual_clock: bool = False
    out: str | None = None


def _checked(convert, accept, what: str):
    """An argparse type: ``convert`` the text, then refuse values that ``accept`` rejects."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = convert.__name__
    return parse


_fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "a fraction in [0, 1]")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonneg_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_positive_float = _checked(float, lambda v: v > 0, "a positive number")


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(x) for x in text.split(",")]


def _build_parser(ablate: bool = False) -> argparse.ArgumentParser:
    """Run flags, each stored under its ``RunConfig`` field; ``ablate`` swaps budget and depth for the grid axes."""
    parser = argparse.ArgumentParser(
        prog="stratlearn ablate" if ablate else "stratlearn",
        description="Solve an ordered problem set while learning which solver configuration to "
        "use for each successive problem; 'stratlearn ablate' sweeps learning budget x tree depth.",
    )
    parser.add_argument("--space", dest="space_path", required=True,
                        help="strategy space CSV (name,default,alternatives)")
    problems = parser.add_mutually_exclusive_group(required=True)
    problems.add_argument("--manifest", dest="manifest_path",
                          help="problem manifest (index<TAB>locator lines)")
    problems.add_argument("--landscape", dest="landscape_path", help="synthetic landscape JSON")
    parser.add_argument("--adapter", dest="adapter_path",
                        help="solver adapter config (key=value lines); required with, and only with, --manifest")
    parser.add_argument("--samples-per-epoch", type=_positive_int, default=100)
    parser.add_argument("--strategize-samples", type=_positive_int, default=500)
    parser.add_argument("--trees", type=_positive_int, default=50)
    parser.add_argument("--seed", type=_nonneg_int, default=0)
    parser.add_argument("--time-limit", type=_positive_float, default=None)
    parser.add_argument("--virtual-clock", action="store_true",
                        help="account time in backend effort units (deterministic replay)")
    parser.add_argument("--out", default=None, help="grid file path" if ablate else "trajectory output path")
    if ablate:
        parser.add_argument("--budgets", type=_floats, required=True,
                            help="comma-separated absolute learning budgets")
        parser.add_argument("--depths", type=_positive_ints, required=True,
                            help="comma-separated fixed tree depths")
        return parser
    parser.add_argument("--budget-frac", dest="budget_fraction", type=_fraction, default=0.15,
                        help="learning budget as a fraction of the time limit (default 0.15)")
    parser.add_argument("--budget-seconds", type=_positive_float, default=None,
                        help="absolute learning budget; overrides --budget-frac")
    parser.add_argument("--no-learn", action="store_true", help="baseline mode: learning budget forced to 0")
    depth = parser.add_mutually_exclusive_group()
    depth.add_argument("--init-depth", type=_positive_int, default=None,
                       help="initial tree depth (default: a third of the feature count, rounded up)")
    depth.add_argument("--fixed-depth", type=_positive_int, default=None,
                       help="train at this exact depth instead of deepening adaptively")
    return parser


def _run_config(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> RunConfig:
    if ns.manifest_path and not ns.adapter_path:
        parser.error("--manifest requires --adapter")
    if ns.adapter_path and not ns.manifest_path:
        parser.error("--adapter is read only with --manifest")
    return RunConfig(**vars(ns))


def parse_args(argv) -> RunConfig:
    parser = _build_parser()
    return _run_config(parser, parser.parse_args(argv))


def resolve_budget(config: RunConfig) -> float:
    if config.no_learn:
        return 0.0
    if config.budget_seconds is not None:
        return config.budget_seconds
    if config.time_limit is not None:
        return config.budget_fraction * config.time_limit
    if config.budget_fraction > 0:
        logger.warning("no time limit and no absolute budget given; learning is disabled")
    return 0.0


def execute(config: RunConfig) -> tuple[RunResult, RunSummary]:
    """Load inputs, run, and (when --out is set) emit the trajectory file."""
    space = load_space(config.space_path)
    if config.landscape_path:
        landscape = load_landscape(config.landscape_path)
        if landscape.optimum:  # an empty optimum prices every strategy alike
            try:
                space.codes(Strategy(landscape.optimum))
            except ValueError as exc:
                raise ValueError(f"{config.landscape_path}: optimum does not fit the space: {exc}") from exc
        backend = SyntheticBackend(landscape)
    else:
        if not config.adapter_path:
            raise ValueError("a manifest run needs an adapter config")
        backend = ExternalBackend(
            load_adapter_config(config.adapter_path),
            space,
            load_manifest(config.manifest_path),
        )
    policy = EpochPolicy(samples_per_epoch=config.samples_per_epoch, learning_budget=resolve_budget(config),
                         strategize_samples=config.strategize_samples)
    forest_config = ForestConfig(trees=config.trees, init_depth=config.init_depth, fixed_depth=config.fixed_depth)
    clock = "virtual" if config.virtual_clock else "wall"
    result = run(
        backend, policy, space=space, forest_config=forest_config, seed=config.seed,
        time_limit=config.time_limit, clock=clock,
    )
    if not config.out:
        return result, summarize(result.trajectory, result.outcome)
    meta = {"seed": str(config.seed), "space": config.space_path, "clock": clock}
    return result, emit_trajectory(result.trajectory, config.out, outcome=result.outcome, meta=meta)


def _cell(value) -> str:
    """One cell of a trajectory or grid file: a strategy joined with ';', None as '-', a float by repr, else str."""
    if isinstance(value, tuple):
        return ";".join(value)
    return "-" if value is None else (str(value) if not isinstance(value, float) else repr(value))


def _summary_items(summary: RunSummary) -> list[tuple[str, object]]:
    """``RunSummary``'s fields in order but ``solved_times``, which a trajectory writes as ``solved`` lines."""
    return [(f.name, getattr(summary, f.name)) for f in dataclasses.fields(summary) if f.name != "solved_times"]


def emit_trajectory(
    trajectory: Trajectory,
    path: str | Path,
    *,
    outcome: Outcome,
    meta: dict[str, str] | None = None,
) -> RunSummary:
    """Write the event log plus a summary; returns the summary.

    Each event is one row of ``TrajectoryEvent``'s fields in order.  The
    summary carries epoch count, learning time, the cumulative time at
    which each index was solved, and the largest solved index.
    """
    summary = summarize(trajectory, outcome)
    names = [f.name for f in dataclasses.fields(TrajectoryEvent)]
    lines = [f"#{TRAJECTORY_FORMAT}"]
    if meta:
        lines.append("#meta\t" + "\t".join(f"{k}={v}" for k, v in sorted(meta.items())))
    lines.append("#fields\t" + "\t".join(names))
    for event in trajectory:
        lines.append("\t".join(_cell(getattr(event, name)) for name in names))
    for index, cumulative in summary.solved_times:
        lines.append(f"solved\t{index}\t{cumulative!r}")
    lines.append("summary" + "".join(f"\t{name}={_cell(value)}" for name, value in _summary_items(summary)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return summary


@dataclass
class GridResult:
    """Largest solved index per (budget, depth) cell; failed cells carry their error."""

    budgets: tuple[float, ...]
    depths: tuple[int, ...]
    largest_solved: list[list[int | None]]
    errors: dict[tuple[int, int], str]

    def matrix(self) -> list[str]:
        """Heat-map-ready rows: a depth header, then one row per budget."""
        lines = ["budget\\depth\t" + "\t".join(str(d) for d in self.depths)]
        for budget, row in zip(self.budgets, self.largest_solved):
            lines.append(f"{budget:g}\t" + "\t".join(_cell(v) for v in row))
        return lines


def ablation_grid(config: RunConfig, budgets, depths) -> GridResult:
    """Run the (budget x depth) cartesian grid, one fresh seeded run per cell.

    Budgets are absolute learning budgets, and one that is not positive (NaN
    too) runs without learning; each cell trains at its fixed tree depth.
    Per-cell failures are recorded, not raised, so one bad cell does not abort the sweep.
    """
    budgets = tuple(float(b) for b in budgets)
    depths = tuple(int(d) for d in depths)
    matrix: list[list[int | None]] = []
    errors: dict[tuple[int, int], str] = {}
    for bi, budget in enumerate(budgets):
        row: list[int | None] = []
        for di, depth in enumerate(depths):
            cell_config = dataclasses.replace(
                config,
                budget_seconds=budget if budget > 0 else None,
                no_learn=not budget > 0,
                fixed_depth=depth,
                out=None,
            )
            try:
                _, summary = execute(cell_config)
                row.append(summary.largest_solved_index)
            except Exception as exc:  # keep sweeping; report per cell
                logger.warning("grid cell (budget=%s, depth=%s) failed: %s", budget, depth, exc)
                errors[(bi, di)] = str(exc)
                row.append(None)
        matrix.append(row)
    grid = GridResult(budgets, depths, matrix, errors)
    if config.out:
        write_grid(grid, config.out)
    return grid


def write_grid(grid: GridResult, path: str | Path) -> None:
    """The matrix under a versioned header, then one ``#error`` line per failed cell."""
    lines = ["#stratlearn-grid v1", *grid.matrix()]
    for (bi, di), message in sorted(grid.errors.items()):
        lines.append(f"#error\tbudget={grid.budgets[bi]:g}\tdepth={grid.depths[di]}\t{message}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _ablate(argv) -> int:
    parser = _build_parser(ablate=True)
    ns = parser.parse_args(argv)
    budgets, depths = ns.budgets, ns.depths
    del ns.budgets, ns.depths
    config = _run_config(parser, ns)
    grid = ablation_grid(config, budgets, depths)
    print("\n".join(grid.matrix()))
    if config.out:
        print(f"grid written to {config.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    """``stratlearn <run flags>`` runs once; ``stratlearn ablate <run flags> --budgets .. --depths ..`` sweeps."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["ablate"]:
        return _ablate(argv[1:])
    config = parse_args(argv)
    result, summary = execute(config)
    print(" ".join(f"{name}={value:.6g}" if isinstance(value, float) else f"{name}={value}"
                   for name, value in _summary_items(summary)))
    if config.out:
        print(f"trajectory written to {config.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
