"""Command-line front end: run configuration, trajectory emission, ablation grids."""

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
from .engine import EpochPolicy, ForestConfig, RunResult, run, summarize
from .space import Strategy, load_space
from .trajectory import RunSummary, cell, check_meta, emit_trajectory, summary_items

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Everything one run uses; mirrors the command-line flags.  ``learning_budget``, in the run clock's unit, is 0
    by default; ``parse_args`` sets it from ``--no-learn`` (0), else ``--budget-seconds``, else ``--budget-frac``
    times ``--time-limit``."""

    space_path: str
    manifest_path: str | None = None
    landscape_path: str | None = None
    adapter_path: str | None = None
    learning_budget: float = EpochPolicy.learning_budget
    samples_per_epoch: int = EpochPolicy.samples_per_epoch
    strategize_samples: int = EpochPolicy.strategize_samples
    trees: int = ForestConfig.trees
    init_depth: int | None = None
    fixed_depth: int | None = None
    seed: int = 0
    time_limit: float | None = None
    virtual_clock: bool = False
    out: str | None = None

    def __post_init__(self) -> None:
        given = (bool(self.manifest_path), bool(self.adapter_path), bool(self.landscape_path))
        if given not in ((True, True, False), (False, False, True)):
            raise ValueError("a run reads its problems from --landscape alone, or from --manifest with --adapter")


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
    """Run flags, each under its ``RunConfig`` field when given; ``ablate`` swaps budget and depth for the grid axes."""
    parser = argparse.ArgumentParser(
        prog="stratlearn ablate" if ablate else "stratlearn",
        description="Solve an ordered problem set while learning which solver configuration to "
        "use for each successive problem; 'stratlearn ablate' sweeps learning budget x tree depth.",
        argument_default=argparse.SUPPRESS,  # RunConfig states each default
    )
    parser.add_argument("--space", dest="space_path", required=True,
                        help="strategy space CSV (name,default,alternatives)")
    parser.add_argument("--manifest", dest="manifest_path", help="problem manifest (index<TAB>locator lines)")
    parser.add_argument("--landscape", dest="landscape_path", help="synthetic landscape JSON")
    parser.add_argument("--adapter", dest="adapter_path",
                        help="solver adapter config (key=value lines); required with, and only with, --manifest")
    parser.add_argument("--samples-per-epoch", type=_positive_int)
    parser.add_argument("--strategize-samples", type=_positive_int)
    parser.add_argument("--trees", type=_positive_int)
    parser.add_argument("--seed", type=_nonneg_int)
    parser.add_argument("--time-limit", type=_positive_float)
    parser.add_argument("--virtual-clock", action="store_true",
                        help="account time in backend effort units (deterministic replay)")
    parser.add_argument("--out", help="grid file path" if ablate else "trajectory output path")
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
    parser.add_argument("--no-learn", action="store_true", default=False, help="baseline mode: learning budget 0")
    depth = parser.add_mutually_exclusive_group()
    depth.add_argument("--init-depth", type=_positive_int,
                       help="initial tree depth (default: a third of the feature count, rounded up)")
    depth.add_argument("--fixed-depth", type=_positive_int,
                       help="train at this exact depth instead of deepening adaptively")
    return parser


def _parse(argv, *flags: str, ablate: bool = False) -> tuple:
    """``argv``'s ``RunConfig``, then the values of ``flags``, which are not its fields; a usage error if refused."""
    parser = _build_parser(ablate)
    given = vars(parser.parse_args(argv))
    values = [given.pop(name) for name in flags]
    try:
        return (RunConfig(**given), *values)
    except ValueError as exc:
        parser.error(str(exc))


def parse_args(argv) -> RunConfig:
    """The run ``argv`` describes.  Its ``learning_budget`` is 0 with ``--no-learn``, else ``--budget-seconds``,
    else ``--budget-frac`` (default 0.15) times ``--time-limit``, else 0 with a warning unless the fraction is 0."""
    config, no_learn, seconds, fraction = _parse(argv, "no_learn", "budget_seconds", "budget_fraction")
    if no_learn:
        return config
    if seconds is not None:
        return dataclasses.replace(config, learning_budget=seconds)
    if config.time_limit is not None:
        return dataclasses.replace(config, learning_budget=fraction * config.time_limit)
    if fraction > 0:
        logger.warning("no time limit and no absolute budget given; learning is disabled")
    return config


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
        backend = ExternalBackend(
            load_adapter_config(config.adapter_path),
            space,
            load_manifest(config.manifest_path),
        )
    policy = EpochPolicy(samples_per_epoch=config.samples_per_epoch, learning_budget=config.learning_budget,
                         strategize_samples=config.strategize_samples)
    forest_config = ForestConfig(trees=config.trees, init_depth=config.init_depth, fixed_depth=config.fixed_depth)
    clock = "virtual" if config.virtual_clock else "wall"
    meta = {"seed": str(config.seed), "space": config.space_path, "clock": clock}
    if config.out:  # before the first solve, not after the whole run
        _check_out(config.out)
        check_meta(meta)
    result = run(
        backend, policy, space=space, forest_config=forest_config, seed=config.seed,
        time_limit=config.time_limit, clock=clock,
    )
    summary = summarize(result.trajectory, result.outcome)
    if config.out:
        emit_trajectory(result.trajectory, config.out, summary=summary, meta=meta)
    return result, summary


def _check_out(path: str) -> None:
    """Refuse an output path that is a directory or lies in a missing one, before the work it would hold."""
    if Path(path).is_dir():
        raise ValueError(f"--out {path}: is a directory")
    if not Path(path).parent.is_dir():
        raise ValueError(f"--out {path}: directory {Path(path).parent} does not exist")


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
            lines.append(f"{budget:g}\t" + "\t".join(cell(v) for v in row))
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
    if config.out:
        _check_out(config.out)
    for bi, budget in enumerate(budgets):
        row: list[int | None] = []
        for di, depth in enumerate(depths):
            cell_config = dataclasses.replace(
                config,
                learning_budget=budget if budget > 0 else 0.0,
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
    config, budgets, depths = _parse(argv, "budgets", "depths", ablate=True)
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
                   for name, value in summary_items(summary)))
    if config.out:
        print(f"trajectory written to {config.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
