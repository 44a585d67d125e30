"""Transition-rule engine for solving an ordered problem set while learning.

The base rules walk an index through the problem sequence: an UNSAT answer on
a non-final problem advances the index, a SAT answer ends the run with
Success, and UNSAT on the final problem ends it with Failure.
``apply_solve`` is the one place that picks the rule from a solve's verdict
and index.  On top of that, learning epochs gather (strategy, index, cost)
samples by rerunning the just-solved problem under sampled strategies, a
random forest is refit on the growing dataset, and after every index advance
the active strategy switches to the candidate the forest predicts to be
cheapest.

The scalar cost of a strategy on a problem is the raw backend metric divided
by the metric of ``run()``'s solve of that problem, so the in-force strategy
costs exactly 1.  ``collect_cost`` alone runs and records a collection run
under a metric budget of a fixed ``ABORT_MULTIPLIER`` (10) times that
baseline; a run that exhausts it enters the dataset at cost 10, whatever the
backend answered, so the oracle still learns that the region is bad.  Only
its ``CostRecord.aborted`` marks the abort; the trajectory does not.

A run's ``Trajectory`` is its only clock.  The virtual clock, ``run()``'s
default, charges a backend call its effort metric and compute nothing, so runs
replay bit-identically; the wall clock, the CLI's default, charges each event
the seconds since the previous one ended.  Budget and time limit use its unit.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .backends import Verdict
from .forest import DataPoint, Dataset, Grid, RandomForest, fit_adaptive, fit_forest, predict
from .sampler import CostFunctionError, SamplerConfig, run_chain
from .space import Strategy, StrategySpace, default_strategy, encode_features

logger = logging.getLogger(__name__)

_COLLECT_STREAM = 11
_TRAIN_STREAM = 12
_STRATEGIZE_STREAM = 13

ABORT_MULTIPLIER = 10.0
TABLE_CAP = 1 << 16  # the largest space whose every strategy rule_strategize predicts at once


def _substream_seed(seed: int, stream: int, step: int) -> int:
    """Stable labeled split of the master seed into independent generator streams."""
    return int(np.random.SeedSequence([seed, stream, step]).generate_state(1)[0])


class Outcome(Enum):
    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"
    TIME_LIMIT = "TIME_LIMIT"


class InapplicableRuleError(RuntimeError):
    """A transition rule was applied in a configuration that does not admit it."""


@dataclass(frozen=True)
class EpochPolicy:
    """How much learning a run may do.

    ``samples_per_epoch`` is the chain length of one collection burst,
    ``learning_budget`` the learning time, in the run clock's unit (effort or
    seconds), that ``should_learn`` admits epochs within, by an estimate, and
    ``strategize_samples`` the candidate count when switching strategies.
    """

    samples_per_epoch: int = 100
    learning_budget: float = 0.0
    strategize_samples: int = 500

    def __post_init__(self) -> None:
        if self.samples_per_epoch < 1:
            raise ValueError("samples_per_epoch must be at least 1")
        if not self.learning_budget >= 0:  # NaN fails too
            raise ValueError(f"learning_budget must be nonnegative, got {self.learning_budget!r}")
        if self.strategize_samples < 1:
            raise ValueError("strategize_samples must be at least 1")


@dataclass(frozen=True)
class ForestConfig:
    """Oracle training knobs; ``fixed_depth`` replaces the adaptive deepening that ``init_depth`` seeds."""

    trees: int = 50
    init_depth: int | None = None
    fixed_depth: int | None = None
    score_threshold: float = 0.9
    depth_cap: int | None = None

    def __post_init__(self) -> None:
        if self.trees < 1:
            raise ValueError("trees must be at least 1")
        if self.init_depth is not None and self.init_depth < 1:
            raise ValueError("init_depth must be at least 1")
        if self.depth_cap is not None and self.depth_cap < 1:
            raise ValueError("depth_cap must be at least 1")
        if self.fixed_depth is not None and self.fixed_depth < 1:
            raise ValueError("fixed_depth must be at least 1")
        if math.isnan(self.score_threshold):
            raise ValueError("score_threshold must not be NaN")
        if self.init_depth is not None and self.depth_cap is not None and self.init_depth > self.depth_cap:
            raise ValueError(f"init_depth {self.init_depth} exceeds depth_cap {self.depth_cap}")
        if self.fixed_depth is not None and (self.init_depth is not None or self.depth_cap is not None):
            raise ValueError("fixed_depth is exclusive with init_depth and depth_cap")


@dataclass(frozen=True)
class TrajectoryEvent:
    phase: str  # solve | collect | train | strategize
    index: int
    strategy: tuple[str, ...]
    verdict: str | None
    raw_metric: float | None
    cost: float | None
    virtual_time: float
    cumulative_time: float


class Trajectory:
    """Ordered event log of one run, its only clock, and its ``learning_time`` (non-solve events, in order).

    An event takes its effort ``charge`` on the virtual clock, and on the wall
    clock the seconds since the previous event or construction: the events partition the wall time.
    """

    def __init__(self, clock: str = "virtual") -> None:
        if clock not in ("virtual", "wall"):
            raise ValueError(f"unknown clock mode {clock!r}")
        self.clock = clock
        self.events: list[TrajectoryEvent] = []
        self.cumulative_time = 0.0
        self.learning_time = 0  # an int, like sum()'s start: a run without learning reports 0
        self._ended = time.perf_counter()  # the wall clock's reading at the end of the last event

    def record(
        self,
        phase: str,
        index: int,
        strategy: Strategy,
        *,
        verdict: str | None = None,
        raw_metric: float | None = None,
        cost: float | None = None,
        charge: float = 0.0,
    ) -> TrajectoryEvent:
        if self.clock == "virtual":
            duration = charge
        else:
            now = time.perf_counter()
            duration, self._ended = now - self._ended, now
        if duration < 0:
            raise ValueError("event times must be nonnegative")
        self.cumulative_time += duration
        if phase != "solve":
            self.learning_time += duration
        event = TrajectoryEvent(
            phase, index, strategy.assignments, verdict, raw_metric, cost,
            duration, self.cumulative_time,
        )
        self.events.append(event)
        return event

    def phase_events(self, phase: str) -> list[TrajectoryEvent]:
        return [e for e in self.events if e.phase == phase]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


@dataclass
class EngineState:
    """Mutable run configuration: index, strategy, dataset, oracle and its predictions by rank, a float64
    array of every rank's from the oracle's first strategize on, or a dict of those met if over
    ``TABLE_CAP`` strategies (see rule_strategize); ``{}`` before that strategize.  ``floor`` is the
    array's minimum, kept only when every entry is finite: no candidate can be strictly cheaper, so a
    strategize whose in-force strategy predicts it skips its chain, and any other's chain ends at its
    first record there.  A refit resets both."""

    space: StrategySpace
    num_problems: int
    strategy: Strategy
    dataset: Dataset
    index: int = 1
    oracle: RandomForest | None = None
    predictions: dict[int, float] | np.ndarray = field(default_factory=dict)
    floor: float | None = None
    epochs: int = 0
    baseline: float | None = None  # metric of run()'s latest solve: an epoch's unit of cost
    terminal: Outcome | None = None


def initial_state(space: StrategySpace, num_problems: int) -> EngineState:
    if num_problems < 1:
        raise ValueError("need at least one problem")
    return EngineState(space=space, num_problems=num_problems, strategy=default_strategy(space), dataset=Dataset())


def _require_live(state: EngineState) -> None:
    if state.terminal is not None:
        raise InapplicableRuleError(f"terminal state {state.terminal.value} is absorbing")


def apply_solve(state: EngineState, outcome) -> Outcome | None:
    """Pick the base rule from a main solve's verdict and the index; nothing else picks it.

    SAT applies Success at any index and UNSAT on the final problem applies
    Failure; both set ``state.terminal`` and return it.  UNSAT below the final
    index returns None: Next applies, and ``run()`` advances the index after
    any epoch on the solved problem.  Any other verdict raises RuntimeError.
    """
    _require_live(state)
    if outcome.verdict is Verdict.SAT:
        state.terminal = Outcome.SUCCESS
    elif outcome.verdict is not Verdict.UNSAT:
        raise RuntimeError(
            f"backend returned {outcome.verdict.value} for problem {state.index}; "
            "the engine needs a decisive verdict"
        )
    elif state.index == state.num_problems:
        state.terminal = Outcome.FAILURE
    return state.terminal


def should_learn(state: EngineState, policy: EpochPolicy, t_current: float, trajectory: Trajectory) -> bool:
    """Admit an epoch on the problem just solved; nothing else decides it.

    No budget admits none.  Otherwise the trajectory's learning time plus
    the estimated epoch cost must fit the budget, and the baseline
    (``state.baseline``, the metric of that solve) must be above zero, since
    it is an epoch's unit of cost; each refusal is logged.  The estimate is
    ``samples_per_epoch`` reruns of ``t_current``, the solve's time, all in
    the trajectory clock's unit.  A collection call is charged up to
    ``ABORT_MULTIPLIER`` times the baseline, so an admitted epoch can overrun
    the budget (ROADMAP.md item 11).  On the wall clock the estimate also
    leaves out the epoch's compute (chain steps, append and fit), so with a
    fast solver an epoch takes many times its estimate (the same item).
    """
    if not policy.learning_budget > 0:
        return False
    estimate = policy.samples_per_epoch * t_current
    if trajectory.learning_time + estimate > policy.learning_budget:
        logger.info(
            "epoch refused at problem %d: spent %.6g + estimate %.6g exceeds budget %.6g",
            state.index, trajectory.learning_time, estimate, policy.learning_budget,
        )
        return False
    if state.baseline == 0:
        logger.info("skipping epoch at problem %d: zero-effort baseline", state.index)
        return False
    return True


@dataclass(frozen=True)
class CostRecord:
    cost: float
    aborted: bool


def collect_cost(backend, index: int, strategy: Strategy, baseline_metric: float, trajectory: Trajectory) -> CostRecord:
    """Run the backend under a budget of ``ABORT_MULTIPLIER`` times the baseline and record a ``collect`` event.

    A run reported ABORTED or over budget costs ``ABORT_MULTIPLIER`` and is charged the budget on the
    virtual clock; any other costs its metric over the baseline and is charged its metric.  The verdict
    is otherwise discarded: the baseline's run already settled the problem's status.
    """
    if not baseline_metric > 0:
        raise ValueError(f"baseline must be positive, got {baseline_metric!r}")
    budget = ABORT_MULTIPLIER * baseline_metric
    outcome = backend.solve(index, strategy, budget=budget)
    metric = float(outcome.metric)
    aborted = outcome.verdict is Verdict.ABORTED or metric > budget
    if aborted:
        logger.info("collect run on problem %d aborted (metric %.6g, budget %.6g); cost capped at %.6g",
                    index, metric, budget, ABORT_MULTIPLIER)
        cost, charge = ABORT_MULTIPLIER, budget
    else:
        cost, charge = metric / baseline_metric, metric
    trajectory.record("collect", index, strategy, raw_metric=metric, cost=cost, charge=charge)
    return CostRecord(cost, aborted)


def learning_epoch(
    state: EngineState,
    backend,
    policy: EpochPolicy,
    sampler_config: SamplerConfig,
    *,
    forest_config: ForestConfig = ForestConfig(),
    seed: int = 0,
    trajectory: Trajectory,
) -> EngineState:
    """One burst of sample collection on the problem just solved, then an oracle refit.

    Costs are normalized by ``state.baseline``, which ``run()`` records from
    the solve just made.  The chain starts at the engine's current strategy,
    whose cost on the current problem is 1 by construction, so it costs no
    extra backend call.  The backend runs once per distinct strategy: the
    epoch's memo keeps each cost in call order, and a revisit makes no call,
    charge or event.  Each call is a ``collect_cost``, which records its
    ``collect`` event; on the wall clock that event takes the call's seconds
    and the chain steps before it, and the ``train`` event the rest, the
    dataset append and the fit.  A backend failure mid-chain
    (``CostFunctionError``) adds the memo's points instead and is re-raised
    with no refit; ``run()`` does not catch it, so the whole run ends
    (ROADMAP.md item 3c is to end the epoch).
    """
    _require_live(state)
    index = state.index
    baseline = state.baseline
    if baseline is None or baseline <= 0:
        raise ValueError(f"no positive baseline recorded for problem {index}")

    chain_config = dataclasses.replace(
        sampler_config, seed=_substream_seed(seed, _COLLECT_STREAM, state.epochs)
    )
    space = state.space
    in_force = space.rank(space.codes(state.strategy))
    measured: dict[int, float] = {}  # by rank, in call order

    def cost_fn(rank: int) -> float:
        # The in-force strategy's run *is* the baseline run; skip the redundant call.
        if rank == in_force:
            return 1.0
        if rank not in measured:
            strategy = space.strategy(space.unrank(rank))
            measured[rank] = collect_cost(backend, index, strategy, baseline, trajectory).cost
        return measured[rank]

    try:
        samples = run_chain(space, cost_fn, state.strategy, policy.samples_per_epoch, chain_config)
    except CostFunctionError:
        for rank, cost in measured.items():
            state.dataset.append(DataPoint(encode_features(space.unrank(rank), index), cost))
        raise

    for sample in samples:
        state.dataset.append(DataPoint(encode_features(space.unrank(sample.rank), index), sample.cost))

    forest_seed = _substream_seed(seed, _TRAIN_STREAM, state.epochs)
    if forest_config.fixed_depth is not None:
        oracle = fit_forest(state.dataset, forest_config.trees, forest_config.fixed_depth, forest_seed)
    else:
        oracle = fit_adaptive(
            state.dataset, forest_config.trees, forest_config.init_depth,
            forest_config.score_threshold, forest_config.depth_cap, forest_seed,
        )
    state.oracle, state.predictions, state.floor = oracle, {}, None
    state.epochs += 1
    trajectory.record("train", index, state.strategy, cost=oracle.training_score)
    logger.debug(
        "epoch %d on problem %d: %d backend calls, dataset size %d, score %.3f at depth %d",
        state.epochs, index, len(measured), len(state.dataset),
        oracle.training_score, oracle.trained_depth,
    )
    return state


def rule_strategize(
    state: EngineState,
    sampler_config: SamplerConfig,
    policy: EpochPolicy,
    *,
    seed: int = 0,
    trajectory: Trajectory,
) -> EngineState:
    """Switch to the candidate with the lowest predicted cost at the current index.

    Candidates are the current strategy plus a chain of ``strategize_samples - 1``
    steps over the oracle's predictions; ties keep the earliest candidate, so a
    constant oracle never moves the strategy, and a pick of the current strategy
    keeps ``state.strategy`` as it is.  Only a candidate strictly below the
    best so far can win, so none can after one at the table's minimum
    (``state.floor``, kept only for an all-finite table): the chain is skipped
    when the current strategy predicts it, and otherwise ends at its first
    record there (``run_chain``'s ``stop``).  A table with a non-finite entry,
    or a lazy dict, has no known minimum, so its chain walks every step, and
    one that meets a non-finite entry raises ``CostFunctionError``.

    Guard: a trained oracle whose index thresholds all lie strictly below the
    index (its ``index_bound``, computed once per oracle), else
    InapplicableRuleError with nothing changed.  A tree reads the
    index only in tests ``index > t``, which then all go right, so
    ``state.predictions`` is one exact table per oracle, keyed by rank: the
    oracle's first strategize fills it with one ``predict`` of every
    strategy's row as a ``Grid``, a float64 array that chains read as Python
    floats through ``ndarray.item``, and later ones only read it.  A space of
    over ``TABLE_CAP`` strategies instead fills a dict one ``predict`` of a
    one-row matrix at a time, as its chains meet each strategy.
    ``run()`` strategizes only above every index the oracle was trained on.
    """
    _require_live(state)
    oracle, index, space, memo = state.oracle, state.index, state.space, state.predictions
    if oracle is None or not oracle.index_bound < index:
        raise InapplicableRuleError(
            f"strategize at index {index} needs a trained oracle with every index threshold below it"
        )

    if isinstance(memo, dict) and math.prod(space.sizes) <= TABLE_CAP:
        memo = state.predictions = predict(oracle, Grid(space.sizes, index))
        if np.isfinite(memo).all():
            state.floor = memo.min().item()
    if isinstance(memo, np.ndarray):
        predicted_cost = memo.item
    else:
        def predicted_cost(rank: int) -> float:
            if rank not in memo:
                memo[rank] = predict(oracle, [encode_features(space.unrank(rank), index)]).item()
            return memo[rank]

    in_force = best = space.rank(space.codes(state.strategy))
    best_cost = predicted_cost(best)
    floor = state.floor
    if policy.strategize_samples > 1 and (floor is None or best_cost > floor):
        chain_config = dataclasses.replace(
            sampler_config, seed=_substream_seed(seed, _STRATEGIZE_STREAM, index)
        )
        chain = run_chain(
            space, predicted_cost, state.strategy, policy.strategize_samples - 1, chain_config,
            stop=-math.inf if floor is None else floor,
        )
        for record in chain:
            if record.cost < best_cost:
                best, best_cost = record.rank, record.cost
    if best != in_force:
        state.strategy = space.strategy(space.unrank(best))
    trajectory.record("strategize", index, state.strategy, cost=best_cost)
    return state


@dataclass(frozen=True)
class RunResult:
    outcome: Outcome
    state: EngineState
    trajectory: Trajectory


@dataclass(frozen=True)
class RunSummary:
    outcome: str
    largest_solved_index: int | None
    epochs: int
    learning_time: float
    solving_time: float
    cumulative_time: float
    solved_times: tuple[tuple[int, float], ...]


def summarize(trajectory: Trajectory, outcome: Outcome) -> RunSummary:
    solves = trajectory.phase_events("solve")
    return RunSummary(
        outcome=outcome.value,
        largest_solved_index=max((e.index for e in solves), default=None),
        epochs=len(trajectory.phase_events("train")),
        learning_time=trajectory.learning_time,
        solving_time=sum(e.virtual_time for e in solves),
        cumulative_time=trajectory.cumulative_time,
        solved_times=tuple((e.index, e.cumulative_time) for e in solves),
    )


def run(
    backend,
    policy: EpochPolicy,
    *,
    space: StrategySpace,
    sampler_config: SamplerConfig | None = None,
    forest_config: ForestConfig = ForestConfig(),
    seed: int = 0,
    time_limit: float | None = None,
    clock: str = "virtual",
) -> RunResult:
    """Drive the rules from ``default_strategy(space)`` until Success, Failure, or the time limit.

    Each solve goes to ``apply_solve``, which alone picks the base rule.  When
    Next applies, the engine runs one learning epoch on the problem it just
    solved if ``should_learn`` admits one, advances the index and, once the
    oracle exists, switches the strategy via its predictions at the new index.
    Collection and strategize chains both reseed ``sampler_config``.  All
    random streams derive from ``seed`` through fixed labeled splits, so
    identical inputs replay identical trajectories on the virtual clock.  The
    time limit is read before each solve from the ``clock``'s cumulative time.
    """
    trajectory = Trajectory(clock)
    if sampler_config is None:
        sampler_config = SamplerConfig(seed=seed)
    state = initial_state(space, backend.num_problems)

    while state.terminal is None:
        if time_limit is not None and trajectory.cumulative_time >= time_limit:
            logger.info("time limit reached before problem %d", state.index)
            return RunResult(Outcome.TIME_LIMIT, state, trajectory)

        outcome = backend.solve(state.index, state.strategy)
        solve = trajectory.record(
            "solve", state.index, state.strategy,
            verdict=outcome.verdict.value, raw_metric=outcome.metric, charge=outcome.metric,
        )
        state.baseline = outcome.metric

        if apply_solve(state, outcome) is not None:
            break

        if should_learn(state, policy, solve.virtual_time, trajectory):
            learning_epoch(
                state, backend, policy, sampler_config,
                forest_config=forest_config, seed=seed, trajectory=trajectory,
            )

        state.index += 1
        if state.oracle is not None:
            rule_strategize(
                state, sampler_config, policy, seed=seed, trajectory=trajectory
            )

    return RunResult(state.terminal, state, trajectory)
