"""Transition rules, epoch policy, strategize, and full runs."""

import dataclasses
import functools
import hashlib
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CONV_BUDGET,
    all_strategies,
    backend_for,
    binary_space,
    chain_spaces,
    convergence_landscape,
    decode,
    hand_forest,
    rank_of,
    reference_run_chain,
    space_from,
    verdicts_from_bits,
)
from stratlearn import engine
from stratlearn.backends import (
    SolveOutcome,
    SolverError,
    SyntheticBackend,
    SyntheticLandscape,
    Verdict,
    geometric_schedule,
)
from stratlearn.engine import (
    ABORT_MULTIPLIER,
    EpochPolicy,
    ForestConfig,
    Outcome,
    apply_solve,
    initial_state,
    learning_epoch,
    rule_strategize,
    run,
    should_learn,
    summarize,
)
from stratlearn.forest import DataPoint, Dataset, Grid, RandomForest, fit_forest, predict
from stratlearn.sampler import SamplerConfig, run_chain
from stratlearn.space import Strategy, builtin_space, default_strategy, encode_features
from stratlearn.trajectory import Trajectory, TrajectoryEvent

SPACE2 = binary_space(2)
SMALL_SPACE = builtin_space("kissat_small")
NO_LEARNING = EpochPolicy(samples_per_epoch=100, learning_budget=0.0, strategize_samples=500)


def fresh_state(n, space=SPACE2):
    return initial_state(space, n)


SAT, UNSAT, ABORTED = Verdict.SAT, Verdict.UNSAT, Verdict.ABORTED

# The base rule apply_solve picks on a live state, for each verdict at the
# first, a middle and the final index; with n = 1 the three coincide.
# RuntimeError marks a verdict that admits no rule; None means Next applies.
RULE_TABLE = [
    (SAT, 1, 1, Outcome.SUCCESS),
    (SAT, 1, 3, Outcome.SUCCESS),
    (SAT, 2, 3, Outcome.SUCCESS),
    (SAT, 3, 3, Outcome.SUCCESS),
    (UNSAT, 1, 1, Outcome.FAILURE),
    (UNSAT, 1, 3, None),
    (UNSAT, 2, 3, None),
    (UNSAT, 3, 3, Outcome.FAILURE),
    (ABORTED, 1, 1, RuntimeError),
    (ABORTED, 1, 3, RuntimeError),
    (ABORTED, 2, 3, RuntimeError),
    (ABORTED, 3, 3, RuntimeError),
]


class TestBaseRules:
    @pytest.mark.parametrize("terminal", [None, Outcome.SUCCESS, Outcome.FAILURE],
                             ids=["fresh", "after-success", "after-failure"])
    @pytest.mark.parametrize(
        ("verdict", "index", "n", "expected"),
        RULE_TABLE,
        ids=[f"{verdict.value}-{index}of{n}" for verdict, index, n, _ in RULE_TABLE],
    )
    def test_apply_solve(self, verdict, index, n, expected, terminal):
        state = fresh_state(n)
        state.index = index
        state.terminal = terminal
        outcome = SolveOutcome(verdict, 10.0)
        if terminal is not None:
            with pytest.raises(RuntimeError, match=f"^terminal state {terminal.value} is absorbing$"):
                apply_solve(state, outcome)
            assert state.terminal is terminal
        elif expected is RuntimeError:
            message = f"backend returned {verdict.value} for problem {index}; the engine needs a decisive verdict"
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                apply_solve(state, outcome)
            assert state.terminal is None
        else:
            assert apply_solve(state, outcome) is expected
            assert state.terminal is expected
        assert state.index == index  # run() advances it, after any epoch
        assert state.baseline is None  # run() records it, before any epoch

    @pytest.mark.parametrize("policy", [
        EpochPolicy(samples_per_epoch=1, learning_budget=0.0, strategize_samples=1),
        EpochPolicy(samples_per_epoch=3, learning_budget=1e9, strategize_samples=3),
    ], ids=["no-learning", "learning"])
    def test_replaying_solve_events_reaches_the_run_outcome(self, policy):
        # The seed of a derivation check: a checker that replays a trajectory's
        # solve events through apply_solve cannot disagree with run().
        for n in range(1, 5):
            for bits in range(2**n):
                result = run(backend_for(verdicts_from_bits(bits, n)), policy, space=SPACE2, seed=0)
                solves = result.trajectory.phase_events("solve")
                state = initial_state(SPACE2, n)
                replayed = 0
                for event in solves:
                    assert event.index == state.index
                    replayed += 1
                    if apply_solve(state, SolveOutcome(Verdict(event.verdict), event.raw_metric)) is not None:
                        break
                    state.index += 1
                assert replayed == len(solves)
                assert state.terminal is result.outcome
                assert state.index == result.state.index


class TestShouldLearn:
    def solved_state(self, baseline=1.0):
        state = fresh_state(2)
        state.baseline = baseline  # run() records the solve's metric before asking
        return state

    def spent(self, learning_time):
        # A trajectory whose learning total is one collection charge.
        trajectory = Trajectory()
        trajectory.record("collect", 1, default_strategy(SPACE2), charge=learning_time)
        assert trajectory.learning_time == learning_time
        return trajectory

    def test_fits_within_budget(self):
        state = self.solved_state()
        policy = EpochPolicy(samples_per_epoch=100, learning_budget=150.0)
        assert should_learn(state, policy, 1.0, Trajectory())  # 0 + 100*1 <= 150

    def test_over_budget(self):
        state = self.solved_state()
        policy = EpochPolicy(samples_per_epoch=100, learning_budget=150.0)
        assert not should_learn(state, policy, 1.0, self.spent(100.0))  # 200 > 150

    def test_zero_budget_never_learns(self, caplog):
        state = self.solved_state()
        policy = EpochPolicy(samples_per_epoch=100, learning_budget=0.0)
        with caplog.at_level(logging.INFO, logger="stratlearn.engine"):
            assert not should_learn(state, policy, 1.0, Trajectory())
            assert not should_learn(state, policy, 0.0, Trajectory())  # 0 + 100*0 <= 0, yet no budget
        assert caplog.messages == []  # a run without learning logs no refusals

    def test_zero_effort_baseline_admits_no_epoch(self, caplog):
        # Costs are normalized by the baseline, so a zero baseline prices nothing.
        state = self.solved_state(baseline=0.0)
        policy = EpochPolicy(samples_per_epoch=100, learning_budget=150.0)
        with caplog.at_level(logging.INFO, logger="stratlearn.engine"):
            assert not should_learn(state, policy, 0.0, Trajectory())  # 0 + 100*0 fits the budget
        assert caplog.messages == ["skipping epoch at problem 1: zero-effort baseline"]

    def test_positive_baseline_below_one_admits_an_epoch(self, caplog):
        # Only zero effort prices nothing: a fast solve's fractional metric is still a unit of cost.
        state = self.solved_state(baseline=0.5)
        policy = EpochPolicy(samples_per_epoch=100, learning_budget=1e6)
        with caplog.at_level(logging.INFO, logger="stratlearn.engine"):
            assert should_learn(state, policy, 0.5, Trajectory())  # 0 + 100*0.5 <= 1e6
        assert caplog.messages == []

    def test_refusal_logs_the_budget_arithmetic(self, caplog):
        state = self.solved_state()
        policy = EpochPolicy(samples_per_epoch=100, learning_budget=150.0)
        with caplog.at_level(logging.INFO, logger="stratlearn.engine"):
            assert not should_learn(state, policy, 1.0, self.spent(100.0))
        assert caplog.messages == ["epoch refused at problem 1: spent 100 + estimate 100 exceeds budget 150"]


def landscape_backend():
    return SyntheticBackend(
        SyntheticLandscape(
            optimum=("0", "0"),
            weights=(0.5, 1.5),
            base_metrics=geometric_schedule(10.0, 1.5, 6),
            verdicts=(Verdict.UNSAT,) * 6,
        )
    )


class TestLearningEpoch:
    def prepared_state(self):
        state = fresh_state(6)
        state.baseline = 30.0  # default strategy: penalty 3.0 on base 10
        return state

    def test_dataset_grows_by_sample_count(self):
        state = self.prepared_state()
        policy = EpochPolicy(samples_per_epoch=2, learning_budget=1e9)
        trajectory = Trajectory()
        learning_epoch(state, landscape_backend(), policy, trajectory=trajectory)
        assert len(state.dataset) == 2
        assert state.oracle is not None
        assert state.epochs == 1
        assert trajectory.learning_time > 0

    def test_collect_events_bounded_by_samples(self):
        state = self.prepared_state()
        policy = EpochPolicy(samples_per_epoch=25, learning_budget=1e9)
        trajectory = Trajectory()
        learning_epoch(state, landscape_backend(), policy, trajectory=trajectory)
        collects = trajectory.phase_events("collect")
        assert 1 <= len(collects) <= 25
        assert len(trajectory.phase_events("train")) == 1
        assert len(state.dataset) == 25

    def test_requires_baseline(self):
        # None, zero or negative: refused before any backend call, with no event recorded.
        policy = EpochPolicy(samples_per_epoch=2, learning_budget=1e9)
        for baseline in (None, 0.0, -1.0):
            state, calls, trajectory = fresh_state(6), [], Trajectory()
            state.baseline = baseline
            backend = SimpleNamespace(num_problems=6, solve=lambda *args, **kwargs: calls.append(args))
            with pytest.raises(ValueError, match="baseline"):
                learning_epoch(state, backend, policy, trajectory=trajectory)
            assert calls == [] and len(trajectory) == 0, baseline

    def test_backend_failure_keeps_measured_points(self):
        class FlakyBackend:
            def __init__(self, inner, allowed):
                self.inner, self.remaining = inner, allowed

            @property
            def num_problems(self):
                return self.inner.num_problems

            def solve(self, index, strategy, budget=None):
                if self.remaining == 0:
                    raise SolverError("solver crashed")
                self.remaining -= 1
                return self.inner.solve(index, strategy, budget)

        state = self.prepared_state()
        policy = EpochPolicy(samples_per_epoch=50, learning_budget=1e9)
        # the space has only 3 non-default strategies; allow 2 calls, fail the 3rd
        backend = FlakyBackend(landscape_backend(), allowed=2)
        trajectory = Trajectory()
        with pytest.raises(SolverError):
            learning_epoch(state, backend, policy, trajectory=trajectory)
        assert state.oracle is None  # epoch aborted before training
        # the two measured calls, and only they, are charged, logged and kept, in call order
        collects = trajectory.phase_events("collect")
        assert len(collects) == 2
        X, y = state.dataset.to_arrays()
        rows = [encode_features(SPACE2.codes(Strategy(e.strategy)), e.index) for e in collects]
        assert [tuple(row) for row in X.tolist()] == rows
        assert y.tolist() == [e.cost for e in collects]
        assert trajectory.learning_time == collects[0].virtual_time + collects[1].virtual_time > 0

    def test_a_collection_solver_error_names_its_problem_and_strategy(self):
        class ExitCodeError(SolverError):
            """A fault type of a backend outside the package: collect_cost keeps it."""

        class FaultyBackend:
            num_problems = 6

            def solve(self, index, strategy, budget=None):
                raise ExitCodeError("exit code 7")

        state = self.prepared_state()
        state.index = 2
        policy = EpochPolicy(samples_per_epoch=5, learning_budget=1e9)
        with pytest.raises(ExitCodeError) as excinfo:
            learning_epoch(state, FaultyBackend(), policy, trajectory=Trajectory())
        # binary_space(2) from the default (1, 1): the first proposal of seed 0's collection chain
        first = reference_run_chain(SPACE2, lambda v: 1.0, default_strategy(SPACE2), 1,
                                    seed=engine._substream_seed(0, engine._COLLECT_STREAM, 0))[0][0]
        strategy = ";".join(first.assignments)
        assert str(excinfo.value) == f"collect on problem 2, strategy {strategy}: exit code 7"
        assert type(excinfo.value) is type(excinfo.value.__cause__) is ExitCodeError
        assert len(state.dataset) == 0 and state.oracle is None

    def test_a_program_error_in_collection_ends_the_run_as_itself(self):
        class TypoBackend(SyntheticBackend):
            collects = 0

            def solve(self, index, strategy, budget=None):
                if budget is not None:
                    self.collects += 1
                    if self.collects == 3:
                        raise KeyError("typo")
                return super().solve(index, strategy, budget)

        typo = TypoBackend(convergence_landscape(6))
        policy = EpochPolicy(samples_per_epoch=20, learning_budget=1e9, strategize_samples=10)
        with pytest.raises(KeyError) as excinfo:
            run(typo, policy, space=SMALL_SPACE, seed=0, forest_config=ForestConfig(trees=2))
        assert excinfo.value.args == ("typo",) and excinfo.value.__cause__ is None
        assert typo.collects == 3

    def test_one_backend_call_per_distinct_strategy(self):
        class CountingBackend:
            def __init__(self, inner):
                self.inner, self.calls = inner, []

            @property
            def num_problems(self):
                return self.inner.num_problems

            def solve(self, index, strategy, budget=None):
                outcome = self.inner.solve(index, strategy, budget)
                self.calls.append((strategy, outcome.metric))
                return outcome

        state = self.prepared_state()
        policy = EpochPolicy(samples_per_epoch=50, learning_budget=1e9)
        backend = CountingBackend(landscape_backend())
        trajectory = Trajectory()
        learning_epoch(state, backend, policy, trajectory=trajectory)
        # 50 steps over 4 strategies revisit them; only the 3 non-default ones are run, once each
        strategies = [strategy for strategy, _ in backend.calls]
        assert 1 <= len(strategies) <= 3
        assert len(set(strategies)) == len(strategies)
        assert default_strategy(SPACE2) not in strategies
        collects = trajectory.phase_events("collect")
        assert [Strategy(e.strategy) for e in collects] == strategies
        assert trajectory.learning_time == sum(metric for _, metric in backend.calls)
        assert len(state.dataset) == 50

    def test_collect_charges_the_capped_budget_when_aborted(self):
        # p0 off its optimum costs 21x the baseline, past the 10x budget; p1 off costs 1.5x.
        backend = SyntheticBackend(SyntheticLandscape(
            optimum=("1", "1"), weights=(20.0, 0.5), base_metrics=(10.0,) * 3, verdicts=(UNSAT,) * 3,
        ))
        state = fresh_state(3)
        state.baseline = 10.0
        trajectory = Trajectory()
        policy = EpochPolicy(samples_per_epoch=50, learning_budget=1e9)
        learning_epoch(state, backend, policy, trajectory=trajectory)
        collects = trajectory.phase_events("collect")
        aborted = [e.raw_metric > ABORT_MULTIPLIER * state.baseline for e in collects]
        assert any(aborted) and not all(aborted)
        spent = 0.0
        for event, was_aborted in zip(collects, aborted):
            if was_aborted:
                assert event.cost == ABORT_MULTIPLIER
                assert event.virtual_time == ABORT_MULTIPLIER * state.baseline
            else:
                assert event.virtual_time == event.raw_metric
            spent += event.virtual_time
        assert trajectory.learning_time == spent


def strategize_refused(index):
    """The whole message of rule_strategize's guard at ``index``, as a pattern."""
    return f"^strategize at index {index} needs a trained oracle with every index threshold below it$"


class TestStrategize:
    def oracle_from_costs(self, space, costs, index):
        data = Dataset(
            DataPoint(encode_features(space.codes(v), index), costs[v.assignments])
            for v in all_strategies(space)
        )
        return fit_forest(data, n_trees=1, max_depth=10, seed=0, bootstrap=False)

    def test_constant_oracle_keeps_current_strategy(self):
        state = fresh_state(4)
        state.index = 2
        costs = {v.assignments: 1.0 for v in all_strategies(SPACE2)}
        state.oracle = self.oracle_from_costs(SPACE2, costs, 2)
        policy = EpochPolicy(samples_per_epoch=1, learning_budget=0.0, strategize_samples=50)
        rule_strategize(state, policy, trajectory=Trajectory())
        assert state.strategy == default_strategy(SPACE2)

    def test_single_sample_retains_current_strategy(self):
        state = fresh_state(4)
        state.index = 2
        costs = {v.assignments: float(i) for i, v in enumerate(all_strategies(SPACE2))}
        state.oracle = self.oracle_from_costs(SPACE2, costs, 2)
        policy = EpochPolicy(samples_per_epoch=1, learning_budget=0.0, strategize_samples=1)
        before = state.strategy
        rule_strategize(state, policy, trajectory=Trajectory())
        assert state.strategy == before

    def test_unique_minimum_is_found(self):
        state = fresh_state(4)
        state.index = 2
        costs = {("1", "1"): 3.0, ("1", "0"): 2.0, ("0", "1"): 1.5, ("0", "0"): 0.25}
        state.oracle = self.oracle_from_costs(SPACE2, costs, 2)
        policy = EpochPolicy(samples_per_epoch=1, learning_budget=0.0, strategize_samples=100)
        rule_strategize(state, policy, trajectory=Trajectory())
        assert state.strategy == Strategy(("0", "0"))

    def test_untrained_oracle_rejected(self):
        state = fresh_state(4)
        policy = EpochPolicy(strategize_samples=10)
        with pytest.raises(RuntimeError, match=strategize_refused(1)):
            rule_strategize(state, policy, trajectory=Trajectory())

    def index_split_oracle(self, space):
        """Costs reversed between indices 1 and 3, so the forest tests the index, and only at 2.0."""
        strategies = all_strategies(space)
        data = Dataset(
            DataPoint(encode_features(space.codes(v), index), float(rank if index == 1 else -rank))
            for index in (1, 3) for rank, v in enumerate(strategies)
        )
        oracle = fit_forest(data, n_trees=3, max_depth=12, seed=0)
        assert set(oracle.threshold[oracle.feature == space.k]) == {2.0}
        return oracle

    def test_index_at_or_below_a_threshold_is_refused(self):
        # A row at index 2 equals the threshold 2.0 and goes left, so 2 is refused like 1.
        state = fresh_state(4)
        state.oracle = self.index_split_oracle(SPACE2)
        policy = EpochPolicy(strategize_samples=50)
        trajectory = Trajectory()
        state.index = 3
        rule_strategize(state, policy, trajectory=trajectory)
        table = state.predictions
        before = (state.strategy, table.tolist(), state.floor, list(trajectory.events))
        for index in (1, 2):
            state.index = index
            with pytest.raises(RuntimeError, match=strategize_refused(index)):
                rule_strategize(state, policy, trajectory=trajectory)
            assert state.predictions is table
            assert (state.strategy, table.tolist(), state.floor, trajectory.events) == before

    def test_the_index_guard_is_read_once_per_oracle(self, monkeypatch):
        bound, reads = RandomForest.index_bound.func, []
        counted = functools.cached_property(lambda forest: reads.append(forest) or bound(forest))
        counted.__set_name__(RandomForest, "index_bound")
        monkeypatch.setattr(RandomForest, "index_bound", counted)
        state = fresh_state(6)
        policy = EpochPolicy(strategize_samples=50)
        oracles = [self.index_split_oracle(SPACE2) for _ in range(2)]
        for oracle in oracles:  # a refit: a new oracle, and its own guard
            state.oracle, state.predictions, state.floor = oracle, {}, None
            for state.index in (3, 1, 5, 2, 4):
                if state.index <= 2:
                    with pytest.raises(RuntimeError, match=strategize_refused(state.index)):
                        rule_strategize(state, policy, trajectory=Trajectory())
                else:
                    rule_strategize(state, policy, trajectory=Trajectory())
            assert oracle.index_bound == 2.0
        assert reads == oracles

    def test_a_forest_without_an_index_split_is_admitted_at_index_1(self):
        state = fresh_state(3)
        state.oracle = hand_forest(3, (0, 0.5, 2.0, 1.0))  # p0's alternative, code 1, is cheaper
        assert state.oracle.index_bound == -math.inf
        trajectory = Trajectory()
        rule_strategize(state, EpochPolicy(strategize_samples=50), trajectory=trajectory)
        assert state.strategy.assignments[0] == "0" and trajectory.events[-1].cost == 1.0

    def test_a_pick_of_the_in_force_rank_keeps_the_very_strategy(self):
        costs = {("1", "1"): 3.0, ("1", "0"): 2.0, ("0", "1"): 1.5, ("0", "0"): 0.25}
        oracle = self.oracle_from_costs(SPACE2, costs, 2)
        # At the table's minimum (no chain), a single sample (no chain), and a chain that moves.
        for start, samples, kept in ((("0", "0"), 100, True), (("1", "1"), 1, True), (("1", "0"), 100, False)):
            state = fresh_state(4)
            state.index, state.oracle, state.strategy = 2, oracle, Strategy(start)
            before, trajectory = state.strategy, Trajectory()
            rule_strategize(state, EpochPolicy(strategize_samples=samples), trajectory=trajectory)
            assert (state.strategy is before) == kept == (state.strategy == before)
            picked = state.strategy.assignments
            assert trajectory.events == [
                TrajectoryEvent("strategize", 2, picked, None, None, costs[picked], 0.0, 0.0)
            ]

    def test_indices_above_every_threshold_share_one_table(self, monkeypatch):
        space = binary_space(5)
        state = fresh_state(6, space)
        state.oracle = oracle = self.index_split_oracle(space)
        predicted = []

        def counting_predict(forest, features):
            predicted.append(features)
            return predict(forest, features)

        monkeypatch.setattr(engine, "predict", counting_predict)
        policy = EpochPolicy(strategize_samples=40)
        tables = []
        for index in (3, 5, 4):
            state.index = index
            trajectory = Trajectory()
            rule_strategize(state, policy, trajectory=trajectory)
            costs = {
                v: predict(oracle, [encode_features(space.codes(v), index)]).item() for v in all_strategies(space)
            }
            assert state.strategy == min(costs, key=costs.get)
            assert trajectory.events[-1].cost == costs[state.strategy]
            tables.append(state.predictions)
        # The first strategize predicts every rank in one call, at its own index; the others reuse that table.
        assert tables[0] is tables[1] is tables[2]
        assert tables[0].tolist() == [costs[v] for v in all_strategies(space)]
        assert predicted == [Grid(space.sizes, 3)]

    def test_refit_predicts_from_the_new_oracle(self):
        state = fresh_state(6)
        state.index = 2
        costs = {("1", "1"): 400.0, ("1", "0"): 300.0, ("0", "1"): 200.0, ("0", "0"): 100.0}
        state.oracle = self.oracle_from_costs(SPACE2, costs, 2)
        policy = EpochPolicy(samples_per_epoch=20, learning_budget=1e9, strategize_samples=50)
        rule_strategize(state, policy, trajectory=Trajectory())
        backend = landscape_backend()
        state.baseline = backend.solve(2, state.strategy).metric
        assert state.floor == 100.0
        learning_epoch(state, backend, policy, trajectory=Trajectory())
        assert (state.predictions, state.floor) == ({}, None)
        trajectory = Trajectory()
        rule_strategize(state, policy, trajectory=trajectory)
        refit = {
            v: predict(state.oracle, [encode_features(SPACE2.codes(v), 2)]).item() for v in all_strategies(SPACE2)
        }
        assert state.strategy == min(refit, key=refit.get)
        assert trajectory.events[-1].cost == refit[state.strategy] == state.floor


class TestPredictionTable:
    """The table an oracle's first strategize fills with one ``Grid`` predict equals the single-row
    predictions exactly; only a space over ``TABLE_CAP`` strategies predicts one row at a time."""

    @staticmethod
    def random_oracle(space, index, n_points=200, trees=5, seed=0, levels=None):
        """A forest on random strategies at ``index``; ``levels`` rounds the costs into ties."""
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.0, 4.0, n_points)
        if levels is not None:
            costs = np.floor(costs * levels / 4.0)
        data = Dataset(
            DataPoint(encode_features(space.unrank(int(r)), index), float(c))
            for r, c in zip(rng.integers(math.prod(space.sizes), size=n_points), costs)
        )
        return fit_forest(data, n_trees=trees, max_depth=8, seed=seed)

    @staticmethod
    def strategize(state, samples=2):
        rule_strategize(state, EpochPolicy(strategize_samples=samples), trajectory=Trajectory())

    def filled_table(self, space, oracle, index):
        state = fresh_state(index + 1, space)
        state.oracle, state.index = oracle, index
        self.strategize(state)
        assert isinstance(state.predictions, np.ndarray)
        return state.predictions

    def test_every_entry_equals_its_single_row_prediction_exactly(self):
        ternary = space_from([(f"t{i}", "0", ("1", "2")) for i in range(7)])
        small = builtin_space("kissat_small")
        cases = [  # (space, oracle, index, whether the costs are tie-heavy)
            (binary_space(5), TestStrategize().index_split_oracle(binary_space(5)), 3, False),
            (small, self.random_oracle(small, 1, trees=50), 4, False),
            (small, self.random_oracle(small, 1, levels=2), 2, True),
            (ternary, self.random_oracle(ternary, 2, trees=20, levels=3, seed=1), 3, True),
        ]
        for space, oracle, index, tied in cases:
            table = self.filled_table(space, oracle, index)
            assert len(table) == math.prod(space.sizes)
            assert table.dtype == np.float64 and table.shape == (len(table),)
            single = [predict(oracle, [encode_features(space.unrank(r), index)]).item() for r in range(len(table))]
            assert [cost.hex() for cost in table] == [cost.hex() for cost in single]
            assert (len(set(table)) < len(table) / 2) == tied

    @pytest.mark.parametrize("space", [
        builtin_space("kissat_large"),
        space_from([(f"t{i}", "0", ("1", "2")) for i in range(7)]),
    ], ids=["8192", "2187"])
    def test_one_grid_predict_at_the_first_strategize_then_none(self, space, monkeypatch):
        state = fresh_state(3, space)
        state.oracle, state.index = self.random_oracle(space, 1), 2
        calls = []

        def counting_predict(forest, features):
            calls.append(features)
            return predict(forest, features)

        monkeypatch.setattr(engine, "predict", counting_predict)
        self.strategize(state, samples=50)
        # No single-row call: the one call predicts every rank.
        assert calls == [Grid(space.sizes, 2)]
        assert isinstance(state.predictions, np.ndarray)
        assert len(state.predictions) == math.prod(space.sizes)
        calls.clear()
        for index in (2, 3):
            state.index = index
            self.strategize(state, samples=50)
        assert calls == []

    def test_space_above_the_cap_stays_lazy(self, monkeypatch):
        space = binary_space(5)
        state = fresh_state(4, space)
        state.oracle, state.index = self.random_oracle(space, 1), 2
        monkeypatch.setattr(engine, "TABLE_CAP", 31)
        rows = []

        def counting_predict(forest, features):
            rows.append(features)
            return predict(forest, features)

        monkeypatch.setattr(engine, "predict", counting_predict)
        for _ in range(3):
            self.strategize(state, samples=40)
        assert isinstance(state.predictions, dict)
        # Each call predicts one strategy's row as a one-row matrix, and the dict keeps a Python float.
        assert rows and all(not isinstance(row, Grid) and len(row) == 1 for row in rows)
        assert len(rows) == len({tuple(row[0]) for row in rows}) == len(state.predictions)
        assert all(type(cost) is float for cost in state.predictions.values())

    def test_every_strategize_event_costs_a_python_float(self):
        for seed in range(3):
            backend = SyntheticBackend(convergence_landscape(12))
            policy = EpochPolicy(samples_per_epoch=20, learning_budget=CONV_BUDGET, strategize_samples=50)
            result = run(backend, policy, space=SMALL_SPACE, seed=seed, forest_config=ForestConfig(trees=5))
            trajectory = result.trajectory
            strategizes = trajectory.phase_events("strategize")
            # More strategizes than oracles: some oracle served a second one, from its table.
            assert len(strategizes) > len(trajectory.phase_events("train"))
            assert all(type(event.cost) is float for event in strategizes)


class TestSkippedChain:
    """A strategize whose in-force strategy predicts its table's minimum runs no chain, one that walks
    with a known minimum stops at its first record there, and every strategize picks what its full
    chain and the earliest strict minimum over its records pick."""

    @staticmethod
    def counted_chains(monkeypatch):
        """Each chain engine.run_chain walks, as (its records, the ranks it evaluated, its keywords)."""
        chains = []

        def counting_chain(space, cost_fn, *args, **kwargs):
            records, evaluated = [], []
            chains.append((records, evaluated, kwargs))  # before the walk, which may raise
            records += run_chain(space, lambda rank: evaluated.append(rank) or cost_fn(rank), *args, **kwargs)
            return records

        monkeypatch.setattr(engine, "run_chain", counting_chain)
        return chains

    @staticmethod
    def reference_chain(space, table, start, samples, chain):
        """The reference chain's records over the table, and their earliest strict minimum, the start included."""
        records = reference_run_chain(space, lambda v: table[rank_of(space, v)], start, samples - 1, **chain)
        best, best_cost = start, table[rank_of(space, start)]
        for strategy, cost, _ in records:
            if cost < best_cost:
                best, best_cost = strategy, cost
        return records, (best, best_cost)

    # A fitted forest's cases: space, data seed, cost levels, start, index, seed, samples and beta.
    fitted_cases = (
        chain_spaces,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=80),
        st.floats(min_value=0.05, max_value=20.0),
    )

    def strategize_twice(self, space, data_seed, levels, start, index, seed, samples, beta):
        """Strategize at ``index``, which fills the table, then at ``index + 1``, which reads it.  For each,
        the table, the in-force strategy, the reference chain and pick, the strategy and floor after it,
        its event, the chains it walked and the seed and beta they must be given.

        The oracle is fitted on integer costs in 0..levels at indices below ``index``: few levels leave
        many strategies tied at the minimum, so the in-force strategy often starts there, and a walk
        usually reaches it."""
        rng = np.random.default_rng(data_seed)
        n = math.prod(space.sizes)
        data = Dataset(
            DataPoint(encode_features(space.unrank(int(r)), int(i)), float(c))
            for r, i, c in zip(rng.integers(n, size=30), rng.integers(1, index, size=30),
                               rng.integers(levels + 1, size=30))
        )
        state = fresh_state(index + 2, space)
        state.oracle = fit_forest(data, n_trees=int(rng.integers(1, 6)), max_depth=int(rng.integers(1, 6)), seed=seed)
        state.strategy = decode(space, start % n)
        steps = []
        with pytest.MonkeyPatch.context() as patch:
            chains = self.counted_chains(patch)
            for state.index in (index, index + 1):
                rows = [encode_features(space.unrank(r), state.index) for r in range(n)]
                table = [predict(state.oracle, [row]).item() for row in rows]
                chain = dict(seed=engine._substream_seed(seed, engine._STRATEGIZE_STREAM, state.index), beta=beta)
                full, expected = self.reference_chain(space, table, state.strategy, samples, chain)
                in_force, trajectory, walked = state.strategy, Trajectory(), len(chains)
                rule_strategize(state, EpochPolicy(strategize_samples=samples), beta=beta, seed=seed,
                                trajectory=trajectory)
                steps.append((table, in_force, full, expected, state.strategy, state.floor,
                              trajectory.events[-1], chains[walked:], chain))
        return steps

    @settings(max_examples=100, deadline=None)
    @given(*fitted_cases)
    def test_pick_equals_the_full_chain(self, space, data_seed, levels, start, index, seed, samples, beta):
        steps = self.strategize_twice(space, data_seed, levels, start, index, seed, samples, beta)
        for table, in_force, _, expected, strategy, floor, event, walks, _ in steps:
            assert (strategy, event.cost) == expected and type(event.cost) is float
            assert floor == min(table)
            assert len(walks) == (table[rank_of(space, in_force)] > min(table))

    @settings(max_examples=100, deadline=None)
    @given(*fitted_cases)
    def test_a_walk_with_a_floor_ends_at_its_first_record_there(
        self, space, data_seed, levels, start, index, seed, samples, beta
    ):
        steps = self.strategize_twice(space, data_seed, levels, start, index, seed, samples, beta)
        for table, _, full, expected, strategy, floor, event, walks, chain in steps:
            assert (strategy, event.cost) == expected
            for records, evaluated, keywords in walks:
                assert keywords == {**chain, "stop": floor} and floor == min(table)
                cut = next((i + 1 for i, (_, cost, _) in enumerate(full) if cost <= floor), len(full))
                assert [(decode(space, r.rank), r.cost, r.accepted) for r in records] == full[:cut]
                assert len(evaluated) == 1 + cut  # the start, then one proposal per record: none after it

    def test_a_table_with_an_inf_entry_still_walks(self, monkeypatch):
        # The in-force strategy, rank 0, holds the finite minimum; rank 1, its one neighbor, predicts inf.
        space = binary_space(1)
        state = fresh_state(3, space)
        state.oracle, state.index = hand_forest(2, (0, 0.5, 0.25, math.inf)), 2
        chains = self.counted_chains(monkeypatch)
        trajectory = Trajectory()
        with pytest.raises(ValueError, match="^strategy 0: non-finite cost inf$"):
            rule_strategize(state, EpochPolicy(strategize_samples=2), trajectory=trajectory)
        assert state.predictions.tolist() == [0.25, math.inf] and state.floor is None
        assert len(chains) == 1
        assert state.strategy == default_strategy(space) and len(trajectory) == 0

    def test_a_space_above_the_cap_still_walks(self, monkeypatch):
        space = binary_space(5)
        state = fresh_state(4, space)
        state.oracle = hand_forest(6, 1.0)  # every strategy predicts 1.0, so the in-force one is at the minimum
        monkeypatch.setattr(engine, "TABLE_CAP", 31)
        chains = self.counted_chains(monkeypatch)
        for state.index in (2, 3):
            rule_strategize(state, EpochPolicy(strategize_samples=40), trajectory=Trajectory())
        assert len(chains) == 2 and state.floor is None
        assert isinstance(state.predictions, dict) and len(state.predictions) > 1
        assert state.strategy == default_strategy(space)

    @pytest.mark.parametrize("cap", [engine.TABLE_CAP, 15], ids=["inf-entry", "lazy"])
    def test_without_a_floor_every_step_is_walked(self, cap, monkeypatch):
        # Every strategy predicts 1.0 but the one four moves from the start, which predicts inf: three
        # steps never propose it.  With no floor, all three are walked, though the start is at the
        # finite minimum.  A cap of 15 keeps the 16 strategies' predictions in a lazy dict.
        space = binary_space(4)
        state = fresh_state(3, space)
        state.oracle = hand_forest(5, (0, 0.5, 1.0, (1, 0.5, 1.0, (2, 0.5, 1.0, (3, 0.5, 1.0, math.inf)))))
        state.index, before = 2, state.strategy
        monkeypatch.setattr(engine, "TABLE_CAP", cap)
        chains = self.counted_chains(monkeypatch)
        rule_strategize(state, EpochPolicy(strategize_samples=4), trajectory=Trajectory())
        assert state.floor is None and isinstance(state.predictions, dict) == (cap == 15)
        [(records, evaluated, keywords)] = chains
        assert keywords == {"seed": engine._substream_seed(0, engine._STRATEGIZE_STREAM, 2), "beta": 1.0,
                            "stop": -math.inf}
        assert len(records) == 3 and len(evaluated) == 4
        assert state.strategy is before

    def test_a_single_sample_walks_no_chain(self, monkeypatch):
        space = binary_space(2)
        costs = [4.0, 3.0, 2.0, 1.0]  # by rank, the last code fastest
        oracle = hand_forest(3, (0, 0.5, (1, 0.5, 4.0, 3.0), (1, 0.5, 2.0, 1.0)))
        chains = self.counted_chains(monkeypatch)
        for start in (0, 3):  # at the table's maximum, then at its minimum
            state = fresh_state(3, space)
            state.oracle, state.index, state.strategy = oracle, 2, decode(space, start)
            trajectory = Trajectory()
            rule_strategize(state, EpochPolicy(strategize_samples=1), trajectory=trajectory)
            assert state.predictions.tolist() == costs
            assert (state.strategy, trajectory.events[-1].cost) == (decode(space, start), costs[start])
        assert chains == []


class TestRun:
    def test_single_sat_problem(self):
        result = run(backend_for(["SAT"]), NO_LEARNING, space=SPACE2, seed=0)
        assert result.outcome is Outcome.SUCCESS
        assert len(result.trajectory) == 1
        assert result.trajectory.events[0].phase == "solve"

    def test_all_unsat_without_budget_is_base_calculus(self):
        result = run(backend_for(["UNSAT"] * 3), NO_LEARNING, space=SPACE2, seed=0)
        assert result.outcome is Outcome.FAILURE
        assert [e.phase for e in result.trajectory] == ["solve"] * 3
        assert result.state.strategy == default_strategy(SPACE2)

    @pytest.mark.parametrize("policy", [
        NO_LEARNING, EpochPolicy(samples_per_epoch=5, learning_budget=1e6, strategize_samples=5),
    ], ids=["no-learning", "learning"])
    def test_a_negative_seed_is_refused_before_the_first_solve(self, policy):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the seed was checked")

        backend = backend_for(["UNSAT"] * 3)
        backend.solve = no_solve
        for sampler_config in (None, SamplerConfig()):  # an explicit config's own seed is read by nothing
            with pytest.raises(ValueError, match="^seed must be nonnegative$"):
                run(backend, policy, space=SPACE2, sampler_config=sampler_config, seed=-1,
                    forest_config=ForestConfig(trees=2))

    @pytest.mark.parametrize("policy", [
        NO_LEARNING, EpochPolicy(samples_per_epoch=5, learning_budget=1e6, strategize_samples=5),
    ], ids=["no-learning", "learning"])
    def test_a_bad_input_is_refused_before_the_first_solve(self, policy):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the inputs were checked")

        backend = backend_for(["UNSAT"] * 3)
        backend.solve = no_solve
        cases = [
            ({"sampler_config": SamplerConfig(beta=0.0)}, "^beta must be positive, got 0.0$"),
            ({"sampler_config": SamplerConfig(beta=math.nan)}, "^beta must be positive, got nan$"),
            ({"time_limit": math.nan}, "^time_limit must be nonnegative, got nan$"),
            ({"time_limit": -1.0}, "^time_limit must be nonnegative, got -1.0$"),
        ]
        for inputs, message in cases:
            with pytest.raises(ValueError, match=message):
                run(backend, policy, space=SPACE2, forest_config=ForestConfig(trees=2), **inputs)

    def test_learning_run_is_deterministic(self):
        def one():
            backend = SyntheticBackend(convergence_landscape(6))
            policy = EpochPolicy(samples_per_epoch=20, learning_budget=30000.0,
                                 strategize_samples=50)
            return run(backend, policy, space=SMALL_SPACE, seed=11,
                       forest_config=ForestConfig(trees=5))

        a, b = one(), one()
        assert a.outcome == b.outcome
        assert a.trajectory.events == b.trajectory.events
        assert a.state.strategy == b.state.strategy

    def test_learning_never_changes_verdicts(self):
        backend = SyntheticBackend(dataclasses.replace(convergence_landscape(6), verdicts=(UNSAT,) * 5 + (SAT,)))
        learned = run(backend, EpochPolicy(samples_per_epoch=30, learning_budget=1e6,
                                           strategize_samples=100),
                      space=SMALL_SPACE, seed=4, forest_config=ForestConfig(trees=10))
        baseline = run(backend, NO_LEARNING, space=SMALL_SPACE, seed=4)
        solved = lambda r: [(e.index, e.verdict) for e in r.trajectory.phase_events("solve")]
        assert solved(learned) == solved(baseline)
        assert learned.outcome is baseline.outcome is Outcome.SUCCESS

    def test_termination_event_ceiling(self):
        backend = SyntheticBackend(convergence_landscape(8))
        policy = EpochPolicy(samples_per_epoch=15, learning_budget=40000.0, strategize_samples=30)
        result = run(backend, policy, space=SMALL_SPACE, seed=2,
                     forest_config=ForestConfig(trees=5))
        n = backend.num_problems
        epochs = summarize(result.trajectory, result.outcome).epochs
        ceiling = n + epochs * (policy.samples_per_epoch + 1) + n
        assert len(result.trajectory) <= ceiling

    def test_cumulative_time_is_sum_of_event_times(self):
        backend = SyntheticBackend(convergence_landscape(6))
        policy = EpochPolicy(samples_per_epoch=10, learning_budget=20000.0, strategize_samples=20)
        result = run(backend, policy, space=SMALL_SPACE, seed=3,
                     forest_config=ForestConfig(trees=5))
        total = 0.0
        for event in result.trajectory:
            total += event.virtual_time
            assert event.cumulative_time == total

    def test_budget_refusal_leaves_no_learning_events(self):
        backend = SyntheticBackend(convergence_landscape(4))
        policy = EpochPolicy(samples_per_epoch=100, learning_budget=1.0, strategize_samples=10)
        result = run(backend, policy, space=SMALL_SPACE, seed=0)
        assert result.trajectory.phase_events("collect") == []
        assert result.trajectory.phase_events("train") == []
        assert result.state.strategy == default_strategy(SMALL_SPACE)

    def test_time_limit_reports_largest_solved_index(self):
        backend = SyntheticBackend(convergence_landscape(12))
        # base metrics sum past 50 after a few indices; cut the run short
        result = run(backend, NO_LEARNING, space=SMALL_SPACE, seed=0, time_limit=2000.0)
        assert result.outcome is Outcome.TIME_LIMIT
        summary = summarize(result.trajectory, result.outcome)
        assert summary.largest_solved_index is not None
        assert summary.largest_solved_index < 12

    def test_zero_time_limit_stops_immediately(self):
        result = run(backend_for(["SAT"]), NO_LEARNING, space=SPACE2, seed=0, time_limit=0.0)
        assert result.outcome is Outcome.TIME_LIMIT
        assert len(result.trajectory) == 0

    def test_strategy_constant_between_strategize_events(self):
        backend = SyntheticBackend(convergence_landscape(8))
        policy = EpochPolicy(samples_per_epoch=20, learning_budget=40000.0, strategize_samples=60)
        result = run(backend, policy, space=SMALL_SPACE, seed=6,
                     forest_config=ForestConfig(trees=5))
        current = default_strategy(SMALL_SPACE).assignments
        for event in result.trajectory:
            if event.phase == "strategize":
                current = event.strategy
            elif event.phase == "solve":
                assert event.strategy == current

    def test_zero_effort_baseline_skips_its_epoch(self):
        class ZeroFirstBackend:
            num_problems = 6

            def solve(self, index, strategy, budget=None):
                return SolveOutcome(Verdict.UNSAT, 0.0 if index == 1 else 10.0)

        policy = EpochPolicy(samples_per_epoch=5, learning_budget=1e6, strategize_samples=5)
        for seed in range(10):
            result = run(ZeroFirstBackend(), policy, space=SPACE2, seed=seed,
                         forest_config=ForestConfig(trees=2))
            assert result.outcome is Outcome.FAILURE
            assert all(e.index != 1 for e in result.trajectory.phase_events("collect"))
            assert result.state.epochs > 0  # the later, nonzero baselines still learn

    def test_every_epoch_collects_on_the_index_just_solved_without_rerunning_the_in_force_strategy(self):
        class CountingBackend(SyntheticBackend):
            def __init__(self, landscape):
                super().__init__(landscape)
                self.calls = []

            def solve(self, index, strategy, budget=None):
                self.calls.append((index, strategy, budget is None))
                return super().solve(index, strategy, budget)

        policy = EpochPolicy(samples_per_epoch=10, learning_budget=60000.0, strategize_samples=20)
        collections = 0
        for seed in range(5):
            backend = CountingBackend(convergence_landscape(8))
            run(backend, policy, space=SMALL_SPACE, seed=seed, forest_config=ForestConfig(trees=5))
            base = None
            for index, strategy, is_base_solve in backend.calls:
                if is_base_solve:
                    base = (index, strategy)
                    continue
                collections += 1
                assert index == base[0]  # every epoch collects on the index just solved
                assert (index, strategy) != base
        assert collections > 0

    def test_depth_cap_below_the_default_initial_depth_is_kept(self):
        space = builtin_space("kissat_large")  # default initial depth ceil(14 / 3) = 5
        landscape = SyntheticLandscape(
            optimum=tuple(d.values[-1] for d in space.domains),
            weights=(0.5,) * space.k,
            base_metrics=geometric_schedule(50.0, 1.6, 4),
            verdicts=(Verdict.UNSAT,) * 4,
        )
        policy = EpochPolicy(samples_per_epoch=20, learning_budget=1e9, strategize_samples=10)
        result = run(SyntheticBackend(landscape), policy, space=space, seed=0,
                     forest_config=ForestConfig(trees=3, depth_cap=2))
        assert summarize(result.trajectory, result.outcome).epochs >= 1
        assert result.state.oracle.trained_depth <= 2
        assert result.state.oracle.levels <= 2  # the depth of the deepest tree

    @pytest.mark.parametrize("forest_config, digest", [
        (ForestConfig(trees=8), "9e09167ec13780c9f0eca8739664a7ac4676fc8673eaf6976fa2a04138c342c8"),
        (ForestConfig(trees=8, fixed_depth=3),
         "d4dfd728f83b2d2fbfbe55f9f33cec39db890ebf52f99ffc852a1f22b065aee2"),
    ], ids=["adaptive", "fixed_depth"])
    def test_trajectory_is_pinned(self, forest_config, digest):
        """A refactor that keeps the engine's behaviour keeps these event logs byte for byte."""
        space = builtin_space("kissat_large")
        landscape = SyntheticLandscape(
            optimum=tuple(d.values[-1] for d in space.domains),
            weights=tuple(0.1 * (i + 1) for i in range(space.k)),
            base_metrics=geometric_schedule(50.0, 1.5, 5),
            verdicts=(Verdict.UNSAT,) * 5,
        )
        policy = EpochPolicy(samples_per_epoch=30, learning_budget=1e9, strategize_samples=40)
        result = run(SyntheticBackend(landscape), policy, space=space, seed=5, forest_config=forest_config)
        assert summarize(result.trajectory, result.outcome).epochs >= 2
        assert result.trajectory.phase_events("strategize")
        sha = hashlib.sha256()
        for event in result.trajectory:
            sha.update(repr(dataclasses.astuple(event)).encode())
            sha.update(b"\n")
        assert sha.hexdigest() == digest

    def test_aborted_main_solve_is_an_error(self):
        class AbortingBackend:
            num_problems = 1

            def solve(self, index, strategy, budget=None):
                return SolveOutcome(Verdict.ABORTED, 5.0)

        with pytest.raises(RuntimeError, match="decisive"):
            run(AbortingBackend(), NO_LEARNING, space=SPACE2, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: Trajectory().record("solve", 1, default_strategy(SPACE2), charge=-1.0),
     "event times must be nonnegative"),
    (lambda: initial_state(SPACE2, 0), "need at least one problem"),
], ids=["negative_charge", "no_problems"])
def test_bad_input_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestPolicyValidation:
    def test_forest_initial_depth_above_cap_rejected(self):
        with pytest.raises(ValueError, match="depth_cap"):
            ForestConfig(init_depth=3, depth_cap=2)
        assert ForestConfig(init_depth=2, depth_cap=2).depth_cap == 2

    def test_forest_initial_and_fixed_depth_exclusive(self):
        for depth in ({"init_depth": 2}, {"depth_cap": 2}):
            with pytest.raises(ValueError, match="exclusive"):
                ForestConfig(fixed_depth=4, **depth)

    def test_sample_count_positive(self):
        with pytest.raises(ValueError):
            EpochPolicy(samples_per_epoch=0)

    def test_budget_nonnegative(self):
        with pytest.raises(ValueError):
            EpochPolicy(learning_budget=-1.0)

    def test_nan_budget_rejected_and_infinite_budget_kept(self):
        with pytest.raises(ValueError, match="learning_budget must be nonnegative"):
            EpochPolicy(learning_budget=math.nan)
        assert EpochPolicy(learning_budget=math.inf).learning_budget == math.inf

    def test_strategize_samples_positive(self):
        with pytest.raises(ValueError):
            EpochPolicy(strategize_samples=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("trees", 0, "trees must be at least 1"),
            ("init_depth", 0, "init_depth must be at least 1"),
            ("depth_cap", 0, "depth_cap must be at least 1"),
            ("fixed_depth", -1, "fixed_depth must be at least 1"),
            ("fixed_depth", 0, "fixed_depth must be at least 1"),
            ("score_threshold", math.nan, "score_threshold must not be NaN"),
        ],
    )
    def test_forest_fields_checked_before_any_backend_call(self, field, value, message):
        # Checked at construction, so a bad value fails before the first
        # epoch's collection runs spend solver calls on it.
        with pytest.raises(ValueError, match=message):
            ForestConfig(**{field: value})
        legal = 0.5 if field == "score_threshold" else 1  # each count's least legal value
        assert getattr(ForestConfig(**{field: legal}), field) == legal
