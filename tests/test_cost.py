"""Cost normalization and budget-capped collection runs."""

import sys
from types import SimpleNamespace

import pytest

from helpers import STUB, one_problem_backend
from stratlearn.backends import SolverAdapterConfig, SolveOutcome, SyntheticBackend, SyntheticLandscape, Verdict
from stratlearn.engine import ABORT_MULTIPLIER, collect_cost
from stratlearn.space import Strategy, parse_space
from stratlearn.trajectory import Trajectory


def fixed_backend(raw: float, verdict: Verdict = Verdict.UNSAT) -> SimpleNamespace:
    """A backend that answers ``verdict`` with metric ``raw`` on every call, whatever its budget."""
    return SimpleNamespace(solve=lambda index, strategy, budget=None: SolveOutcome(verdict, raw))


def collected(backend, index: int, strategy: Strategy, baseline: float):
    """``collect_cost``'s record and the one ``collect`` event it adds to a fresh trajectory."""
    trajectory = Trajectory()
    record = collect_cost(backend, index, strategy, baseline, trajectory)
    [event] = trajectory.events
    assert event.phase == "collect"
    assert (event.index, event.strategy, event.cost) == (index, strategy.assignments, record.cost)
    return record, event


def normalized(raw: float, baseline: float) -> float:
    """``collect_cost``'s cost for a backend that reports ``raw`` on every call.

    Callers keep ``raw`` within ``ABORT_MULTIPLIER`` times ``baseline``, so the cap never applies.
    """
    record, event = collected(fixed_backend(raw), 1, Strategy(("1",)), baseline)
    assert not record.aborted
    assert event.raw_metric == event.virtual_time == raw
    return record.cost


class TestNormalize:
    def test_baseline_run_costs_one(self):
        assert normalized(1000.0, 1000.0) == 1.0

    def test_half_effort_costs_half(self):
        assert normalized(500.0, 1000.0) == 0.5

    def test_free_solve(self):
        assert normalized(0.0, 7.0) == 0.0

    def test_negative_raw_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            normalized(-1.0, 1.0)

    def test_preserves_raw_metric_order(self):
        baseline = 321.0
        metrics = [5.0, 17.0, 17.0, 200.0, 3000.0]
        costs = [normalized(m, baseline) for m in metrics]
        assert costs == sorted(costs)
        assert costs == [m / baseline for m in metrics]


def penalty_backend(weight: float, base: float = 100.0, n: int = 3) -> SyntheticBackend:
    landscape = SyntheticLandscape(
        optimum=("1",),
        weights=(weight,),
        base_metrics=(base,) * n,
        verdicts=(Verdict.UNSAT,) * n,
    )
    return SyntheticBackend(landscape)


class TestCollectCost:
    def test_matching_baseline_costs_one(self):
        backend = penalty_backend(weight=0.5)
        record, event = collected(backend, 1, Strategy(("1",)), baseline=100.0)
        assert record.cost == 1.0
        assert not record.aborted
        assert event.raw_metric == 100.0

    def test_quarter_effort(self):
        backend = penalty_backend(weight=0.5)
        record, _ = collected(backend, 1, Strategy(("1",)), baseline=400.0)
        assert record.cost == 0.25

    def test_budget_exhaustion_caps_cost_at_multiplier(self):
        backend = penalty_backend(weight=20.0)  # mismatch metric = 2100 > 10 * 100
        record, event = collected(backend, 1, Strategy(("0",)), baseline=100.0)
        assert record.aborted
        assert record.cost == ABORT_MULTIPLIER == 10.0
        assert event.virtual_time == 1000.0  # charged the budget, not its metric

    def test_cost_never_exceeds_multiplier(self):
        for weight in (0.0, 1.0, 2.5, 50.0):
            backend = penalty_backend(weight=weight)
            record, _ = collected(backend, 1, Strategy(("0",)), baseline=100.0)
            assert record.cost <= ABORT_MULTIPLIER

    def test_mismatch_penalty_arithmetic(self):
        backend = penalty_backend(weight=0.5, base=100.0)
        record, event = collected(backend, 2, Strategy(("0",)), baseline=100.0)
        assert event.raw_metric == 150.0
        assert record.cost == 1.5

    def test_a_run_that_spends_exactly_its_budget_is_not_aborted(self):
        record, event = collected(fixed_backend(1000.0), 1, Strategy(("1",)), baseline=100.0)
        assert not record.aborted
        assert record.cost == ABORT_MULTIPLIER
        assert event.raw_metric == event.virtual_time == 1000.0

    def test_a_decisive_verdict_over_budget_is_aborted(self):
        record, event = collected(fixed_backend(1000.5, Verdict.SAT), 1, Strategy(("1",)), baseline=100.0)
        assert record.aborted
        assert record.cost == ABORT_MULTIPLIER
        assert (event.raw_metric, event.virtual_time) == (1000.5, 1000.0)

    def test_an_aborted_verdict_within_budget_is_aborted(self):
        record, event = collected(fixed_backend(40.0, Verdict.ABORTED), 1, Strategy(("1",)), baseline=100.0)
        assert record.aborted
        assert record.cost == ABORT_MULTIPLIER
        assert (event.raw_metric, event.virtual_time) == (40.0, 1000.0)

    def test_engine_aborts_an_external_solver_that_ignores_the_budget(self, tmp_path):
        # No budget_flag: the stub runs to its 500 conflicts and answers UNSAT, whatever the budget.
        problem = tmp_path / "hard.problem"
        problem.write_text("verdict=UNSAT\nconflicts=500\n", encoding="utf-8")
        config = SolverAdapterConfig(
            command=f"{sys.executable} {STUB} {{problem}} --chrono {{chrono}}",
            metric_pattern=r"^c conflicts:\s*(\d+)",
        )
        backend = one_problem_backend(config, parse_space("name,default,alternatives\nchrono,1,0\n"), problem)
        strategy = Strategy(("0",))
        assert backend.solve(1, strategy, budget=100.0) == SolveOutcome(Verdict.UNSAT, 500.0)
        record, event = collected(backend, 1, strategy, baseline=10.0)
        assert record.aborted
        assert record.cost == ABORT_MULTIPLIER
        assert (event.verdict, event.raw_metric, event.virtual_time) == (None, 500.0, 100.0)
