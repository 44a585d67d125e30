"""Cost normalization and budget-capped collection runs."""

from types import SimpleNamespace

import pytest

from stratlearn.backends import SolveOutcome, SyntheticBackend, SyntheticLandscape, Verdict
from stratlearn.engine import ABORT_MULTIPLIER, collect_cost
from stratlearn.space import Strategy


def normalized(raw: float, baseline: float) -> float:
    """``collect_cost``'s cost for a backend that reports ``raw`` on every call.

    Callers keep ``raw`` within ``ABORT_MULTIPLIER`` times ``baseline``, so the cap never applies.
    """
    backend = SimpleNamespace(solve=lambda index, strategy, budget=None: SolveOutcome(Verdict.UNSAT, raw))
    record = collect_cost(backend, 1, Strategy(("1",)), baseline)
    assert not record.aborted
    return record.cost


class TestNormalize:
    def test_baseline_run_costs_one(self):
        assert normalized(1000.0, 1000.0) == 1.0

    def test_half_effort_costs_half(self):
        assert normalized(500.0, 1000.0) == 0.5

    def test_free_solve(self):
        assert normalized(0.0, 7.0) == 0.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            normalized(1.0, 0.0)

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
        record = collect_cost(backend, 1, Strategy(("1",)), baseline_metric=100.0)
        assert record.cost == 1.0
        assert not record.aborted
        assert record.raw_metric == 100.0

    def test_quarter_effort(self):
        backend = penalty_backend(weight=0.5)
        record = collect_cost(backend, 1, Strategy(("1",)), baseline_metric=400.0)
        assert record.cost == 0.25

    def test_budget_exhaustion_caps_cost_at_multiplier(self):
        backend = penalty_backend(weight=20.0)  # mismatch metric = 2100 > 10 * 100
        record = collect_cost(backend, 1, Strategy(("0",)), baseline_metric=100.0)
        assert record.aborted
        assert record.cost == ABORT_MULTIPLIER == 10.0

    def test_cost_never_exceeds_multiplier(self):
        for weight in (0.0, 1.0, 2.5, 50.0):
            backend = penalty_backend(weight=weight)
            record = collect_cost(backend, 1, Strategy(("0",)), baseline_metric=100.0)
            assert record.cost <= ABORT_MULTIPLIER

    def test_mismatch_penalty_arithmetic(self):
        backend = penalty_backend(weight=0.5, base=100.0)
        record = collect_cost(backend, 2, Strategy(("0",)), baseline_metric=100.0)
        assert record.raw_metric == 150.0
        assert record.cost == 1.5

    def test_requires_positive_baseline(self):
        backend = penalty_backend(weight=0.5)
        with pytest.raises(ValueError, match="baseline"):
            collect_cost(backend, 1, Strategy(("1",)), baseline_metric=0.0)
