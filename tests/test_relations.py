"""Metamorphic relations of the calculus: how two drawn runs must relate, with no reference and no pinned value.

- **Unit invariance.** Multiplying every base metric, the learning budget and
  the time limit by 2^k leaves the outcome and every event's phase, index,
  strategy, verdict and cost as they are, and multiplies every raw metric and
  time by exactly 2^k: costs are metric/baseline ratios, and a power of two
  scales floats exactly unless the product underflows.  A 5e-324 time limit
  times 2^-7 rounds to a limit of 0, which is another run, so a case whose
  time limit does not scale exactly is left out.
- **Suffix independence.** Problems after the first SAT change nothing.
- **Time-limit prefix.** A run with limit T is the unlimited run's event list
  cut just before its first solve whose preceding cumulative time is at least
  T, and it ends TIME_LIMIT.  T is drawn at a solve boundary, where ``>=`` and
  ``>`` part, and the cut's exact length is checked.
- **One clock law.** A wall-clock run whose only elapsed time is its backend
  calls, a main solve lasting its metric and a collection call
  min(metric, budget), equals the virtual run event for event.  Weights are
  rounded to eighths and base metrics to integers, so every time sums exactly.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import FakeTime, run_cases
from stratlearn.backends import SyntheticBackend, Verdict
from stratlearn.engine import Outcome

RELATION = settings(max_examples=100, deadline=2000)


@RELATION
@given(run_cases(), st.sampled_from([-7, -3, 1, 5, 20]))
def test_unit_invariance(case, k):
    scale = 2.0**k
    assume(case.time_limit is None or case.time_limit * scale / scale == case.time_limit)
    base = case.run()
    metrics = tuple(metric * scale for metric in case.landscape.base_metrics)
    scaled = case.run(
        landscape=dataclasses.replace(case.landscape, base_metrics=metrics),
        policy=dataclasses.replace(case.policy, learning_budget=case.policy.learning_budget * scale),
        time_limit=None if case.time_limit is None else case.time_limit * scale,
    )
    assert scaled.outcome is base.outcome
    assert scaled.trajectory.events == [
        dataclasses.replace(
            event,
            raw_metric=None if event.raw_metric is None else event.raw_metric * scale,
            virtual_time=event.virtual_time * scale,
            cumulative_time=event.cumulative_time * scale,
        )
        for event in base.trajectory.events
    ]


@RELATION
@given(run_cases(), st.lists(st.tuples(st.sampled_from([Verdict.SAT, Verdict.UNSAT]), st.floats(1.0, 1000.0)),
                             max_size=4))
def test_suffix_independence(case, appended):
    landscape = case.landscape
    assume(Verdict.SAT in landscape.verdicts)
    first_sat = landscape.verdicts.index(Verdict.SAT) + 1
    cut = dataclasses.replace(
        landscape, base_metrics=landscape.base_metrics[:first_sat], verdicts=landscape.verdicts[:first_sat]
    )
    extended = dataclasses.replace(
        landscape,
        base_metrics=landscape.base_metrics + tuple(metric for _, metric in appended),
        verdicts=landscape.verdicts + tuple(verdict for verdict, _ in appended),
    )
    short, long = case.run(landscape=cut), case.run(landscape=extended)
    assert short.outcome is long.outcome
    assert short.trajectory.events == long.trajectory.events


@RELATION
@given(run_cases(), st.data())
def test_time_limit_prefix(case, data):
    events = case.run(time_limit=None).trajectory.events
    solves = [i for i, event in enumerate(events) if event.phase == "solve"]

    def before(i):  # the cumulative time at which run() checks the limit before event i
        return events[i - 1].cumulative_time if i else 0.0

    limit = before(data.draw(st.sampled_from(solves)))
    limited = case.run(time_limit=limit)
    cut = next(i for i in solves if before(i) >= limit)
    assert limited.outcome is Outcome.TIME_LIMIT
    assert limited.trajectory.events == events[:cut]


class ClockedBackend(SyntheticBackend):
    """A synthetic backend whose call lasts its metric on ``clock``, or its budget when the metric is over it."""

    def __init__(self, landscape, clock):
        super().__init__(landscape)
        self.clock = clock

    def solve(self, index, strategy, budget=None):
        outcome = super().solve(index, strategy, budget)
        self.clock.advance(outcome.metric if budget is None else min(outcome.metric, budget))
        return outcome


@settings(max_examples=300, deadline=2000)
@given(run_cases())
def test_wall_clock_equals_virtual(case):
    landscape = dataclasses.replace(
        case.landscape,
        weights=tuple(round(weight * 8) / 8 for weight in case.landscape.weights),
        base_metrics=tuple(float(round(metric)) for metric in case.landscape.base_metrics),
    )
    virtual = case.run(landscape=landscape)
    clock = FakeTime()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("stratlearn.trajectory.time", clock)
        wall = case.run(backend=lambda landscape: ClockedBackend(landscape, clock), clock="wall", landscape=landscape)
    assert wall.outcome is virtual.outcome
    assert [dataclasses.astuple(e) for e in wall.trajectory] == [dataclasses.astuple(e) for e in virtual.trajectory]
