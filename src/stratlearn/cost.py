"""Normalized solving cost and budget-capped sample collection.

The scalar cost of a strategy on a problem is the raw backend metric divided
by a baseline metric recorded for that problem, so the in-force strategy costs
exactly 1.  Collection runs get a metric budget of a fixed ``ABORT_MULTIPLIER``
(10) times the baseline; a run that exhausts it enters the dataset at cost 10
with the aborted flag set, so the oracle still learns that the region is bad.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .backends import Verdict
from .space import Strategy

logger = logging.getLogger(__name__)

ABORT_MULTIPLIER = 10.0


@dataclass(frozen=True)
class CostRecord:
    raw_metric: float
    cost: float
    aborted: bool


def collect_cost(backend, index: int, strategy: Strategy, baseline_metric: float) -> CostRecord:
    """Run the backend under a metric budget and return the normalized cost.

    The solver's verdict is discarded: the problem's status is already known
    from the run that recorded the baseline.
    """
    if not baseline_metric > 0:
        raise ValueError(f"baseline must be positive, got {baseline_metric!r}")
    budget = ABORT_MULTIPLIER * baseline_metric
    outcome = backend.solve(index, strategy, budget=budget)
    aborted = outcome.verdict is Verdict.ABORTED or outcome.metric > budget
    if aborted:
        logger.info(
            "collect run on problem %d aborted (metric %.6g, budget %.6g); cost capped at %.6g",
            index, outcome.metric, budget, ABORT_MULTIPLIER,
        )
        cost = ABORT_MULTIPLIER
    else:
        cost = outcome.metric / baseline_metric
    return CostRecord(raw_metric=float(outcome.metric), cost=cost, aborted=aborted)
