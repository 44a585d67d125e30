"""Metropolis-Hastings random walks over strategy spaces.

A chain's state is a strategy's rank, one integer (see ``space``).  The
proposal kernel moves to a uniformly drawn neighbor of the current state,
one that differs from it in exactly one parameter.  Every state has
sum(domain size - 1) neighbors, even with mixed domain sizes, so the
neighbor graph is regular and the kernel exactly symmetric: the chain's
stationary distribution is proportional to exp(-beta * cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .space import Strategy, StrategySpace, neighbors


@dataclass(frozen=True)
class SamplerConfig:
    """Temperature and seed of one chain."""

    beta: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.beta > 0):
            raise ValueError("beta must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


class ChainRecord(NamedTuple):
    """Chain state (a strategy's rank) after one propose/accept step."""

    rank: int
    cost: float
    accepted: bool


class CostFunctionError(RuntimeError):
    """A cost evaluation failed; carries the strategy that triggered it."""

    def __init__(self, strategy: Strategy, cause: BaseException):
        super().__init__(f"cost evaluation failed for strategy {';'.join(strategy.assignments)}: {cause}")
        self.strategy = strategy


def acceptance_probability(cost_current: float, cost_proposed: float, beta: float) -> float:
    """min(1, exp(beta * (cost_current - cost_proposed))).

    A proposal that does not increase the cost is always accepted; otherwise
    the probability decays with the increase, faster for larger beta.
    """
    if not (beta > 0):
        raise ValueError("beta must be positive")
    if not (math.isfinite(cost_current) and math.isfinite(cost_proposed)):
        raise ValueError("costs must be finite")
    if cost_proposed <= cost_current:
        return 1.0
    return math.exp(beta * (cost_current - cost_proposed))


def run_chain(
    space: StrategySpace,
    cost_fn: Callable[[int], float],
    start: Strategy,
    n_samples: int,
    config: SamplerConfig,
) -> list[ChainRecord]:
    """Draw ``n_samples`` chain states starting from ``start``.

    ``start`` is encoded, and so validated, once; from then on the chain walks
    ranks, and ``cost_fn`` receives ranks.  Each step draws a neighbor index,
    moves the rank to that one neighbor, evaluates its cost, and accepts or
    rejects; the recorded sample is the post-step state, so consecutive
    records are either equal or one parameter apart.  Every proposal is
    evaluated, revisits included; a caller whose costs are dear memoizes
    them.  A failing or non-finite cost raises ``CostFunctionError`` with the
    decoded strategy.  The chain is fully deterministic given the config seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    current = space.rank(space.codes(start))  # ValueError unless every value of start is legal
    rng = np.random.default_rng(np.random.SeedSequence([config.seed]))

    def cost_of(rank: int) -> float:
        try:
            value = float(cost_fn(rank))
            if not math.isfinite(value):
                raise ValueError(f"non-finite cost {value!r}")
        except Exception as exc:
            raise CostFunctionError(space.strategy(space.unrank(rank)), exc) from exc
        return value

    cost_current = cost_of(current)
    n_neighbors = len(space.moves)
    records: list[ChainRecord] = []
    for _ in range(n_samples):
        proposal = neighbors(space, current, int(rng.integers(n_neighbors)))
        cost_proposal = cost_of(proposal)
        # Only an uphill move needs the formula and a draw; exp of a tiny rise may round to 1.0.
        accepted = cost_proposal <= cost_current
        if not accepted:
            alpha = acceptance_probability(cost_current, cost_proposal, config.beta)
            accepted = alpha >= 1.0 or rng.random() < alpha
        if accepted:
            current, cost_current = proposal, cost_proposal
        records.append(ChainRecord(current, cost_current, accepted))
    return records
