"""Metropolis-Hastings random walks over strategy spaces.

The proposal kernel moves to a uniformly drawn neighbor of the current
strategy, one that differs from it in exactly one parameter.  Every state
has sum(domain size - 1) neighbors, even with mixed domain sizes, so the
neighbor graph is regular and the kernel exactly symmetric: the chain's
stationary distribution is proportional to exp(-beta * cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class ChainRecord:
    """Chain state after one propose/accept step."""

    strategy: Strategy
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
    cost_fn: Callable[[Strategy], float],
    start: Strategy,
    n_samples: int,
    config: SamplerConfig,
) -> list[ChainRecord]:
    """Draw ``n_samples`` chain states starting from ``start``.

    Each step draws a neighbor index, builds that one neighbor, evaluates its
    cost, and accepts or rejects; the recorded sample is the post-step state,
    so consecutive records are either equal or one parameter apart.  Cost
    evaluations are memoized per strategy within the chain, so revisits are
    free; all drawn samples (including repeats) are still emitted.  The chain
    is fully deterministic given the config seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    space.codes(start)  # ValueError unless every value of start is legal
    rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
    cost_memo: dict[tuple[str, ...], float] = {}

    def cost_of(strategy: Strategy) -> float:
        key = strategy.assignments
        if key not in cost_memo:
            try:
                value = float(cost_fn(strategy))
            except Exception as exc:
                raise CostFunctionError(strategy, exc) from exc
            if not math.isfinite(value):
                raise CostFunctionError(strategy, ValueError(f"non-finite cost {value!r}"))
            cost_memo[key] = value
        return cost_memo[key]

    current = start
    cost_current = cost_of(start)
    records: list[ChainRecord] = []
    for _ in range(n_samples):
        options = neighbors(space, current)
        proposal = options[int(rng.integers(len(options)))]
        cost_proposal = cost_of(proposal)
        alpha = acceptance_probability(cost_current, cost_proposal, config.beta)
        accepted = alpha >= 1.0 or rng.random() < alpha
        if accepted:
            current, cost_current = proposal, cost_proposal
        records.append(ChainRecord(current, cost_current, accepted))
    return records
