"""Metropolis-Hastings random walks over strategy spaces.

A chain's state is a strategy's rank, one integer (see ``space``).  The
proposal kernel moves to a uniformly drawn neighbor of the current state,
one that differs from it in exactly one parameter.  Every state has
sum(domain size - 1) neighbors, even with mixed domain sizes, so the
neighbor graph is regular and the kernel exactly symmetric: the chain's
stationary distribution is proportional to exp(-beta * cost).

A chain draws ``default_rng(SeedSequence([seed]))``'s exact stream, decoded in
plain Python from blocks of the same PCG64's raw output (see ``_draws``).  A
forest's bootstrap rows are ``Generator.integers``'s, decoded in arrays; a row
that meets a rejected word is drawn again by the chain's decoder (see ``_integers``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .space import Strategy, StrategySpace, neighbors


@dataclass(frozen=True)
class SamplerConfig:
    """``engine.run``'s chain temperature, which it checks; ``seed`` is unread: ``run``'s own seed seeds each chain."""

    beta: float = 1.0
    seed: int = 0


class ChainRecord(NamedTuple):
    """Chain state (a strategy's rank) after one propose/accept step."""

    rank: int
    cost: float
    accepted: bool


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


_BLOCK = 256  # raw PCG64 outputs decoded per refill


def _bit_generator(*entropy: int) -> np.random.PCG64:
    """The PCG64 under ``default_rng(SeedSequence(entropy))``, whose raw output the draws here decode."""
    return np.random.PCG64(np.random.SeedSequence(entropy))


def _integers(n: int, size: int, streams: Sequence[Sequence[int]]) -> np.ndarray:
    """Row s is ``default_rng(SeedSequence(streams[s])).integers(0, n, size=size)``, bit for bit.

    As numpy fills an array: each raw output gives two 32-bit words, its low
    half first, and Lemire's method maps a word to ``range(n)``.  A row whose
    first ``size`` words include one in the rejection zone is drawn again,
    whole, by ``_draws``, which draws on past it.  ``n >= 2**32`` is rejected.
    """
    if not 1 <= n < 1 << 32:
        raise ValueError(f"integers({n}) needs 1 <= n < 2**32")
    words = np.stack([_bit_generator(*entropy).random_raw(size // 2 + 1) for entropy in streams])
    products = np.multiply(words.astype("<u8", copy=False).view("<u4")[:, :size], n, dtype=np.uint64)
    draws = (products >> 32).astype(np.intp)
    for s in np.flatnonzero(((products & 0xFFFFFFFF) < ((1 << 32) - n) % n).any(axis=1)):
        integers, _ = _draws(*streams[s])
        draws[s] = [integers(n) for _ in range(size)]
    return draws


def _draws(*entropy: int) -> tuple[Callable[[int], int], Callable[[], float]]:
    """``integers(n)`` and ``random()`` of ``default_rng(SeedSequence(entropy))``, bit for bit.

    As numpy does, from blocks of the same PCG64's raw output: ``integers(1)``
    draws nothing; a 32-bit word is an output's low half, its high half is kept
    as the next word, and ``random()`` (an output's top 53 bits over 2**53)
    neither uses nor clears it.  Lemire's method maps a word to ``range(n)``,
    drawing again in its rejection zone.  ``n >= 2**32`` is rejected.
    """
    bitgen = _bit_generator(*entropy)
    raw = itertools.chain.from_iterable(iter(lambda: bitgen.random_raw(_BLOCK).tolist(), None))
    kept = None

    def integers(n: int) -> int:
        nonlocal kept
        if n == 1:
            return 0
        if not 1 < n < 1 << 32:
            raise ValueError(f"integers({n}) needs 1 <= n < 2**32")
        threshold = ((1 << 32) - n) % n
        while True:
            if kept is None:
                word = next(raw)
                word, kept = word & 0xFFFFFFFF, word >> 32
            else:
                word, kept = kept, None
            m = word * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def random() -> float:
        return (next(raw) >> 11) * 2.0**-53

    return integers, random


def run_chain(
    space: StrategySpace,
    cost_fn: Callable[[int], float],
    start: Strategy,
    n_samples: int,
    *,
    seed: int,
    beta: float = 1.0,
    stop: float = -math.inf,
) -> list[ChainRecord]:
    """Draw ``n_samples`` chain states starting from ``start``, or fewer: the chain ends after its first
    record whose cost is at or below ``stop``, so the records are a prefix of the unstopped chain's.

    ``start`` is encoded, and so validated, once; from then on the chain walks
    ranks, and ``cost_fn`` receives ranks.  Each step draws a neighbor index,
    moves the rank to that one neighbor, evaluates its cost, and accepts or
    rejects; the recorded sample is the post-step state, so consecutive
    records are either equal or one parameter apart.  Until the stop, every
    proposal is evaluated, revisits included; a caller whose costs are dear
    memoizes them.  A non-finite cost raises ``ValueError`` naming the decoded
    strategy; an exception from ``cost_fn`` passes through as it is.  A
    ``beta`` that is not positive is refused before the first evaluation.
    The chain is fully deterministic given ``seed``: its draws are
    ``default_rng(SeedSequence([seed]))``'s, from raw blocks.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not beta > 0:  # NaN fails too
        raise ValueError("beta must be positive")
    current = space.rank(space.codes(start))  # ValueError unless every value of start is legal
    integers, random = _draws(seed)

    def cost_of(rank: int) -> float:
        value = float(cost_fn(rank))
        if not math.isfinite(value):
            strategy = ";".join(space.strategy(space.unrank(rank)).assignments)
            raise ValueError(f"strategy {strategy}: non-finite cost {value!r}")
        return value

    cost_current = cost_of(current)
    n_neighbors = len(space.moves)
    records: list[ChainRecord] = []
    for _ in range(n_samples):
        proposal = neighbors(space, current, integers(n_neighbors))
        cost_proposal = cost_of(proposal)
        # Only an uphill move needs the formula and a draw; exp of a tiny rise may round to 1.0.
        accepted = cost_proposal <= cost_current
        if not accepted:
            alpha = acceptance_probability(cost_current, cost_proposal, beta)
            accepted = alpha >= 1.0 or random() < alpha
        if accepted:
            current, cost_current = proposal, cost_proposal
        records.append(ChainRecord(current, cost_current, accepted))
        if cost_current <= stop:
            break
    return records
