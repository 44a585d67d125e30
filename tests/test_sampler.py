"""Acceptance formula, proposal kernel, and chain behavior."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_strategies,
    binary_space,
    decode,
    rank_of,
    reference_neighbors,
    reference_run_chain,
    space_from,
)
from stratlearn.sampler import (
    ChainRecord,
    CostFunctionError,
    SamplerConfig,
    acceptance_probability,
    run_chain,
)
from stratlearn.space import Strategy, StrategySpace, builtin_space, default_strategy

finite_costs = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
betas = st.floats(min_value=1e-3, max_value=50.0)


class TestAcceptanceProbability:
    def test_equal_costs_always_accepted(self):
        assert acceptance_probability(5.0, 5.0, 1.0) == 1.0

    def test_unit_increase_at_beta_one(self):
        assert acceptance_probability(1.0, 2.0, 1.0) == pytest.approx(math.exp(-1), abs=1e-9)

    def test_double_increase_at_half_beta(self):
        assert acceptance_probability(2.0, 4.0, 0.5) == pytest.approx(math.exp(-1), abs=1e-9)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            acceptance_probability(1.0, 2.0, 0.0)

    def test_rejects_non_finite_cost(self):
        with pytest.raises(ValueError):
            acceptance_probability(float("inf"), 2.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(finite_costs, finite_costs, betas)
    def test_improving_moves_always_accepted(self, c, c_new, beta):
        if c_new <= c:
            assert acceptance_probability(c, c_new, beta) == 1.0
        else:
            alpha = acceptance_probability(c, c_new, beta)
            assert 0.0 <= alpha <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(finite_costs, betas)
    def test_nonincreasing_in_proposed_cost(self, c, beta):
        worse = [acceptance_probability(c, c + delta, beta) for delta in (0.0, 0.5, 1.0, 5.0)]
        assert all(a >= b for a, b in zip(worse, worse[1:]))

    @settings(max_examples=100, deadline=None)
    @given(finite_costs, st.floats(min_value=0.01, max_value=100.0))
    def test_nonincreasing_in_beta_for_worsening_move(self, c, delta):
        c_new = c + delta
        alphas = [acceptance_probability(c, c_new, beta) for beta in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))


class TestPropose:
    # A constant cost accepts every proposal, so each chain step is one draw
    # of the proposal kernel from the previous state.
    def test_single_binary_domain_is_deterministic(self):
        space = binary_space(1)
        (record,) = run_chain(space, lambda v: 1.0, default_strategy(space), 1, SamplerConfig(seed=0))
        assert decode(space, record.rank) == Strategy(("0",))

    def test_uniform_over_compact_neighborhood(self, small_space):
        draws = 100_000
        records = run_chain(
            small_space, lambda v: 1.0, default_strategy(small_space), draws, SamplerConfig(seed=42)
        )
        counts = [0] * 9
        options: dict[int, list[int]] = {}
        previous = rank_of(small_space, default_strategy(small_space))
        for record in records:
            if previous not in options:
                reference = reference_neighbors(small_space, decode(small_space, previous))
                options[previous] = [rank_of(small_space, v) for v in reference]
            counts[options[previous].index(record.rank)] += 1
            previous = record.rank
        for count in counts:
            assert count / draws == pytest.approx(1 / 9, abs=0.01)

    def test_kernel_symmetric_on_binary_domains(self):
        # Every strategy has the same neighbor count, also on the mixed-size
        # kissat_small domains: sum(domain size - 1), the range a chain draws from.
        for space, expected in [(binary_space(3), 3), (builtin_space("kissat_small"), 9)]:
            assert len(space.moves) == expected
            for v in all_strategies(space):
                assert len(reference_neighbors(space, v)) == expected


class TestRunChain:
    def test_constant_cost_accepts_everything(self):
        space = binary_space(2)
        records = run_chain(space, lambda v: 1.0, default_strategy(space), 50, SamplerConfig(seed=1))
        assert len(records) == 50
        assert all(r.accepted for r in records)

    def test_improving_first_move_accepted(self):
        space = binary_space(1)
        costs = {("1",): 10.0, ("0",): 0.0}
        records = run_chain(
            space, lambda v: costs[decode(space, v).assignments], Strategy(("1",)), 1, SamplerConfig(seed=0)
        )
        assert decode(space, records[0].rank) == Strategy(("0",))
        assert records[0].accepted and records[0].cost == 0.0

    def test_consecutive_states_equal_or_neighbors(self, small_space):
        rng_costs = np.random.default_rng(7)
        table = {}

        def cost_fn(v):
            return table.setdefault(v, float(rng_costs.uniform(0, 3)))

        start = default_strategy(small_space)
        records = run_chain(small_space, cost_fn, start, 300, SamplerConfig(seed=5))
        previous = small_space.codes(start)
        for record in records:
            codes = small_space.unrank(record.rank)
            if codes != previous:
                assert sum(a != b for a, b in zip(codes, previous)) == 1
            previous = codes

    def test_deterministic_replay(self, small_space):
        def cost_fn(v):
            return sum(a != b for a, b in zip(small_space.unrank(v), (1, 1, 1, 1, 2, 6)))

        start = default_strategy(small_space)
        first = run_chain(small_space, cost_fn, start, 200, SamplerConfig(seed=9))
        second = run_chain(small_space, cost_fn, start, 200, SamplerConfig(seed=9))
        assert first == second

    def test_evaluates_the_start_and_every_step(self):
        # The chain keeps no memo: a caller whose costs are expensive keeps its own.
        space = binary_space(2)
        calls = []

        def cost_fn(v):
            calls.append(v)
            return 1.0

        start = default_strategy(space)
        records = run_chain(space, cost_fn, start, 200, SamplerConfig(seed=2))
        assert len(calls) == 200 + 1
        assert calls[0] == rank_of(space, start)
        assert calls[1:] == [r.rank for r in records]  # constant cost: every proposal is accepted

    def test_cost_failure_carries_strategy(self):
        space = binary_space(1)

        def cost_fn(v):
            if decode(space, v) == Strategy(("0",)):
                raise RuntimeError("boom")
            return 1.0

        with pytest.raises(CostFunctionError, match="strategy 0: boom") as excinfo:
            run_chain(space, cost_fn, Strategy(("1",)), 5, SamplerConfig(seed=0))
        assert excinfo.value.strategy == Strategy(("0",))

    def test_non_finite_cost_carries_strategy(self):
        space = binary_space(1)
        with pytest.raises(CostFunctionError, match="strategy 1: non-finite cost nan") as excinfo:
            run_chain(space, lambda v: float("nan"), Strategy(("1",)), 5, SamplerConfig(seed=0))
        assert excinfo.value.strategy == Strategy(("1",))

    def test_validates_start_once_and_walks_codes(self, small_space, monkeypatch):
        start = default_strategy(small_space)
        encoded, built = [], []
        codes, init = StrategySpace.codes, Strategy.__init__
        monkeypatch.setattr(StrategySpace, "codes", lambda self, v: encoded.append(v) or codes(self, v))
        monkeypatch.setattr(Strategy, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        for n in (1, 10, 1000):
            encoded.clear()
            records = run_chain(small_space, lambda v: 1.0, start, n, SamplerConfig(seed=n))
            assert encoded == [start] and built == []
            assert len(records) == n and all(r.accepted for r in records)

    def test_rejects_empty_chain(self):
        space = binary_space(1)
        with pytest.raises(ValueError):
            run_chain(space, lambda v: 1.0, default_strategy(space), 0, SamplerConfig())

    def test_stationary_distribution_on_mixed_space_is_close(self):
        # the Hamming-1 graph is regular (every state has 3 neighbours here), so
        # the kernel is symmetric; sanity-check the pull toward low cost dominates
        space = space_from([("a", "1", ("0", "2")), ("b", "1", ("0",))])
        best = rank_of(space, Strategy(("2", "0")))
        records = run_chain(
            space, lambda v: 0.0 if v == best else 2.0, default_strategy(space), 20_000, SamplerConfig(seed=3)
        )
        best_share = sum(r.rank == best for r in records) / len(records)
        assert best_share > 0.5


class TestChainPinned:
    """The rank chain must draw the same stream, and so decode to the same chain, as the
    eager reference over ``Strategy`` values."""

    @staticmethod
    def rugged_cost(strategy: Strategy) -> float:
        # A fixed pseudo-random landscape: both accepted and rejected moves occur.
        return zlib.crc32(";".join(strategy.assignments).encode()) % 1000 / 250.0

    @pytest.mark.parametrize(
        "space_name,beta", [("kissat_small", 1), ("kissat_large", 1), ("kissat_large", 2)]
    )
    def test_records_equal_the_eager_reference(self, space_name, beta):
        space = builtin_space(space_name)
        start = default_strategy(space)
        for seed in range(5):
            config = SamplerConfig(beta=beta, seed=seed)
            records = run_chain(space, lambda v: self.rugged_cost(decode(space, v)), start, 300, config)
            decoded = [(decode(space, r.rank), r.cost, r.accepted) for r in records]
            assert decoded == reference_run_chain(space, self.rugged_cost, start, 300, config)
            accepted = sum(r.accepted for r in records)
            assert 0 < accepted < len(records)


class TestConfig:
    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            SamplerConfig(beta=0.0)

    def test_records_are_frozen(self):
        record = ChainRecord(0, 1.0, True)
        with pytest.raises(AttributeError):
            record.cost = 2.0
