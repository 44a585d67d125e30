"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import dataclasses
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    ABLATION_BUDGETS,
    ABLATION_SPACE_TEXT,
    ABLATION_TIME_LIMIT,
    CONV_BUDGET,
    CONV_OPTIMUM,
    CONV_WEIGHTS,
    STUB,
    ablation_landscape,
    all_strategies,
    backend_for,
    binary_space,
    brute_force_split,
    convergence_landscape,
    joined,
    one_problem_backend,
    penalty,
    space_from,
    verdicts_from_bits,
)
from stratlearn.backends import (
    SolverAdapterConfig,
    SyntheticBackend,
    Verdict,
    save_landscape,
)
from stratlearn.cli import RunConfig, ablation_grid, execute
from stratlearn.engine import EpochPolicy, ForestConfig, Outcome, run, summarize
from stratlearn.forest import (
    DataPoint,
    Dataset,
    fit_adaptive,
    fit_forest,
    r2_score,
)
from stratlearn.sampler import acceptance_probability, run_chain
from stratlearn.space import (
    Strategy,
    builtin_space,
    default_strategy,
    parse_space,
    serialize_space,
)


@contextmanager
def criterion(name: str, time_limit: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} ({time.perf_counter() - started:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < time_limit else "FAIL"
    print(f"{verdict} {name} ({elapsed:.2f}s, limit {time_limit:g}s)")
    assert elapsed < time_limit, f"{name}: {elapsed:.2f}s exceeds the {time_limit:g}s limit"


def test_criterion_01_calculus_correctness():
    with criterion("1 calculus correctness (exhaustive verdict patterns)", 1.0):
        space = binary_space(2)
        policy = EpochPolicy(samples_per_epoch=1, learning_budget=0.0, strategize_samples=1)
        for n in range(1, 5):
            for bits in range(2**n):
                verdicts = verdicts_from_bits(bits, n)
                result = run(backend_for(verdicts), policy, space=space, seed=0)
                sat_indices = [i + 1 for i, v in enumerate(verdicts) if v is Verdict.SAT]
                if sat_indices:
                    assert result.outcome is Outcome.SUCCESS
                    assert result.state.index == min(sat_indices)
                    solves = result.trajectory.phase_events("solve")
                    assert solves[-1].index == min(sat_indices)
                else:
                    assert result.outcome is Outcome.FAILURE


def test_criterion_02_termination_bound():
    with criterion("2 termination bound (event ceiling)", 1.0):
        space = builtin_space("kissat_small")
        for n, budget, samples, seed in [
            (6, 0.0, 5, 0),
            (6, 20000.0, 10, 1),
            (8, 60000.0, 25, 2),
            (4, 1e9, 5, 3),
        ]:
            backend = SyntheticBackend(convergence_landscape(n))
            policy = EpochPolicy(samples_per_epoch=samples, learning_budget=budget,
                                 strategize_samples=20)
            result = run(backend, policy, space=space, seed=seed,
                         forest_config=ForestConfig(trees=5))
            epochs = summarize(result.trajectory, result.outcome).epochs
            ceiling = n + epochs * (samples + 1) + n
            assert len(result.trajectory) <= ceiling
            assert result.outcome in (Outcome.SUCCESS, Outcome.FAILURE)


def test_criterion_03_mcmc_stationarity():
    with criterion("3 MCMC stationarity on the 4-strategy and mixed 2x3 spaces", 5.0):
        binary_costs = {
            ("1", "1"): 1.0,
            ("1", "0"): 2.0,
            ("0", "1"): 3.0,
            ("0", "0"): 4.0,
        }
        mixed = space_from([("a", "1", ("0",)), ("b", "0", ("1", "2"))])
        mixed_costs = {
            ("1", "0"): 1.0,
            ("1", "1"): 1.5,
            ("1", "2"): 2.5,
            ("0", "0"): 3.0,
            ("0", "1"): 2.0,
            ("0", "2"): 4.0,
        }
        steps = 100_000
        for space, cost_table in [(binary_space(2), binary_costs), (mixed, mixed_costs)]:
            # The chain walks ranks: key the table by rank, and decode each visited rank once.
            ranks = {space.rank(space.codes(Strategy(key))): key for key in cost_table}
            records = run_chain(
                space, lambda v: cost_table[ranks[v]], default_strategy(space), steps,
                seed=0, beta=1.0,
            )
            z = sum(math.exp(-c) for c in cost_table.values())
            visits = Counter(record.rank for record in records)
            counts = {key: 0 for key in cost_table}
            for rank, n in visits.items():
                counts[space.strategy(space.unrank(rank)).assignments] += n
            for key, cost in cost_table.items():
                expected = math.exp(-cost) / z
                assert counts[key] / steps == pytest.approx(expected, abs=0.02)


def test_criterion_04_acceptance_formula():
    with criterion("4 acceptance probability semantics (10^4 triples)", 1.0):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            c = float(rng.uniform(-50.0, 50.0))
            c_new = float(rng.uniform(-50.0, 50.0))
            beta = float(rng.uniform(0.01, 5.0))
            alpha = acceptance_probability(c, c_new, beta)
            assert alpha == min(1.0, math.exp(beta * (c - c_new)) if c_new > c else 1.0)
            if c_new <= c:
                assert alpha == 1.0


def test_criterion_05_tree_oracle_equivalence():
    with criterion("5 tree splits equal the exhaustive-enumeration oracle", 5.0):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 50:
            n = int(rng.integers(3, 21))
            k = int(rng.integers(1, 4))
            X = rng.integers(0, 5, size=(n, k)).astype(float)
            y = rng.normal(size=n)
            expected = brute_force_split(X, y)
            if expected is None:
                continue
            checked += 1
            data = Dataset(DataPoint(tuple(int(v) for v in row), float(c)) for row, c in zip(X, y))
            tree = fit_forest(data, n_trees=1, max_depth=1, bootstrap=False)  # rooted at node 0
            _, feature, threshold = expected
            assert tree.feature[0] == feature
            assert tree.threshold[0] == threshold
            # leaf means by re-routing the training data; the right child follows the left
            left_mask = X[:, feature] <= threshold
            assert tree.value[tree.left[0]] == pytest.approx(float(y[left_mask].mean()))
            assert tree.value[tree.left[0] + 1] == pytest.approx(float(y[~left_mask].mean()))


def test_criterion_06_r2_conventions():
    with criterion("6 training-score conventions (1.0 / 0.0 / 0.75)", 1.0):
        X = np.array([[0], [1], [2], [3]], dtype=float)
        y = np.array([0.0, 2.0, -1.0, 5.0])
        data = Dataset(DataPoint((int(r[0]),), float(c)) for r, c in zip(X, y))
        memorizer = fit_forest(data, n_trees=1, max_depth=10, seed=0, bootstrap=False)
        assert r2_score(memorizer, data) == 1.0
        stump = fit_forest(data, n_trees=1, max_depth=0, seed=0, bootstrap=False)
        assert r2_score(stump, data) == 0.0
        blend = joined(memorizer, stump)
        assert r2_score(blend, data) == pytest.approx(0.75, abs=1e-9)


def test_criterion_07_adaptive_depth_on_xor():
    with criterion("7 adaptive depth resolves the XOR dataset at depth 2", 1.0):
        data = Dataset(
            DataPoint(f, c)
            for f, c in [((0, 0), 0.0), ((0, 1), 1.0), ((1, 0), 1.0), ((1, 1), 0.0)]
        )
        forest = fit_adaptive(data, n_trees=1, init_depth=1, score_threshold=0.9,
                              depth_cap=4, seed=0, bootstrap=False)
        assert forest.trained_depth == 2
        assert fit_forest(data, n_trees=1, max_depth=1, seed=0, bootstrap=False).training_score < 0.9
        assert forest.training_score >= 0.9


def test_criterion_08_end_to_end_convergence():
    with criterion("8 synthetic convergence to the best 5% of 216 strategies", 30.0):
        space = builtin_space("kissat_small")
        backend = SyntheticBackend(convergence_landscape())
        penalties = sorted(
            penalty(v.assignments, CONV_OPTIMUM, CONV_WEIGHTS) for v in all_strategies(space)
        )
        cutoff = penalties[math.ceil(0.05 * len(penalties)) - 1]  # 11th smallest of 216
        learn_policy = EpochPolicy(samples_per_epoch=100, learning_budget=CONV_BUDGET,
                                   strategize_samples=500)
        base_policy = EpochPolicy(samples_per_epoch=100, learning_budget=0.0,
                                  strategize_samples=500)
        in_cutoff = 0
        for seed in range(10):
            learned = run(backend, learn_policy, space=space, seed=seed)
            assert learned.outcome is Outcome.FAILURE
            assert summarize(learned.trajectory, learned.outcome).epochs == 3
            final_penalty = penalty(learned.state.strategy.assignments, CONV_OPTIMUM, CONV_WEIGHTS)
            if final_penalty <= cutoff + 1e-12:
                in_cutoff += 1

            baseline = run(backend, base_policy, space=space, seed=seed)
            assert baseline.state.strategy == default_strategy(space)
            assert baseline.trajectory.phase_events("strategize") == []
        assert in_cutoff >= 9, f"only {in_cutoff}/10 seeds reached the best 5%"


def test_criterion_09_ablation_shape(tmp_path):
    with criterion("9 ablation grid: deep/high-budget corner dominates", 120.0):
        space_path = tmp_path / "space.csv"
        space_path.write_text(ABLATION_SPACE_TEXT, encoding="utf-8")
        land_path = tmp_path / "land.json"
        save_landscape(ablation_landscape(), land_path)
        config = RunConfig(
            space_path=str(space_path), landscape_path=str(land_path),
            samples_per_epoch=100, strategize_samples=200, trees=50,
            time_limit=ABLATION_TIME_LIMIT, virtual_clock=True,
        )
        dominated = 0
        for seed in range(10):
            grid = ablation_grid(
                dataclasses.replace(config, seed=seed),
                budgets=ABLATION_BUDGETS, depths=(1, 4),
            )
            assert not grid.errors
            low_corner = grid.largest_solved[0][0]   # min budget, depth 1
            high_corner = grid.largest_solved[1][1]  # max budget, depth 4
            if high_corner >= low_corner:
                dominated += 1
        assert dominated >= 9, f"high corner dominated in only {dominated}/10 seeds"


def test_criterion_10_determinism(tmp_path):
    with criterion("10 byte-identical trajectories under a fixed seed", 10.0):
        space_path = tmp_path / "space.csv"
        space_path.write_text(serialize_space(builtin_space("kissat_small")), encoding="utf-8")
        land_path = tmp_path / "land.json"
        save_landscape(convergence_landscape(8), land_path)
        config = RunConfig(
            space_path=str(space_path), landscape_path=str(land_path),
            learning_budget=40000.0, samples_per_epoch=50, strategize_samples=100,
            trees=20, seed=3, virtual_clock=True, out=str(tmp_path / "first.tsv"),
        )
        _, first_summary = execute(config)
        execute(dataclasses.replace(config, out=str(tmp_path / "second.tsv")))
        first = (tmp_path / "first.tsv").read_bytes()
        second = (tmp_path / "second.tsv").read_bytes()
        assert first == second
        assert first_summary.epochs > 0  # the runs actually learned something


def test_criterion_11_external_adapter_contract(tmp_path):
    with criterion("11 external adapter: exit codes and metric parsing", 1.0):
        space = parse_space("name,default,alternatives\nchrono,1,0\n")
        adapter = SolverAdapterConfig(
            command=f"{sys.executable} {STUB} {{problem}} --opt-chrono {{chrono}}",
            metric_pattern=r"^c conflicts:\s*(\d+)",
            budget_flag="--conflicts {budget}",
        )
        sat = tmp_path / "sat.problem"
        sat.write_text("verdict=SAT\nconflicts=42\n", encoding="utf-8")
        outcome = one_problem_backend(adapter, space, sat).solve(1, Strategy(("1",)))
        assert outcome.verdict is Verdict.SAT and outcome.metric == 42.0

        unsat = tmp_path / "unsat.problem"
        unsat.write_text("verdict=UNSAT\nconflicts=0\n", encoding="utf-8")
        outcome = one_problem_backend(adapter, space, unsat).solve(1, Strategy(("0",)))
        assert outcome.verdict is Verdict.UNSAT and outcome.metric == 0.0

        broken = tmp_path / "broken.problem"
        broken.write_text("verdict=SAT\nconflicts=1\nexit=1\n", encoding="utf-8")
        with pytest.raises(Exception, match="unexpected exit code 1"):
            one_problem_backend(adapter, space, broken).solve(1, Strategy(("1",)))
