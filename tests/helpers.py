"""Shared fixtures-in-spirit: small spaces, calibration landscapes, brute-force oracles."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from stratlearn.backends import (
    ExternalBackend,
    SolverAdapterConfig,
    SyntheticBackend,
    SyntheticLandscape,
    Verdict,
    geometric_schedule,
)
from stratlearn.engine import TABLE_CAP, EpochPolicy, ForestConfig, run
from stratlearn.forest import _TREE_STREAM, DataPoint, Dataset, RandomForest
from stratlearn.sampler import SamplerConfig, acceptance_probability
from stratlearn.space import ParameterDomain, Strategy, StrategySpace


def binary_space(k: int, prefix: str = "p") -> StrategySpace:
    return StrategySpace(
        tuple(ParameterDomain(f"{prefix}{i}", "1", ("0",)) for i in range(k))
    )


def space_from(rows: list[tuple[str, str, tuple[str, ...]]]) -> StrategySpace:
    return StrategySpace(tuple(ParameterDomain(*row) for row in rows))


def all_strategies(space: StrategySpace) -> list[Strategy]:
    return [
        Strategy(combo)
        for combo in itertools.product(*(d.values for d in space.domains))
    ]


def rank_of(space: StrategySpace, strategy: Strategy) -> int:
    return space.rank(space.codes(strategy))


def decode(space: StrategySpace, rank: int) -> Strategy:
    return space.strategy(space.unrank(rank))


def reference_neighbors(space: StrategySpace, strategy: Strategy) -> list[Strategy]:
    """The eager Hamming-1 enumeration that ``space.neighbors``, decoded, must match index for index.

    Positions in domain order, then each position's other values in
    (default, alternatives...) order.
    """
    out: list[Strategy] = []
    for p, domain in enumerate(space.domains):
        for value in domain.values:
            if value != strategy.assignments[p]:
                assigned = list(strategy.assignments)
                assigned[p] = value
                out.append(Strategy(tuple(assigned)))
    return out


def reference_run_chain(space, cost_fn, start, n_samples, *, seed, beta=1.0) -> list[tuple[Strategy, float, bool]]:
    """``sampler.run_chain`` over ``Strategy`` values, drawing from ``reference_neighbors``.

    Same stream; each record is (strategy, cost, accepted), which is what a
    ``run_chain`` record decodes to when ``cost_fn`` sees the decoded rank.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    current, cost_current = start, float(cost_fn(start))
    records = []
    for _ in range(n_samples):
        options = reference_neighbors(space, current)
        proposal = options[int(rng.integers(len(options)))]
        cost_proposal = float(cost_fn(proposal))
        alpha = acceptance_probability(cost_current, cost_proposal, beta)
        accepted = alpha >= 1.0 or rng.random() < alpha
        if accepted:
            current, cost_current = proposal, cost_proposal
        records.append((current, cost_current, accepted))
    return records


def ordinal_space(sizes) -> StrategySpace:
    """Parameter ``p{i}`` of values ``0`` (its default) to ``sizes[i] - 1``."""
    return space_from([(f"p{i}", "0", tuple(map(str, range(1, k)))) for i, k in enumerate(sizes)])


# 1-4 parameters of 2-4 values each; binary_space(1) has a single neighbor, so its
# chains draw integers(1), which must consume no word.
chain_spaces = st.one_of(
    st.just(binary_space(1)), st.lists(st.integers(2, 4), min_size=1, max_size=4).map(ordinal_space)
)

# About one run in five draws 4^9 strategies, over TABLE_CAP: its strategize predicts one strategy at a
# time, as its chain meets it, with no floor.  A larger share costs the reference's fits more time.
WIDE_SPACE = ordinal_space((4,) * 9)
assert math.prod(WIDE_SPACE.sizes) > TABLE_CAP
run_spaces = st.integers(0, 4).flatmap(lambda i: st.just(WIDE_SPACE) if i == 4 else chain_spaces)


@dataclass(frozen=True)
class RunCase:
    """Everything ``engine.run`` takes for one run on a ``SyntheticBackend``, on the virtual clock."""

    space: StrategySpace
    landscape: SyntheticLandscape
    policy: EpochPolicy
    forest_config: ForestConfig
    sampler_config: SamplerConfig
    seed: int
    time_limit: float | None

    def run(self, backend=SyntheticBackend, clock="virtual", **changes):
        """The run with ``changes`` made to its fields, on ``backend(landscape)`` and the ``clock``."""
        case = dataclasses.replace(self, **changes)
        return run(backend(case.landscape), case.policy, space=case.space, seed=case.seed, clock=clock,
                   sampler_config=case.sampler_config, forest_config=case.forest_config, time_limit=case.time_limit)


@st.composite
def run_cases(draw) -> RunCase:
    """2-12 problems on a ``run_spaces`` space, SAT first at any index or none, every option of a run drawn.

    A weight reaches 12, so a strategy can cost over ``ABORT_MULTIPLIER`` times
    the in-force one and a collection call abort: about 4% of drawn runs have one.
    """
    space = draw(run_spaces)
    n = draw(st.integers(2, 12))
    sat, verdicts = draw(st.none() | st.integers(1, n)), [Verdict.UNSAT] * n
    if sat is not None:  # any verdicts may follow the first SAT
        decisive = st.sampled_from([Verdict.SAT, Verdict.UNSAT])
        verdicts[sat - 1:] = [Verdict.SAT, *draw(st.lists(decisive, min_size=n - sat, max_size=n - sat))]
    landscape = SyntheticLandscape(
        optimum=tuple(draw(st.sampled_from(d.values)) for d in space.domains),
        weights=tuple(draw(st.lists(st.floats(0.0, 12.0), min_size=space.k, max_size=space.k))),
        base_metrics=tuple(draw(st.lists(st.floats(1.0, 1000.0), min_size=n, max_size=n))),
        verdicts=tuple(verdicts),
    )
    policy = EpochPolicy(draw(st.integers(1, 30)), draw(st.sampled_from([0.0, 1e9]) | st.floats(10.0, 5000.0)),
                         draw(st.integers(1, 60)))
    depth = draw(st.integers(1, 4))
    mode = draw(st.sampled_from([{}, {"init_depth": depth, "depth_cap": depth + 2}, {"fixed_depth": depth}]))
    forest_config = ForestConfig(trees=draw(st.integers(1, 12)), **mode)
    return RunCase(space, landscape, policy, forest_config, SamplerConfig(beta=draw(st.sampled_from([0.5, 1.0, 3.0]))),
                   draw(st.integers(0, 2**16)), draw(st.none() | st.floats(0.0, 50000.0)))


class FakeTime:
    """Stands in for ``stratlearn.trajectory.time``; its ``perf_counter`` moves only by ``advance``."""

    def __init__(self):
        self.now = 1000.0

    def perf_counter(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def hand_forest(width, *trees):
    """A forest of hand-written trees: a leaf is its value, a split ``(feature, threshold, left, right)``."""
    feature, threshold, left, value, pending, depth = [], [], [], [], [], 0

    def add(tree, level):
        node = len(value)
        feature.append(-1), threshold.append(np.nan), left.append(node), value.append(0.0)
        pending.append((node, tree, level))

    for tree in trees:
        add(tree, 0)
    while pending:
        node, tree, level = pending.pop(0)
        if isinstance(tree, tuple):
            feature[node], threshold[node], left[node] = tree[0], tree[1], len(value)
            add(tree[2], level + 1)
            add(tree[3], level + 1)
            depth = max(depth, level + 1)
        else:
            value[node] = tree
    return RandomForest(np.array(feature), np.array(threshold), np.array(left), np.array(value),
                        np.arange(len(trees)), depth, width, depth, 0.0)


def penalty(assignments, optimum, weights) -> float:
    return 1.0 + sum(w for w, a, o in zip(weights, assignments, optimum) if a != o)


# The characters other than "\n" and "\r" at which str.splitlines() ends a line.
OTHER_LINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def codepoint(char: str) -> str:
    return f"U+{ord(char):04X}"


# Convergence calibration: the README library example's landscape, a hidden
# optimum inside the compact kissat space with effort growing geometrically
# with the problem index.  A learning budget of 52000 affords exactly three
# epochs for seeds 0..9.
CONV_OPTIMUM = ("0", "1", "2", "1", "2", "9")
CONV_WEIGHTS = (0.9, 0.4, 0.7, 0.3, 0.5, 1.1)
CONV_BUDGET = 52000.0


def convergence_landscape(n: int = 12) -> SyntheticLandscape:
    return SyntheticLandscape(
        optimum=CONV_OPTIMUM,
        weights=CONV_WEIGHTS,
        base_metrics=geometric_schedule(50.0, 1.6, n),
        verdicts=(Verdict.UNSAT,) * n,
    )


# Ablation calibration: four binary parameters, a binding time limit, and a
# steep effort schedule, so better strategies certify visibly more indices.
ABLATION_OPTIMUM = ("0", "0", "0", "0")
ABLATION_WEIGHTS = (0.5, 0.8, 1.1, 1.4)
ABLATION_TIME_LIMIT = 40000.0
ABLATION_BUDGETS = (500.0, 12000.0)

ABLATION_SPACE_TEXT = """name,default,alternatives
alpha,1,0
beta,1,0
gamma,1,0
delta,1,0
"""


def ablation_landscape(n: int = 20) -> SyntheticLandscape:
    return SyntheticLandscape(
        optimum=ABLATION_OPTIMUM,
        weights=ABLATION_WEIGHTS,
        base_metrics=geometric_schedule(20.0, 1.5, n),
        verdicts=(Verdict.UNSAT,) * n,
    )


def verdicts_from_bits(bits: int, n: int) -> list[Verdict]:
    """Bit i of ``bits`` decides whether problem i+1 is SAT."""
    return [Verdict.SAT if bits & (1 << i) else Verdict.UNSAT for i in range(n)]


def backend_for(verdicts, metrics=None) -> SyntheticBackend:
    """Strategy-independent backend with a fixed verdict schedule.

    ``verdicts`` may hold Verdict members or the strings "SAT"/"UNSAT";
    ``metrics`` defaults to 10.0 per problem.
    """
    schedule = tuple(v if isinstance(v, Verdict) else Verdict(str(v)) for v in verdicts)
    if metrics is None:
        metrics = [10.0] * len(schedule)
    return SyntheticBackend(SyntheticLandscape(
        optimum=(), weights=(), base_metrics=tuple(float(m) for m in metrics), verdicts=schedule,
    ))


STUB = Path(__file__).resolve().parents[1] / "scripts" / "stub_solver.py"  # a solver process for ExternalBackend


def one_problem_backend(config: SolverAdapterConfig, space: StrategySpace, problem) -> ExternalBackend:
    """An ``ExternalBackend`` whose manifest holds ``problem`` alone, as index 1."""
    return ExternalBackend(config, space, (str(problem),))


def brute_force_split(X: np.ndarray, y: np.ndarray) -> tuple[float, int, float] | None:
    """Exhaustive minimum-weighted-variance split as (sse, feature, threshold); independent of the tree code."""
    best = None
    for feature in range(X.shape[1]):
        values = np.unique(X[:, feature])
        for low, high in zip(values, values[1:]):
            threshold = (low + high) / 2.0
            left = X[:, feature] <= threshold
            sse = np.var(y[left]) * left.sum() + np.var(y[~left]) * (~left).sum()
            if best is None or sse < best[0] - 1e-12:
                best = (sse, feature, threshold)
    return best


# Reference tree grower: one node at a time, recursively, with the split rule
# and the summation order the forest module documents.  Each node sums its
# targets per distinct feature value in sample order, then cumulatively over
# the values in ascending order.  Tests compare the library's trees against it
# node for node, so it stays deliberately plain.


@dataclass
class RefNode:
    """Leaf when ``feature`` is None; otherwise a binary split on x[feature] <= threshold."""

    value: float
    count: int
    feature: int | None = None
    threshold: float | None = None
    left: "RefNode | None" = None
    right: "RefNode | None" = None


def _reference_leaf(y: np.ndarray) -> RefNode:
    total = 0.0
    for target in y:  # in sample order
        total += target
    value = float(y.min()) if y.min() == y.max() else float(total / y.shape[0])
    return RefNode(value=value, count=int(y.shape[0]))


def _reference_split(X: np.ndarray, y: np.ndarray) -> tuple[float, int, float] | None:
    """Scan all (feature, midpoint threshold) pairs; return (sse, feature, threshold)."""
    best = None
    for feat in range(X.shape[1]):
        values, codes = np.unique(X[:, feat], return_inverse=True)
        if values.size < 2:
            continue
        # Cut j sends values[: j + 1] left; the last value admits no cut.
        n_left = np.cumsum(np.bincount(codes))
        sum_left = np.cumsum(np.bincount(codes, weights=y))
        sq_left = np.cumsum(np.bincount(codes, weights=y * y))
        n_right = n_left[-1] - n_left
        sse = (sq_left - sum_left**2 / n_left) + (
            sq_left[-1] - sq_left - (sum_left[-1] - sum_left) ** 2 / np.maximum(n_right, 1)
        )
        j = int(np.argmin(sse[:-1]))
        if best is None or sse[j] < best[0]:
            best = (float(sse[j]), feat, float((values[j] + values[j + 1]) / 2.0))
    return best


def reference_grow(X: np.ndarray, y: np.ndarray, max_depth: int, depth: int = 0) -> RefNode:
    if depth >= max_depth or y.shape[0] < 2 or y.min() == y.max():
        return _reference_leaf(y)
    found = _reference_split(X, y)
    if found is None:  # all feature columns constant
        return _reference_leaf(y)
    _, feat, threshold = found
    mask = X[:, feat] <= threshold
    node = _reference_leaf(y)
    node.feature = feat
    node.threshold = threshold
    node.left = reference_grow(X[mask], y[mask], max_depth, depth + 1)
    node.right = reference_grow(X[~mask], y[~mask], max_depth, depth + 1)
    return node


def bootstrap_rows(n: int, tree: int, seed: int = 0, bootstrap: bool = True) -> np.ndarray:
    """Row ids of tree ``tree``'s sample of ``n`` rows, in the order ``fit_forest`` draws them."""
    if not bootstrap:
        return np.arange(n)
    return np.random.default_rng(np.random.SeedSequence([seed, _TREE_STREAM, tree])).integers(0, n, size=n)


def reference_trees(data, n_trees: int, max_depth: int, seed: int = 0, bootstrap: bool = True):
    """Root of each tree ``fit_forest`` should grow, from the same bootstrap draws."""
    X, y = data.to_arrays()
    picks = [bootstrap_rows(y.shape[0], t, seed, bootstrap) for t in range(n_trees)]
    return [reference_grow(X[pick], y[pick], max_depth) for pick in picks]


def reference_records(node: RefNode) -> list[tuple]:
    """Preorder (feature, threshold, value, count) of every node, floats as exact hex."""
    threshold = None if node.threshold is None else node.threshold.hex()
    records = [(node.feature, threshold, node.value.hex(), node.count)]
    if node.feature is not None:
        records += reference_records(node.left) + reference_records(node.right)
    return records


def node_records(forest: RandomForest, X: np.ndarray, rows: np.ndarray, node: int) -> list[tuple]:
    """``reference_records`` of the tree under ``node`` of a forest, ``rows`` being
    the sample rows that reach it (each node's count is their number).

    A leaf must link to itself and carry feature -1 and a NaN threshold; it
    reads as a reference leaf (feature and threshold None).  A split's
    children must come after it, right after left.
    """
    value, count = float(forest.value[node]).hex(), int(rows.shape[0])
    left = int(forest.left[node])
    if left == node:
        assert forest.feature[node] == -1 and np.isnan(forest.threshold[node])
        return [(None, None, value, count)]
    assert left > node
    feature, threshold = int(forest.feature[node]), float(forest.threshold[node])
    goes_left = X[rows, feature] <= threshold
    return (
        [(feature, threshold.hex(), value, count)]
        + node_records(forest, X, rows[goes_left], left)
        + node_records(forest, X, rows[~goes_left], left + 1)
    )


def joined(first: RandomForest, second: RandomForest) -> RandomForest:
    """``first`` with ``second``'s trees after its own, ``second``'s nodes numbered on from ``first``'s."""
    offset = first.value.shape[0]
    return dataclasses.replace(
        first,
        feature=np.concatenate([first.feature, second.feature]),
        threshold=np.concatenate([first.threshold, second.threshold]),
        left=np.concatenate([first.left, second.left + offset]),
        value=np.concatenate([first.value, second.value]),
        roots=np.concatenate([first.roots, second.roots + offset]),
        levels=max(first.levels, second.levels),
    )


# Reference run: the calculus written out plainly, on the virtual clock.  It
# walks ``Strategy`` values with ``reference_run_chain``, grows each fit's trees
# afresh with ``reference_trees``, and predicts one row at a time down those
# trees, so it shares no table, floor, rank, raw-stream decoder or level-wise
# grower with ``engine.run``.  Tests require ``run()`` to match it event for event.


def reference_predict(trees: list[RefNode], row: tuple[int, ...]) -> float:
    """The trees' shared value when all agree, else their values summed in tree order over their number."""
    values = []
    for node in trees:
        while node.feature is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        values.append(node.value)
    if all(value == values[0] for value in values):
        return values[0]
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def reference_fit(points: list[tuple[tuple[int, ...], float]], config: ForestConfig, seed: int):
    """(trees, training R²) of a fit: at ``fixed_depth``, or deepened one level at a time from
    ``init_depth`` while R² is below ``score_threshold`` and the depth below its cap."""
    data = Dataset(DataPoint(features, cost) for features, cost in points)
    X, y = data.to_arrays()

    def grown(depth):
        trees = reference_trees(data, config.trees, depth, seed)
        predictions = np.array([reference_predict(trees, tuple(row)) for row in X.tolist()])
        ss_res = float(((y - predictions) ** 2).sum())  # r2_score's formula
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return trees, 1.0 if ss_res == 0.0 else 0.0
        return trees, 1.0 - ss_res / ss_tot

    if config.fixed_depth is not None:
        return grown(config.fixed_depth)
    width = X.shape[1]
    cap = width if config.depth_cap is None else config.depth_cap
    depth = min(math.ceil(width / 3), cap) if config.init_depth is None else config.init_depth
    cap = max(depth, cap)
    trees, score = grown(depth)
    while score < config.score_threshold and depth < cap:
        depth += 1
        trees, score = grown(depth)
    return trees, score


def reference_run(landscape: SyntheticLandscape, policy: EpochPolicy, space: StrategySpace, *,
                  seed: int, beta: float, forest_config: ForestConfig, time_limit: float | None):
    """``engine.run`` on ``SyntheticBackend(landscape)`` and the virtual clock, as the outcome's name
    and each event's field tuple."""
    events: list[tuple] = []
    clock = learning = 0.0

    def record(phase, index, strategy, verdict=None, raw_metric=None, cost=None, charge=0.0):
        nonlocal clock, learning
        clock += charge
        if phase != "solve":
            learning += charge
        events.append((phase, index, strategy.assignments, verdict, raw_metric, cost, charge, clock))

    def substream(stream, step):
        return int(np.random.SeedSequence([seed, stream, step]).generate_state(1)[0])

    def features(strategy, index):
        return tuple(d.values.index(a) for d, a in zip(space.domains, strategy.assignments)) + (index,)

    strategy = Strategy(tuple(d.default_value for d in space.domains))
    points, trees, epochs = [], None, 0
    for index in range(1, landscape.num_problems + 1):
        if time_limit is not None and clock >= time_limit:
            return "TIME_LIMIT", events
        baseline, verdict = landscape.metric(index, strategy), landscape.verdicts[index - 1]
        record("solve", index, strategy, verdict=verdict.value, raw_metric=baseline, charge=baseline)
        if verdict is Verdict.SAT:
            return "SUCCESS", events
        if index == landscape.num_problems:
            return "FAILURE", events

        estimate = policy.samples_per_epoch * baseline
        if policy.learning_budget > 0 and learning + estimate <= policy.learning_budget and baseline != 0:
            memo = {strategy: 1.0}  # the in-force strategy's run is the solve just made

            def cost_fn(candidate):
                if candidate not in memo:
                    metric, budget = landscape.metric(index, candidate), 10.0 * baseline
                    cost, charge = (10.0, budget) if metric > budget else (metric / baseline, metric)
                    record("collect", index, candidate, raw_metric=metric, cost=cost, charge=charge)
                    memo[candidate] = cost
                return memo[candidate]

            chain = reference_run_chain(space, cost_fn, strategy, policy.samples_per_epoch,
                                        seed=substream(11, epochs), beta=beta)
            points += [(features(s, index), cost) for s, cost, _ in chain]
            trees, score = reference_fit(points, forest_config, substream(12, epochs))
            epochs += 1
            record("train", index, strategy, cost=score)

        if trees is not None:  # strategize at the next index: the earliest strict minimum wins
            predicted = lambda candidate: reference_predict(trees, features(candidate, index + 1))
            best, best_cost = strategy, predicted(strategy)
            if policy.strategize_samples > 1:
                for candidate, cost, _ in reference_run_chain(space, predicted, strategy, policy.strategize_samples - 1,
                                                              seed=substream(13, index + 1), beta=beta):
                    if cost < best_cost:
                        best, best_cost = candidate, cost
            strategy = best
            record("strategize", index + 1, strategy, cost=best_cost)
