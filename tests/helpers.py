"""Shared fixtures-in-spirit: small spaces, calibration landscapes, brute-force oracles."""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stratlearn.backends import (
    ExternalBackend,
    SolverAdapterConfig,
    SyntheticBackend,
    SyntheticLandscape,
    Verdict,
    geometric_schedule,
)
from stratlearn.forest import _TREE_STREAM, RandomForest
from stratlearn.sampler import acceptance_probability
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


def reference_run_chain(space, cost_fn, start, n_samples, config) -> list[tuple[Strategy, float, bool]]:
    """``sampler.run_chain`` over ``Strategy`` values, drawing from ``reference_neighbors``.

    Same stream; each record is (strategy, cost, accepted), which is what a
    ``run_chain`` record decodes to when ``cost_fn`` sees the decoded rank.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
    current, cost_current = start, float(cost_fn(start))
    records = []
    for _ in range(n_samples):
        options = reference_neighbors(space, current)
        proposal = options[int(rng.integers(len(options)))]
        cost_proposal = float(cost_fn(proposal))
        alpha = acceptance_probability(cost_current, cost_proposal, config.beta)
        accepted = alpha >= 1.0 or rng.random() < alpha
        if accepted:
            current, cost_current = proposal, cost_proposal
        records.append((current, cost_current, accepted))
    return records


def penalty(assignments, optimum, weights) -> float:
    return 1.0 + sum(w for w, a, o in zip(weights, assignments, optimum) if a != o)


# Convergence calibration: the demo script's landscape, a hidden optimum
# inside the compact kissat space with effort growing geometrically with the
# problem index.  A learning budget of 52000 affords exactly three epochs for
# seeds 0..9.
DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo_convergence.py"
_demo_spec = importlib.util.spec_from_file_location("demo_convergence", DEMO)
_demo = importlib.util.module_from_spec(_demo_spec)
_demo_spec.loader.exec_module(_demo)

CONV_OPTIMUM = _demo.OPTIMUM
CONV_WEIGHTS = _demo.WEIGHTS
CONV_BUDGET = 52000.0
convergence_landscape = _demo.demo_landscape


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


def one_problem_backend(config: SolverAdapterConfig, space: StrategySpace, problem) -> ExternalBackend:
    """An ``ExternalBackend`` whose manifest holds ``problem`` alone, as index 1."""
    return ExternalBackend(config, space, (str(problem),))


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
