"""From-scratch random-forest regression on ordinal feature vectors.

Trees grow greedily top-down, choosing the (feature, threshold) pair that
minimizes the summed squared error of the two children (equivalently,
maximizes variance reduction).  Thresholds sit at midpoints between
consecutive distinct sorted feature values.  Ties are broken toward the
lowest feature id, then the lowest threshold, so training is deterministic.
A node with a legal split is always split, even when the best split leaves
the variance unchanged: deeper levels may still untangle interactions that
no single split can.

Minimum leaf size is 1 and minimum split size is 2 -- the datasets here are
tiny (hundreds of points), so pruning would starve the model.  There is no
per-tree feature subsampling; with at most ~14 features it adds variance
without benefit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

_TREE_STREAM = 7  # label for per-tree seed substreams
_MIN_SPLIT = 2


@dataclass(frozen=True)
class DataPoint:
    """One training sample: an ordinal feature vector and its observed cost."""

    features: tuple[int, ...]
    cost: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.cost):
            raise ValueError(f"cost must be finite, got {self.cost!r}")


class Dataset:
    """Append-only collection of DataPoints with a fixed feature width."""

    def __init__(self, points: Iterable[DataPoint] = ()):
        self._points: list[DataPoint] = []
        for p in points:
            self.append(p)

    def append(self, point: DataPoint) -> None:
        if self._points and len(point.features) != self.feature_width:
            raise ValueError(
                f"feature width {len(point.features)} does not match dataset width {self.feature_width}"
            )
        self._points.append(point)

    @property
    def points(self) -> tuple[DataPoint, ...]:
        return tuple(self._points)

    @property
    def feature_width(self) -> int:
        if not self._points:
            raise ValueError("empty dataset has no feature width")
        return len(self._points[0].features)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[DataPoint]:
        return iter(self._points)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._points:
            raise ValueError("empty dataset")
        X = np.array([p.features for p in self._points], dtype=np.float64)
        y = np.array([p.cost for p in self._points], dtype=np.float64)
        return X, y


@dataclass
class TreeNode:
    """Leaf when ``feature`` is None; otherwise a binary split on x[feature] <= threshold."""

    value: float
    count: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class RegressionTree:
    root: TreeNode
    max_depth: int

    def predict_one(self, features: Sequence[float]) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if features[node.feature] <= node.threshold else node.right
        return node.value

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=np.float64)
        _predict_into(self.root, X, np.arange(X.shape[0]), out)
        return out


@dataclass
class RandomForest:
    """Ensemble of regression trees; the prediction is the mean over trees."""

    trees: tuple[RegressionTree, ...]
    feature_width: int
    trained_depth: int
    training_score: float

    def predict_one(self, features: Sequence[float]) -> float:
        # The mean of identical tree outputs is that output exactly; summation
        # noise would otherwise break the constant-data score convention.
        first = self.trees[0].predict_one(features)
        total = first
        all_equal = True
        for t in self.trees[1:]:
            p = t.predict_one(features)
            all_equal = all_equal and p == first
            total += p
        return first if all_equal else total / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        stacked = np.vstack([t.predict(X) for t in self.trees])
        out = stacked.mean(axis=0)
        unanimous = np.all(stacked == stacked[0], axis=0)
        out[unanimous] = stacked[0][unanimous]
        return out


def _predict_into(node: TreeNode, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.value
        return
    go_left = X[idx, node.feature] <= node.threshold
    _predict_into(node.left, X, idx[go_left], out)
    _predict_into(node.right, X, idx[~go_left], out)


def _leaf(y: np.ndarray) -> TreeNode:
    # Exact value for constant targets, so memorizing forests score exactly 1.0.
    value = float(y[0]) if y.min() == y.max() else float(y.mean())
    return TreeNode(value=value, count=int(y.shape[0]))


def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[float, int, float] | None:
    """Scan all (feature, midpoint threshold) pairs; return (sse, feature, threshold)."""
    n = y.shape[0]
    best: tuple[float, int, float] | None = None
    for feat in range(X.shape[1]):
        order = np.argsort(X[:, feat], kind="stable")
        xs = X[order, feat]
        ys = y[order]
        cuts = np.nonzero(xs[1:] > xs[:-1])[0]
        if cuts.size == 0:
            continue
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        n_left = cuts + 1.0
        n_right = n - n_left
        sum_left = csum[cuts]
        sq_left = csq[cuts]
        sse = (sq_left - sum_left**2 / n_left) + (
            csq[-1] - sq_left - (csum[-1] - sum_left) ** 2 / n_right
        )
        j = int(np.argmin(sse))
        if best is None or sse[j] < best[0]:
            threshold = float((xs[cuts[j]] + xs[cuts[j] + 1]) / 2.0)
            best = (float(sse[j]), feat, threshold)
    return best


def _grow(X: np.ndarray, y: np.ndarray, depth: int, max_depth: int) -> TreeNode:
    if depth >= max_depth or y.shape[0] < _MIN_SPLIT or y.min() == y.max():
        return _leaf(y)
    found = _best_split(X, y)
    if found is None:  # all feature columns constant
        return _leaf(y)
    _, feat, threshold = found
    mask = X[:, feat] <= threshold
    node = _leaf(y)
    node.feature = feat
    node.threshold = threshold
    node.left = _grow(X[mask], y[mask], depth + 1, max_depth)
    node.right = _grow(X[~mask], y[~mask], depth + 1, max_depth)
    return node


def fit_forest(
    data: Dataset,
    n_trees: int,
    max_depth: int,
    seed: int = 0,
    bootstrap: bool = True,
) -> RandomForest:
    """Fit ``n_trees`` trees on independent bootstrap resamples derived from ``seed``.

    Per-tree generators come from labeled seed substreams, so the result does
    not depend on training order and identical seeds give identical forests.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    X, y = data.to_arrays()
    trees: list[RegressionTree] = []
    for t in range(n_trees):
        if bootstrap:
            rng = np.random.default_rng(np.random.SeedSequence([seed, _TREE_STREAM, t]))
            pick = rng.integers(0, y.shape[0], size=y.shape[0])
            Xt, yt = X[pick], y[pick]
        else:
            Xt, yt = X, y
        trees.append(RegressionTree(_grow(Xt, yt, 0, max_depth), max_depth))
    forest = RandomForest(tuple(trees), data.feature_width, max_depth, 0.0)
    forest.training_score = r2_score(forest, data)
    return forest


def predict(forest: RandomForest, features: Sequence[float]) -> float:
    """Mean of the individual tree predictions for one feature vector."""
    if len(features) != forest.feature_width:
        raise ValueError(
            f"feature width {len(features)} does not match forest width {forest.feature_width}"
        )
    return forest.predict_one(features)


def r2_score(forest: RandomForest, data: Dataset) -> float:
    """1 - SS_res/SS_tot on ``data``; constant targets score 1.0 iff matched exactly."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    X, y = data.to_arrays()
    predictions = forest.predict(X)
    ss_res = float(((y - predictions) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_adaptive(
    data: Dataset,
    n_trees: int,
    init_depth: int,
    score_threshold: float = 0.9,
    depth_cap: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> RandomForest:
    """Start shallow and retrain one level deeper until the training score is high enough.

    Returns the final forest; its ``trained_depth`` records the depth used.
    ``depth_cap`` defaults to the feature width.
    """
    if init_depth < 1:
        raise ValueError("init_depth must be at least 1")
    cap = data.feature_width if depth_cap is None else depth_cap
    depth = init_depth
    forest = fit_forest(data, n_trees, depth, seed, bootstrap)
    while forest.training_score < score_threshold and depth < cap:
        depth += 1
        forest = fit_forest(data, n_trees, depth, seed, bootstrap)
    return forest

