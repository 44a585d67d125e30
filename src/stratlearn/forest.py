"""From-scratch random-forest regression on ordinal feature vectors.

Trees grow greedily top-down a level at a time, splitting every leaf of the
level at the (feature, threshold) pair that minimizes the summed squared
error of the two children (equivalently, maximizes variance reduction).
Thresholds sit at midpoints between consecutive distinct sorted feature
values.  Ties are broken toward the lowest feature id, then the lowest
threshold, so training is deterministic; sums run sequentially in stable
sorted order, so each tree is bit for bit the one a node-at-a-time grower
builds.  A node with a legal split is always split, even when the best
split leaves the variance unchanged: deeper levels may still untangle
interactions that no single split can.  Deepening grows the same trees.

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


def _leaves(y: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> tuple[list[TreeNode], np.ndarray]:
    """One leaf per segment of ``y``, and which of them may split further."""
    low = np.minimum.reduceat(y, starts)
    high = np.maximum.reduceat(y, starts)
    # Exact value for constant targets, so memorizing forests score exactly 1.0.
    nodes = [
        TreeNode(value=float(y[a]) if lo == hi else float(y[a : a + n].mean()), count=n)
        for a, n, lo, hi in zip(starts.tolist(), counts.tolist(), low.tolist(), high.tolist())
    ]
    return nodes, (counts >= _MIN_SPLIT) & (low < high)


class _Grower:
    """One tree grown level by level from its sample ``rows`` of the shared ``X``, ``y``.

    ``X`` is feature-major.  Row f of ``order`` holds the sample of the
    ``live`` (splittable) leaves, grouped by leaf and sorted stably by
    feature f within it; the last row keeps sample order.  Splits partition
    each row stably, so children inherit sorted orders.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, rows: np.ndarray):
        self.X, self.y = X, y
        self.counts = np.array([rows.shape[0]])
        roots, live = _leaves(y[rows], np.zeros(1, dtype=np.intp), self.counts)
        self.tree = RegressionTree(roots[0], 0)
        self.live = roots if live[0] else []
        sorted_rows = rows[np.argsort(X[:, rows], axis=1, kind="stable")]
        # Narrowest type holding every row id and -1: small state, radix-sorted keys.
        self.order = np.vstack([sorted_rows, rows]).astype(np.min_scalar_type(-y.shape[0]))

    def grow_level(self) -> None:
        """Split every live leaf at its best (feature, threshold), one level deeper."""
        self.tree.max_depth += 1
        X, y, order, counts = self.X, self.y, self.order, self.counts
        node = np.arange(counts.shape[0])
        col = np.arange(int(counts.max()))
        # (leaf, position) table, padded at the end with rows no cut reaches.
        at = np.minimum((np.cumsum(counts) - counts)[:, None] + col, order.shape[1] - 1)
        in_leaf = col[1:] < counts[:, None]
        n_left = col[1:] + 0.0
        n_right = np.maximum(counts[:, None] - n_left, 1.0)  # clamped only past the leaf
        best, threshold = np.zeros((2, node.shape[0]))
        feature, found = np.zeros(node.shape[0], dtype=np.intp), np.zeros(node.shape[0], dtype=bool)
        for f, column in enumerate(X):
            rows = order[f][at]
            xs, ys = column[rows], y[rows]
            csum, csq = np.cumsum(ys, axis=1), np.cumsum(ys * ys, axis=1)
            sum_left, sq_left = csum[:, :-1], csq[:, :-1]
            total, total_sq = csum[node, counts - 1][:, None], csq[node, counts - 1][:, None]
            sse = (sq_left - sum_left**2 / n_left) + (
                total_sq - sq_left - (total - sum_left) ** 2 / n_right
            )
            cut = in_leaf & (xs[:, 1:] > xs[:, :-1])
            sse[~cut] = np.inf
            j = np.argmin(sse, axis=1)
            low = sse[node, j]
            # First minimum over cuts; a later feature must be strictly lower.
            take = cut.any(axis=1) & (~found | (low < best))
            best[take], feature[take], found[take] = low[take], f, True
            threshold[take] = ((xs[node, j] + xs[node, j + 1]) / 2.0)[take]

        rows, leaf = order[-1], np.repeat(node, counts)
        # The r-th splitting leaf sends its rows to children 2r (left) and 2r + 1.
        side = 2 * (np.cumsum(found) - 1)[leaf] + (X[feature[leaf], rows] > threshold[leaf])
        child = np.full(y.shape[0], -1, dtype=order.dtype)
        child[rows] = np.where(found[leaf], side, -1)
        keys = child[order]
        order = np.take_along_axis(order, np.argsort(keys, axis=1, kind="stable"), axis=1)
        sizes = np.bincount(keys[-1][keys[-1] >= 0], minlength=2 * int(found.sum()))
        order = order[:, order.shape[1] - int(sizes.sum()):]
        children, live = _leaves(y[order[-1]], np.cumsum(sizes) - sizes, sizes)
        parents = (p for p, split in zip(self.live, found) if split)
        for p, f, t, left, right in zip(parents, feature[found].tolist(),
                                        threshold[found].tolist(), children[::2], children[1::2]):
            p.feature, p.threshold, p.left, p.right = f, t, left, right
        self.live = [c for c, keep in zip(children, live) if keep]
        self.counts = sizes[live]
        self.order = order[:, np.repeat(live, sizes)]


def _plant(data: Dataset, n_trees: int, seed: int, bootstrap: bool) -> list[_Grower]:
    """Depth-0 trees, each on a bootstrap resample from its own labeled substream of ``seed``.

    The result does not depend on training order; identical seeds give identical forests.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    X, y = data.to_arrays()
    X = np.ascontiguousarray(X.T)
    growers = []
    for t in range(n_trees):
        if bootstrap:
            rng = np.random.default_rng(np.random.SeedSequence([seed, _TREE_STREAM, t]))
            rows = rng.integers(0, y.shape[0], size=y.shape[0])
        else:
            rows = np.arange(y.shape[0])
        growers.append(_Grower(X, y, rows))
    return growers


def _grown_forest(growers: list[_Grower], data: Dataset, depth: int) -> RandomForest:
    """Grow every tree down to ``depth`` and score the forest on ``data``."""
    for grower in growers:
        while grower.live and grower.tree.max_depth < depth:
            grower.grow_level()
        grower.tree.max_depth = depth
    forest = RandomForest(tuple(g.tree for g in growers), data.feature_width, depth, 0.0)
    forest.training_score = r2_score(forest, data)
    return forest


def fit_forest(
    data: Dataset,
    n_trees: int,
    max_depth: int,
    seed: int = 0,
    bootstrap: bool = True,
) -> RandomForest:
    """Fit ``n_trees`` trees of depth at most ``max_depth`` on independent bootstrap resamples."""
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    return _grown_forest(_plant(data, n_trees, seed, bootstrap), data, max_depth)


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
    """Start shallow and grow the existing trees one level deeper until the
    training score is high enough.

    Returns the final forest; its ``trained_depth`` records the depth used.
    ``depth_cap`` defaults to the feature width.
    """
    if init_depth < 1:
        raise ValueError("init_depth must be at least 1")
    cap = data.feature_width if depth_cap is None else depth_cap
    growers = _plant(data, n_trees, seed, bootstrap)
    depth = init_depth
    forest = _grown_forest(growers, data, depth)
    while forest.training_score < score_threshold and depth < cap:
        depth += 1
        forest = _grown_forest(growers, data, depth)
    return forest

