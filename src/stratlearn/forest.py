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

Each tree is a set of parallel node arrays (see ``RegressionTree``).  A
forest stacks its trees' arrays once; one vectorized walk, one step per
level of the deepest tree grown, predicts one row or many, and one
reduction gives the trees' shared value exactly when all agree (constant
targets score 1.0), else their sum in tree order divided by their number.

Minimum leaf size is 1 and minimum split size is 2 -- the datasets here are
tiny (hundreds of points), so pruning would starve the model.  There is no
per-tree feature subsampling; with at most ~14 features it adds variance
without benefit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    def feature_width(self) -> int:
        if not self._points:
            raise ValueError("empty dataset has no feature width")
        return len(self._points[0].features)

    def __len__(self) -> int:
        return len(self._points)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._points:
            raise ValueError("empty dataset")
        X = np.array([p.features for p in self._points], dtype=np.float64)
        y = np.array([p.cost for p in self._points], dtype=np.float64)
        return X, y


@dataclass(eq=False)
class RegressionTree:
    """Parallel node arrays, node 0 the root: node i sends x to ``left[i]`` if
    x[feature[i]] <= threshold[i], else to ``right[i]`` = ``left[i] + 1``.  A
    leaf (feature -1, threshold NaN) is its own left and right child.  ``value``
    and ``count`` are each node's mean target and size; ``depth`` counts levels."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray
    depth: int


@dataclass
class RandomForest:
    """Ensemble of regression trees; the prediction is the mean over trees."""

    trees: tuple[RegressionTree, ...]
    feature_width: int
    trained_depth: int
    training_score: float

    def __post_init__(self) -> None:
        # All trees in one set of node arrays, tree t's nodes numbered on from roots[t].
        self._roots = np.cumsum([0] + [t.value.shape[0] for t in self.trees[:-1]])
        self._feature = np.concatenate([t.feature for t in self.trees])
        self._threshold = np.concatenate([t.threshold for t in self.trees])
        self._left = np.concatenate([t.left + r for t, r in zip(self.trees, self._roots)])
        self._value = np.concatenate([t.value for t in self.trees])
        self._levels = max(t.depth for t in self.trees)

    def predict(self, X: np.ndarray | Sequence[float]) -> np.ndarray:
        """Mean over the trees for each row of ``X``, or for ``X`` itself if it is one row."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:  # read as X[feature]
            rows, nodes = (), self._roots
        else:  # read as X.T[feature, row]; nodes[t, r] is row r's node in tree t
            X, rows, nodes = X.T, (np.arange(X.shape[0]),), self._roots[:, None]
        for _ in range(self._levels):
            go_right = X[(self._feature[nodes], *rows)] > self._threshold[nodes]
            # Children come in pairs, so right is left + 1; a leaf's NaN threshold
            # sends every row left, to the leaf itself.
            nodes = self._left[nodes] + go_right
        values = self._value[nodes]
        # Trees that agree give their shared value exactly, so constant targets
        # score exactly 1.0; otherwise the sum runs over the trees in order.
        first = values[0]
        mean = np.add.accumulate(values, axis=0)[-1] / values.shape[0]
        return np.where((values == first).all(axis=0), first, mean)


def _leaves(y: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of one leaf per segment of ``y``, and which of them may split further."""
    low = np.minimum.reduceat(y, starts)
    high = np.maximum.reduceat(y, starts)
    # Exact value for constant targets, so memorizing forests score exactly 1.0.
    values = [
        float(y[a]) if lo == hi else float(y[a : a + n].mean())
        for a, n, lo, hi in zip(starts.tolist(), counts.tolist(), low.tolist(), high.tolist())
    ]
    return np.array(values, dtype=np.float64), (counts >= _MIN_SPLIT) & (low < high)


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
        value, live = _leaves(y[rows], np.zeros(1, dtype=np.intp), self.counts)
        self.tree = RegressionTree(np.full(1, -1), np.full(1, np.nan), np.zeros(1, int), np.zeros(1, int),
                                   value, self.counts, 0)
        self.live = np.flatnonzero(live)  # node ids of the live leaves, in ``counts`` order
        sorted_rows = rows[np.argsort(X[:, rows], axis=1, kind="stable")]
        # Narrowest type holding every row id and -1: small state, radix-sorted keys.
        self.order = np.vstack([sorted_rows, rows]).astype(np.min_scalar_type(-y.shape[0]))

    def grow_level(self) -> None:
        """Split every live leaf at its best (feature, threshold), one level deeper."""
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

        if not found.any():  # no live leaf has a legal cut: the tree is fully grown
            self.live = self.live[:0]
            return
        rows, leaf = order[-1], np.repeat(node, counts)
        # The r-th splitting leaf sends its rows to children 2r (left) and 2r + 1.
        side = 2 * (np.cumsum(found) - 1)[leaf] + (X[feature[leaf], rows] > threshold[leaf])
        child = np.full(y.shape[0], -1, dtype=order.dtype)
        child[rows] = np.where(found[leaf], side, -1)
        keys = child[order]
        order = np.take_along_axis(order, np.argsort(keys, axis=1, kind="stable"), axis=1)
        sizes = np.bincount(keys[-1][keys[-1] >= 0], minlength=2 * int(found.sum()))
        order = order[:, order.shape[1] - int(sizes.sum()):]
        values, live = _leaves(y[order[-1]], np.cumsum(sizes) - sizes, sizes)
        # A new tree (np.append copies), so forests holding the shallower one keep it.
        t, parents = self.tree, self.live[found]
        kids = np.arange(t.value.shape[0], t.value.shape[0] + sizes.shape[0])
        self.tree = t = RegressionTree(
            np.append(t.feature, np.full(kids.shape, -1)),
            np.append(t.threshold, np.full(kids.shape, np.nan)),
            np.append(t.left, kids), np.append(t.right, kids),
            np.append(t.value, values), np.append(t.count, sizes), t.depth + 1,
        )
        t.feature[parents], t.threshold[parents] = feature[found], threshold[found]
        t.left[parents], t.right[parents] = kids[::2], kids[1::2]
        self.live, self.counts = kids[live], sizes[live]
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
        # A tree with live leaves has grown one level per call so far.
        while grower.live.size and grower.tree.depth < depth:
            grower.grow_level()
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
    return float(forest.predict(features))


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
    ``depth_cap`` defaults to the feature width, or to ``init_depth`` if that
    is deeper; a cap below ``init_depth`` is rejected.
    """
    if init_depth < 1:
        raise ValueError("init_depth must be at least 1")
    if depth_cap is not None and depth_cap < init_depth:
        raise ValueError(f"depth_cap {depth_cap} is below init_depth {init_depth}")
    cap = max(init_depth, data.feature_width) if depth_cap is None else depth_cap
    growers = _plant(data, n_trees, seed, bootstrap)
    depth = init_depth
    forest = _grown_forest(growers, data, depth)
    while forest.training_score < score_threshold and depth < cap:
        depth += 1
        forest = _grown_forest(growers, data, depth)
    return forest

