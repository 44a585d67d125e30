"""From-scratch random-forest regression on ordinal feature vectors.

All trees of a forest grow together, top-down, a level at a time: every
leaf splits at the (feature, threshold) pair that minimizes the summed
squared error of its children.  A feature's codes are its distinct values
in ascending order, so per-(leaf, code) histograms of count, sum and sum of
squares hold every cut exactly: the "hist" split search of LightGBM and
XGBoost, one bin per value.  Bins sum in sample order, and a cut's left
side sums the bins up to it in code order.  Cuts lie between two codes
present in the leaf, at the midpoint of their values.  Ties go to the first
minimum over cuts (the lowest threshold), then to the lowest feature id, so
each tree is bit for bit what a node-at-a-time grower with these sums
builds, whatever grows beside it.  A node with a legal split always splits,
even when that leaves the variance unchanged: deeper levels may untangle
interactions no single split can.  Deepening grows the same trees.  A
leaf's value is its targets' sum in sample order over their number, or
their shared value exactly.

A forest is the grower's node arrays as they stand (see ``RandomForest``):
tree t's root is node t, and a split's children are a pair, right after
left.  One vectorized walk, ``levels`` steps long, predicts one row or
many; a ``Grid`` of every code combination is instead picked leaf by leaf
over its axes, which gives the walk's results for far less work.  One
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
from typing import Iterable, NamedTuple, Sequence

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
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        for p in points:
            self.append(p)

    def append(self, point: DataPoint) -> None:
        if self._points and len(point.features) != self.feature_width:
            raise ValueError(
                f"feature width {len(point.features)} does not match dataset width {self.feature_width}"
            )
        self._points.append(point)
        self._arrays = None

    @property
    def feature_width(self) -> int:
        if not self._points:
            raise ValueError("empty dataset has no feature width")
        return len(self._points[0].features)

    def __len__(self) -> int:
        return len(self._points)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Features and costs, built once per size of the dataset and read-only."""
        if not self._points:
            raise ValueError("empty dataset")
        if self._arrays is None:
            X = np.array([p.features for p in self._points], dtype=np.float64)
            y = np.array([p.cost for p in self._points], dtype=np.float64)
            X.flags.writeable = y.flags.writeable = False
            self._arrays = X, y
        return self._arrays


class Grid(NamedTuple):
    """Every row of ordinal codes below ``sizes``, the last code fastest, each followed by ``index``."""

    sizes: tuple[int, ...]
    index: int


@dataclass(eq=False)
class RandomForest:
    """Ensemble of regression trees in one set of parallel node arrays; the
    prediction is the mean over the trees.

    Tree t's root is node ``roots[t]`` (node t, as grown).  Node i sends x to
    ``left[i]`` if x[feature[i]] <= threshold[i], else to ``left[i] + 1``; a
    leaf (feature -1, threshold NaN) is its own left child.  ``value`` is each
    node's mean target, and ``levels`` counts the levels in which any leaf
    split, the depth of the deepest tree.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    levels: int
    feature_width: int
    trained_depth: int
    training_score: float

    def predict(self, X: np.ndarray | Sequence[float] | Grid) -> np.ndarray:
        """Mean over the trees for each row of ``X``, for ``X`` itself if it is one row, or for each row of a Grid."""
        if isinstance(X, Grid):
            return self._predict_grid(X)
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.feature_width:
            raise ValueError(f"feature width {X.shape[-1]} does not match forest width {self.feature_width}")
        if X.ndim == 1:  # read as X[feature]
            rows, nodes = (), self.roots
        else:  # read as X.T[feature, row]; nodes[t, r] is row r's node in tree t
            X, rows, nodes = X.T, (np.arange(X.shape[0]),), np.repeat(self.roots[:, None], X.shape[0], axis=1)
        for _ in range(self.levels):
            go_right = X[(self.feature[nodes], *rows)] > self.threshold[nodes]
            # Children come in pairs, so right is left + 1; a leaf's NaN threshold
            # sends every row left, to the leaf itself.
            nodes = self.left[nodes] + go_right
        values = self.value[nodes]
        # Trees that agree give their shared value exactly, so constant targets
        # score exactly 1.0; otherwise the sum runs over the trees in order.
        first = values[0]
        mean = np.add.accumulate(values, axis=0)[-1] / values.shape[0]
        return np.where((values == first).all(axis=0), first, mean)

    def _predict_grid(self, grid: Grid) -> np.ndarray:
        """``predict`` of a grid's rows, bit for bit, without building them: each tree's values are picked by
        ``np.where`` over the grid's axes, so a subtree's array spans only the axes it splits on."""
        k = len(grid.sizes)
        if k + 1 != self.feature_width:
            raise ValueError(f"grid width {k + 1} does not match forest width {self.feature_width}")
        axes = [np.arange(n).reshape([-1 if d == p else 1 for d in range(k)]) for p, n in enumerate(grid.sizes)]
        axes.append(grid.index)
        feature, threshold, left, value = (a.tolist() for a in (self.feature, self.threshold, self.left, self.value))

        def subtree(node: int):
            if feature[node] < 0:
                return value[node]
            return np.where(axes[feature[node]] > threshold[node], subtree(left[node] + 1), subtree(left[node]))

        trees = (np.broadcast_to(subtree(root), grid.sizes).reshape(-1) for root in self.roots.tolist())
        first = next(trees)
        total, agree = first.copy(), np.ones(first.shape, dtype=bool)
        for values in trees:  # predict's reduction, one tree at a time
            total += values
            agree &= values == first
        return np.where(agree, first, total / len(self.roots))


class _ForestGrower:
    """Every tree of a forest, grown together a level at a time.

    Data row ``rows[i]`` lies in live leaf ``leaf[i]``, node ``live[leaf[i]]``.
    The rows are the trees' samples end to end, each in draw order, less those
    in leaves that split no further.  All trees' nodes share one set of arrays
    in order of creation, tree t's root first as node t.
    """

    def __init__(self, data: Dataset, n_trees: int, seed: int, bootstrap: bool):
        """Depth-0 trees, each on a bootstrap resample from its own labeled substream of ``seed``."""
        if n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        X, self.y = data.to_arrays()
        n = self.y.shape[0]
        self.rows = np.concatenate([
            np.random.default_rng(np.random.SeedSequence([seed, _TREE_STREAM, t])).integers(0, n, size=n)
            if bootstrap else np.arange(n)
            for t in range(n_trees)
        ])
        # Codes index each column's distinct values, ascending; np.unique would import numpy.ma (1 MB).
        self.values = [np.array(sorted(set(column.tolist()))) for column in X.T]
        self.codes = np.reshape([np.searchsorted(v, column) for v, column in zip(self.values, X.T)], X.T.shape)
        self.feature, self.left = np.zeros((2, 0), dtype=np.intp)
        self.threshold, self.value = np.zeros((2, 0))
        self.roots, self.levels = np.arange(n_trees), 0
        self._add_leaves(n_trees, self.rows, np.repeat(self.roots, n))

    def _add_leaves(self, n: int, rows: np.ndarray, leaf: np.ndarray) -> None:
        """``n`` new leaves, data row ``rows[i]`` in leaf ``leaf[i]``, become the live ones."""
        y = self.y[rows]
        count = np.bincount(leaf, minlength=n)
        low, high = np.full(n, np.inf), np.full(n, -np.inf)
        np.minimum.at(low, leaf, y)
        np.maximum.at(high, leaf, y)
        # Exact value for constant targets, so memorizing forests score exactly 1.0.
        value = np.where(low == high, low, np.bincount(leaf, y, n) / count)
        ids = np.arange(self.value.shape[0], self.value.shape[0] + n)  # a leaf is its own child
        self.feature, self.threshold, self.left, self.value = (
            np.concatenate(pair) for pair in zip(
                (self.feature, self.threshold, self.left, self.value),
                (np.full(n, -1), np.full(n, np.nan), ids, value),
            )
        )
        live = (count >= _MIN_SPLIT) & (low < high)
        keep = live[leaf]
        self.live, self.rows, self.leaf = ids[live], rows[keep], (np.cumsum(live) - 1)[leaf[keep]]

    def grow_level(self) -> None:
        """Split every live leaf at its best (feature, threshold), one level deeper."""
        rows, leaf, n_leaves = self.rows, self.leaf, self.live.shape[0]
        y, y_sq = self.y[rows], self.y[rows] ** 2
        best, threshold = np.full(n_leaves, np.inf), np.zeros(n_leaves)
        feature, cut = np.zeros((2, n_leaves), dtype=np.intp)
        for f, (codes, values) in enumerate(zip(self.codes, self.values)):
            width = values.shape[0]
            # (leaf, code) histograms in sample order, summed over codes; cut j sends codes <= j left.
            key = leaf * width + codes[rows]
            n_left, sum_left, sq_left = (
                np.cumsum(np.bincount(key, w, n_leaves * width).reshape(n_leaves, width), axis=1)
                for w in (None, y, y_sq)
            )
            n_right = n_left[:, -1:] - n_left
            sse = (sq_left - sum_left**2 / np.maximum(n_left, 1.0)) + (
                sq_left[:, -1:] - sq_left - (sum_left[:, -1:] - sum_left) ** 2 / np.maximum(n_right, 1.0)
            )
            # A cut leaves rows on both sides.  One at a code absent from the leaf repeats the
            # cut at the code below exactly, so the first minimum lies between present codes.
            sse[(n_left == 0) | (n_right == 0)] = np.inf
            j = np.argmin(sse, axis=1)[:, None]
            low = np.take_along_axis(sse, j, axis=1)[:, 0]
            # First minimum over cuts; a later feature must be strictly lower.
            take = low < best
            # The midpoint to the next code present, the first whose cumulative count is higher.
            above = np.argmax(n_left > np.take_along_axis(n_left, j, axis=1), axis=1)
            best[take], feature[take], cut[take] = low[take], f, j[take, 0]
            threshold[take] = (values[j[take, 0]] + values[above[take]]) / 2.0

        # Leaves without a legal cut stop growing; with none left, every tree is fully grown.
        found = best < np.inf
        parents, feature, cut = self.live[found], feature[found], cut[found]
        self.feature[parents], self.threshold[parents] = feature, threshold[found]
        self.left[parents] = np.arange(self.value.shape[0], self.value.shape[0] + 2 * parents.shape[0], 2)
        # A tree that splits at this level split at every level before it.
        self.levels += parents.shape[0] > 0
        keep = found[leaf]
        rows, leaf = rows[keep], (np.cumsum(found) - 1)[leaf[keep]]
        # Splitting leaf r sends its rows to children 2r (left) and 2r + 1.
        side = self.codes[feature[leaf], rows] > cut[leaf]
        self._add_leaves(2 * parents.shape[0], rows, 2 * leaf + side)


def _grown_forest(grower: _ForestGrower, data: Dataset, depth: int) -> RandomForest:
    """Grow every tree down to ``depth`` and score the forest on ``data``."""
    while grower.live.size and grower.levels < depth:
        grower.grow_level()
    # A later grow_level writes the split fields of this level's leaves in place.
    forest = RandomForest(
        grower.feature.copy(), grower.threshold.copy(), grower.left.copy(), grower.value,
        grower.roots, grower.levels, data.feature_width, depth, 0.0,
    )
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
    return _grown_forest(_ForestGrower(data, n_trees, seed, bootstrap), data, max_depth)


def predict(forest: RandomForest, features) -> float | list[float]:
    """Mean tree prediction for one feature vector, or their list for a matrix or Grid: Python floats, not numpy's."""
    return forest.predict(features).tolist()


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
    init_depth: int | None = None,
    score_threshold: float = 0.9,
    depth_cap: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> RandomForest:
    """Start shallow and grow the existing trees one level deeper until the
    training score is high enough.

    Returns the final forest; its ``trained_depth`` records the depth used.
    ``depth_cap`` defaults to the feature width, or to ``init_depth`` if that
    is deeper, and ``init_depth`` to a third of the width, rounded up and
    lowered to the cap; a cap below ``init_depth`` is rejected.
    """
    cap = data.feature_width if depth_cap is None else depth_cap
    if init_depth is None:
        init_depth = min(math.ceil(data.feature_width / 3), cap)
    if init_depth < 1:
        raise ValueError("init_depth must be at least 1")
    if depth_cap is not None and depth_cap < init_depth:
        raise ValueError(f"depth_cap {depth_cap} is below init_depth {init_depth}")
    cap = max(init_depth, cap)
    grower = _ForestGrower(data, n_trees, seed, bootstrap)
    depth = init_depth
    forest = _grown_forest(grower, data, depth)
    while forest.training_score < score_threshold and depth < cap:
        depth += 1
        forest = _grown_forest(grower, data, depth)
    return forest

