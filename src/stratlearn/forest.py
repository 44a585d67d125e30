"""From-scratch random-forest regression on ordinal feature vectors.

All trees of a forest grow together, top-down, a level at a time: every
leaf splits at the (feature, threshold) pair that minimizes the summed
squared error of its children.  A feature's codes are its distinct values
in ascending order, so per-(leaf, code) histograms of count, sum and sum of
squares hold every cut exactly: the "hist" split search of LightGBM and
XGBoost, one bin per value.  Bins sum in sample order, and a cut's left
side sums the bins up to it in code order.  A level's pass over each
feature's rows builds its histograms only; one pass over all of them then
picks every leaf's cut and feature.  Cuts lie between two codes present
in the leaf, at the midpoint of their values.  Ties go to the first
minimum over cuts (the lowest threshold), then to the lowest feature id, so
each tree is bit for bit what a node-at-a-time grower with these sums
builds, whatever grows beside it.  A node with a legal split always splits,
even when that leaves the variance unchanged: deeper levels may untangle
interactions no single split can.  Deepening grows the same trees.  A
leaf's value is its targets' sum in sample order over their number, or
their shared value exactly.

A forest is the grower's node arrays as they stand (see ``RandomForest``):
tree t's root is node t, and a split's children are a pair, right after
left.  ``predict`` is its one reader, and always answers with a float64
array.  One vectorized walk, ``levels`` steps long, predicts a matrix of
rows; a single row is a one-row matrix.  A ``Grid`` of every code
combination is instead filled leaf by leaf: each reachable leaf of a tree
owns a box of codes, one range per axis, and writes its value into that
box, which gives the walk's results: on the benchmark's oracles 7 to 25
times faster than walking all 8,192 rows of ``kissat_large``, but slower
than walking the 216 of ``kissat_small``.  One reduction gives the trees'
shared value exactly when all agree (constant targets score 1.0), else
their sum in tree order divided by their number.

Minimum leaf size is 1 and minimum split size is 2 -- the datasets here are
tiny (hundreds of points), so pruning would starve the model.  There is no
per-tree feature subsampling; with at most ~14 features it adds variance
without benefit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .sampler import _integers

_TREE_STREAM = 7  # label for per-tree seed substreams
_MIN_SPLIT = 2
# 2 * n * max|cost| below it: no sum of squares overflows, so every SSE, leaf value and prediction is finite.
_COST_BOUND = math.sqrt(np.finfo(np.float64).max)


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

    @cached_property
    def index_bound(self) -> float:
        """The largest threshold a node tests the index (the last feature) at, -inf if none: every tree
        reads all indices above it alike.  Kept from the first read, so the node arrays must not change."""
        return self.threshold[self.feature == self.feature_width - 1].max(initial=-math.inf).item()


class _ForestGrower:
    """Every tree of a forest, grown together a level at a time.

    Data row ``rows[i]`` lies in live leaf ``leaf[i]``, node ``live[leaf[i]]``.
    The rows are the trees' samples end to end, each in draw order, less those
    in leaves that split no further.  All trees' nodes share one set of arrays
    in order of creation, tree t's root first as node t.  A level bins the
    rows feature by feature, then chooses every leaf's split in one pass.
    """

    def __init__(self, data: Dataset, n_trees: int, seed: int, bootstrap: bool):
        """Depth-0 trees, each on a bootstrap resample from its own labeled substream of ``seed``,
        decoded from raw PCG64 output as ``Generator.integers`` draws it; costs whose squares
        could overflow raise ValueError."""
        if n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        X, self.y = data.to_arrays()
        n = self.y.shape[0]
        if 2 * n * float(np.abs(self.y).max()) >= _COST_BOUND:
            raise ValueError(f"2 * n * max|cost| over {n} points must be below sqrt(float max), {_COST_BOUND:.4g}")
        streams = [(seed, _TREE_STREAM, t) for t in range(n_trees)]
        self.rows = (_integers(n, n, streams) if bootstrap else np.tile(np.arange(n), (n_trees, 1))).reshape(-1)
        # Codes index each column's distinct values, ascending; np.unique would import numpy.ma (1 MB).
        values = [np.array(sorted(set(column.tolist()))) for column in X.T]
        self.codes = np.reshape([np.searchsorted(v, column) for v, column in zip(values, X.T)], X.T.shape)
        # A level's histograms lie side by side, a column per (feature, code): column c holds
        # code position[c] of feature owner[c], of value values[c]; the feature's last is ends[c].
        self.widths = np.array([v.shape[0] for v in values], dtype=np.intp)
        self.starts, self.values = np.cumsum(self.widths) - self.widths, np.concatenate([[], *values])
        self.owner = np.repeat(np.arange(self.widths.shape[0]), self.widths)
        self.position = np.arange(self.owner.shape[0]) - self.starts[self.owner]
        self.ends = (self.starts + self.widths - 1)[self.owner]
        # The columns at each position p >= 1, which step p of a cumulative sum adds to.
        self.shifts = [np.flatnonzero(self.position == p) for p in range(1, self.widths.max(initial=0))]
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
        live = (count >= _MIN_SPLIT) & (low < high) & (self.widths.shape[0] > 0)  # argmin needs a feature
        keep = live[leaf]
        self.live, self.rows, self.leaf = ids[live], rows[keep], (np.cumsum(live) - 1)[leaf[keep]]

    def grow_level(self) -> None:
        """Split every live leaf at its best (feature, threshold), one level deeper."""
        rows, leaf, n_leaves = self.rows, self.leaf, self.live.shape[0]
        y = self.y[rows]
        y_sq = y**2
        # (leaf, code) histograms of count, sum and square sum in sample order, feature by feature.
        hist = np.empty((3, n_leaves, self.owner.shape[0]))
        for codes, start, width in zip(self.codes, self.starts.tolist(), self.widths.tolist()):
            key = leaf * width + codes[rows]
            for stat, w in enumerate((None, y, y_sq)):
                hist[stat, :, start : start + width] = np.bincount(key, w, n_leaves * width).reshape(n_leaves, width)
        # Then all at once, summed over codes in np.cumsum's order; cut j sends codes <= j left.
        for cols in self.shifts:
            hist[:, :, cols] += hist[:, :, cols - 1]
        right = hist[:, :, self.ends]  # each feature's totals, less the left of each cut
        right -= hist
        (n_left, sum_left, sq_left), (n_right, sum_right, sq_right) = hist, right
        sse = (sq_left - sum_left**2 / np.maximum(n_left, 1.0)) + (sq_right - sum_right**2 / np.maximum(n_right, 1.0))
        # A cut leaves rows on both sides.  One at a code absent from the leaf repeats the
        # cut at the code below exactly, so the first minimum lies between present codes.
        sse[(n_left == 0) | (n_right == 0)] = np.inf
        # Each feature's first minimum over cuts; then the first feature at the lowest of them.
        low = np.minimum.reduceat(sse, self.starts, axis=1)
        at_low = np.where(sse == low[:, self.owner], self.position, self.owner.shape[0])
        first = np.minimum.reduceat(at_low, self.starts, axis=1)
        feature, found = np.argmin(low, axis=1), low.min(axis=1) < np.inf

        # Leaves without a legal cut stop growing; with none left, every tree is fully grown.
        parents, feature = self.live[found], feature[found]
        cut, n_left = first[found, feature], n_left[found]
        # The midpoint to the next code present, the first whose cumulative count is higher.
        column = self.starts[feature] + cut
        higher = n_left > n_left[np.arange(parents.shape[0]), column][:, None]
        above = np.argmax(higher & (self.owner == feature[:, None]), axis=1)
        self.feature[parents], self.threshold[parents] = feature, (self.values[column] + self.values[above]) / 2.0
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


def _predict_grid(forest: RandomForest, grid: Grid) -> np.ndarray:
    """The walk's result on a grid's rows, bit for bit, without building them: each tree's reachable leaves
    are walked, each with its half-open box of codes per axis, and each leaf's value fills its box.
    Beside the result it keeps the first tree's table, one buffer that each later tree reuses, and
    an agreement mask: never one table per tree."""
    k = len(grid.sizes)
    if k + 1 != forest.feature_width:
        raise ValueError(f"grid width {k + 1} does not match forest width {forest.feature_width}")
    # Memoryviews read one node at a time, without a Python object per node of the forest.
    feature, threshold, left, value = (
        memoryview(a) for a in (forest.feature, forest.threshold, forest.left, forest.value)
    )

    def fill(out: np.ndarray, node: int, box: list[slice]) -> None:
        while feature[node] == k:  # the index is one value: one side of each index split
            node = left[node] + (grid.index > threshold[node])
        f = feature[node]
        if f < 0:
            out[tuple(box)] = value[node]
            return
        # An integer code goes right when above the threshold, so at or above floor + 1.
        whole = box[f]
        cut = min(max(math.floor(threshold[node]) + 1, whole.start), whole.stop)
        if cut > whole.start:
            box[f] = slice(whole.start, cut)
            fill(out, left[node], box)
        if cut < whole.stop:
            box[f] = slice(cut, whole.stop)
            fill(out, left[node] + 1, box)
        box[f] = whole

    roots = forest.roots.tolist()
    first, tree = np.empty(grid.sizes), np.empty(grid.sizes)
    fill(first, roots[0], [slice(0, n) for n in grid.sizes])
    total, agree = first.copy(), np.ones(grid.sizes, dtype=bool)
    for root in roots[1:]:  # predict's reduction, one tree at a time
        fill(tree, root, [slice(0, n) for n in grid.sizes])
        total += tree
        agree &= tree == first
    total /= len(roots)
    np.copyto(total, first, where=agree)
    return total.reshape(-1)


def predict(forest: RandomForest, X: np.ndarray | Sequence[Sequence[float]] | Grid) -> np.ndarray:
    """Mean over the trees, as a float64 array: one entry per row of the 2-D ``X`` (a single row is a
    one-row matrix), or per row of a Grid."""
    if isinstance(X, Grid):
        return _predict_grid(forest, X)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.feature_width:
        raise ValueError(f"feature rows must be a matrix of width {forest.feature_width}, got shape {X.shape}")
    # nodes[t, r] is row r's node in tree t, and X.T[feature, r] its feature's value there.
    X, rows, nodes = X.T, np.arange(X.shape[0]), np.repeat(forest.roots[:, None], X.shape[0], axis=1)
    for _ in range(forest.levels):
        go_right = X[forest.feature[nodes], rows] > forest.threshold[nodes]
        # Children come in pairs, so right is left + 1; a leaf's NaN threshold
        # sends every row left, to the leaf itself.
        nodes = forest.left[nodes] + go_right
    values = forest.value[nodes]
    # Trees that agree give their shared value exactly, so constant targets
    # score exactly 1.0; otherwise the sum runs over the trees in order.
    first = values[0]
    mean = np.add.accumulate(values, axis=0)[-1] / values.shape[0]
    return np.where((values == first).all(axis=0), first, mean)


def r2_score(forest: RandomForest, data: Dataset) -> float:
    """1 - SS_res/SS_tot on ``data``; constant targets score 1.0 iff matched exactly."""
    X, y = data.to_arrays()
    predictions = predict(forest, X)
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
    if depth_cap is not None and depth_cap < 1:
        raise ValueError("depth_cap must be at least 1")
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

