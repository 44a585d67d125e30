"""Regression trees, forests, scoring conventions, adaptive depth."""

import dataclasses
import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bootstrap_rows, hand_forest, joined, node_records, reference_records, reference_trees
from stratlearn.forest import (
    DataPoint,
    Dataset,
    Grid,
    _COST_BOUND,
    RandomForest,
    _ForestGrower,
    _grown_forest,
    fit_adaptive,
    fit_forest,
    predict,
    r2_score,
)


def make_dataset(X, y):
    return Dataset(DataPoint(tuple(int(v) for v in row), float(c)) for row, c in zip(X, y))


def fit_one_tree(data, max_depth):
    """A one-tree forest without bootstrap; its tree is rooted at node 0."""
    return fit_forest(data, n_trees=1, max_depth=max_depth, bootstrap=False)


def brute_force_root_split(X, y):
    """Exhaustive minimum-weighted-variance split; independent of the tree code."""
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


def route(forest, row, node=0):
    """Id of the leaf that ``row`` reaches from root ``node``, walked one node at a time."""
    while forest.left[node] != node:
        left = forest.left[node]
        node = left if row[forest.feature[node]] <= forest.threshold[node] else left + 1
    return int(node)


def is_leaf(forest, node):
    return forest.left[node] == node


def tied_dataset(rng, n=None):
    """Ordinal data full of ties: binary, constant and repeated rows, runs of equal targets."""
    n = int(rng.integers(1, 50)) if n is None else n
    columns = [
        rng.integers(0, 2, n),
        np.full(n, int(rng.integers(0, 5))),
        rng.integers(0, 4, n),
        rng.integers(1, 30, n),
    ]
    picked = rng.permutation(len(columns))[: int(rng.integers(1, len(columns) + 1))]
    X = np.stack([columns[i] for i in picked], axis=1)
    if rng.random() < 0.5:
        X[n // 2 :] = X[: n - n // 2]
    runs = rng.integers(1, 4, n)
    levels = rng.integers(0, 3, n) / 3.0 if rng.random() < 0.5 else rng.lognormal(size=n)
    y = np.repeat(levels, runs)[:n]
    return make_dataset(X, y)


def nodes_with_rows(forest, X, rows, node, level=0):
    """(node, the sample rows reaching it, its depth) for every node of the tree under root ``node``, in preorder."""
    yield node, rows, level
    if not is_leaf(forest, node):
        left = X[rows, forest.feature[node]] <= forest.threshold[node]
        yield from nodes_with_rows(forest, X, rows[left], int(forest.left[node]), level + 1)
        yield from nodes_with_rows(forest, X, rows[~left], int(forest.left[node]) + 1, level + 1)


def exact_sse(y):
    """Summed squared deviation from the mean, in exact rational arithmetic."""
    values = [Fraction(float(v)) for v in y]
    return sum(v * v for v in values) - sum(values) ** 2 / len(values)


def exact_cuts(X, y):
    """{(feature, threshold): exact SSE of the two sides} for every legal cut of one node.

    A legal cut lies at the midpoint of two consecutive distinct values of a feature.
    """
    cuts = {}
    for feature in range(X.shape[1]):
        values = np.unique(X[:, feature])
        # Count, sum and sum of squares of the targets at or below each value, exactly.
        moments = [(0, Fraction(0), Fraction(0))]
        for value in values:
            group = [Fraction(float(v)) for v in y[X[:, feature] == value]]
            n, s, sq = moments[-1]
            moments.append((n + len(group), s + sum(group), sq + sum(v * v for v in group)))
        n, s, sq = moments[-1]
        for low, high, (n_left, s_left, sq_left) in zip(values, values[1:], moments[1:]):
            cuts[feature, float((low + high) / 2.0)] = (sq_left - s_left**2 / n_left) + (
                sq - sq_left - (s - s_left) ** 2 / (n - n_left)
            )
    return cuts


def tree_records(forest, data, seed, bootstrap=True):
    """``node_records`` of every tree of a forest fit on ``data``, counting each tree's bootstrap rows."""
    X, _ = data.to_arrays()
    return [node_records(forest, X, bootstrap_rows(len(data), t, seed, bootstrap), int(root))
            for t, root in enumerate(forest.roots)]


def sequential_mean(values):
    """Mean over trees, one tree at a time: the shared value when all agree, else
    the left-to-right sum over the trees divided by their number."""
    total = values[0]
    for v in values[1:]:
        total += v
    return values[0] if all(v == values[0] for v in values) else total / len(values)


@st.composite
def mixed_width_data(draw):
    """Rows of 0-5 columns of widths 1, 2, 3, 4, 8 or 30 mixed, and tied or lognormal targets."""
    widths = draw(st.lists(st.sampled_from([1, 2, 3, 4, 8, 30]), max_size=5))
    n = draw(st.integers(1, 60))
    columns = [draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n)) for w in widths]
    if draw(st.booleans()):
        y = draw(st.lists(st.sampled_from([0.0, 1 / 3, 2 / 3]), min_size=n, max_size=n))
    else:
        y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).lognormal(size=n).tolist()
    return list(zip(*columns)) if columns else [()] * n, y


XOR_DATA = make_dataset([(0, 0), (0, 1), (1, 0), (1, 1)], [0.0, 1.0, 1.0, 0.0])


class TestFitTree:
    def test_depth_zero_predicts_global_mean(self):
        data = make_dataset([(0,), (1,), (2,)], [1.0, 2.0, 6.0])
        tree = fit_one_tree(data, max_depth=0)
        assert is_leaf(tree, 0) and tree.value[0] == pytest.approx(3.0)

    def test_single_point_is_a_leaf(self):
        data = make_dataset([(4, 2)], [3.5])
        tree = fit_one_tree(data, max_depth=5)
        assert is_leaf(tree, 0) and tree.value[0] == 3.5

    def test_root_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            n = int(rng.integers(4, 21))
            k = int(rng.integers(1, 4))
            X = rng.integers(0, 5, size=(n, k)).astype(float)
            y = rng.normal(size=n)
            expected = brute_force_root_split(X, y)
            tree = fit_one_tree(make_dataset(X, y), max_depth=1)
            if expected is None:
                assert is_leaf(tree, 0)
                continue
            _, feature, threshold = expected
            assert tree.feature[0] == feature
            assert tree.threshold[0] == pytest.approx(threshold)

    def test_featureless_data_is_one_leaf(self):
        data = Dataset([DataPoint((), 1.0), DataPoint((), 2.0)])
        forest = fit_forest(data, n_trees=2, max_depth=3, seed=0)
        assert all(is_leaf(forest, root) for root in forest.roots)
        assert forest.value.shape == forest.roots.shape
        assert predict(forest, [()]).tolist() == [float(np.mean([forest.value[root] for root in forest.roots]))]

    def test_leaf_values_are_routed_means(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 4, size=(30, 3)).astype(float)
        y = rng.normal(size=30)
        tree = fit_one_tree(make_dataset(X, y), max_depth=3)
        buckets = {}
        for row, target in zip(X, y):
            buckets.setdefault(route(tree, row), []).append(target)
        for row in X:
            leaf = route(tree, row)
            assert tree.value[leaf] == pytest.approx(np.mean(buckets[leaf]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_forest(Dataset(), n_trees=1, max_depth=1)

    def test_negative_depth_rejected(self):
        data = make_dataset([(0,), (1,)], [0.0, 1.0])
        with pytest.raises(ValueError, match="max_depth"):
            fit_forest(data, n_trees=1, max_depth=-1)


class TestLevelWiseGrowth:
    def test_every_tree_equals_the_histogram_order_reference(self):
        rng = np.random.default_rng(2024)
        # Mostly small data, and two larger sets.
        for case, (n, depths) in enumerate([(None, 7)] * 40 + [(400, 7), (40000, 3)]):
            data = tied_dataset(rng, n)
            for depth in range(depths):
                for bootstrap in (False, True):
                    forest = fit_forest(data, n_trees=2, max_depth=depth, seed=case,
                                        bootstrap=bootstrap)
                    expected = reference_trees(data, 2, depth, seed=case, bootstrap=bootstrap)
                    assert tree_records(forest, data, case, bootstrap) == [
                        reference_records(root) for root in expected
                    ]

    @settings(max_examples=250, deadline=2000)
    @given(mixed_width_data(), st.integers(1, 5), st.integers(0, 6), st.booleans(), st.integers(0, 2**32))
    def test_mixed_widths_equal_the_reference(self, rows_and_targets, n_trees, depth, bootstrap, seed):
        # Every leaf's cut and feature come from one table of all features' histograms;
        # ties must still go to the first cut, then to the first feature.
        data = Dataset(DataPoint(row, target) for row, target in zip(*rows_and_targets))
        forest = fit_forest(data, n_trees=n_trees, max_depth=depth, seed=seed, bootstrap=bootstrap)
        expected = reference_trees(data, n_trees, depth, seed=seed, bootstrap=bootstrap)
        assert tree_records(forest, data, seed, bootstrap) == [reference_records(root) for root in expected]

    def test_overflowing_squares_are_refused(self):
        # Squares of about 1e154 sum to inf, so every cut's SSE would be NaN and no tree
        # could split, although feature 0 separates the targets.
        data = make_dataset([(i // 3, i) for i in range(6)], [3e153] * 3 + [-1e154] * 3)
        for fit in (lambda: fit_forest(data, n_trees=2, max_depth=3), lambda: fit_adaptive(data, n_trees=2)):
            with pytest.raises(ValueError, match=r"2 \* n \* max\|cost\| over 6 points .* 1\.341e\+154"):
                fit()

    def test_costs_just_under_the_overflow_bound_grow_the_scaled_trees(self):
        # Scaling every cost by a power of two scales every sum exactly, so the trees must be
        # those of the scaled-down costs; the suite turns any overflow warning into an error.
        rng = np.random.default_rng(49)
        for case in range(20):
            n = int(rng.integers(1, 40))
            X = rng.integers(0, 3, size=(n, 3))
            y = rng.uniform(-1, 1, n)
            y *= (1 - 1e-9) * _COST_BOUND / (2 * n * np.abs(y).max())
            forest = fit_forest(make_dataset(X, y), n_trees=3, max_depth=4, seed=case)
            small = fit_forest(make_dataset(X, y * 2.0**-500), n_trees=3, max_depth=4, seed=case)
            for name in ("feature", "threshold", "left"):
                np.testing.assert_array_equal(getattr(forest, name), getattr(small, name))
            np.testing.assert_array_equal(forest.value * 2.0**-500, small.value)

    def test_every_split_is_a_best_legal_cut_in_exact_arithmetic(self):
        """Independent of summation order: each split is a legal cut whose exact SSE is
        within 1e-9 of its node's SSE of the exact best, and a node above the depth
        limit stays a leaf only when its targets are constant or it has no legal cut."""
        rng = np.random.default_rng(606)
        for case in range(30):
            data = tied_dataset(rng, int(rng.integers(2, 20)))
            X, y = data.to_arrays()
            for depth in range(1, 5):
                for bootstrap in (False, True):
                    forest = fit_forest(data, n_trees=2, max_depth=depth, seed=case,
                                        bootstrap=bootstrap)
                    for t, root in enumerate(forest.roots):
                        rows = bootstrap_rows(len(data), t, case, bootstrap)
                        for node, at, level in nodes_with_rows(forest, X, rows, int(root)):
                            cuts = exact_cuts(X[at], y[at])
                            if is_leaf(forest, node):
                                assert level == depth or not cuts or np.ptp(y[at]) == 0
                                continue
                            chosen = cuts[int(forest.feature[node]), float(forest.threshold[node])]
                            assert chosen - min(cuts.values()) <= Fraction(1e-9) * exact_sse(y[at])

    def test_trees_grown_together_stay_independent(self):
        """Tree t is the same tree whatever number of trees grows beside it."""
        rng = np.random.default_rng(314)
        for case in range(10):
            data = tied_dataset(rng)
            for bootstrap in (False, True):
                fits = (
                    lambda k: fit_forest(data, n_trees=k, max_depth=5, seed=case, bootstrap=bootstrap),
                    lambda k: fit_adaptive(data, n_trees=k, init_depth=2, score_threshold=1.1,
                                           depth_cap=5, seed=case, bootstrap=bootstrap),
                )
                for fit in fits:
                    records = [tree_records(fit(k), data, case, bootstrap) for k in (1, 3, 6)]
                    for fewer, more in zip(records, records[1:]):
                        assert more[: len(fewer)] == fewer

    def test_incremental_deepening_equals_a_fresh_fit(self):
        rng = np.random.default_rng(77)
        for case in range(12):
            data = tied_dataset(rng)
            for init_depth, extra in ((1, 0), (1, 3), (2, 2), (4, 1)):
                cap = init_depth + extra
                grown = fit_adaptive(data, n_trees=3, init_depth=init_depth,
                                     score_threshold=1.1, depth_cap=cap, seed=case)
                fresh = fit_forest(data, n_trees=3, max_depth=cap, seed=case)
                assert tree_records(grown, data, case) == tree_records(fresh, data, case)
                assert grown.trained_depth == cap
                assert grown.training_score == r2_score(grown, data) == fresh.training_score
                # A first score that clears the threshold stops growth at init_depth.
                first = fit_forest(data, n_trees=3, max_depth=init_depth, seed=case)
                stopped = fit_adaptive(data, n_trees=3, init_depth=init_depth,
                                       score_threshold=first.training_score, depth_cap=cap,
                                       seed=case)
                assert stopped.trained_depth == init_depth
                assert tree_records(stopped, data, case) == tree_records(first, data, case)

    def test_a_fitted_forest_is_unchanged_by_its_grower_growing_deeper(self):
        """``fit_adaptive`` takes a forest from one grower at each depth.  The walk
        never reads a frontier leaf's links, so predictions alone would not show a
        later level written into the forest's arrays; its node records do."""
        rng = np.random.default_rng(55)
        for case in range(10):
            data = make_dataset(rng.integers(0, 4, size=(40, 3)), rng.normal(size=40))
            X, _ = data.to_arrays()
            grower = _ForestGrower(data, 4, case, bootstrap=True)
            forest = _grown_forest(grower, data, 1)
            records, predictions = tree_records(forest, data, case), predict(forest, X)
            _grown_forest(grower, data, 4)
            assert grower.levels == 4
            assert np.array_equal(predict(forest, X), predictions)
            assert tree_records(forest, data, case) == records
            assert records == tree_records(fit_forest(data, 4, 1, case), data, case)


class TestOnePredictor:
    def test_single_row_and_batch_equal_the_sequential_mean(self):
        rng = np.random.default_rng(31)
        for case in range(25):
            data = tied_dataset(rng)
            X, _ = data.to_arrays()
            probe = np.vstack([X, rng.integers(-1, 31, size=(20, X.shape[1]))])
            constant = make_dataset(X, np.full(len(data), 0.1))
            for depth in range(7):
                for bootstrap in (False, True):
                    # Nine trees: a pairwise sum over them would round differently.
                    forest = fit_forest(data, n_trees=9, max_depth=depth, seed=case,
                                        bootstrap=bootstrap)
                    batch = predict(forest, probe)
                    assert type(batch) is np.ndarray and batch.dtype == np.float64
                    assert batch.shape == (len(probe),)  # also with no split at all
                    for row, together in zip(probe, batch):
                        leaves = [float(forest.value[route(forest, row, root)]) for root in forest.roots]
                        single = predict(forest, [tuple(row)]).item()
                        assert single.hex() == float(together).hex() == sequential_mean(leaves).hex()
                        if all(v == leaves[0] for v in leaves):
                            assert single == leaves[0]
                    flat = fit_forest(constant, n_trees=9, max_depth=depth, seed=case,
                                      bootstrap=bootstrap)
                    assert np.all(predict(flat, probe) == 0.1)
                    assert all(predict(flat, [tuple(row)]).item() == 0.1 for row in probe)
                    assert flat.training_score == 1.0

    def test_grid_equals_the_walk_on_its_rows_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for case in range(40):
            data = tied_dataset(rng)
            width = data.feature_width
            sizes = tuple(int(n) for n in rng.integers(1, 6, width - 1))
            forest = fit_forest(data, n_trees=int(rng.integers(1, 12)), max_depth=int(rng.integers(0, 8)),
                                seed=case, bootstrap=bool(case % 2))
            for index in (-1, 0, 2, 29, 31):  # the last feature: below, between and above its thresholds
                rows = [(*codes, index) for codes in itertools.product(*(range(n) for n in sizes))]
                walk = predict(forest, np.array(rows, dtype=float).reshape(len(rows), width))
                grid = predict(forest, Grid(sizes, index))
                assert type(grid) is np.ndarray and grid.dtype == np.float64 and grid.shape == (len(rows),)
                assert [v.hex() for v in grid] == [float(v).hex() for v in walk]

    def test_grid_boxes_at_the_edges_equal_the_walk_bit_for_bit(self):
        """Hand-built trees put thresholds below code 0, above the last code and exactly on a
        code, split the index on both sides of each grid index, and split size-1 axes; the
        last case is a grid with no option axes, only the index."""
        cases = [  # (sizes, trees); the last feature is the index
            ((3, 4), [
                (0, -0.5, 9.0, (1, 1.0, (0, 1.0, 0.25, 0.5), (0, 7.5, 2.0, 3.0))),
                (1, 3.0, (0, -3.0, 1.0, (0, 2.0, 0.1, 0.7)), (2, 2.0, 4.0, 8.0)),
                (2, 2.0, (1, 0.0, 0.3, 0.6), (0, 0.0, (1, 2.0, 1.0, 5.0), 2.0)),
                (0, 1.0, 0.75, (1, 1.5, 0.75, 0.2)),
            ]),
            ((1, 3, 1), [
                (0, 0.0, (1, 1.0, (2, -0.5, 0.5, 1.5), 2.5), 3.5),
                (2, 0.0, (3, 1.0, 0.25, (0, 0.5, 0.125, 4.0)), 6.0),
                (0, -0.5, 1.0, (2, 0.5, 0.75, 0.5)),
            ]),
            ((), [(0, 2.0, 0.5, (0, 3.0, 1.5, 2.5)), (0, 1.0, 0.25, 0.75), 0.5]),
        ]
        for sizes, trees in cases:
            forests = [hand_forest(len(sizes) + 1, *trees[:n]) for n in range(1, len(trees) + 1)]
            for forest, index in itertools.product(forests, (0, 1, 2, 3, 4)):
                rows = [(*codes, index) for codes in itertools.product(*(range(n) for n in sizes))]
                walk = predict(forest, np.array(rows, dtype=float))
                grid = predict(forest, Grid(sizes, index))
                assert [v.hex() for v in grid] == [float(v).hex() for v in walk]

    def test_grid_fill_keeps_no_table_per_tree(self, large_space):
        """A 50-tree grid fill peaks at a few tables of the space's size, not one per tree (3.3 MB here)."""
        rng = np.random.default_rng(12)
        rows = np.column_stack([rng.integers(0, n, 300) for n in large_space.sizes] + [rng.integers(1, 4, 300)])
        data = make_dataset(rows, rng.uniform(0.0, 4.0, 300))
        forest = fit_forest(data, n_trees=50, max_depth=8, seed=3)
        grid = Grid(large_space.sizes, 4)
        table_bytes = 8 * len(predict(forest, grid))
        tracemalloc.start()
        try:
            predict(forest, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_bytes == 64 * 1024
        assert peak < 8 * table_bytes

    def test_walk_length_is_the_depth_grown(self):
        rng = np.random.default_rng(8)
        for case in range(10):
            data = tied_dataset(rng)
            X, _ = data.to_arrays()
            start = time.perf_counter()
            deep = fit_forest(data, n_trees=5, max_depth=10**6, seed=case)
            deep_predictions = predict(deep, X)
            deep_first = predict(deep, [tuple(X[0])])
            assert time.perf_counter() - start < 1.0
            grown = fit_forest(data, n_trees=5, max_depth=deep.levels, seed=case)
            assert tree_records(deep, data, case) == tree_records(grown, data, case)
            assert np.array_equal(deep_predictions, predict(grown, X))
            assert np.array_equal(deep_first, predict(grown, [tuple(X[0])]))


class TestForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(20, 2)).astype(float)
        y = rng.normal(size=20)
        data = make_dataset(X, y)
        forest = fit_forest(data, n_trees=1, max_depth=3, seed=1, bootstrap=False)
        probe = rng.integers(0, 4, size=(50, 2)).astype(float)
        by_hand = [forest.value[route(forest, row)] for row in probe]
        assert np.array_equal(predict(forest, probe), by_hand)

    def test_constant_costs_predict_constant_and_score_one(self):
        data = make_dataset([(0, 1), (1, 0), (2, 2), (3, 1)], [0.1, 0.1, 0.1, 0.1])
        forest = fit_forest(data, n_trees=50, max_depth=2, seed=0)
        X, _ = data.to_arrays()
        assert np.all(predict(forest, X) == 0.1)
        assert forest.training_score == 1.0

    def test_identical_seeds_identical_forests(self):
        rng = np.random.default_rng(11)
        X = rng.integers(0, 5, size=(40, 3)).astype(float)
        y = rng.normal(size=40)
        data = make_dataset(X, y)
        probe = rng.integers(0, 5, size=(100, 3)).astype(float)
        a = fit_forest(data, n_trees=10, max_depth=4, seed=7)
        b = fit_forest(data, n_trees=10, max_depth=4, seed=7)
        assert np.array_equal(predict(a, probe), predict(b, probe))
        c = fit_forest(data, n_trees=10, max_depth=4, seed=8)
        assert not np.array_equal(predict(a, probe), predict(c, probe))

    def test_mean_of_two_trees(self):
        data_low = make_dataset([(0,), (1,)], [1.0, 1.0])
        data_high = make_dataset([(0,), (1,)], [3.0, 3.0])
        t1 = fit_one_tree(data_low, max_depth=0)
        t2 = fit_one_tree(data_high, max_depth=0)
        forest = joined(t1, t2)
        assert predict(forest, [(0,)]).tolist() == [2.0]

    def test_single_leaf_forest_ignores_input(self):
        data = make_dataset([(0, 0), (5, 9)], [2.0, 4.0])
        forest = fit_forest(data, n_trees=1, max_depth=0, seed=0, bootstrap=False)
        assert predict(forest, [(0, 0), (99, -3)]).tolist() == [3.0, 3.0]

    def test_saturated_tree_memorizes_distinct_points(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]], dtype=float)
        y = np.array([0.5, 1.5, -0.5, 2.5, 9.0])
        data = make_dataset(X, y)
        forest = fit_forest(data, n_trees=1, max_depth=10, seed=0, bootstrap=False)
        for row, target in zip(X, y):
            assert predict(forest, [tuple(row)]).item() == target

    def test_prediction_invariant_to_tree_order(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 4, size=(25, 2)).astype(float)
        y = rng.normal(size=25)
        forest = fit_forest(make_dataset(X, y), n_trees=5, max_depth=3, seed=2)
        reversed_forest = dataclasses.replace(forest, roots=forest.roots[::-1])
        probe = rng.integers(0, 4, size=(30, 2)).astype(float)
        assert np.allclose(predict(forest, probe), predict(reversed_forest, probe))

    def test_width_mismatch_rejected(self):
        data = make_dataset([(0, 1), (1, 0)], [0.0, 1.0])
        forest = fit_forest(data, n_trees=1, max_depth=1, seed=0)
        wide, narrow = np.zeros((3, 3)), np.zeros((3, 1))
        # A single row is a one-row matrix: a bare row is refused even at the forest's width.
        for rows in ((0, 1, 2), (0,), (0, 1), np.zeros(2), np.zeros((1, 1, 2)), [(0, 1, 2)], wide, narrow):
            with pytest.raises(ValueError, match="width"):
                predict(forest, rows)
        assert predict(forest, [(0, 1)]).shape == (1,)
        for sizes in ((2, 2), ()):
            with pytest.raises(ValueError, match="width"):
                predict(forest, Grid(sizes, 0))
        with pytest.raises(ValueError, match="width"):
            r2_score(forest, make_dataset(wide, [0.0, 1.0, 2.0]))

    def test_doubling_trees_roughly_doubles_time(self):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 6, size=(300, 5)).astype(float)
        y = rng.normal(size=300)
        data = make_dataset(X, y)
        fit_forest(data, n_trees=5, max_depth=5, seed=0)  # warm-up
        start = time.perf_counter()
        fit_forest(data, n_trees=20, max_depth=5, seed=0)
        t_small = time.perf_counter() - start
        start = time.perf_counter()
        fit_forest(data, n_trees=40, max_depth=5, seed=0)
        t_big = time.perf_counter() - start
        assert t_big < 4.0 * t_small  # coarse linearity bound


class TestR2:
    def test_memorizing_forest_scores_one(self):
        X = np.array([[0], [1], [2], [3]], dtype=float)
        y = np.array([0.0, 2.0, -1.0, 5.0])
        forest = fit_forest(make_dataset(X, y), n_trees=1, max_depth=10, seed=0, bootstrap=False)
        assert forest.training_score == 1.0

    def test_mean_predictor_scores_zero(self):
        X = np.array([[0], [1], [2], [3]], dtype=float)
        y = np.array([0.0, 2.0, -1.0, 5.0])
        data = make_dataset(X, y)
        stump = fit_forest(data, n_trees=1, max_depth=0, seed=0, bootstrap=False)
        assert r2_score(stump, data) == 0.0

    def test_halved_residuals_score_three_quarters(self):
        X = np.array([[0], [1], [2], [3]], dtype=float)
        y = np.array([0.0, 2.0, -1.0, 5.0])
        data = make_dataset(X, y)
        memorizer = fit_one_tree(data, max_depth=10)
        stump = fit_one_tree(data, max_depth=0)
        blend = joined(memorizer, stump)
        assert r2_score(blend, data) == pytest.approx(0.75, abs=1e-9)


class TestAdaptiveDepth:
    def test_easy_data_stops_at_initial_depth(self):
        X = np.array([[0], [1], [2], [3]], dtype=float)
        y = np.array([0.0, 0.0, 10.0, 10.0])
        forest = fit_adaptive(make_dataset(X, y), n_trees=1, init_depth=1,
                              score_threshold=0.9, depth_cap=5, seed=0, bootstrap=False)
        assert forest.trained_depth == 1
        assert forest.training_score >= 0.9

    def test_xor_needs_depth_two(self):
        shallow = fit_forest(XOR_DATA, n_trees=1, max_depth=1, seed=0, bootstrap=False)
        assert shallow.training_score < 0.9
        forest = fit_adaptive(XOR_DATA, n_trees=1, init_depth=1,
                              score_threshold=0.9, depth_cap=4, seed=0, bootstrap=False)
        assert forest.trained_depth == 2
        assert forest.training_score >= 0.9

    def test_zero_threshold_keeps_initial_depth(self):
        forest = fit_adaptive(XOR_DATA, n_trees=1, init_depth=1,
                              score_threshold=0.0, depth_cap=4, seed=0, bootstrap=False)
        assert forest.trained_depth == 1

    def test_monotone_capacity_without_bootstrap(self):
        rng = np.random.default_rng(21)
        X = rng.integers(0, 4, size=(40, 3)).astype(float)
        y = rng.normal(size=40)
        data = make_dataset(X, y)
        scores = [
            fit_forest(data, n_trees=1, max_depth=d, seed=0, bootstrap=False).training_score
            for d in range(0, 7)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_cap_below_initial_depth_rejected(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng.integers(0, 4, size=(30, 3)), rng.normal(size=30))
        with pytest.raises(ValueError, match="depth_cap"):
            fit_adaptive(data, 2, init_depth=4, depth_cap=2)
        assert fit_adaptive(data, 2, init_depth=2, depth_cap=2).trained_depth == 2

    def test_initial_depth_defaults_to_a_third_of_the_width_within_the_cap(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng.integers(0, 4, size=(60, 7)), rng.normal(size=60))
        assert fit_adaptive(data, 2, score_threshold=0.0).trained_depth == 3  # ceil(7 / 3)
        assert fit_adaptive(data, 2, score_threshold=0.0, depth_cap=2).trained_depth == 2
        assert fit_adaptive(data, 2, score_threshold=1.1).trained_depth == 7

    def test_depth_cap_defaults_to_feature_width(self):
        forest = fit_adaptive(XOR_DATA, n_trees=1, init_depth=1,
                              score_threshold=1.1, seed=0, bootstrap=False)
        assert forest.trained_depth == XOR_DATA.feature_width


class TestDataset:
    def test_arrays_are_built_once_until_an_append(self):
        data = Dataset([DataPoint((1, 2), 0.5), DataPoint((0, 1), 1.5)])
        X, y = data.to_arrays()
        again = data.to_arrays()
        assert again[0] is X and again[1] is y
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 9.0
        data.append(DataPoint((3, 4), 2.5))
        X, y = data.to_arrays()
        assert X.tolist() == [[1, 2], [0, 1], [3, 4]] and y.tolist() == [0.5, 1.5, 2.5]

    def test_width_is_enforced(self):
        data = Dataset([DataPoint((1, 2), 0.5)])
        with pytest.raises(ValueError, match="width"):
            data.append(DataPoint((1, 2, 3), 0.5))

    def test_cost_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            DataPoint((1,), float("nan"))

