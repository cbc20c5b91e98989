"""Assignment solver, cluster alignment, k-means, and the random forest."""

import dataclasses
import itertools
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from wlcbench.preprocess import BandRows, FeatureMatrix, feature_rows, normalize_bands
from wlcbench.models import ForestModel, KMeansModel, Tree
from wlcbench.shallow import (
    align_clusters,
    default_k,
    hungarian,
    kmeans_cluster_ids,
    kmeans_fit,
    kmeans_predict,
    rf_fit,
    rf_predict,
    rf_predict_proba,
)
from wlcbench import shallow
from wlcbench.shallow import _lloyd, _squared_norms, _stable_order
import kmeans_reference
from conftest import traced_peak
from kmeans_reference import reference_kmeans, reference_lloyd, reference_nearest
from rf_reference import reference_proba, reference_trees, tree_apply


def assignment_oracle(cost):
    """Exhaustive minimum over all ways to pair min(n, m) rows and columns."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n <= m:
        return min(
            sum(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
    return min(
        sum(cost[p[j], j] for j in range(m))
        for p in itertools.permutations(range(n), m)
    )


def align_oracle(clusters, classes, k):
    """Best achievable agreement over every injective cluster -> class map."""
    best = -1
    for perm in itertools.permutations(range(1, 11), k):
        agree = sum(1 for c, r in zip(clusters, classes) if r != 0 and perm[c] == r)
        best = max(best, agree)
    return best


def kmeans_inertia_oracle(X, k):
    """Global minimum inertia by enumerating every assignment of points."""
    X = np.asarray(X, dtype=float)
    best = np.inf
    for assign in itertools.product(range(k), repeat=len(X)):
        a = np.array(assign)
        total = 0.0
        for c in range(k):
            pts = X[a == c]
            if len(pts):
                mu = pts.mean(axis=0)
                total += ((pts - mu) ** 2).sum()
        best = min(best, total)
    return best


def tree_walk_oracle(tree, x):
    """Scalar root-to-leaf descent, one comparison at a time."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return tree.probs[node]


def check_assignment_valid(solution, cost):
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    pairs = solution.assignment
    assert len(pairs) == min(n, m)
    assert len(set(pairs.keys())) == len(pairs)
    assert len(set(pairs.values())) == len(pairs)
    total = sum(cost[i, j] for i, j in pairs.items())
    assert solution.total_cost == pytest.approx(total, abs=1e-9)


# --- hungarian -------------------------------------------------------------

def test_hungarian_worked_example():
    cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
    sol = hungarian(cost)
    assert sol.total_cost == 5.0
    assert sol.assignment == {0: 1, 1: 0, 2: 2}


def test_hungarian_prefers_cheap_diagonal():
    cost = np.full((4, 4), 5.0) - 4.0 * np.eye(4)
    sol = hungarian(cost)
    assert sol.assignment == {i: i for i in range(4)}
    assert sol.total_cost == 4.0


def test_hungarian_matches_bruteforce_on_random_squares(rng):
    for n in range(1, 6):
        for _ in range(30):
            cost = rng.uniform(-10, 10, (n, n))
            sol = hungarian(cost)
            check_assignment_valid(sol, cost)
            assert sol.total_cost == pytest.approx(assignment_oracle(cost), abs=1e-9)


def test_hungarian_rectangular_both_orientations(rng):
    for shape in [(2, 5), (5, 2), (1, 4), (4, 1), (3, 7)]:
        for _ in range(20):
            cost = rng.uniform(0, 9, shape)
            sol = hungarian(cost)
            check_assignment_valid(sol, cost)
            assert sol.total_cost == pytest.approx(assignment_oracle(cost), abs=1e-9)


def test_hungarian_shift_adds_n_times_constant(rng):
    cost = rng.uniform(0, 5, (4, 4))
    base = hungarian(cost).total_cost
    shifted = hungarian(cost + 7.25).total_cost
    assert shifted == pytest.approx(base + 4 * 7.25, abs=1e-9)


def test_hungarian_scaling_preserves_assignment(rng):
    cost = rng.uniform(0, 5, (5, 5))
    sol = hungarian(cost)
    scaled = hungarian(cost * 3.5)
    assert scaled.total_cost == pytest.approx(sol.total_cost * 3.5, abs=1e-9)


def test_hungarian_handles_negative_costs():
    cost = np.array([[-5.0, 0.0], [0.0, -5.0]])
    sol = hungarian(cost)
    assert sol.total_cost == -10.0
    assert sol.assignment == {0: 0, 1: 1}


def test_hungarian_input_validation():
    with pytest.raises(ValueError):
        hungarian(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        hungarian(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 5))
def test_hungarian_never_beaten_by_bruteforce(seed, n, m):
    cost = np.random.default_rng(seed).integers(0, 20, (n, m)).astype(float)
    sol = hungarian(cost)
    check_assignment_valid(sol, cost)
    assert sol.total_cost == pytest.approx(assignment_oracle(cost), abs=1e-9)


# --- align_clusters ----------------------------------------------------------

def test_align_three_clusters_matches_exhaustive(rng):
    clusters = rng.integers(0, 3, 200)
    classes = rng.integers(0, 11, 200).astype(np.uint8)
    mapping = align_clusters(clusters, classes)
    assert len(set(mapping.values())) == len(mapping)  # injective
    agree = sum(
        1 for c, r in zip(clusters, classes) if r != 0 and mapping.get(c) == r
    )
    assert agree == align_oracle(clusters, classes, 3)


def test_align_obvious_correspondence():
    clusters = np.array([0, 0, 1, 1, 2, 2])
    classes = np.array([7, 7, 10, 10, 1, 1], dtype=np.uint8)
    assert align_clusters(clusters, classes) == {0: 7, 1: 10, 2: 1}


def test_align_ignores_nodata_reference():
    clusters = np.array([0, 0, 0, 1])
    classes = np.array([2, 0, 0, 5], dtype=np.uint8)
    mapping = align_clusters(clusters, classes)
    assert mapping[0] == 2
    assert mapping[1] == 5


def test_align_errors_without_valid_pixels():
    with pytest.raises(ValueError, match="no valid"):
        align_clusters(np.array([0]), np.array([0], dtype=np.uint8))


def test_default_k():
    assert default_k(np.array([0, 1, 1, 4])) == 2
    assert default_k(np.array([3, 3, 3])) == 1
    with pytest.raises(ValueError):
        default_k(np.array([0, 0]))


# --- k-means -----------------------------------------------------------------

def test_kmeans_k_equals_n_gives_zero_inertia(rng):
    X = rng.random((5, 3))
    model = kmeans_fit(X, k=5, n_init=3, seed=1)
    # expanded-form distances leave an eps-scale residue, never more
    assert 0.0 <= model.inertia < 1e-12
    got = {tuple(np.round(c, 12)) for c in model.centroids}
    want = {tuple(np.round(x, 12)) for x in X}
    assert got == want


def test_kmeans_two_separated_groups_recover_means(rng):
    a = rng.normal(0.2, 0.01, (40, 2))
    b = rng.normal(0.8, 0.01, (40, 2))
    X = np.vstack([a, b])
    model = kmeans_fit(X, k=2, seed=0)
    centroids = model.centroids[np.argsort(model.centroids[:, 0])]
    np.testing.assert_allclose(centroids[0], a.mean(axis=0), atol=1e-6)
    np.testing.assert_allclose(centroids[1], b.mean(axis=0), atol=1e-6)


def test_kmeans_reaches_global_optimum_on_tiny_inputs(rng):
    for trial in range(6):
        X = rng.random((6, 2))
        for k in (2, 3):
            model = kmeans_fit(X, k=k, seed=trial)
            star = kmeans_inertia_oracle(X, k)
            # Lloyd's can't beat the global optimum; with 10 restarts on six
            # points it reliably attains it (deterministic given the seed).
            assert model.inertia >= star - 1e-9
            assert model.inertia == pytest.approx(star, abs=1e-9)


def test_kmeans_inertia_history_non_increasing(rng):
    X = rng.random((300, 4))
    model = kmeans_fit(X, k=6, n_init=2, seed=3)
    hist = model.inertia_history
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-12) + 1e-12 for i in range(len(hist) - 1))
    assert model.inertia == hist[-1]


def test_kmeans_is_deterministic(rng):
    X = rng.random((120, 3))
    m1 = kmeans_fit(X, k=4, seed=9)
    m2 = kmeans_fit(X, k=4, seed=9)
    assert m1.centroids.tobytes() == m2.centroids.tobytes()
    assert m1.inertia == m2.inertia


def test_kmeans_requires_k_distinct_rows():
    X = np.ones((10, 2))
    with pytest.raises(ValueError, match="distinct"):
        kmeans_fit(X, k=2)
    with pytest.raises(ValueError, match="k must be"):
        kmeans_fit(np.random.default_rng(0).random((4, 2)), k=0)


@pytest.mark.parametrize(
    "kwargs, message", [({"n_init": 0}, "n_init"), ({"max_iter": 0}, "max_iter")]
)
def test_kmeans_validates_hyperparameters(rng, kwargs, message):
    with pytest.raises(ValueError, match=message):
        kmeans_fit(rng.random((10, 2)), k=2, **kwargs)


def test_lloyd_relocates_empty_clusters_to_the_farthest_rows():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [30.0]])
    # Clusters 2 and 3 lie beyond every row, so the first pass leaves both
    # empty. Row 5 (30.0) is farthest from its centroid (10.5), row 2 (2.0)
    # next (from 0.5).
    seeding = np.array([[0.5], [10.5], [1000.0], [2000.0]])
    centroids, _, _ = _lloyd(X, seeding[:3], 1, _squared_norms(X))
    np.testing.assert_array_equal(centroids, [[1.0], [17.0], [30.0]])
    centroids, _, _ = _lloyd(X, seeding, 1, _squared_norms(X))
    np.testing.assert_array_equal(centroids, [[1.0], [17.0], [30.0], [2.0]])
    for init in (seeding[:3], seeding):
        got = _lloyd(X, init, 300, _squared_norms(X))
        want = reference_lloyd(X, init, 300)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]


def test_kmeans_fit_uses_only_valid_rows(rng):
    values = np.vstack([rng.random((20, 2)), np.full((5, 2), 500.0)])
    fm = FeatureMatrix(values=values, valid_mask=np.array([True] * 20 + [False] * 5))
    model = kmeans_fit(fm, k=3, n_init=2, seed=0)
    assert np.abs(model.centroids).max() <= 1.0


def test_kmeans_predict_maps_and_breaks_ties_low():
    model = KMeansModel(
        centroids=np.array([[0.0], [1.0]]),
        inertia=0.0,
        cluster_to_class={0: 5, 1: 10},
        seed=0,
        n_init=1,
        max_iter=1,
    )
    X = np.array([[0.2], [0.9], [0.5]])
    np.testing.assert_array_equal(kmeans_predict(model, X), [5, 10, 5])
    assert kmeans_predict(model, X).dtype == np.uint8


def test_kmeans_predict_requires_mapping(rng):
    model = kmeans_fit(rng.random((10, 2)), k=2, n_init=1, seed=0)
    with pytest.raises(ValueError, match="cluster_to_class"):
        kmeans_predict(model, rng.random((3, 2)))


def test_kmeans_predict_rejects_unmapped_cluster():
    model = KMeansModel(
        centroids=np.array([[0.0], [1.0]]),
        inertia=0.0,
        cluster_to_class={0: 5},
        seed=0,
        n_init=1,
        max_iter=1,
    )
    with pytest.raises(ValueError, match="no class mapping"):
        kmeans_predict(model, np.array([[0.95]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_fit_rejects_non_finite_rows(rng, bad):
    X = rng.random((20, 2))
    X[7, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        kmeans_fit(X, k=3, n_init=1, seed=0)
    # a masked-out row is not part of the fit
    fm = FeatureMatrix(values=X, valid_mask=np.arange(20) != 7)
    assert kmeans_fit(fm, k=3, n_init=1, seed=0).k == 3


def test_kmeans_cluster_ids_dimension_check(rng):
    model = kmeans_fit(rng.random((10, 3)), k=2, n_init=1, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        kmeans_cluster_ids(model, rng.random((4, 2)))


def test_kmeans_predict_matches_nearest_centroid_oracle(rng):
    X = rng.random((50, 2))
    model = kmeans_fit(X, k=4, n_init=2, seed=5)
    model.cluster_to_class = {0: 1, 1: 2, 2: 3, 3: 4}
    pred = kmeans_predict(model, X)
    for i in range(len(X)):
        d2 = ((model.centroids - X[i]) ** 2).sum(axis=1)
        assert pred[i] == d2.argmin() + 1


# --- random forest -------------------------------------------------------------

def test_rf_single_class_is_constant(rng):
    X = rng.random((30, 3))
    y = np.full(30, 7, dtype=np.uint8)
    model = rf_fit(X, y, n_trees=3, max_depth=2, seed=0)
    proba = rf_predict_proba(model, X)
    np.testing.assert_array_equal(proba[:, 6], np.ones(30))
    np.testing.assert_array_equal(rf_predict(model, X), y)


def test_rf_learns_separable_threshold(rng):
    X = np.sort(rng.random(60)).reshape(-1, 1)
    y = np.where(X[:, 0] < 0.5, 1, 2).astype(np.uint8)
    model = rf_fit(X, y, n_trees=15, max_depth=4, seed=0)
    np.testing.assert_array_equal(rf_predict(model, X), y)


def test_rf_same_seed_same_forest(rng):
    X = rng.random((50, 4))
    y = rng.integers(1, 5, 50).astype(np.uint8)
    m1 = rf_fit(X, y, n_trees=4, max_depth=3, seed=11)
    m2 = rf_fit(X, y, n_trees=4, max_depth=3, seed=11)
    for t1, t2 in zip(m1.trees, m2.trees):
        np.testing.assert_array_equal(t1.feature, t2.feature)
        np.testing.assert_array_equal(t1.threshold, t2.threshold)
        np.testing.assert_array_equal(t1.probs, t2.probs)


def test_tree_apply_matches_scalar_walk(rng):
    X = rng.random((40, 3))
    y = rng.integers(1, 4, 40).astype(np.uint8)
    model = rf_fit(X, y, n_trees=5, max_depth=4, seed=2)
    Q = rng.random((25, 3))
    for tree in model.trees:
        fast = tree_apply(tree, Q)
        for i in range(len(Q)):
            np.testing.assert_array_equal(fast[i], tree_walk_oracle(tree, Q[i]))


def test_rf_proba_is_mean_over_trees(rng):
    X = rng.random((30, 2))
    y = rng.integers(1, 4, 30).astype(np.uint8)
    model = rf_fit(X, y, n_trees=5, max_depth=3, seed=4)
    Q = rng.random((10, 2))
    manual = sum(tree_apply(t, Q) for t in model.trees) / 5
    np.testing.assert_array_equal(rf_predict_proba(model, Q), manual)


def with_special_values(X, rng):
    """X with NaN, +inf and -inf scattered over its cells."""
    X = X.copy()
    for value in (np.nan, np.inf, -np.inf):
        X[rng.random(X.shape) < 0.05] = value
    return X


@pytest.fixture
def uneven_forest(rng):
    """Four trees grown to depths 6, 0, 2 and 9 on three features."""
    X = rng.random((400, 3))
    y = rng.integers(1, 7, 400).astype(np.uint8)
    trees = [
        rf_fit(X, y, n_trees=1, max_depth=depth, seed=depth).trees[0] for depth in (6, 0, 2, 9)
    ]
    return ForestModel(tuple(trees), 9, 3, 0)


def test_node_table_depth_is_the_deepest_tree(uneven_forest):
    depths = [tree_depth(tree) for tree in uneven_forest.trees]
    assert depths[1] == 0 and len(set(depths)) == 4
    assert uneven_forest.nodes.depth == max(depths)


@pytest.mark.parametrize(
    "n_rows",
    # a one-row tail joins the block before it; two rows past a block start another
    [0, 300, *(shallow.ROW_BLOCK + extra for extra in (-1, 0, 1, 2))],
)
def test_rf_proba_matches_the_reference_with_nan_and_infinities(
    uneven_forest, rng, n_rows
):
    Q = with_special_values(rng.random((n_rows, 3)), rng)
    Q[:3] = np.array([np.nan, np.inf, -np.inf])[: len(Q), None]
    got = rf_predict_proba(uneven_forest, Q)
    assert got.shape == (n_rows, 10) and np.isfinite(got).all()
    np.testing.assert_array_equal(got, reference_proba(uneven_forest, Q))


@pytest.mark.parametrize("n_trees, max_depth", [(3, 0), (1, 5)])
def test_rf_proba_matches_the_reference_for_stumps_and_single_trees(
    rng, n_trees, max_depth
):
    X = rng.random((200, 4))
    y = rng.integers(1, 5, 200).astype(np.uint8)
    model = rf_fit(X, y, n_trees=n_trees, max_depth=max_depth, seed=3)
    assert model.nodes.depth == max(tree_depth(tree) for tree in model.trees)
    Q = with_special_values(rng.random((500, 4)), rng)
    np.testing.assert_array_equal(rf_predict_proba(model, Q), reference_proba(model, Q))


def test_replaced_forest_gets_its_own_node_table(uneven_forest, rng):
    table = uneven_forest.nodes
    assert uneven_forest.nodes is table
    with pytest.raises(dataclasses.FrozenInstanceError):
        uneven_forest.trees = uneven_forest.trees[:1]
    fewer = dataclasses.replace(uneven_forest, trees=uneven_forest.trees[2:])
    assert fewer.nodes is not table
    assert len(fewer.nodes.roots) == 2
    Q = rng.random((50, 3))
    np.testing.assert_array_equal(rf_predict_proba(fewer, Q), reference_proba(fewer, Q))


def test_rf_respects_depth_bound(rng):
    X = rng.random((200, 2))
    y = rng.integers(1, 5, 200).astype(np.uint8)
    model = rf_fit(X, y, n_trees=3, max_depth=3, seed=1)
    for tree in model.trees:
        depth = np.zeros(tree.n_nodes, dtype=int)
        for node in range(tree.n_nodes):
            if tree.feature[node] >= 0:
                depth[tree.left[node]] = depth[node] + 1
                depth[tree.right[node]] = depth[node] + 1
                assert depth[node] < 3
        assert depth.max() <= 3


def test_rf_leaf_probs_normalized(rng):
    X = rng.random((80, 3))
    y = rng.integers(1, 6, 80).astype(np.uint8)
    model = rf_fit(X, y, n_trees=4, max_depth=5, seed=7)
    for tree in model.trees:
        leaves = tree.feature < 0
        np.testing.assert_allclose(tree.probs[leaves].sum(axis=1), 1.0, atol=1e-12)
        assert (tree.probs[~leaves] == 0).all()


def test_rf_tie_breaks_to_lowest_class():
    leaf = lambda probs: Tree(
        feature=np.array([-1], dtype=np.int16),
        threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        probs=np.array([probs], dtype=np.float64),
    )
    one_hot = lambda c: np.eye(10)[c - 1]
    model = ForestModel(
        trees=(leaf(one_hot(4)), leaf(one_hot(9))),
        max_depth=0,
        n_features=1,
        seed=0,
    )
    assert rf_predict(model, np.zeros((1, 1)))[0] == 4


def test_rf_masking_and_validation(rng):
    X = rng.random((20, 2))
    y = np.zeros(20, dtype=np.uint8)
    with pytest.raises(ValueError, match="no valid"):
        rf_fit(X, y, n_trees=1)
    y[:] = 3
    masked_out = FeatureMatrix(X, np.ones(20, bool)).with_mask(np.zeros(20, bool))
    with pytest.raises(ValueError, match="no valid"):
        rf_fit(masked_out, y, n_trees=1)
    with pytest.raises(ValueError, match="length"):
        rf_fit(X, y[:10], n_trees=1)
    with pytest.raises(ValueError, match="1..10"):
        rf_fit(X, np.full(20, 11, dtype=np.uint8), n_trees=1)


def test_rf_mask_excludes_contaminating_labels(rng):
    # all masked-in rows are class 2; masked-out rows say class 9
    X = rng.random((40, 2))
    y = np.full(40, 2, dtype=np.uint8)
    y[30:] = 9
    fm = FeatureMatrix(X, np.ones(40, bool)).with_mask(np.arange(40) < 30)
    model = rf_fit(fm, y, n_trees=3, max_depth=3, seed=0)
    assert (rf_predict(model, X) == 2).all()


def test_rf_predict_dimension_check(rng):
    X = rng.random((20, 3))
    y = np.ones(20, dtype=np.uint8)
    model = rf_fit(X, y, n_trees=1, max_depth=1, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        rf_predict(model, rng.random((5, 2)))


def test_rf_validates_hyperparameters(rng):
    X = rng.random((20, 2))
    y = np.ones(20, dtype=np.uint8)
    with pytest.raises(ValueError, match="n_trees"):
        rf_fit(X, y, n_trees=0)
    with pytest.raises(ValueError, match="max_depth"):
        rf_fit(X, y, n_trees=1, max_depth=-1)
    with pytest.raises(ValueError, match="1..10"):
        rf_fit(X, np.full(20, -1), n_trees=1)
    with pytest.raises(ValueError, match="d >= 1"):
        rf_fit(np.zeros((20, 0)), y, n_trees=1)
    X[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        rf_fit(X, y, n_trees=1)


def tree_depth(tree):
    depth = np.zeros(tree.n_nodes, dtype=int)
    for node in range(tree.n_nodes):
        if tree.feature[node] >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def test_rf_grows_trees_deeper_than_the_recursion_limit():
    # Alternating pure groups of 30 equal rows on one feature: peeling off
    # an end group is the best split by a wide margin, also after bootstrap
    # resampling, so the tree is a chain with one level per group.
    groups = sys.getrecursionlimit() + 100
    X = np.repeat(np.arange(groups, dtype=np.float64), 30)[:, None]
    y = np.repeat(1 + np.arange(groups) % 2, 30)
    (tree,) = rf_fit(X, y, n_trees=1, max_depth=10 * groups, seed=0).trees
    assert tree_depth(tree) > sys.getrecursionlimit()
    np.testing.assert_array_equal(rf_predict(ForestModel((tree,), 0, 1, 0), X), y)


def test_stable_order_matches_stable_argsort(rng):
    cases = [(np.uint16, 5), (np.uint16, 1 << 16)]
    cases += [(np.int32, high) for high in (5, 1 << 16, 1 << 20, (1 << 31) - 1)]
    for dtype, high in cases:
        ranks = rng.integers(0, high, 5000).astype(dtype)
        ranks[::7] = ranks[0]  # ties must keep position order
        np.testing.assert_array_equal(
            _stable_order(ranks), np.argsort(ranks, kind="stable")
        )


@pytest.mark.parametrize("n, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.int32)])
def test_rf_fit_at_the_rank_dtype_boundary_matches_the_reference(n, dtype):
    # Column 0 holds n distinct values, so its top rank n - 1 is the
    # largest uint16 at 65,536 rows and has a high bit set one row later;
    # the bootstrap of seed 1 draws it. Column 1 has four levels, which
    # decide the classes up to noise.
    g = np.random.default_rng(n)
    X = np.column_stack([g.permutation(n).astype(np.float64), g.integers(0, 4, n)])
    y = (1 + X[:, 1] + (g.random(n) < 0.3)).astype(np.uint8)
    with mock.patch.object(shallow, "_stable_order", wraps=_stable_order) as order:
        model = rf_fit(X, y, n_trees=1, max_depth=2, seed=1)
    sorted_ranks = [c.args[0] for c in order.call_args_list]
    assert {r.dtype for r in sorted_ranks} == {np.dtype(dtype)}
    assert max(int(r.max()) for r in sorted_ranks) == n - 1
    assert model.trees[0].n_nodes > 1
    assert_matches_reference(model, X, y)


# Few levels, so ties are everywhere. -0.0 and 0.0 compare equal; between
# the floats after 1.0 the midpoint rounds onto the upper value.
_ONE_UP = float(np.nextafter(1.0, 2.0))
_LEVELS = (-2.0, -0.0, 0.0, 0.5, 1.0, _ONE_UP, float(np.nextafter(_ONE_UP, 2.0)), 7.0)


@st.composite
def tie_heavy_training_sets(draw):
    d = draw(st.integers(1, 5))
    pools = [
        draw(st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=3))
        for _ in range(d)
    ]
    n_distinct = draw(st.integers(1, 12))
    rows = np.array(
        [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n_distinct)]
    )
    pick = draw(st.lists(st.integers(0, n_distinct - 1), min_size=1, max_size=40))
    classes = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True))
    y = draw(
        st.lists(st.sampled_from(classes), min_size=len(pick), max_size=len(pick))
    )
    return rows[pick], np.array(y, dtype=np.uint8)


@settings(max_examples=300, deadline=None)
@given(
    data=tie_heavy_training_sets(),
    max_depth=st.integers(0, 6),
    n_trees=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_rf_fit_matches_the_per_node_sorting_reference(data, max_depth, n_trees, seed):
    X, y = data
    model = rf_fit(X, y, n_trees=n_trees, max_depth=max_depth, seed=seed)
    assert_matches_reference(model, X, y)


def assert_matches_reference(model, X, y):
    """Every tree equals, field for field and bit for bit, the tree the
    reference grows on the expanded bootstrap sample."""
    reference = reference_trees(X, y, model.n_trees, model.max_depth, model.seed)
    assert len(model.trees) == len(reference)
    for tree, ref in zip(model.trees, reference):
        fields = (tree.feature, tree.threshold, tree.left, tree.right, tree.probs)
        for got, want in zip(fields, ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@st.composite
def heavy_multiplicity_training_sets(draw):
    """Up to 2000 rows, each a copy of one of at most 12 rows over _LEVELS:
    the grower weights each bootstrap row by how often it was drawn, and
    cuts fall between tie groups that weigh tens to hundreds of rows. Some
    columns repeat the one before, so cuts on two drawn features tie
    exactly and the float re-score decides."""
    d = draw(st.integers(2, 4))
    n_distinct = draw(st.integers(2, 12))
    distinct = np.array(
        [[draw(st.sampled_from(_LEVELS)) for _ in range(d)] for _ in range(n_distinct)]
    )
    for f in range(1, d):
        if draw(st.booleans()):
            distinct[:, f] = distinct[:, f - 1]
    classes = draw(st.lists(st.integers(1, 10), min_size=2, max_size=3, unique=True))
    classes = np.array(classes, dtype=np.uint8)
    n = draw(st.integers(1, 2000))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = g.integers(0, n_distinct, n)
    # half the rows take their distinct row's class, half a random one
    y = np.where(g.random(n) < 0.5, classes[pick % len(classes)], g.choice(classes, n))
    return distinct[pick], y


@settings(max_examples=40, deadline=None)
@given(
    data=heavy_multiplicity_training_sets(),
    max_depth=st.integers(1, 6),
    n_trees=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_grower_matches_the_expanded_sample_reference(data, max_depth, n_trees, seed):
    X, y = data
    split, gini = shallow._presorted_split, shallow._weighted_gini
    rescored_heavy = []

    def spy(ranks, labels, weights, counts):
        calls = rescore.call_count
        result = split(ranks, labels, weights, counts)
        rescored_heavy.append(rescore.call_count > calls and weights.max() > 1)
        return result

    with mock.patch.object(shallow, "_weighted_gini", wraps=gini) as rescore, \
            mock.patch.object(shallow, "_presorted_split", spy):
        model = rf_fit(X, y, n_trees=n_trees, max_depth=max_depth, seed=seed)
    event(f"float re-score with a weight > 1: {any(rescored_heavy)}")
    assert_matches_reference(model, X, y)


@pytest.mark.parametrize("n, seed, drawn", [(1, 0, 0), (5, 1420, 1)])
def test_weighted_grower_on_a_bootstrap_of_one_row(n, seed, drawn):
    # With these seeds the bootstrap draws row `drawn` n times: the tree is
    # one leaf of weight n, whatever the other rows hold.
    X = np.arange(n, dtype=np.float64)[:, None]
    y = 1 + np.arange(n, dtype=np.uint8) % 3
    boot = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]).integers(0, n, n)
    np.testing.assert_array_equal(boot, np.full(n, drawn))
    model = rf_fit(X, y, n_trees=1, max_depth=3, seed=seed)
    assert model.trees[0].n_nodes == 1
    np.testing.assert_array_equal(model.trees[0].probs[0], np.eye(10)[y[drawn] - 1])
    assert_matches_reference(model, X, y)


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied-columns"])
def test_rf_fit_on_band_rows_holds_16_bit_ranks_and_one_node_of_scratch(tied):
    # README: beside its float32 band rows (the input here), a forest fit
    # holds a uint8 label and uint16 value ranks per row. A tree holds, per
    # distinct bootstrap row, its int64 row id, int32 weight, uint8 label
    # and int32 place in each feature's sorted order. The root gathers the
    # int32 places, uint16 ranks, uint8 labels and int32 weights of its
    # m_try drawn features, and its split search peaks at three 8-byte and
    # one 4-byte value per gathered element. With every column the same,
    # each drawn feature ties for the best cut, and the float re-score
    # stays within that peak. Int32 ranks and a second rank table per tree
    # took the peak to 269 B per row, against 166 now; re-scoring from a
    # class order of all drawn features took the tied case to 194.
    rng = np.random.default_rng(7)
    n, d = 50_000, 12
    bands = (rng.random((n, 1 if tied else d)) * 1.2e4).astype(np.float32)
    rows = BandRows(np.repeat(bands, d, axis=1) if tied else bands)
    y = rng.integers(1, 11, n).astype(np.uint8)
    rf_fit(BandRows(rows.bands[:100]), y[:100], n_trees=1, max_depth=3, seed=0)  # first-call imports
    with mock.patch.object(shallow, "_weighted_gini", wraps=shallow._weighted_gini) as rescore:
        peak, _ = traced_peak(lambda: rf_fit(rows, y, n_trees=1, max_depth=3, seed=0))
    assert rescore.called == tied
    boot = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0]).integers(0, n, n)
    k = np.count_nonzero(np.bincount(boot))  # the tree's distinct rows
    m_try = math.ceil(math.sqrt(d))
    tree = k * (8 + 4 + 1 + 4 * d)
    root = m_try * k * (4 + 2 + 1 + 4 + 3 * 8 + 4)
    assert peak <= n * (1 + 2 * d) + tree + root + (1 << 19)


def test_kmeans_fit_scratch_memory_stays_within_three_inputs():
    # Every row is selected, so the fit works on the input itself: the row
    # norms of the distance formula and a Lloyd pass's distance block,
    # labels and sums. The distinct-row check sorts a 4096-row prefix, and
    # the seeding and row norms work in row blocks. Sorting a full copy for
    # the check took the peak to 2.53 inputs.
    rng = np.random.default_rng(7)
    X = rng.random((50_000, 12))
    peak, _ = traced_peak(lambda: kmeans_fit(X, 3, n_init=1, seed=0))
    assert peak < 2.25 * X.nbytes


def test_kmeans_fit_on_band_rows_holds_one_float64_copy_and_one_block():
    # README: a k-means fit holds its float32 band rows (the input here) and
    # the one float64 copy the Lloyd passes read, 8 B per value. Per row it
    # holds the squared norms, the cluster ids of the last pass and the
    # running one, and the running pass's distances. One block is a
    # distance block of up to _ASSIGN_CHUNK rows with its argmin ids, the
    # distances they pick and those picks' row ids. Holding 2X of the
    # distance formula took 8 B per value more, and the last pass's
    # distances 8 B per row more.
    rng = np.random.default_rng(7)
    n, d, k = 50_000, 10, 3
    rows = BandRows((rng.random((n, d)) * 1.2e4).astype(np.float32))
    kmeans_fit(BandRows(rows.bands[:100]), k, n_init=1, seed=0)  # first-call imports
    peak, _ = traced_peak(lambda: kmeans_fit(rows, k, n_init=1, seed=0))
    per_row = 8 + 2 * 4 + 8
    block = min(n, shallow._ASSIGN_CHUNK) * (8 * k + 3 * 8)
    assert peak <= n * d * 8 + n * per_row + block + (1 << 18)


@settings(max_examples=200, deadline=None)
@given(
    data=tie_heavy_training_sets(),
    max_depth=st.integers(0, 6),
    n_trees=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    queries=st.lists(
        st.lists(
            st.sampled_from(_LEVELS + (np.nan, np.inf, -np.inf)), min_size=5, max_size=5
        ),
        max_size=30,
    ),
)
def test_rf_proba_matches_the_one_tree_at_a_time_reference(
    data, max_depth, n_trees, seed, queries
):
    X, y = data
    model = rf_fit(X, y, n_trees=n_trees, max_depth=max_depth, seed=seed)
    Q = np.array(queries, dtype=np.float64).reshape(-1, 5)[:, : X.shape[1]]
    for rows in (X, Q):
        np.testing.assert_array_equal(
            rf_predict_proba(model, rows), reference_proba(model, rows)
        )


@pytest.mark.parametrize("data_seed", [379, 455, 826])
def test_rf_resolves_exact_proxy_ties_in_float_like_the_reference(data_seed):
    # On these inputs the root has cuts with equal integer Gini proxies
    # whose float scores differ in the last bits; the float score decides.
    g = np.random.default_rng(data_seed)
    X = g.integers(0, 5, (30, 2)).astype(np.float64)
    y = np.where(g.random(30) < 0.5, 2, 9)
    (tree,) = rf_fit(X, y, n_trees=1, max_depth=1, seed=0).trees
    (ref,) = reference_trees(X, y, 1, 1, 0)
    assert tree.feature.tobytes() == ref[0].tobytes()
    assert tree.threshold.tobytes() == ref[1].tobytes()


# Few value levels, duplicate rows and constant columns. -0.0 and 0.0
# compare equal but can leave different bits in a sum.
_KM_LEVELS = (-0.0, 0.0, 0.25, 0.5, 1.0, _ONE_UP, 3.0)


@st.composite
def tie_heavy_rows(draw):
    d = draw(st.integers(1, 4))
    pools = [
        draw(st.lists(st.sampled_from(_KM_LEVELS), min_size=1, max_size=3))
        for _ in range(d)
    ]
    n_distinct = draw(st.integers(1, 10))
    rows = np.array(
        [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n_distinct)]
    )
    pick = draw(st.lists(st.integers(0, n_distinct - 1), min_size=1, max_size=40))
    return rows[pick]


@settings(max_examples=300, deadline=None)
@given(X=tie_heavy_rows(), k=st.integers(1, 12), prefix=st.sampled_from([1, 2, 3, 4096]))
def test_distinct_row_check_counts_as_np_unique(X, k, prefix):
    # -0.0 and 0.0 are one value, as np.unique counts them
    with mock.patch.object(shallow, "_DISTINCT_PREFIX", prefix):
        assert shallow._has_distinct_rows(X, k) == (len(np.unique(X, axis=0)) >= k)


def test_distinct_row_check_finds_rows_past_the_first_prefix():
    X = np.zeros((10_000, 2))
    X[-1] = 1.0  # the second distinct row is the last
    assert shallow._has_distinct_rows(X, 2)
    assert not shallow._has_distinct_rows(X, 3)
    with pytest.raises(ValueError, match="fewer than k=3 distinct valid feature rows"):
        kmeans_fit(X, 3)


def _same_fit(got, want):
    assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert [v.hex() for v in (got[1], *got[2])] == [v.hex() for v in (want[1], *want[2])]


@settings(max_examples=300, deadline=None)
@given(
    X=tie_heavy_rows(),
    data=st.data(),
    n_init=st.integers(1, 3),
    max_iter=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 3, 7, shallow._ASSIGN_CHUNK]),
)
def test_kmeans_fit_matches_the_add_at_reference(X, data, n_init, max_iter, seed, chunk):
    k = data.draw(st.integers(1, len(np.unique(X, axis=0))), label="k")
    with mock.patch.object(shallow, "_ASSIGN_CHUNK", chunk), mock.patch.object(
        kmeans_reference, "ASSIGN_CHUNK", chunk
    ), mock.patch.object(shallow, "ROW_BLOCK", chunk), mock.patch.object(
        shallow, "_DISTINCT_PREFIX", chunk
    ):
        model = kmeans_fit(X, k, n_init=n_init, max_iter=max_iter, seed=seed)
        want = reference_kmeans(X, k, n_init, max_iter, seed)
    _same_fit((model.centroids, model.inertia, model.inertia_history), want)


@settings(max_examples=300, deadline=None)
@given(X=tie_heavy_rows(), data=st.data(), max_iter=st.integers(1, 20))
def test_lloyd_matches_the_add_at_reference_from_any_seeding(X, data, max_iter):
    # Seedings drawn from the levels and beyond them, duplicates allowed: a
    # duplicate centroid or one past every row starts empty and is relocated.
    k = data.draw(st.integers(1, 5), label="k")
    levels = st.sampled_from(_KM_LEVELS + (-50.0, 50.0))
    seeding = np.array(
        data.draw(st.lists(st.lists(levels, min_size=X.shape[1], max_size=X.shape[1]),
                           min_size=k, max_size=k), label="seeding")
    )
    got = _lloyd(X, seeding, max_iter, _squared_norms(X))
    _same_fit(got, reference_lloyd(X, seeding, max_iter))


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_kmeans_cluster_ids_on_band_rows_match_the_whole_normalized_rows(n):
    # sizes at the edges of 4096-row blocks (the squared row norms' and
    # predict's): one partial block, one full block, a one-row tail, and
    # two full blocks with such a tail
    rng = np.random.default_rng(n)
    bands = np.hstack([rng.uniform(-1e3, 1.2e4, (n, 10)), rng.uniform(-30, 5, (n, 2))])
    rows = BandRows(bands.astype(np.float32))
    model = KMeansModel(
        centroids=rng.random((7, 12)), inertia=0.0, cluster_to_class=None,
        seed=0, n_init=1, max_iter=1,
    )
    want = kmeans_cluster_ids(model, normalize_bands(rows.bands))
    got = kmeans_cluster_ids(model, rows)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bands", [np.zeros((5, 11)), np.zeros(12)])
def test_kmeans_cluster_ids_refuse_band_rows_as_feature_rows_does(bands):
    model = KMeansModel(
        centroids=np.zeros((2, 12)), inertia=0.0, cluster_to_class=None,
        seed=0, n_init=1, max_iter=1,
    )
    rows = BandRows(bands.astype(np.float32))
    with pytest.raises(ValueError) as want:
        feature_rows(rows, model.d)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        kmeans_cluster_ids(model, rows)


def test_kmeans_cluster_ids_match_the_reference_across_chunks(rng, monkeypatch):
    X = rng.integers(0, 4, (50, 3)) / 4.0
    model = kmeans_fit(X, k=5, n_init=2, seed=3)
    for chunk in (1, 7, 49, 50):
        monkeypatch.setattr(shallow, "_ASSIGN_CHUNK", chunk)
        monkeypatch.setattr(kmeans_reference, "ASSIGN_CHUNK", chunk)
        want, _ = reference_nearest(X, model.centroids)
        got = kmeans_cluster_ids(model, X)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
