"""Pixel-wise shallow baselines: k-means++ clustering aligned to reference
classes via the Kuhn-Munkres assignment, and a Gini random forest trained on
low-resolution labels.

All training is reproducible bit-for-bit given (data, hyperparameters, seed):
per-initialization and per-tree generators are derived from one seed sequence
and consumed in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import N_SIMPLIFIED_CLASSES
from .preprocess import FeatureMatrix, feature_rows, training_rows

# Relative slack for the Lloyd monotonicity assertion; covers float64
# rounding in the mean updates without hiding real regressions.
_INERTIA_SLACK = 1e-12

_ASSIGN_CHUNK = 262144  # rows per distance block, bounds peak memory
_ROUTE_CHUNK = 4096  # rows routed through every tree at once; state stays in cache


# ---------------------------------------------------------------------------
# Kuhn-Munkres assignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssignmentSolution:
    """Optimal assignment of min(n, m) row/column pairs and its total cost."""

    assignment: dict[int, int]
    total_cost: float


def _lap_square(cost: np.ndarray) -> np.ndarray:
    """Min-cost perfect matching on a square matrix (O(n^3) potentials method).

    Returns col_of_row. Column n acts as the virtual start column of each
    augmenting-path search.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n + 1)
    match = np.full(n + 1, -1, dtype=np.intp)  # column -> row
    for i in range(n):
        match[n] = i
        j0 = n
        minv = np.full(n, np.inf)
        way = np.full(n, n, dtype=np.intp)
        used = np.zeros(n + 1, dtype=bool)
        while match[j0] != -1:
            used[j0] = True
            i0 = match[j0]
            reduced = cost[i0] - u[i0] - v[:n]
            improve = ~used[:n] & (reduced < minv)
            minv[improve] = reduced[improve]
            way[improve] = j0
            candidates = np.where(used[:n], np.inf, minv)
            j1 = int(candidates.argmin())
            delta = candidates[j1]
            u[match[used]] += delta
            v[used] -= delta
            minv[~used[:n]] -= delta
            j0 = j1
        while j0 != n:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    col_of_row = np.empty(n, dtype=np.intp)
    col_of_row[match[:n]] = np.arange(n)
    return col_of_row


def hungarian(cost) -> AssignmentSolution:
    """Optimal min-cost assignment of min(n, m) pairs of an n×m cost matrix.

    Rectangular inputs are padded square with a constant >= the maximum cost,
    which leaves the restriction to real rows/columns optimal.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"cost matrix must be non-empty 2-D, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    n, m = cost.shape
    size = max(n, m)
    padded = np.full((size, size), cost.max(), dtype=np.float64)
    padded[:n, :m] = cost
    col_of_row = _lap_square(padded)
    assignment = {
        i: int(col_of_row[i]) for i in range(n) if col_of_row[i] < m
    }
    total = float(sum(cost[i, j] for i, j in assignment.items()))
    return AssignmentSolution(assignment=assignment, total_cost=total)


def _labeled(labels: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """The labeled (non-zero), mask-true entries of labels, as a boolean
    selection; raises unless mask has one entry per label."""
    keep = labels != 0
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).ravel()
        if len(mask) != len(labels):
            raise ValueError(f"mask length {len(mask)} != labels length {len(labels)}")
        keep &= mask
    return keep


def align_clusters(
    cluster_labels: np.ndarray,
    reference: np.ndarray,
    mask: np.ndarray | None = None,
) -> dict[int, int]:
    """Map cluster ids to the simplified classes maximizing total agreement.

    Builds the k×10 co-occurrence matrix over mask-true pixels with a valid
    reference label and solves the assignment on negated counts, so one
    minimizing kernel serves both orientations. The returned map is injective.
    """
    cluster_labels = np.asarray(cluster_labels).ravel()
    reference = np.asarray(reference).ravel()
    if cluster_labels.shape != reference.shape:
        raise ValueError("cluster_labels and reference must have equal length")
    keep = _labeled(reference, mask)
    if not keep.any():
        raise ValueError("no valid pixels to align clusters against")
    clusters = cluster_labels[keep].astype(np.int64)
    classes = reference[keep].astype(np.int64)
    k = int(clusters.max()) + 1
    cooc = np.bincount(
        clusters * N_SIMPLIFIED_CLASSES + (classes - 1), minlength=k * N_SIMPLIFIED_CLASSES
    ).reshape(k, N_SIMPLIFIED_CLASSES)
    solution = hungarian(-cooc.astype(np.float64))
    return {cluster: col + 1 for cluster, col in sorted(solution.assignment.items())}


def default_k(labels: np.ndarray, mask: np.ndarray | None = None) -> int:
    """Default cluster count: the number of distinct class ids among the
    labeled (non-zero), mask-true pixels of the training reference."""
    labels = np.asarray(labels).ravel()
    k = len(np.unique(labels[_labeled(labels, mask)]))
    if k == 0:
        raise ValueError("no labeled pixels to derive k from")
    return k


# ---------------------------------------------------------------------------
# k-means++ / Lloyd
# ---------------------------------------------------------------------------

@dataclass
class KMeansModel:
    centroids: np.ndarray                     # k×d float64, values in [0, 1]
    inertia: float
    cluster_to_class: dict[int, int] | None   # injective cluster -> class id
    seed: int
    n_init: int
    max_iter: int
    inertia_history: tuple[float, ...] = field(default_factory=tuple)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


def _row_terms(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-row terms of the distance formula: 2X and the squared row norms."""
    return 2.0 * X, (X * X).sum(axis=1)


def _nearest(
    X: np.ndarray,
    centroids: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked nearest-centroid search; ties break to the lowest cluster id.

    Squared distances are (|x|² - 2x·c) + |c|², clamped at 0, evaluated in
    place in the one rows×k product of each chunk. ``terms`` is
    ``_row_terms(X)`` when the caller holds it for all of X (``kmeans_fit``
    shares it between seedings); otherwise each chunk computes its own.
    """
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int32)
    d2 = np.empty(n, dtype=np.float64)
    c2 = (centroids * centroids).sum(axis=1)
    for start in range(0, n, _ASSIGN_CHUNK):
        rows = slice(start, start + _ASSIGN_CHUNK)
        twice, x2 = _row_terms(X[rows]) if terms is None else (terms[0][rows], terms[1][rows])
        dist = twice @ centroids.T
        np.subtract(x2[:, None], dist, out=dist)
        dist += c2
        np.maximum(dist, 0.0, out=dist)
        idx = dist.argmin(axis=1)
        labels[rows] = idx
        d2[rows] = np.take_along_axis(dist, idx[:, None], axis=1)[:, 0]
    return labels, d2


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding: each new centroid is a data point sampled with
    probability proportional to its squared distance to the chosen set."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = X[idx]
        np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1), out=d2)
    return centroids


def _lloyd(X, centroids, max_iter, terms):
    """Lloyd iterations from the given seeding; returns (centroids, inertia, history).

    ``terms`` is ``_row_terms(X)``. Cluster sums come from one weighted
    bincount per feature, which adds each cluster's rows in row order, as a
    sequential loop would.
    """
    k = centroids.shape[0]
    history: list[float] = []
    labels = None
    for _ in range(max_iter):
        new_labels, d2 = _nearest(X, centroids, terms)
        inertia = float(d2.sum())
        if history and inertia > history[-1] * (1.0 + _INERTIA_SLACK) + _INERTIA_SLACK:
            raise AssertionError(
                f"Lloyd inertia increased: {history[-1]!r} -> {inertia!r}"
            )
        history.append(inertia)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = np.stack(
            [np.bincount(labels, weights=column, minlength=k) for column in X.T], axis=1
        )
        sizes = np.bincount(labels, minlength=k).astype(np.float64)
        empty = sizes == 0
        nonzero = ~empty
        centroids = centroids.copy()
        centroids[nonzero] = sums[nonzero] / sizes[nonzero, None]
        if empty.any():
            # Standard remedy: relocate each empty cluster to the point
            # currently farthest from its own centroid.
            far = d2.copy()
            for cluster in np.flatnonzero(empty):
                p = int(far.argmax())
                centroids[cluster] = X[p]
                far[p] = -1.0
    return centroids, history[-1], tuple(history)


def check_k(k: int) -> None:
    """kmeans_fit's cluster-count rule, callable before any data is read."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def kmeans_fit(
    features: FeatureMatrix | np.ndarray,
    k: int,
    n_init: int = 10,
    max_iter: int = 300,
    seed: int = 0,
) -> KMeansModel:
    """Best of n_init independent k-means++ seedings, each Lloyd-fitted for up
    to max_iter iterations; the lowest-inertia run wins (ties to the earliest).

    Operates on the valid rows of the feature matrix. Raises if a row is not
    finite or the data has fewer than k distinct rows. The row norms and 2X
    of the distance formula are computed once here and shared by every
    seeding.
    """
    check_k(k)
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    X, rows = training_rows(features)
    X = X[rows]
    if np.unique(X, axis=0).shape[0] < k:
        raise ValueError(f"fewer than k={k} distinct valid feature rows")

    terms = _row_terms(X)
    streams = np.random.SeedSequence(seed).spawn(n_init)
    best: tuple[float, int, np.ndarray, tuple[float, ...]] | None = None
    for run, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        centroids = _kmeanspp_init(X, k, rng)
        centroids, inertia, history = _lloyd(X, centroids, max_iter, terms)
        if best is None or inertia < best[0]:
            best = (inertia, run, centroids, history)
    assert best is not None
    inertia, _, centroids, history = best
    return KMeansModel(
        centroids=centroids,
        inertia=inertia,
        cluster_to_class=None,
        seed=seed,
        n_init=n_init,
        max_iter=max_iter,
        inertia_history=history,
    )


def kmeans_cluster_ids(model: KMeansModel, features: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Raw nearest-centroid cluster ids for every row (no class mapping)."""
    labels, _ = _nearest(feature_rows(features, model.d), model.centroids)
    return labels


def kmeans_predict(model: KMeansModel, features: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Nearest-centroid class prediction through the cluster->class map."""
    if model.cluster_to_class is None:
        raise ValueError("model has no cluster_to_class map; run align_clusters first")
    clusters = kmeans_cluster_ids(model, features)
    lut = np.zeros(model.k, dtype=np.uint8)
    mapped = np.zeros(model.k, dtype=bool)
    for cluster, cls in model.cluster_to_class.items():
        lut[cluster] = cls
        mapped[cluster] = True
    if not mapped[np.unique(clusters)].all():
        missing = sorted(set(np.unique(clusters)) - set(model.cluster_to_class))
        raise ValueError(f"clusters {missing} have no class mapping")
    return lut[clusters]


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tree:
    """Flat binary tree: feature[i] < 0 marks node i as a leaf.

    Nodes are numbered in depth-first pre-order: a node, then its whole left
    subtree, then its right subtree. An internal node sends a row left when
    its feature value is <= the threshold.
    """

    feature: np.ndarray    # int16, -1 for leaves
    threshold: np.ndarray  # float64, 0 for leaves
    left: np.ndarray       # int32 child index, -1 for leaves
    right: np.ndarray      # int32 child index, -1 for leaves
    probs: np.ndarray      # n_nodes×10 float64, zero rows for internal nodes

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[Tree, ...]
    n_trees: int
    max_depth: int
    n_features: int
    seed: int

    @cached_property
    def nodes(self) -> NodeTable:
        """The trees stacked into one table, built on first use. The model
        is frozen, so the table cannot go stale."""
        return _stack_trees(self.trees)


# Cuts whose Gini proxy lies within this relative distance of the best proxy
# are re-scored with the float formula that decides the split. The proxy
# P = sum_c L_c^2/n_L + sum_c R_c^2/n_R is exact up to one rounding per
# term (relative error < 1e-15), and the float weighted Gini equals
# (n - P)/n up to an absolute error below 1e-14 (a few roundings of values
# <= 1 over 10 classes). A cut outside the window has an exact weighted Gini
# at least 1e-9 * P/n >= 1e-10 above the best (P >= n/10), which no float
# error of 1e-14 can close, so the float argmin is always inside the window.
_PROXY_RTOL = 1e-9


def _leaf_probs(counts: np.ndarray) -> np.ndarray:
    counts = counts[1:]
    return counts / counts.sum()


def _weighted_gini(left_cnt: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Weighted Gini impurity of cuts with k×10 float left class counts.

    These float operations decide between near-equal cuts. The reference
    grower in tests/rf_reference.py scores every cut with the same ones, in
    the same order, so both pick the same cut bit for bit.
    """
    n = int(total.sum())
    left_n = left_cnt.sum(axis=1)
    right_cnt = total - left_cnt
    right_n = n - left_n
    gini_left = 1.0 - ((left_cnt / left_n[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right_cnt / right_n[:, None]) ** 2).sum(axis=1)
    return (left_n * gini_left + right_n * gini_right) / n


def _stable_order(ranks: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative int32 ranks.

    numpy sorts 16-bit integers stably with a radix sort, so this sorts by
    the low 16 bits, then stably by the high 16 bits when any are set.
    """
    order = np.argsort(ranks.astype(np.uint16), kind="stable")
    if ranks.max() >> 16:
        high = (ranks >> 16).astype(np.uint16).take(order)
        order = order.take(np.argsort(high, kind="stable"))
    return order


def _presorted_split(ranks, labels, counts):
    """Lowest weighted Gini cut of one node over its drawn features.

    Row r of ``ranks`` and ``labels`` holds the value ranks and class ids of
    the node's rows, sorted stably by drawn feature r; ``counts`` is the
    node's class histogram. Cuts lie between distinct neighbors. They are
    ranked by an integer-count proxy and the near-best ones re-scored in
    float; ties go to the first cut, then the first drawn feature. Returns
    (r, i), a cut after sorted element i of row r, or None when every drawn
    feature is constant.
    """
    m, n = ranks.shape
    cut = ranks[:, 1:] != ranks[:, :-1]
    if not cut.any():
        return None
    # Moving an element of class c to the left side raises sum_c L_c^2 by
    # 2*L_c + 1, where L_c counts the earlier elements of class c in its row
    # (its rank in a stable sort of the row by class), and raises
    # sum_c T_c L_c by T_c. With T the node's class counts,
    # sum_c R_c^2 = sum_c T_c^2 - 2 sum_c T_c L_c + sum_c L_c^2.
    by_class = np.argsort(labels, axis=1, kind="stable").astype(np.int32)
    starts = np.cumsum(counts) - counts
    class_sorted = np.repeat(np.arange(len(counts)), counts)
    rise = np.empty((m, n), dtype=np.int32)
    rise[np.arange(m)[:, None], by_class] = 2 * (np.arange(n) - starts[class_sorted]) + 1
    left_sq = np.cumsum(rise, axis=1, dtype=np.int64)
    del rise
    right_sq = counts.take(labels)
    np.cumsum(right_sq, axis=1, out=right_sq)
    right_sq *= -2
    right_sq += left_sq
    right_sq += int(counts @ counts)
    left_n = np.arange(1, n)
    proxy = left_sq[:, :-1] / left_n
    proxy += right_sq[:, :-1] / (n - left_n)
    proxy[~cut] = -1.0
    best = proxy.max()
    cand = np.flatnonzero(proxy >= best - best * _PROXY_RTOL)
    if len(cand) > 1:
        # Left class counts of each candidate: binary search in the rows'
        # class-sorted positions, keyed (row, class, position).
        cand_row, cand_pos = np.divmod(cand, n - 1)
        row_class = np.arange(m)[:, None] * len(counts) + class_sorted
        keys = (row_class * n + by_class).ravel()
        classes = np.arange(1, N_SIMPLIFIED_CLASSES + 1)
        query = (cand_row[:, None] * len(counts) + classes) * n + cand_pos[:, None]
        left_cnt = np.searchsorted(keys, query, side="right")
        left_cnt -= cand_row[:, None] * n + starts[classes]
        total = counts[1:].astype(np.float64)
        cand = cand[[_weighted_gini(left_cnt.astype(np.float64), total).argmin()]]
    return divmod(int(cand[0]), n - 1)


def _grow_tree(X, rows, ranks, y, boot, max_depth, m_try, rng):
    """Grow one tree on the bootstrap sample ``boot`` of the training rows.

    Training row i is row ``rows[i]`` of X, has class ``y[i]`` and value
    rank ``ranks[f, i]`` in feature f. Every feature is sorted once, stably,
    so each position list below is ordered by (value, bootstrap position);
    a split partitions the lists stably, so a node sees the order a stable
    sort of its own rows gives. An explicit stack visits nodes in pre-order:
    numbering and generator draws follow the node order, and depth is not
    bounded by recursion.
    """
    ranks = ranks[:, boot]
    labels = y[boot]
    d, n = ranks.shape
    orders = np.empty((d, n), dtype=np.int32)
    for f in range(d):
        orders[f] = _stable_order(ranks[f])
    goes_left = np.zeros(n, dtype=bool)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    probs: list[np.ndarray] = []
    zero = np.zeros(N_SIMPLIFIED_CLASSES)

    stack = [(orders, 0, -1, left)]  # (positions, depth, parent, parent's link)
    while stack:
        orders, depth, parent, link = stack.pop()
        node = len(feature)
        if parent >= 0:
            link[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        probs.append(zero)

        counts = np.bincount(labels[orders[0]], minlength=N_SIMPLIFIED_CLASSES + 1)
        split = None
        if depth < max_depth and np.count_nonzero(counts) > 1:
            drawn = rng.choice(d, size=m_try, replace=False)
            sub = orders[drawn]
            split = _presorted_split(ranks[drawn[:, None], sub], labels.take(sub), counts)
        if split is None:
            probs[node] = _leaf_probs(counts)
            continue
        row, pos = split
        f = int(drawn[row])
        lo, hi = (float(X[rows[boot[p]], f]) for p in sub[row, pos : pos + 2])
        thr = 0.5 * (lo + hi)
        if thr >= hi:  # rounding merged the midpoint into the upper value
            thr = lo
        feature[node] = f
        threshold[node] = thr
        to_left = sub[row, : pos + 1]
        goes_left[to_left] = True
        # Flat boolean selection keeps each row's order and is several
        # times faster than indexing the 2-D array with a 2-D mask.
        side = goes_left.take(orders).ravel()
        goes_left[to_left] = False
        flat = orders.ravel()
        stack.append((flat[~side].reshape(d, -1), depth + 1, node, right))
        stack.append((flat[side].reshape(d, pos + 1), depth + 1, node, left))

    return Tree(
        feature=np.array(feature, dtype=np.int16),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        probs=np.vstack(probs),
    )


def check_forest_size(n_trees: int, max_depth: int) -> None:
    """rf_fit's tree-count and depth rules, callable before any data is read."""
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")


def rf_fit(
    features: FeatureMatrix | np.ndarray,
    labels: np.ndarray,
    n_trees: int = 100,
    max_depth: int = 10,
    seed: int = 0,
) -> ForestModel:
    """Train a Gini random forest on the valid, labeled pixels.

    Each tree sees a same-size bootstrap sample and draws ceil(sqrt(d))
    candidate features per node from its own derived generator, so results
    do not depend on any execution order. Split search is exact: each tree
    sorts every feature once and partitions the sorted orders at each split,
    and a node takes the lowest weighted Gini cut over its drawn features
    (first cut, then first drawn feature, on ties). The threshold is the
    midpoint between the two values the cut separates. A node becomes a leaf
    at max_depth, when it is pure, or when its drawn features are constant.
    """
    check_forest_size(n_trees, max_depth)
    X_all, rows = training_rows(features, labels)
    y = np.asarray(labels).ravel()[rows].astype(np.uint8)
    # Equal values share a rank, so sorting ranks sorts values; the ranks
    # fit 32 bits and sort by 16-bit radix passes in every tree.
    n, d = len(rows), X_all.shape[1]
    ranks = np.empty((d, n), dtype=np.int32)
    for f in range(d):
        ranks[f] = np.unique(X_all[rows, f], return_inverse=True)[1]

    m_try = math.ceil(math.sqrt(d))
    trees = []
    for stream in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(stream)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X_all, rows, ranks, y, boot, max_depth, m_try, rng))
    return ForestModel(
        trees=tuple(trees),
        n_trees=n_trees,
        max_depth=max_depth,
        n_features=d,
        seed=seed,
    )


@dataclass(frozen=True)
class NodeTable:
    """Every tree of a forest in one node table, so rows step through all
    trees at once.

    Tree t's nodes follow those of the trees before it and start at
    roots[t]. A row at node i moves to child[2*i + 1] (left) when its value
    of feature[i] is <= threshold[i], else to child[2*i] (right), so a NaN
    goes right. A leaf has feature 0, threshold +inf and itself as both
    children: a row that reaches it stays. After ``depth`` steps, the
    deepest tree's depth, every row is at a leaf.
    """

    feature: np.ndarray    # intp
    threshold: np.ndarray  # float64
    child: np.ndarray      # intp, two slots per node
    probs: np.ndarray      # n_nodes×10 float64
    roots: np.ndarray      # intp, one per tree
    depth: int


def _stack_trees(trees: tuple[Tree, ...]) -> NodeTable:
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
    offset = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees]).astype(np.intp)
    leaf = feature < 0
    own = np.arange(len(feature))
    child = np.empty(2 * len(feature), dtype=np.intp)
    child[1::2] = np.where(leaf, own, np.concatenate([t.left for t in trees]) + offset)
    child[0::2] = np.where(leaf, own, np.concatenate([t.right for t in trees]) + offset)
    # Pre-order numbering puts children after their parent, so one pass per
    # level finds the depth without recursion.
    depth, level = 0, roots
    while len(level := level[~leaf[level]]):
        level = child[2 * level[:, None] + (0, 1)].ravel()
        depth += 1
    return NodeTable(
        feature=np.where(leaf, 0, feature),
        threshold=np.where(leaf, np.inf, np.concatenate([t.threshold for t in trees])),
        child=child,
        probs=np.vstack([tree.probs for tree in trees]),
        roots=roots,
        depth=depth,
    )


def rf_predict_proba(model: ForestModel, features: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Mean leaf probability vector across the ensemble, summed in tree order.

    Each chunk of rows steps through every tree at once: one gather finds
    each (row, tree) pair's feature value and one picks its next node.
    """
    X = feature_rows(features, model.n_features)
    table = model.nodes
    n, d = X.shape
    acc = np.zeros((n, N_SIMPLIFIED_CLASSES), dtype=np.float64)
    for start in range(0, n, _ROUTE_CHUNK):
        m = min(_ROUTE_CHUNK, n - start)
        flat = np.ascontiguousarray(X[start : start + m]).ravel()
        row_base = np.arange(0, m * d, d)[:, None]
        node = np.tile(table.roots, (m, 1))
        for _ in range(table.depth):
            vals = flat.take(row_base + table.feature.take(node))
            node = table.child.take(2 * node + (vals <= table.threshold.take(node)))
        out = acc[start : start + m]
        for leaves in node.T:
            out += table.probs.take(leaves, axis=0)
    return acc / model.n_trees


def rf_predict(model: ForestModel, features: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Argmax of the averaged leaf probabilities; ties break to the lowest id."""
    proba = rf_predict_proba(model, features)
    return (proba.argmax(axis=1) + 1).astype(np.uint8)
