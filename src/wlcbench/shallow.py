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
from .preprocess import ROW_BLOCK, Features, TrainingRows, feature_rows, row_blocks, training_rows

# Relative slack for the Lloyd monotonicity assertion; covers float64
# rounding in the mean updates without hiding real regressions.
_INERTIA_SLACK = 1e-12

_ASSIGN_CHUNK = 262144  # rows per distance block, bounds peak memory
_DISTINCT_PREFIX = 4096  # first rows kmeans_fit searches for k distinct ones


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


def align_clusters(cluster_labels: np.ndarray, reference: np.ndarray) -> dict[int, int]:
    """Map cluster ids to the simplified classes maximizing total agreement.

    Builds the k×10 co-occurrence matrix over the pixels with a valid
    reference label (pass the selected entries to align on a subset) and
    solves the assignment on negated counts, so one minimizing kernel
    serves both orientations. The returned map is injective.
    """
    cluster_labels = np.asarray(cluster_labels).ravel()
    reference = np.asarray(reference).ravel()
    if cluster_labels.shape != reference.shape:
        raise ValueError("cluster_labels and reference must have equal length")
    keep = reference != 0
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


def default_k(labels: np.ndarray) -> int:
    """Default cluster count: the number of distinct class ids among the
    labeled (non-zero) pixels of the training reference."""
    labels = np.asarray(labels).ravel()
    k = len(np.unique(labels[labels != 0]))
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


def _squared_norms(X: np.ndarray, center: np.ndarray | None = None) -> np.ndarray:
    """((X - center) ** 2).sum(axis=1), or (X * X).sum(axis=1) without a
    center, over the row_blocks of X: each row's sum is the same, and the
    scratch is one block, not an array the size of X."""
    out = np.empty(len(X))
    for rows in row_blocks(len(X), ROW_BLOCK):
        block = X[rows] * X[rows] if center is None else (X[rows] - center) ** 2
        block.sum(axis=1, out=out[rows])
    return out


def _nearest(
    X: np.ndarray,
    centroids: np.ndarray,
    x2: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked nearest-centroid search; ties break to the lowest cluster id.

    Squared distances are (|x|² - 2x·c) + |c|², clamped at 0, evaluated in
    place in the one rows×k product of each chunk. The product is
    X·(2C)ᵀ, which equals (2X)·Cᵀ bit for bit (doubling is exact), so no
    doubled copy of X is made. ``x2`` is ``_squared_norms(X)``, which
    ``kmeans_fit`` shares between seedings. Each row's distance is picked
    at its argmin: ``dist.min(axis=1)`` has the same bits but took about
    7x as long over k = 9 columns. ``out``, an int32 and a float64 vector
    of len(X), receives the ids and distances in place of new ones.
    """
    n = X.shape[0]
    labels, d2 = out or (np.empty(n, dtype=np.int32), np.empty(n))
    c2 = (centroids * centroids).sum(axis=1)
    twice = 2.0 * centroids.T
    for start in range(0, n, _ASSIGN_CHUNK):
        rows = slice(start, start + _ASSIGN_CHUNK)
        dist = X[rows] @ twice
        np.subtract(x2[rows, None], dist, out=dist)
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
    d2 = _squared_norms(X, centroids[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = X[idx]
        np.minimum(d2, _squared_norms(X, centroids[j]), out=d2)
    return centroids


def _lloyd(X, centroids, max_iter, x2):
    """Lloyd iterations from the given seeding; returns (centroids, inertia, history).

    ``x2`` is ``_squared_norms(X)``. Every pass writes its cluster ids
    and distances into the same two vectors; the last pass's ids sit in a
    third, and the two id vectors swap after each pass. Cluster sums come
    from one weighted bincount per feature, which adds each cluster's rows
    in row order, as a sequential loop would.
    """
    n, k = len(X), centroids.shape[0]
    history: list[float] = []
    labels, ids = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    d2 = np.empty(n)
    for _ in range(max_iter):
        _nearest(X, centroids, x2, out=(ids, d2))
        inertia = float(d2.sum())
        if history and inertia > history[-1] * (1.0 + _INERTIA_SLACK) + _INERTIA_SLACK:
            raise AssertionError(
                f"Lloyd inertia increased: {history[-1]!r} -> {inertia!r}"
            )
        history.append(inertia)
        if len(history) > 1 and np.array_equal(ids, labels):
            break
        labels, ids = ids, labels
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
            # currently farthest from its own centroid. The next pass
            # rewrites d2, so it is marked in place.
            for cluster in np.flatnonzero(empty):
                p = int(d2.argmax())
                centroids[cluster] = X[p]
                d2[p] = -1.0
    return centroids, history[-1], tuple(history)


def _has_distinct_rows(X: np.ndarray, k: int) -> bool:
    """Whether X has at least k distinct rows, as np.unique(X, axis=0)
    counts them (-0.0 equals 0.0). Prefixes of max(k, 4096) rows, then
    twice as many, and so on are checked until one has k: exact, and
    usually one small sort instead of a sorted copy of X."""
    m = max(k, _DISTINCT_PREFIX)
    while True:
        if len(np.unique(X[:m], axis=0)) >= k:
            return True
        if m >= len(X):
            return False
        m *= 2


def check_k(k: int) -> None:
    """kmeans_fit's cluster-count rule, callable before any data is read."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def kmeans_fit(
    features: Features,
    k: int,
    n_init: int = 10,
    max_iter: int = 300,
    seed: int = 0,
) -> KMeansModel:
    """Best of n_init independent k-means++ seedings, each Lloyd-fitted for up
    to max_iter iterations; the lowest-inertia run wins (ties to the earliest).

    Operates on the valid rows of the feature matrix. Raises if a row is not
    finite or the data has fewer than k distinct rows. The rows are read
    into one float64 copy, which every pass reads; the squared row norms of
    the distance formula are computed once here and shared by every seeding.
    """
    check_k(k)
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    X = training_rows(features).all()
    if not _has_distinct_rows(X, k):
        raise ValueError(f"fewer than k={k} distinct valid feature rows")

    x2 = _squared_norms(X)
    streams = np.random.SeedSequence(seed).spawn(n_init)
    best: tuple[float, int, np.ndarray, tuple[float, ...]] | None = None
    for run, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        centroids = _kmeanspp_init(X, k, rng)
        centroids, inertia, history = _lloyd(X, centroids, max_iter, x2)
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


def kmeans_cluster_ids(model: KMeansModel, features: Features) -> np.ndarray:
    """Raw nearest-centroid cluster ids for every row (no class mapping)."""
    X = feature_rows(features, model.d)
    labels, _ = _nearest(X, model.centroids, _squared_norms(X))
    return labels


def kmeans_predict(model: KMeansModel, features: Features) -> np.ndarray:
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
    max_depth: int
    n_features: int
    seed: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def d(self) -> int:
        return self.n_features

    @cached_property
    def nodes(self) -> NodeTable:
        """The trees stacked into one table, built on first use. The model
        is frozen, so the table cannot go stale."""
        return _stack_trees(self.trees)


# Cuts whose Gini proxy lies within this relative distance of the best proxy
# are re-scored with the float formula that decides the split. Let N be the
# node's total bootstrap weight, N_L and N_R the weights on either side of
# a cut, and L_c, R_c the weights of class c there. The proxy
# P = sum_c L_c^2/N_L + sum_c R_c^2/N_R is exact up to one rounding per
# term (relative error < 1e-15), and the float weighted Gini equals
# (N - P)/N up to an absolute error below 1e-14 (a few roundings of values
# <= 1 over 10 classes). A cut outside the window has an exact weighted Gini
# at least 1e-9 * P/N >= 1e-10 above the best (P >= N/10), which no float
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
    """Stable argsort of non-negative uint16 or int32 ranks.

    numpy sorts 16-bit integers stably with a radix sort: uint16 ranks are
    sorted as they are, int32 ranks by their low 16 bits, then stably by
    the high 16 bits when any are set.
    """
    order = np.argsort(ranks.astype(np.uint16, copy=False), kind="stable")
    if ranks.dtype != np.uint16 and ranks.max() >> 16:
        high = (ranks >> 16).astype(np.uint16).take(order)
        order = order.take(np.argsort(high, kind="stable"))
    return order


def _presorted_split(ranks, labels, weights, counts):
    """Lowest weighted Gini cut of one node over its drawn features.

    Row r of ``ranks``, ``labels`` and ``weights`` holds the value ranks,
    class ids and bootstrap multiplicities of the node's distinct rows,
    sorted stably by drawn feature r; ``counts`` is the node's class
    histogram, weighted by multiplicity. Cuts lie between distinct
    neighbors, and each is scored as if every row appeared as often as it
    was drawn. They are ranked by an integer-count proxy and the near-best
    ones re-scored in float; ties go to the first cut, then the first drawn
    feature. Returns (r, i), a cut after sorted element i of row r, or None
    when every drawn feature is constant.
    """
    m, k = ranks.shape
    if (ranks[:, 0] == ranks[:, -1]).all():  # each row is sorted
        return None
    # Moving an element of class c and weight w to the left side raises
    # sum_c L_c^2 by (2*W + w)*w, where W is the weight of the earlier
    # elements of class c in its row (found by a stable sort of the row by
    # class), and raises sum_c T_c L_c by T_c*w. With T the node's class
    # counts, sum_c R_c^2 = sum_c T_c^2 - 2 sum_c T_c L_c + sum_c L_c^2.
    # The rows are indexed flat, element i of row r at r*k + i: numpy's
    # 1-D take and scatter are faster than its 2-D fancy indexing.
    by_class = np.argsort(labels, axis=1, kind="stable").astype(np.int32)
    class_sorted = labels[0].take(by_class[0])  # the same in every row
    by_class += np.arange(0, m * k, k, dtype=np.int32)[:, None]
    w = weights.take(by_class)
    starts = np.cumsum(counts) - counts
    before = np.cumsum(w, axis=1, dtype=np.int32)
    before -= w
    before -= starts.astype(np.int32).take(class_sorted)
    gain = np.add(before, w, dtype=np.int64)
    gain += before
    gain *= w
    del before, w
    left_sq = np.empty(m * k, dtype=np.int64)
    left_sq[by_class] = gain
    del gain, by_class
    left_sq = left_sq.reshape(m, k)
    np.cumsum(left_sq, axis=1, out=left_sq)
    right_sq = counts.take(labels)
    right_sq *= weights
    np.cumsum(right_sq, axis=1, out=right_sq)
    right_sq *= -2
    right_sq += left_sq
    right_sq += int(counts @ counts)
    node_weight = int(counts.sum())
    side_n = np.cumsum(weights[:, :-1], axis=1, dtype=np.int32)
    proxy = left_sq[:, :-1] / side_n
    del left_sq
    np.subtract(node_weight, side_n, out=side_n)
    right = right_sq[:, :-1] / side_n
    del right_sq, side_n
    proxy += right
    del right
    proxy[ranks[:, 1:] == ranks[:, :-1]] = -1.0
    best = proxy.max()
    cand = np.flatnonzero(proxy >= best - best * _PROXY_RTOL)
    if len(cand) > 1:
        # Left class weights of each candidate, one drawn feature at a
        # time: its elements up to its last candidate are binned by (the
        # first candidate at or after them, class) and the bins summed
        # over candidates. Sums of whole weights are exact in float64.
        cand_row, cand_pos = np.divmod(cand, k - 1)
        left_cnt = np.empty((len(cand), len(counts)))
        for r in set(cand_row.tolist()):  # np.unique would import numpy.ma
            at = np.flatnonzero(cand_row == r)
            pos = cand_pos[at]
            upto = int(pos[-1]) + 1
            key = np.searchsorted(pos, np.arange(upto)) * len(counts)
            key += labels[r, :upto]
            binned = np.bincount(key, weights[r, :upto], len(pos) * len(counts))
            left_cnt[at] = np.cumsum(binned.reshape(len(pos), -1), axis=0)
        total = counts[1:].astype(np.float64)
        cand = cand[[_weighted_gini(left_cnt[:, 1:], total).argmin()]]
    return divmod(int(cand[0]), k - 1)


def _grow_tree(rows: TrainingRows, ranks, y, max_depth, m_try, rng):
    """Grow one tree on a bootstrap sample of the training rows, drawn
    first from ``rng``.

    Training row i has class ``y[i]`` and value rank ``ranks[f, i]`` in
    feature f. The tree holds each drawn row once, weighted by how often
    the sample drew it: every count is the one the full sample gives, so
    the tree is the one grown on the full sample. Every feature is sorted
    once, stably, so each position list below is ordered by (value, row);
    a split partitions the lists stably, so a node sees the order a stable
    sort of its own rows gives. Position p stands for training row
    ``distinct[p]``, so a node reads its drawn features' ranks from the
    fit's one table at ``f*n + distinct[p]``. An explicit stack visits
    nodes in pre-order: numbering and generator draws follow the node
    order, and depth is not bounded by recursion.
    """
    n = len(rows)
    mult = np.bincount(rng.integers(0, n, size=n), minlength=n)
    distinct = np.flatnonzero(mult)
    weights = mult.take(distinct).astype(np.int32)
    del mult
    labels = y.take(distinct)
    d, k = len(ranks), len(distinct)
    orders = np.empty((d, k), dtype=np.int32)
    for f in range(d):
        orders[f] = _stable_order(ranks[f].take(distinct))
    goes_left = np.zeros(k, dtype=bool)

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

        # float sums of whole weights, exact far beyond any row count
        counts = np.bincount(
            labels.take(orders[0]),
            weights=weights.take(orders[0]),
            minlength=N_SIMPLIFIED_CLASSES + 1,
        ).astype(np.int64)
        split = None
        if depth < max_depth and np.count_nonzero(counts) > 1:
            drawn = rng.choice(d, size=m_try, replace=False)
            sub = orders[drawn]
            split = _presorted_split(
                ranks.take(distinct.take(sub) + n * drawn[:, None]),
                labels.take(sub),
                weights.take(sub),
                counts,
            )
        if split is None:
            probs[node] = _leaf_probs(counts)
            continue
        row, pos = split
        f = int(drawn[row])
        lo, hi = rows.column(f, distinct.take(sub[row, pos : pos + 2]))
        thr = 0.5 * (lo + hi)
        if thr >= hi:  # rounding merged the midpoint into the upper value
            thr = lo
        feature[node] = f
        threshold[node] = float(thr)
        to_left = sub[row, : pos + 1]
        goes_left[to_left] = True
        # Flat boolean selection keeps each row's order and is several
        # times faster than indexing the 2-D array with a 2-D mask.
        side = goes_left.take(orders).ravel()
        goes_left[to_left] = False
        flat = orders.ravel()
        stack.append((flat[~side].reshape(d, -1), depth + 1, node, right))
        stack.append((flat[side].reshape(d, pos + 1), depth + 1, node, left))
        del orders, sub, to_left, side, flat  # freed before the children grow

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
    features: Features,
    labels: np.ndarray,
    n_trees: int = 100,
    max_depth: int = 10,
    seed: int = 0,
) -> ForestModel:
    """Train a Gini random forest on the valid, labeled pixels.

    Each tree sees a same-size bootstrap sample and draws ceil(sqrt(d))
    candidate features per node from its own derived generator, so results
    do not depend on any execution order. A tree keeps each row its sample
    drew once, weighted by the number of draws: about 63% as many rows as
    the sample, with the same class counts and the same trees. Split search
    is exact: each tree sorts every feature once and partitions the sorted
    orders at each split, and a node takes the lowest weighted Gini cut over
    its drawn features (first cut, then first drawn feature, on ties). The
    threshold is the midpoint between the two values the cut separates. A
    node becomes a leaf at max_depth, when it is pure, or when its drawn
    features are constant.
    """
    check_forest_size(n_trees, max_depth)
    rows = training_rows(features, labels)
    y = rows.select(np.asarray(labels).ravel()).astype(np.uint8)
    # Equal values share a rank, so sorting ranks sorts values. A rank is
    # below n, so ranks fit 16 bits up to 65,536 rows; either width sorts
    # by 16-bit radix passes.
    n, d = len(rows), rows.d
    ranks = np.empty((d, n), dtype=np.uint16 if n <= 1 << 16 else np.int32)
    for f in range(d):
        ranks[f] = np.unique(rows.column(f), return_inverse=True)[1]

    m_try = math.ceil(math.sqrt(d))
    trees = []
    for stream in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(stream)
        trees.append(_grow_tree(rows, ranks, y, max_depth, m_try, rng))
    return ForestModel(trees=tuple(trees), max_depth=max_depth, n_features=d, seed=seed)


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


def rf_predict_proba(model: ForestModel, features: Features) -> np.ndarray:
    """Mean leaf probability vector across the ensemble, summed in tree order.

    Each row block steps through every tree at once, its routing state
    in cache: one gather finds each (row, tree) pair's feature value and
    one picks its next node.
    """
    X = feature_rows(features, model.d)
    table = model.nodes
    n, d = X.shape
    acc = np.zeros((n, N_SIMPLIFIED_CLASSES), dtype=np.float64)
    for rows in row_blocks(n, ROW_BLOCK):
        m = rows.stop - rows.start
        flat = np.ascontiguousarray(X[rows]).ravel()
        row_base = np.arange(0, m * d, d)[:, None]
        node = np.tile(table.roots, (m, 1))
        for _ in range(table.depth):
            vals = flat.take(row_base + table.feature.take(node))
            node = table.child.take(2 * node + (vals <= table.threshold.take(node)))
        out = acc[rows]
        for leaves in node.T:
            out += table.probs.take(leaves, axis=0)
    acc /= model.n_trees  # in place: no second n×10 array per call
    return acc


def rf_predict(model: ForestModel, features: Features) -> np.ndarray:
    """Argmax of the averaged leaf probabilities; ties break to the lowest id."""
    proba = rf_predict_proba(model, features)
    return (proba.argmax(axis=1) + 1).astype(np.uint8)
