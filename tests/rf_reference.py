"""Reference random-forest grower for tests.

It argsorts each drawn feature at every node, scores every cut with a float
one-hot cumulative sum and recurses: slow, but plain enough to check by eye.
``reference_trees`` must produce the same trees, field for field, as
``wlcbench.shallow.rf_fit`` on the same training rows and seed.
"""

import math

import numpy as np

K_CLASSES = 10


def _leaf_probs(y):
    counts = np.bincount(y, minlength=K_CLASSES + 1)[1:]
    return counts / counts.sum()


def _best_split(X, y, idx, feature_order):
    n = len(idx)
    best = None  # (gini, feature_rank, feature, threshold)
    y_node = y[idx]
    for rank, f in enumerate(feature_order):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        if sv[0] == sv[-1]:
            continue
        sy = y_node[order]
        onehot = np.zeros((n, K_CLASSES), dtype=np.float64)
        onehot[np.arange(n), sy - 1] = 1.0
        cum = onehot.cumsum(axis=0)
        left_n = np.arange(1, n, dtype=np.float64)
        left_cnt = cum[:-1]
        right_cnt = cum[-1] - left_cnt
        right_n = n - left_n
        gini_left = 1.0 - ((left_cnt / left_n[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right_cnt / right_n[:, None]) ** 2).sum(axis=1)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        cut = sv[1:] != sv[:-1]
        weighted = np.where(cut, weighted, np.inf)
        pos = int(weighted.argmin())
        if best is None or weighted[pos] < best[0]:
            thr = 0.5 * (sv[pos] + sv[pos + 1])
            if thr >= sv[pos + 1]:
                thr = sv[pos]
            best = (float(weighted[pos]), rank, f, float(thr))
    if best is None:
        return None
    return best[2], best[3]


def _grow_tree(X, y, idx, max_depth, m_try, rng):
    feature, threshold, left, right, probs = [], [], [], [], []
    d = X.shape[1]
    zero = np.zeros(K_CLASSES)

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        probs.append(zero)
        return len(feature) - 1

    def build(idx, depth, node):
        y_node = y[idx]
        pure = y_node[0] == y_node[-1] and (y_node == y_node[0]).all()
        if depth >= max_depth or len(idx) < 2 or pure:
            probs[node] = _leaf_probs(y_node)
            return
        order = rng.choice(d, size=m_try, replace=False)
        split = _best_split(X, y, idx, order)
        if split is None:
            probs[node] = _leaf_probs(y_node)
            return
        f, thr = split
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        build(idx[go_left], depth + 1, left[node])
        right[node] = new_node()
        build(idx[~go_left], depth + 1, right[node])

    build(idx, 0, new_node())
    return (
        np.array(feature, dtype=np.int16),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.vstack(probs),
    )


def reference_trees(X, y, n_trees, max_depth, seed):
    """(feature, threshold, left, right, probs) of each tree grown on rows
    X (N×d float64) with labels y (1..10), as ``rf_fit`` seeds them."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    n = len(X)
    m_try = math.ceil(math.sqrt(X.shape[1]))
    trees = []
    for stream in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(stream)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, y, boot, max_depth, m_try, rng))
    return trees
