"""Reference k-means Lloyd fit for tests.

It seeds from whole-data distance arrays, rebuilds the row norms and
``2.0 * X`` on every assignment pass, forms each distance block through
fresh temporaries and sums clusters with ``np.add.at``: slow, but plain
enough to check by eye. ``reference_kmeans``
must return the same centroids, inertia and inertia history, bit for bit, as
``wlcbench.shallow.kmeans_fit`` on the same rows and seed.
"""

import numpy as np

from wlcbench.shallow import _INERTIA_SLACK

ASSIGN_CHUNK = 262144


def reference_kmeanspp_init(X, k, rng):
    """D^2-weighted seeding over whole-data distance arrays."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
        centroids[j] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def reference_nearest(X, centroids):
    """Chunked nearest-centroid search; ties break to the lowest cluster id.

    The chunk size is part of the result: BLAS may order a one-row product's
    sums differently from a many-row one.
    """
    chunk = ASSIGN_CHUNK
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int32)
    d2 = np.empty(n, dtype=np.float64)
    c2 = (centroids * centroids).sum(axis=1)
    for start in range(0, n, chunk):
        block = X[start : start + chunk]
        dist = (block * block).sum(axis=1)[:, None] - 2.0 * block @ centroids.T + c2
        np.maximum(dist, 0.0, out=dist)
        idx = dist.argmin(axis=1)
        labels[start : start + chunk] = idx
        d2[start : start + chunk] = dist[np.arange(len(block)), idx]
    return labels, d2


def reference_lloyd(X, centroids, max_iter):
    """Lloyd iterations from the given seeding; returns (centroids, inertia, history)."""
    k = centroids.shape[0]
    history = []
    labels = None
    for _ in range(max_iter):
        new_labels, d2 = reference_nearest(X, centroids)
        inertia = float(d2.sum())
        if history and inertia > history[-1] * (1.0 + _INERTIA_SLACK) + _INERTIA_SLACK:
            raise AssertionError(
                f"Lloyd inertia increased: {history[-1]!r} -> {inertia!r}"
            )
        history.append(inertia)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, X)
        sizes = np.bincount(labels, minlength=k).astype(np.float64)
        empty = sizes == 0
        nonzero = ~empty
        centroids = centroids.copy()
        centroids[nonzero] = sums[nonzero] / sizes[nonzero, None]
        if empty.any():
            far = d2.copy()
            for cluster in np.flatnonzero(empty):
                p = int(far.argmax())
                centroids[cluster] = X[p]
                far[p] = -1.0
    return centroids, history[-1], tuple(history)


def reference_kmeans(X, k, n_init, max_iter, seed):
    """Best of n_init k-means++ seedings (ties to the earliest); returns
    (centroids, inertia, history) of the winner."""
    X = np.asarray(X, dtype=np.float64)
    best = None
    for stream in np.random.SeedSequence(seed).spawn(n_init):
        rng = np.random.default_rng(stream)
        fit = reference_lloyd(X, reference_kmeanspp_init(X, k, rng), max_iter)
        if best is None or fit[1] < best[1]:
            best = fit
    return best
