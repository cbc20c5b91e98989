"""Reference logistic-regression fit for tests.

Every step goes through the full masked cross-entropy with its gradient:
each mini-batch, and after each epoch the loss over all training rows at
once, whose gradient is thrown away. Slow and memory-hungry, but plain
enough to check by eye. ``reference_fit`` must produce the same weights,
bias and curves, bit for bit, as ``wlcbench.maskedlr.logreg_fit`` on the
same inputs and config.
"""

import numpy as np

from wlcbench.maskedlr import _argmax_class, _mean_class_accuracy
from wlcbench.models import LogRegModel
from wlcbench.preprocess import FeatureMatrix, are_class_ids, check_width

K_CLASSES = 10


def training_rows(features, labels):
    """(X, rows): every row of features as float64 and the ascending ids of
    the valid, labeled rows, with the fits' refusals."""
    is_matrix = isinstance(features, FeatureMatrix)
    X = features.values if is_matrix else np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected N×d features with d >= 1, got shape {X.shape}")
    keep = features.valid_mask.copy() if is_matrix else np.ones(len(X), dtype=bool)
    labels = np.asarray(labels).ravel()
    if len(labels) != len(X):
        raise ValueError(f"labels length {len(labels)} != feature rows {len(X)}")
    if not are_class_ids(labels, 0):
        raise ValueError(f"labels must be 0 (no-data) or simplified class ids 1..{K_CLASSES}")
    keep &= labels != 0
    rows = np.flatnonzero(keep)
    if not len(rows):
        raise ValueError("no valid, masked-in, labeled rows to train on")
    if not np.isfinite(X[rows]).all():
        raise ValueError("training features must be finite (no NaN or inf)")
    return X, rows


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_masked_ce_loss(logits, labels, mask):
    """Masked mean cross-entropy over logits and its N×K logit gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    m = int(mask.sum())
    y = labels[mask].astype(np.int64)
    logp = _log_softmax(logits[mask])
    rows = np.arange(m)
    loss = float(-logp[rows, y - 1].sum() / m)
    grad = np.zeros_like(logits)
    delta = np.exp(logp)
    delta[rows, y - 1] -= 1.0
    grad[mask] = delta / m
    return loss, grad


def reference_fit(features, labels, config, holdout=None):
    X, train_idx = training_rows(features, labels)
    labels = np.asarray(labels).ravel()
    d = X.shape[1]
    W = np.zeros((d, K_CLASSES), dtype=np.float64)
    b = np.zeros(K_CLASSES, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    all_in = np.ones(len(train_idx), dtype=bool)

    ho = None
    if holdout is not None:
        ho_features, ho_labels = holdout
        ho_X, ho_rows = training_rows(ho_features, ho_labels)
        check_width(ho_X.shape[1], d)
        ho_X = ho_X[ho_rows]
        ho = (ho_X, np.asarray(ho_labels).ravel()[ho_rows].astype(np.int64))

    loss_curve = []
    holdout_curve = []
    best = None
    for epoch in range(config.epochs):
        order = rng.permutation(train_idx)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            ones = all_in[: len(batch)]
            _, grad = reference_masked_ce_loss(X[batch] @ W + b, labels[batch], ones)
            W -= config.learning_rate * (X[batch].T @ grad)
            b -= config.learning_rate * grad.sum(axis=0)
        loss, _ = reference_masked_ce_loss(X[train_idx] @ W + b, labels[train_idx], all_in)
        loss_curve.append(loss)
        if ho is not None:
            aa = _mean_class_accuracy(ho[1], _argmax_class(ho[0] @ W + b))
            holdout_curve.append(aa)
            if best is None or aa > best[0]:
                best = (aa, epoch, W.copy(), b.copy())

    best_epoch = None
    if best is not None:
        _, best_epoch, W, b = best
    return LogRegModel(
        weights=W,
        bias=b,
        config=config,
        loss_curve=tuple(loss_curve),
        holdout_curve=tuple(holdout_curve),
        best_epoch=best_epoch,
    )
