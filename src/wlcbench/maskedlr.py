"""Multinomial logistic regression trained with a masked cross-entropy loss.

The mask is part of the objective, not a preprocessing convenience: excluded
pixels contribute exactly zero to both the loss and the gradient, so class
noise concentrated in a known-unreliable label (Savanna by default upstream)
never pulls on the weights. The loss averages over the masked-in pixel count
M, not the batch size.

The model keeps all 10 output classes so weights, confusion matrices and
model files share one class axis; Savanna is simply never emitted by default
at predict time.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .dataset import N_SIMPLIFIED_CLASSES
from .labels import SAVANNA
from .models import LogRegConfig, LogRegModel
from .preprocess import (
    ROW_BLOCK,
    Features,
    TrainingRows,
    are_class_ids,
    check_width,
    feature_rows,
    index_dtype,
    row_blocks,
    training_rows,
)


def _log_softmax(logits: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log softmax, computed in place of logits; ``spare`` (same
    shape) takes the exponentials when given."""
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=logits)
    spare = np.exp(logits, out=spare)
    logits -= np.log(spare.sum(axis=1, keepdims=True))
    return logits


def _ce_terms(logp: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Each row's log-probability of its label; y0 holds 0-based class slots."""
    return logp[np.arange(len(y0)), y0]


def _ce_grad(logp: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Logit gradient of the mean cross-entropy over these M rows,
    (softmax - onehot)/M, computed in place of logp."""
    delta = np.exp(logp, out=logp)
    delta[np.arange(len(y0)), y0] -= 1.0
    delta /= len(y0)
    return delta


class _Blocks:
    """float64 blocks reused by every mini-batch and loss chunk of a fit:
    the rows read, their logits and the logits' exponentials. The same
    operations run in the same order as on new arrays, so the bits are
    the same, and the fit's time does not depend on what the heap holds."""

    def __init__(self, m: int, d: int):
        self.x = np.empty((m, d))
        self.logits = np.empty((m, N_SIMPLIFIED_CLASSES))
        self.spare = np.empty((m, N_SIMPLIFIED_CLASSES))

    def log_probs(
        self, rows: TrainingRows, index: slice | np.ndarray, m: int, W: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The m rows at ``index`` and their log-probabilities under (W, b)."""
        X = rows.read(index, self.x[:m])
        logits = np.matmul(X, W, out=self.logits[:m])
        logits += b
        return X, _log_softmax(logits, self.spare[:m])


def masked_ce_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Masked mean cross-entropy over logits and its exact logit gradient.

    loss = -(1/M) sum over mask-true rows of log softmax(logits)[label - 1],
    M = number of mask-true rows. The returned N×K gradient is
    (softmax - onehot)/M on masked-in rows and exactly zero elsewhere.
    Raises if M == 0.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    if logits.ndim != 2 or logits.shape[1] != N_SIMPLIFIED_CLASSES:
        raise ValueError(f"expected N×{N_SIMPLIFIED_CLASSES} logits, got shape {logits.shape}")
    if len(labels) != len(logits) or len(mask) != len(logits):
        raise ValueError("logits, labels and mask must agree in length")
    m = int(mask.sum())
    if m == 0:
        raise ValueError("mask selects no pixels; loss undefined for M == 0")
    y = labels[mask]
    if not are_class_ids(y, 1):
        raise ValueError("masked-in labels must be class ids 1..10")
    y0 = y.astype(np.int64) - 1
    logp = _log_softmax(logits[mask])
    loss = float(-_ce_terms(logp, y0).sum() / m)
    grad = np.zeros_like(logits)
    grad[mask] = _ce_grad(logp, y0)
    return loss, grad


def _streamed_sum(n: int, parts: Iterator[np.ndarray]) -> float:
    """np.sum of the concatenated float64 vectors ``parts`` (n values in
    all) bit for bit, taking each part as it arrives. numpy sums pairwise,
    splitting a run of m > 128 values after m//2 - (m//2) % 8; this walks
    the same split, hands each run inside the part in hand to np.sum, and
    gathers a run of at most 128 values that spans parts first. (np.sum
    starts from 0.0, which turns only a zero sum's -0.0 into 0.0.)"""
    parts = iter(parts)
    part, at = np.empty(0), 0  # the part in hand and the index of its first value

    def run(start: int, m: int):
        nonlocal part, at
        while start >= at + len(part):
            at += len(part)
            part = next(parts)
        if start + m <= at + len(part):
            return np.sum(part[start - at : start - at + m])
        if m > 128:
            h = m // 2 - m // 2 % 8
            return run(start, h) + run(start + h, m - h)
        carry = [part[start - at :]]
        need = m - len(carry[0])
        while need > 0:
            at += len(part)
            part = next(parts)
            carry.append(part[:need])
            need -= len(carry[-1])
        return np.sum(np.concatenate(carry))

    return float(run(0, n))


def _mean_ce(
    rows: TrainingRows, y0: np.ndarray, W: np.ndarray, b: np.ndarray, blocks: _Blocks | None = None
) -> float:
    """Mean cross-entropy of the model (W, b) over the training rows, whose
    0-based label slots are y0, with no gradient. The logits and the rows'
    terms are formed over the row_blocks of ROW_BLOCK rows, and the terms
    are summed as each block arrives: the same values and the same sum as
    one full-data pass, with no vector of n terms."""
    n = len(rows)
    if blocks is None:
        blocks = _Blocks(min(n, ROW_BLOCK + 1), rows.d)

    def terms():
        for block in row_blocks(n, ROW_BLOCK):
            _, logp = blocks.log_probs(rows, block, block.stop - block.start, W, b)
            yield _ce_terms(logp, y0[block])

    return -_streamed_sum(n, terms()) / n


def logreg_fit(
    features: Features,
    labels: np.ndarray,
    config: LogRegConfig = LogRegConfig(),
    holdout: tuple[Features, np.ndarray] | None = None,
) -> LogRegModel:
    """Mini-batch gradient descent from zero weights (the objective is convex,
    so the start point only affects the path, not the reachable optimum).

    The effective training mask is the feature validity mask AND label != 0.
    Rows are reshuffled each epoch from one derived generator. The recorded
    loss curve holds the full-data masked loss after each epoch; that pass
    computes no gradient and holds the logits of at most ROW_BLOCK + 1
    rows at a time. When a holdout (features, labels) pair is given, it
    passes the same checks as the training input plus the model width,
    per-class mean accuracy on its valid, labeled rows is tracked after each
    epoch and the weights snapshot from the best epoch (earliest on ties) is
    returned.
    """
    rows = training_rows(features, labels)
    # 0-based class slots of the selected rows, all labeled 1..10
    y0 = rows.select(np.asarray(labels).ravel()).astype(np.int8)
    y0 -= 1
    n, d = len(rows), rows.d
    W = np.zeros((d, N_SIMPLIFIED_CLASSES), dtype=np.float64)
    b = np.zeros(N_SIMPLIFIED_CLASSES, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    ho = None
    if holdout is not None:
        ho_features, ho_labels = holdout
        try:
            ho_rows = training_rows(ho_features, ho_labels)
            check_width(ho_rows.d, d)
        except ValueError as exc:
            raise ValueError(f"holdout: {exc}") from None
        ho = (ho_rows.all(), ho_rows.select(np.asarray(ho_labels).ravel()).astype(np.int64))

    blocks = _Blocks(max(min(config.batch_size, n), min(ROW_BLOCK + 1, n)), d)
    loss_curve: list[float] = []
    holdout_curve: list[float] = []
    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for epoch in range(config.epochs):
        order = np.arange(n, dtype=index_dtype(n))
        rng.shuffle(order)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            Xb, logp = blocks.log_probs(rows, batch, len(batch), W, b)
            grad = _ce_grad(logp, y0[batch])
            W -= config.learning_rate * (Xb.T @ grad)
            b -= config.learning_rate * grad.sum(axis=0)
        del order, batch  # not held through the loss pass
        loss = _mean_ce(rows, y0, W, b, blocks)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"training diverged at epoch {epoch}: loss={loss!r}; lower the learning rate"
            )
        loss_curve.append(loss)
        if ho is not None:
            pred = _argmax_class(ho[0] @ W + b)
            aa = _mean_class_accuracy(ho[1], pred)
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


def _argmax_class(logits: np.ndarray) -> np.ndarray:
    return (logits.argmax(axis=1) + 1).astype(np.uint8)


def _mean_class_accuracy(reference: np.ndarray, prediction: np.ndarray) -> float:
    """Mean per-class recall over the classes present in the reference.
    Model-selection signal only; final numbers come from the metrics module."""
    accs = []
    for cls in np.flatnonzero(np.bincount(reference)):  # np.unique would import numpy.ma
        at = reference == cls
        accs.append(float((prediction[at] == cls).mean()))
    return float(np.mean(accs))


def logreg_predict(
    model: LogRegModel,
    features: Features,
    exclude_classes: frozenset[int] = frozenset({SAVANNA}),
) -> np.ndarray:
    """Highest-logit class with lowest-id tie-break, skipping excluded ids
    (default: Savanna, which the mask withheld from training so its scores
    are meaningless)."""
    if len(exclude_classes) >= N_SIMPLIFIED_CLASSES:
        raise ValueError("cannot exclude every class")
    logits = feature_rows(features, model.d) @ model.weights + model.bias
    for cls in exclude_classes:
        if not 1 <= cls <= N_SIMPLIFIED_CLASSES:
            raise ValueError(f"excluded class id {cls} outside 1..{N_SIMPLIFIED_CLASSES}")
        logits[:, cls - 1] = -np.inf
    return _argmax_class(logits)
