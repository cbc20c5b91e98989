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

from dataclasses import dataclass, field

import numpy as np

from .dataset import N_SIMPLIFIED_CLASSES
from .labels import SAVANNA
from .preprocess import FeatureMatrix, feature_rows, training_rows


@dataclass(frozen=True)
class LogRegConfig:
    learning_rate: float = 0.1
    batch_size: int = 4096
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class LogRegModel:
    weights: np.ndarray      # d×10 float64
    bias: np.ndarray         # 10 float64
    config: LogRegConfig
    loss_curve: tuple[float, ...] = field(default_factory=tuple)
    holdout_curve: tuple[float, ...] = field(default_factory=tuple)
    best_epoch: int | None = None

    @property
    def d(self) -> int:
        return self.weights.shape[0]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


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
    y = labels[mask].astype(np.int64)
    if (y < 1).any() or (y > N_SIMPLIFIED_CLASSES).any():
        raise ValueError("masked-in labels must be class ids 1..10")
    logp = _log_softmax(logits[mask])
    rows = np.arange(m)
    loss = float(-logp[rows, y - 1].sum() / m)
    grad = np.zeros_like(logits)
    delta = np.exp(logp)
    delta[rows, y - 1] -= 1.0
    grad[mask] = delta / m
    return loss, grad


def logreg_fit(
    features: FeatureMatrix | np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
    config: LogRegConfig = LogRegConfig(),
    holdout: tuple[np.ndarray, np.ndarray] | None = None,
) -> LogRegModel:
    """Mini-batch gradient descent from zero weights (the objective is convex,
    so the start point only affects the path, not the reachable optimum).

    The effective training mask is the feature validity mask AND the caller's
    mask AND label != 0. Rows are reshuffled each epoch from one derived
    generator. The recorded loss curve holds the full-data masked loss after
    each epoch. When a holdout (features, labels) pair is given, per-class
    mean accuracy on its labeled pixels is tracked after each epoch and the
    weights snapshot from the best epoch (earliest on ties) is returned.
    """
    X, train_idx = training_rows(features, labels, mask)
    labels = np.asarray(labels).ravel()
    d = X.shape[1]
    W = np.zeros((d, N_SIMPLIFIED_CLASSES), dtype=np.float64)
    b = np.zeros(N_SIMPLIFIED_CLASSES, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    all_in = np.ones(len(train_idx), dtype=bool)

    ho = None
    if holdout is not None:
        ho_X = np.asarray(holdout[0], dtype=np.float64)
        ho_y = np.asarray(holdout[1]).ravel()
        keep = ho_y != 0
        if not keep.any():
            raise ValueError("holdout has no labeled pixels")
        ho = (ho_X[keep], ho_y[keep].astype(np.int64))

    loss_curve: list[float] = []
    holdout_curve: list[float] = []
    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for epoch in range(config.epochs):
        order = rng.permutation(train_idx)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            ones = all_in[: len(batch)]
            _, grad = masked_ce_loss(X[batch] @ W + b, labels[batch], ones)
            W -= config.learning_rate * (X[batch].T @ grad)
            b -= config.learning_rate * grad.sum(axis=0)
        loss, _ = masked_ce_loss(X[train_idx] @ W + b, labels[train_idx], all_in)
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
    for cls in np.unique(reference):
        at = reference == cls
        accs.append(float((prediction[at] == cls).mean()))
    return float(np.mean(accs))


def logreg_predict_logits(model: LogRegModel, features: FeatureMatrix | np.ndarray) -> np.ndarray:
    return feature_rows(features, model.d) @ model.weights + model.bias


def logreg_predict(
    model: LogRegModel,
    features: FeatureMatrix | np.ndarray,
    exclude_classes: frozenset[int] = frozenset({SAVANNA}),
) -> np.ndarray:
    """Highest-logit class with lowest-id tie-break, skipping excluded ids
    (default: Savanna, which the mask withheld from training so its scores
    are meaningless)."""
    if len(exclude_classes) >= N_SIMPLIFIED_CLASSES:
        raise ValueError("cannot exclude every class")
    logits = logreg_predict_logits(model, features)
    for cls in exclude_classes:
        if not 1 <= cls <= N_SIMPLIFIED_CLASSES:
            raise ValueError(f"excluded class id {cls} outside 1..{N_SIMPLIFIED_CLASSES}")
        logits[:, cls - 1] = -np.inf
    return _argmax_class(logits)
