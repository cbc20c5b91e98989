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

import numbers
from dataclasses import dataclass, field

import numpy as np

from .dataset import N_SIMPLIFIED_CLASSES
from .labels import SAVANNA
from .preprocess import FeatureMatrix, are_class_ids, feature_rows, training_rows

# Rows per logit product in the epoch loss pass. At multiples of 64 the rows
# of a chunked product matched one full-data product bit for bit on OpenBLAS
# (tests/logreg_reference.py is the check), so the loss curve keeps its bits.
_LOSS_CHUNK = 4096


@dataclass(frozen=True)
class LogRegConfig:
    learning_rate: float = 0.1
    batch_size: int = 4096
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("batch_size", "epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def _ce_terms(logp: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Each row's log-probability of its label; y0 holds 0-based class slots."""
    return logp[np.arange(len(y0)), y0]


def _ce_grad(logp: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Logit gradient of the mean cross-entropy over these M rows,
    (softmax - onehot)/M, computed in place of exp(logp)."""
    delta = np.exp(logp)
    delta[np.arange(len(y0)), y0] -= 1.0
    delta /= len(y0)
    return delta


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


def _mean_ce(
    X: np.ndarray, rows: np.ndarray, y0: np.ndarray, W: np.ndarray, b: np.ndarray
) -> float:
    """Mean cross-entropy of the model (W, b) over X[rows], whose 0-based
    label slots are y0, with no gradient. The logits are formed _LOSS_CHUNK
    rows at a time and each row's term is kept in one vector, which is then
    summed once: the same values and the same sum as one full-data pass."""
    n = len(rows)
    terms = np.empty(n)
    start = 0
    while start < n:
        stop = start + _LOSS_CHUNK
        if stop >= n - 1:
            # a one-row product takes another BLAS path that can round
            # differently, so a one-row tail joins the chunk before it
            stop = n
        r = rows[start:stop]
        terms[start:stop] = _ce_terms(_log_softmax(X[r] @ W + b), y0[start:stop])
        start = stop
    return float(-terms.sum() / n)


def logreg_fit(
    features: FeatureMatrix | np.ndarray,
    labels: np.ndarray,
    config: LogRegConfig = LogRegConfig(),
    holdout: tuple[FeatureMatrix | np.ndarray, np.ndarray] | None = None,
) -> LogRegModel:
    """Mini-batch gradient descent from zero weights (the objective is convex,
    so the start point only affects the path, not the reachable optimum).

    The effective training mask is the feature validity mask AND label != 0.
    Rows are reshuffled each epoch from one derived generator. The recorded
    loss curve holds the full-data masked loss after each epoch; that pass
    computes no gradient and holds the logits of at most _LOSS_CHUNK + 1
    rows at a time. When a holdout (features, labels) pair is given, it
    passes the same checks as the training input plus the model width,
    per-class mean accuracy on its valid, labeled rows is tracked after each
    epoch and the weights snapshot from the best epoch (earliest on ties) is
    returned.
    """
    X, train_idx = training_rows(features, labels)
    # 0-based class slots; only selected rows, labeled 1..10, are ever read
    y0 = np.asarray(labels).ravel().astype(np.int8)
    y0 -= 1
    train_y0 = y0[train_idx]
    d = X.shape[1]
    W = np.zeros((d, N_SIMPLIFIED_CLASSES), dtype=np.float64)
    b = np.zeros(N_SIMPLIFIED_CLASSES, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    ho = None
    if holdout is not None:
        ho_features, ho_labels = holdout
        try:
            ho_X, ho_rows = training_rows(ho_features, ho_labels)
            ho_X = feature_rows(ho_X, d)[ho_rows]
        except ValueError as exc:
            raise ValueError(f"holdout: {exc}") from None
        ho = (ho_X, np.asarray(ho_labels).ravel()[ho_rows].astype(np.int64))

    loss_curve: list[float] = []
    holdout_curve: list[float] = []
    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for epoch in range(config.epochs):
        order = rng.permutation(train_idx)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            Xb = X[batch]
            grad = _ce_grad(_log_softmax(Xb @ W + b), y0[batch])
            W -= config.learning_rate * (Xb.T @ grad)
            b -= config.learning_rate * grad.sum(axis=0)
        loss = _mean_ce(X, train_idx, train_y0, W, b)
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
