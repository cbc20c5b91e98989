"""Evaluation suite: confusion matrices, producer's accuracies, AA/OA/mIoU,
LR-to-HR transition matrices, and the LR-vs-HR sanity evaluation.

Average accuracy (AA) is the unweighted mean of per-class producer's
accuracies over the classes present in the reference, which deliberately
gives less weight to large, easy classes than overall accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

import numpy as np

from .dataset import LabelRaster, N_SIMPLIFIED_CLASSES, Patch, Scheme
from .labels import SAVANNA, SIMPLIFIED_CLASS_NAMES, as_simplified, trainable_mask

_SQUARE = (N_SIMPLIFIED_CLASSES, N_SIMPLIFIED_CLASSES)


@dataclass
class ConfusionMatrix:
    """10×10 counts; rows are the reference class, columns the prediction."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != _SQUARE:
            raise ValueError(f"confusion matrix must be {_SQUARE}, got {c.shape}")
        if (c < 0).any():
            raise ValueError("confusion counts must be non-negative")
        self.counts = c

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)

    @classmethod
    def zero(cls) -> "ConfusionMatrix":
        return cls(np.zeros(_SQUARE, dtype=np.int64))


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-normalized LR->HR joint histogram plus per-row pixel support."""

    probs: np.ndarray        # 10×10 float64
    row_support: np.ndarray  # 10 int64


@dataclass(frozen=True)
class MetricsReport:
    producers_accuracy: np.ndarray  # 10 floats, NaN for absent classes
    iou: np.ndarray                 # 10 floats, NaN for absent classes
    present: np.ndarray             # 10 bools (row support > 0)
    support: np.ndarray             # 10 int64 reference-pixel counts
    aa: float
    oa: float
    miou: float
    pixels: int


def _pair_counts(
    reference: LabelRaster,
    prediction: LabelRaster,
    eval_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Raw int64 counts of the 100 (reference, prediction) class pairs,
    reference-major, over jointly valid pixels (see confusion)."""
    if reference.shape != prediction.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape} vs prediction {prediction.shape}"
        )
    for name, raster in (("reference", reference), ("prediction", prediction)):
        if raster.scheme is not Scheme.SIMPLIFIED10:
            raise ValueError(f"{name} raster must be SIMPLIFIED10, got {raster.scheme.name}")
    ref = reference.values.ravel()
    pred = prediction.values.ravel()
    keep = (ref != 0) & (pred != 0)
    if eval_mask is not None:
        eval_mask = np.asarray(eval_mask, dtype=bool)
        if eval_mask.shape != reference.shape:
            raise ValueError(
                f"eval_mask shape {eval_mask.shape} != raster shape {reference.shape}"
            )
        keep &= eval_mask.ravel()
    flat = (ref[keep].astype(np.int64) - 1) * N_SIMPLIFIED_CLASSES + (pred[keep].astype(np.int64) - 1)
    return np.bincount(flat, minlength=N_SIMPLIFIED_CLASSES**2)


def confusion(
    reference: LabelRaster,
    prediction: LabelRaster,
    eval_mask: np.ndarray | None = None,
) -> ConfusionMatrix:
    """Tally reference/prediction pairs over jointly valid pixels.

    Pixels where either raster is 0 are excluded, on top of the optional
    eval_mask (e.g. a Savanna-exclusion policy on the reference).
    """
    return ConfusionMatrix(_pair_counts(reference, prediction, eval_mask).reshape(_SQUARE))


def report(cm: ConfusionMatrix) -> MetricsReport:
    """Derive producer's accuracies, AA, OA, and IoU/mIoU from a confusion matrix.

    Classes without reference support are marked absent (NaN) and excluded
    from AA and mIoU; OA counts every evaluated pixel.
    """
    counts = cm.counts.astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("cannot compute metrics over zero evaluated pixels")
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    diag = np.diag(counts)
    present = row > 0

    pa = np.full(N_SIMPLIFIED_CLASSES, np.nan)
    pa[present] = diag[present] / row[present]
    iou = np.full(N_SIMPLIFIED_CLASSES, np.nan)
    denom = row + col - diag
    iou[present] = diag[present] / denom[present]

    return MetricsReport(
        producers_accuracy=pa,
        iou=iou,
        present=present,
        support=cm.counts.sum(axis=1),
        aa=float(pa[present].mean()),
        oa=float(diag.sum() / total),
        miou=float(iou[present].mean()),
        pixels=int(total),
    )


def transition_matrix(
    lr: LabelRaster | ConfusionMatrix, hr: LabelRaster | None = None
) -> TransitionMatrix:
    """Probability of each HR class conditioned on the LR class.

    probs[l-1][h-1] = count(lr=l and hr=h) / count(lr=l) over jointly valid
    pixels, that is the confusion matrix of hr against the lr reference,
    row-normalized; rows without support are all zero. Takes the two rasters,
    or that confusion matrix already summed over a split:
    ``aggregate_confusion(patches, pred="hr", ref="lr", masked_classes=frozenset())``.
    """
    joint = (lr if hr is None else confusion(lr, hr)).counts
    if not joint.any():
        raise ValueError("no jointly valid pixels for the transition matrix")
    support = joint.sum(axis=1)
    probs = np.zeros(_SQUARE, dtype=np.float64)
    nz = support > 0
    probs[nz] = joint[nz] / support[nz, None]
    return TransitionMatrix(probs=probs, row_support=support)


def aggregate_confusion(
    patches: Iterable[Patch],
    pred: str = "lr",
    ref: str = "hr",
    masked_classes: AbstractSet[int] = frozenset({SAVANNA}),
) -> ConfusionMatrix:
    """Sum per-patch confusion matrices for one raster slot against another.

    IGBP17 slots are simplified on the fly; masked_classes are dropped from
    the reference side (integer-count merging keeps the order irrelevant).
    """
    slots = {"lr", "hr"}
    if pred not in slots or ref not in slots:
        raise ValueError(f"pred/ref must be one of {sorted(slots)}")
    total = np.zeros(N_SIMPLIFIED_CLASSES**2, dtype=np.int64)
    n = 0
    for patch in patches:
        rasters = {slot: as_simplified(patch.labels(slot)) for slot in (pred, ref)}
        # without masked classes the mask is `ref != 0`, which the count applies
        eval_mask = trainable_mask(rasters[ref], masked_classes) if masked_classes else None
        total += _pair_counts(rasters[ref], rasters[pred], eval_mask)
        n += 1
    if n == 0:
        raise ValueError("no patches to evaluate")
    return ConfusionMatrix(total.reshape(_SQUARE))


def lr_vs_hr_eval(
    patches: Iterable[Patch],
    masked_classes: AbstractSet[int] = frozenset({SAVANNA}),
) -> MetricsReport:
    """Score the low-resolution labels as a prediction of the HR reference.

    This is the sanity-check lower bound: every patch must carry HR labels,
    and one confusion matrix is aggregated across patches before reporting.
    """
    return report(aggregate_confusion(patches, pred="lr", ref="hr", masked_classes=masked_classes))


def report_csv(rep: MetricsReport) -> str:
    """CSV rows (class,name,producers_acc,iou,support); absent classes show '-'."""
    lines = ["class,name,producers_acc,iou,support"]
    for i in range(N_SIMPLIFIED_CLASSES):
        if rep.present[i]:
            pa = f"{rep.producers_accuracy[i]:.6f}"
            iou = f"{rep.iou[i]:.6f}"
        else:
            pa = iou = "-"
        lines.append(f"{i + 1},{SIMPLIFIED_CLASS_NAMES[i]},{pa},{iou},{int(rep.support[i])}")
    return "\n".join(lines) + "\n"


def report_json(rep: MetricsReport) -> str:
    import json

    return json.dumps(
        {
            "aa": rep.aa,
            "oa": rep.oa,
            "miou": rep.miou,
            "pixels": rep.pixels,
        }
    )


def matrix_csv(values: np.ndarray, value_format: str = "d") -> str:
    """CSV grid with class-name headers for a 10×10 count or probability matrix."""
    values = np.asarray(values)
    if values.shape != _SQUARE:
        raise ValueError(f"expected a {_SQUARE} matrix, got {values.shape}")
    header = "," + ",".join(SIMPLIFIED_CLASS_NAMES)
    lines = [header]
    for i in range(N_SIMPLIFIED_CLASSES):
        cells = ",".join(format(v, value_format) for v in values[i])
        lines.append(f"{SIMPLIFIED_CLASS_NAMES[i]},{cells}")
    return "\n".join(lines) + "\n"
