"""The split statistics as computed before the commands streamed their
patches, kept as oracles: `transition` concatenated every patch's labels
into one raster pair, `stats` took two passes over a list of patches
(one for the pixel counts, one for the classes per patch), and
`aggregate_confusion` added one validated ConfusionMatrix per patch."""

from __future__ import annotations

import numpy as np

from wlcbench.dataset import N_SIMPLIFIED_CLASSES, LabelRaster, Scheme
from wlcbench.labels import as_simplified, trainable_mask
from wlcbench.metrics import ConfusionMatrix, TransitionMatrix, confusion


def _simplified_values(raster: LabelRaster, patch_id: str) -> np.ndarray:
    if raster.scheme is not Scheme.SIMPLIFIED10:
        raise ValueError(f"patch {patch_id!r} labels use {raster.scheme.name}")
    return raster.values


def reference_transition(patches) -> TransitionMatrix:
    """LR labels simplified, then every patch's LR and HR labels
    concatenated into one 1×N raster pair and normalized row by row."""
    lr_all = np.concatenate([as_simplified(p.lr_labels).values.ravel() for p in patches])
    hr_all = np.concatenate([p.labels("hr").values.ravel() for p in patches])
    joint = confusion(
        LabelRaster(lr_all[None, :], Scheme.SIMPLIFIED10),
        LabelRaster(hr_all[None, :], Scheme.SIMPLIFIED10),
    ).counts
    if not joint.any():
        raise ValueError("no jointly valid pixels for the transition matrix")
    support = joint.sum(axis=1)
    probs = np.zeros((N_SIMPLIFIED_CLASSES, N_SIMPLIFIED_CLASSES), dtype=np.float64)
    nz = support > 0
    probs[nz] = joint[nz] / support[nz, None]
    return TransitionMatrix(probs=probs, row_support=support)


def reference_aggregate_confusion(patches, pred, ref, masked_classes) -> ConfusionMatrix:
    """The sum of each patch's confusion matrix, masked_classes dropped from
    the reference side by a trainable_mask built for every patch."""
    total = ConfusionMatrix.zero()
    for patch in patches:
        rasters = {slot: as_simplified(patch.labels(slot)) for slot in (pred, ref)}
        eval_mask = trainable_mask(rasters[ref], masked_classes)
        total = total + confusion(rasters[ref], rasters[pred], eval_mask)
    return total


def reference_class_histogram(patches, which: str = "lr"):
    """(counts, fractions) over classes 1..10 of a list of patches."""
    counts = np.zeros(N_SIMPLIFIED_CLASSES, dtype=np.int64)
    for patch in patches:
        vals = _simplified_values(patch.labels(which), patch.id)
        counts += np.bincount(vals.ravel(), minlength=N_SIMPLIFIED_CLASSES + 1)[1:]
    if not patches:
        raise ValueError("class_histogram needs at least one patch")
    total = counts.sum()
    fractions = counts / total if total > 0 else np.zeros(N_SIMPLIFIED_CLASSES)
    return counts, fractions


def reference_classes_per_patch(patches, which: str = "lr") -> np.ndarray:
    """Entry i-1 counts the patches with exactly i distinct nonzero classes."""
    hist = np.zeros(N_SIMPLIFIED_CLASSES, dtype=np.int64)
    for patch in patches:
        distinct = np.unique(_simplified_values(patch.labels(which), patch.id))
        n = int((distinct != 0).sum())
        if n > 0:
            hist[n - 1] += 1
    if not patches:
        raise ValueError("classes_per_patch needs at least one patch")
    return hist
