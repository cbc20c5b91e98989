"""Class-scheme simplification, mask policies, and label-grid resampling."""

from __future__ import annotations

from typing import AbstractSet

import numpy as np

from .dataset import LabelRaster, Scheme

SAVANNA = 3

#: IGBP id -> simplified id (index 0 stays 0 for no-data).
IGBP_TO_SIMPLIFIED = np.array(
    [0, 1, 1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 6, 8, 9, 10], dtype=np.uint8
)

SIMPLIFIED_CLASS_NAMES = (
    "Forest",
    "Shrubland",
    "Savanna",
    "Grassland",
    "Wetlands",
    "Croplands",
    "Urban/Built-up",
    "Snow/Ice",
    "Barren",
    "Water",
)

SIMPLIFIED_PALETTE = (
    "009900",
    "c6b044",
    "fbff13",
    "b6ff05",
    "27ff87",
    "c24f44",
    "a5a5a5",
    "69fff8",
    "f9ffa4",
    "1c0dff",
)


class SchemeError(ValueError):
    """Raised when an operation receives a raster under the wrong scheme."""


def simplify_igbp(raster: LabelRaster) -> LabelRaster:
    """Remap a 17-class IGBP raster to the 10-class simplified scheme; 0 stays 0."""
    if raster.scheme is not Scheme.IGBP17:
        raise SchemeError(
            f"simplify_igbp expects an IGBP17 raster, got {raster.scheme.name}"
        )
    if (raster.values > 17).any():
        bad = int(raster.values.max())
        raise SchemeError(f"id {bad} outside the IGBP range 0..17")
    return LabelRaster(IGBP_TO_SIMPLIFIED[raster.values], Scheme.SIMPLIFIED10)


def as_simplified(raster: LabelRaster) -> LabelRaster:
    """Simplify an IGBP17 raster; a SIMPLIFIED10 raster passes through as is."""
    return simplify_igbp(raster) if raster.scheme is Scheme.IGBP17 else raster


def trainable_mask(
    raster: LabelRaster, masked_classes: AbstractSet[int] = frozenset({SAVANNA})
) -> np.ndarray:
    """Boolean H×W mask: true iff the label is valid and not policy-masked.

    The default policy drops Savanna, mirroring its exclusion from all model
    training; pass an empty set to keep every valid pixel.
    """
    if raster.scheme is not Scheme.SIMPLIFIED10:
        raise SchemeError(
            f"trainable_mask expects a SIMPLIFIED10 raster, got {raster.scheme.name}"
        )
    mask = raster.values != 0
    for cls in masked_classes:
        mask &= raster.values != cls
    return mask


def upsample_nearest(raster: LabelRaster, factor: int) -> LabelRaster:
    """Block-constant upsampling: output[i,j] = input[i//factor, j//factor]."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    up = np.repeat(np.repeat(raster.values, factor, axis=0), factor, axis=1)
    return LabelRaster(up, raster.scheme)


def block_class_counts(values: np.ndarray, factor: int, n_ids: int) -> np.ndarray:
    """Count the ids 0..n_ids-1 per factor×factor block; returns (h, w, n_ids)."""
    h, w = values.shape
    bh, bw = h // factor, w // factor
    blocks = values.reshape(bh, factor, bw, factor).transpose(0, 2, 1, 3)
    blocks = blocks.reshape(bh * bw, factor * factor)
    rows = np.repeat(np.arange(bh * bw, dtype=np.int64), factor * factor)
    counts = np.bincount(rows * n_ids + blocks.ravel(), minlength=bh * bw * n_ids)
    return counts.astype(np.int64, copy=False).reshape(bh, bw, n_ids)
