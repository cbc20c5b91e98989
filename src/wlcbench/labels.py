"""Class-scheme simplification, mask policies, and label-grid resampling."""

from __future__ import annotations

import json
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SchemeMap:
    """The 17->10 class aggregation with display names and palette colors."""

    table: tuple[int, ...]
    class_names: tuple[str, ...]
    palette: tuple[str, ...]

    def to_json(self) -> str:
        doc = {
            "igbp_to_simplified": {str(i): int(self.table[i]) for i in range(1, 18)},
            "classes": [
                {"id": i + 1, "name": self.class_names[i], "color": self.palette[i]}
                for i in range(10)
            ],
        }
        return json.dumps(doc, indent=2)

    @property
    def rgb_palette(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (int(c[0:2], 16), int(c[2:4], 16), int(c[4:6], 16)) for c in self.palette
        )


def default_scheme_map() -> SchemeMap:
    return SchemeMap(
        table=tuple(int(v) for v in IGBP_TO_SIMPLIFIED),
        class_names=SIMPLIFIED_CLASS_NAMES,
        palette=SIMPLIFIED_PALETTE,
    )


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
    if factor == 1:
        return LabelRaster(raster.values.copy(), raster.scheme)
    up = np.repeat(np.repeat(raster.values, factor, axis=0), factor, axis=1)
    return LabelRaster(up, raster.scheme)


def downsample_majority(raster: LabelRaster, factor: int) -> LabelRaster:
    """Per-block majority vote with lowest-id tie-break; inverse of upsample_nearest.

    The grid must be divisible by factor. Output keeps the coarse h×w shape.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    h, w = raster.shape
    if h % factor or w % factor:
        raise ValueError(f"factor {factor} does not divide raster shape {h}x{w}")
    if factor == 1:
        return LabelRaster(raster.values.copy(), raster.scheme)
    counts = block_class_counts(raster.values, factor)
    maj = counts.argmax(axis=2).astype(np.uint8)
    return LabelRaster(maj, raster.scheme)


def block_class_counts(values: np.ndarray, factor: int, n_ids: int | None = None) -> np.ndarray:
    """Count class occurrences per factor×factor block; returns (h, w, n_ids).

    Ties in downstream argmax resolve to the lowest id, so 0 (no-data) wins
    only when it is a true majority or ties every class.
    """
    h, w = values.shape
    bh, bw = h // factor, w // factor
    blocks = values.reshape(bh, factor, bw, factor).transpose(0, 2, 1, 3)
    blocks = blocks.reshape(bh * bw, factor * factor)
    if n_ids is None:
        n_ids = int(values.max()) + 1 if values.size else 1
    rows = np.repeat(np.arange(bh * bw, dtype=np.int64), factor * factor)
    counts = np.bincount(rows * n_ids + blocks.ravel(), minlength=bh * bw * n_ids)
    return counts.astype(np.int64, copy=False).reshape(bh, bw, n_ids)
