"""Label-map rendering as binary PPM (P6).

PPM keeps renders bit-exact and dependency-free; converting to PNG is left
to downstream tooling.
"""

from __future__ import annotations

import numpy as np

from .dataset import LabelRaster, N_SIMPLIFIED_CLASSES, Scheme
from .labels import SIMPLIFIED_PALETTE

# 11×3 uint8 color per label id; row 0 (no-data) renders black.
_LUT = np.zeros((N_SIMPLIFIED_CLASSES + 1, 3), dtype=np.uint8)
_LUT[1:] = [list(bytes.fromhex(code)) for code in SIMPLIFIED_PALETTE]


def render_labels(raster: LabelRaster) -> bytes:
    """Binary PPM image of a simplified label raster, one pixel per label."""
    if raster.scheme is not Scheme.SIMPLIFIED10:
        raise ValueError("render_labels expects SIMPLIFIED10 labels; simplify first")
    h, w = raster.shape
    rgb = _LUT[raster.values]
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes()
