"""Reference feature assembly for tests.

Each step makes a new array: the bands are cast and stacked, transposed,
masked with ``np.where`` and rescaled by two separate formulas, S2 as
``clip(x, 0, 1e4) / 1e4`` and S1 as ``(clip(x, -25, 0) + 25) / 25``. Several
copies of the output, but plain enough to check by eye.
``reference_assemble_features`` must return the same values and mask, bit
for bit, as ``wlcbench.preprocess.assemble_features`` on the same patch and
fusion.
"""

import numpy as np

from wlcbench.preprocess import FeatureMatrix, FusionMode

# the S2 bands kept as features, in feature column order (B1, B9, B10 dropped)
SURFACE = ("B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A", "B11", "B12")


def reference_assemble_features(patch, config):
    names = list(patch.s2.band_names)
    surface = np.stack([patch.s2.values[names.index(band)] for band in SURFACE])
    n = patch.height * patch.width

    planes = [surface.reshape(10, n).astype(np.float64)]
    if config.mode is FusionMode.S1_PLUS_S2:
        if patch.s1 is None:
            raise ValueError(f"patch {patch.id!r} has no S1 stack but fusion requires it")
        planes.append(patch.s1.values.reshape(2, n).astype(np.float64))

    raw = np.concatenate(planes, axis=0).T  # N×d, S2 columns then VV, VH
    finite = np.isfinite(raw).all(axis=1)
    raw = np.where(np.isfinite(raw), raw, 0.0)

    features = np.empty_like(raw)
    features[:, :10] = np.clip(raw[:, :10], 0.0, 1.0e4) / 1.0e4
    if raw.shape[1] == 12:
        features[:, 10:] = (np.clip(raw[:, 10:], -25.0, 0.0) + 25.0) / 25.0

    valid = finite & (patch.lr_labels.values.reshape(n) != 0)
    return FeatureMatrix(values=features, valid_mask=valid)
