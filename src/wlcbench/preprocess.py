"""Band normalization, surface-band selection, and early-fusion feature assembly.

Sentinel-1 backscatter is clipped to [-25, 0] dB and rescaled to [0, 1];
Sentinel-2 digital numbers are clipped to [0, 10^4] (100% reflectance) and
rescaled. Fusion simply concatenates the two polarimetric channels after the
ten surface-related optical bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import BandStack, N_SIMPLIFIED_CLASSES, Patch, S2_ALL_BANDS, S2_SURFACE_BANDS

S1_CLIP = (-25.0, 0.0)
S2_CLIP = (0.0, 1.0e4)
_DROPPED_ATMOSPHERIC = ("B1", "B9", "B10")


class FusionMode(Enum):
    S2_ONLY = "s2"
    S1_PLUS_S2 = "s1s2"


@dataclass(frozen=True)
class FusionConfig:
    mode: FusionMode = FusionMode.S2_ONLY

    @classmethod
    def from_string(cls, mode: str) -> "FusionConfig":
        return cls(FusionMode(mode))


def normalize_s1(x):
    """Clip backscatter (dB) to [-25, 0] and rescale to [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("normalize_s1 requires finite input")
    out = (np.clip(x, *S1_CLIP) + 25.0) / 25.0
    return out if out.ndim else float(out)


def normalize_s2(x):
    """Clip digital numbers to [0, 10^4] and rescale to [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("normalize_s2 requires finite input")
    out = np.clip(x, *S2_CLIP) / 1.0e4
    return out if out.ndim else float(out)


def select_surface_bands(s2: BandStack) -> BandStack:
    """Drop the atmospheric bands B1, B9, B10, preserving the remaining order.

    A stack already restricted to the ten surface bands passes through
    unchanged.
    """
    if s2.band_names == S2_SURFACE_BANDS:
        return s2
    if set(s2.band_names) == set(S2_ALL_BANDS) and s2.n_bands == 13:
        keep = [i for i, name in enumerate(s2.band_names) if name not in _DROPPED_ATMOSPHERIC]
        return BandStack(s2.values[keep], tuple(s2.band_names[i] for i in keep))
    missing = sorted(set(S2_ALL_BANDS) - set(s2.band_names))
    unknown = sorted(set(s2.band_names) - set(S2_ALL_BANDS))
    raise ValueError(
        f"cannot select surface bands: missing {missing or 'none'}, "
        f"unknown {unknown or 'none'}"
    )


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-pixel feature rows in [0, 1] with a validity mask.

    Row k of a single-patch matrix corresponds to pixel (k // W, k % W).
    """

    values: np.ndarray        # N×d float64
    valid_mask: np.ndarray    # N bool

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def with_mask(self, extra_mask: np.ndarray) -> "FeatureMatrix":
        """Return a copy whose validity mask is ANDed with extra_mask."""
        extra_mask = np.asarray(extra_mask, dtype=bool).ravel()
        if len(extra_mask) != self.n_rows:
            raise ValueError(f"mask length {len(extra_mask)} != feature rows {self.n_rows}")
        return FeatureMatrix(self.values, self.valid_mask & extra_mask)

    @classmethod
    def concat(cls, matrices: "list[FeatureMatrix]") -> "FeatureMatrix":
        if not matrices:
            raise ValueError("cannot concatenate zero feature matrices")
        d = matrices[0].d
        if any(m.d != d for m in matrices):
            raise ValueError("feature dimension mismatch in concat")
        return cls(
            np.concatenate([m.values for m in matrices]),
            np.concatenate([m.valid_mask for m in matrices]),
        )


def feature_rows(features: FeatureMatrix | np.ndarray, d: int) -> np.ndarray:
    """Every row of features as an N×d float64 array; raises unless the width
    is the model's d."""
    X = features.values if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected N×d features, got shape {X.shape}")
    if X.shape[1] != d:
        raise ValueError(f"feature dimension d={X.shape[1]} != model dimension d={d}")
    return X


def are_class_ids(labels: np.ndarray, lowest: int) -> bool:
    """Whether every label is a whole number in lowest..10 (a float label
    such as 1.5 or NaN is not a class id)."""
    ok = bool(((labels >= lowest) & (labels <= N_SIMPLIFIED_CLASSES)).all())
    if ok and labels.dtype.kind not in "biu":
        ok = bool((labels == np.trunc(labels)).all())
    return ok


def training_rows(
    features: FeatureMatrix | np.ndarray, labels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The rows a model may fit on: (X, rows), X every row of features as an
    N×d float64 array, rows the ascending indices of the selected rows.

    A row is selected when it is valid (a FeatureMatrix's valid_mask; mask
    rows out of a fit with FeatureMatrix.with_mask) and, when labels are
    given, its label is not 0 (no-data). Raises unless d >= 1, labels have
    N whole-number entries in 0..10, some row is selected and every selected
    row is finite.
    """
    is_matrix = isinstance(features, FeatureMatrix)
    X = features.values if is_matrix else np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected N×d features with d >= 1, got shape {X.shape}")
    keep = features.valid_mask.copy() if is_matrix else np.ones(len(X), dtype=bool)
    if labels is not None:
        labels = np.asarray(labels).ravel()
        if len(labels) != len(X):
            raise ValueError(f"labels length {len(labels)} != feature rows {len(X)}")
        if not are_class_ids(labels, 0):
            raise ValueError(
                f"labels must be 0 (no-data) or simplified class ids 1..{N_SIMPLIFIED_CLASSES}"
            )
        keep &= labels != 0
    rows = np.flatnonzero(keep)
    if not len(rows):
        raise ValueError("no valid, masked-in, labeled rows to train on")
    if not np.isfinite(X).all(axis=1)[rows].all():
        raise ValueError("training features must be finite (no NaN or inf)")
    return X, rows


def assemble_features(patch: Patch, config: FusionConfig) -> FeatureMatrix:
    """Build the N×d per-pixel feature matrix for one patch, row-major.

    Columns are the ten surface S2 bands first, then normalized VV, VH under
    fusion. Rows whose sources were non-finite before clipping, or whose LR
    label is 0, are masked out.
    """
    surface = select_surface_bands(patch.s2)
    h, w = surface.shape
    n = h * w

    planes = [surface.values.reshape(10, n).astype(np.float64)]
    if config.mode is FusionMode.S1_PLUS_S2:
        if patch.s1 is None:
            raise ValueError(f"patch {patch.id!r} has no S1 stack but fusion requires it")
        planes.append(patch.s1.values.reshape(2, n).astype(np.float64))

    raw = np.concatenate(planes, axis=0).T  # N×d, S2 columns then VV, VH
    finite = np.isfinite(raw).all(axis=1)
    raw = np.where(np.isfinite(raw), raw, 0.0)

    features = np.empty_like(raw)
    features[:, :10] = normalize_s2(raw[:, :10])
    if raw.shape[1] == 12:
        features[:, 10:] = normalize_s1(raw[:, 10:])

    valid = finite & (patch.lr_labels.values.reshape(n) != 0)
    return FeatureMatrix(values=features, valid_mask=valid)
