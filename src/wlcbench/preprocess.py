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

from .dataset import (
    BandStack,
    N_SIMPLIFIED_CLASSES,
    Patch,
    S1_BAND_NAMES,
    S2_ALL_BANDS,
    S2_SURFACE_BANDS,
)

S1_CLIP = (-25.0, 0.0)
S2_CLIP = (0.0, 1.0e4)
_DROPPED_ATMOSPHERIC = ("B1", "B9", "B10")
_N_SURFACE = len(S2_SURFACE_BANDS)
# Rows per finiteness check in training_rows; bounds its boolean scratch.
_FINITE_CHUNK = 65536


class FusionMode(Enum):
    S2_ONLY = "s2"
    S1_PLUS_S2 = "s1s2"


@dataclass(frozen=True)
class FusionConfig:
    mode: FusionMode = FusionMode.S2_ONLY

    @classmethod
    def from_string(cls, mode: str) -> "FusionConfig":
        return cls(FusionMode(mode))

    @property
    def d(self) -> int:
        """Feature columns: the surface S2 bands, then VV and VH under fusion."""
        if self.mode is FusionMode.S1_PLUS_S2:
            return _N_SURFACE + len(S1_BAND_NAMES)
        return _N_SURFACE


def check_width(d: int, model_d: int) -> None:
    """Raise unless features of width d fit a model of width model_d."""
    if d != model_d:
        raise ValueError(f"feature dimension d={d} != model dimension d={model_d}")


def _rescale(x, lo: float, hi: float, out: np.ndarray) -> np.ndarray:
    """(clip(x, lo, hi) - lo) / (hi - lo), written to out (which may be x)."""
    np.clip(x, lo, hi, out=out)
    out -= lo
    out /= hi - lo
    return out


def _normalize(x, clip: tuple[float, float], name: str):
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} requires finite input")
    out = _rescale(x, *clip, np.empty_like(x))
    return out if out.ndim else float(out)


def normalize_s1(x):
    """Clip backscatter (dB) to [-25, 0] and rescale to [0, 1]."""
    return _normalize(x, S1_CLIP, "normalize_s1")


def normalize_s2(x):
    """Clip digital numbers to [0, 10^4] and rescale to [0, 1]."""
    return _normalize(x, S2_CLIP, "normalize_s2")


def _surface_band_indices(s2: BandStack) -> list[int]:
    """Positions of the ten surface bands in the stack, in band order."""
    if s2.band_names == S2_SURFACE_BANDS:
        return list(range(_N_SURFACE))
    if set(s2.band_names) == set(S2_ALL_BANDS) and s2.n_bands == 13:
        return [i for i, name in enumerate(s2.band_names) if name not in _DROPPED_ATMOSPHERIC]
    missing = sorted(set(S2_ALL_BANDS) - set(s2.band_names))
    unknown = sorted(set(s2.band_names) - set(S2_ALL_BANDS))
    raise ValueError(
        f"cannot select surface bands: missing {missing or 'none'}, "
        f"unknown {unknown or 'none'}"
    )


def select_surface_bands(s2: BandStack) -> BandStack:
    """Drop the atmospheric bands B1, B9, B10, preserving the remaining order.

    A stack already restricted to the ten surface bands passes through
    unchanged.
    """
    if s2.band_names == S2_SURFACE_BANDS:
        return s2
    keep = _surface_band_indices(s2)
    return BandStack(s2.values[keep], tuple(s2.band_names[i] for i in keep))


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


def feature_rows(features: FeatureMatrix | np.ndarray, d: int) -> np.ndarray:
    """Every row of features as an N×d float64 array; raises unless the width
    is the model's d."""
    X = features.values if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected N×d features, got shape {X.shape}")
    check_width(X.shape[1], d)
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
    N×d float64 array, rows the ascending indices of the selected rows
    (int32 when N allows).

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
    index = np.int32 if len(X) <= np.iinfo(np.int32).max else np.intp
    rows = np.arange(len(X), dtype=index)[keep]
    if not len(rows):
        raise ValueError("no valid, masked-in, labeled rows to train on")
    for start in range(0, len(X), _FINITE_CHUNK):
        stop = start + _FINITE_CHUNK
        if not np.isfinite(X[start:stop]).all(axis=1)[keep[start:stop]].all():
            raise ValueError("training features must be finite (no NaN or inf)")
    return X, rows


def assemble_features(
    patch: Patch, config: FusionConfig, out: np.ndarray | None = None
) -> FeatureMatrix:
    """Build the N×d per-pixel feature matrix for one patch, row-major.

    Columns are the ten surface S2 bands first, then normalized VV, VH under
    fusion. Rows whose sources were non-finite before clipping, or whose LR
    label is 0, are masked out. The features are written to ``out`` when
    given (an N×d float64 array, such as rows of a larger matrix), else to
    a new array: the bands are copied in, non-finite values zeroed and
    every column clipped and rescaled in place.
    """
    bands = _surface_band_indices(patch.s2)
    if config.mode is FusionMode.S1_PLUS_S2 and patch.s1 is None:
        raise ValueError(f"patch {patch.id!r} has no S1 stack but fusion requires it")
    n = patch.height * patch.width
    shape = (n, config.d)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"feature output must be {shape} float64, got {out.shape} {out.dtype}")

    s2 = patch.s2.values.reshape(-1, n)
    planes = [s2[band] for band in bands]  # S2 columns, then VV, VH
    if config.mode is FusionMode.S1_PLUS_S2:
        planes += list(patch.s1.values.reshape(-1, n))
    for col, plane in enumerate(planes):
        out[:, col] = plane

    finite = np.isfinite(out)
    valid = finite.all(axis=1)
    if not valid.all():
        np.copyto(out, 0.0, where=~finite)
    del finite
    _rescale(out[:, :_N_SURFACE], *S2_CLIP, out=out[:, :_N_SURFACE])
    # column by column: an N×2 block would be walked two values at a time
    for col in range(_N_SURFACE, config.d):
        _rescale(out[:, col], *S1_CLIP, out=out[:, col])

    valid &= patch.lr_labels.values.reshape(n) != 0
    return FeatureMatrix(values=out, valid_mask=valid)
