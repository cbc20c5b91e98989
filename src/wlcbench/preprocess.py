"""Band normalization, surface-band selection, and early-fusion feature assembly.

Sentinel-1 backscatter is clipped to [-25, 0] dB and rescaled to [0, 1];
Sentinel-2 digital numbers are clipped to [0, 10^4] (100% reflectance) and
rescaled. Fusion simply concatenates the two polarimetric channels after the
ten surface-related optical bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

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
# Rows per block of a blocked pass (row_blocks). At multiples of 64 the rows
# of a blocked product matched one whole-matrix product bit for bit on
# OpenBLAS (the whole-pass references in the tests are the check), so the
# logreg loss curve and predict's labels keep the bits of whole-matrix passes.
ROW_BLOCK = 4096


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


def row_blocks(n: int, size: int = ROW_BLOCK) -> Iterator[slice]:
    """Slices of rows 0..n in order, each of ``size`` rows but the last. A
    one-row product takes another BLAS path that can round differently, so
    a one-row tail joins the block before it, which then has size + 1 rows."""
    start = 0
    while start < n:
        stop = start + size
        if stop >= n - 1:
            stop = n
        yield slice(start, stop)
        start = stop


def _rescale(x, lo: float, hi: float, out: np.ndarray) -> np.ndarray:
    """(clip(x, lo, hi) - lo) / (hi - lo), written to out (which may be x)."""
    np.clip(x, lo, hi, out=out)
    out -= lo
    out /= hi - lo
    return out


def normalize_bands(
    bands: np.ndarray, out: np.ndarray | None = None, column: int | None = None
) -> np.ndarray:
    """Feature values of stored band values: float32 to float64, non-finite
    values to 0, then each column clipped to its band's range and rescaled
    to [0, 1] (``_rescale``). ``bands`` is m×d, one column per feature
    column, or with ``column=f`` the m values of feature column f. Written
    to ``out`` (a float64 array of the same shape, which may be bands
    itself) when given, else to a new array."""
    if out is None:
        out = np.empty(bands.shape)
    if out is not bands:
        out[...] = bands
    finite = np.isfinite(out)
    if not finite.all():
        np.copyto(out, 0.0, where=~finite)
    del finite
    if column is not None:
        return _rescale(out, *(S2_CLIP if column < _N_SURFACE else S1_CLIP), out=out)
    _rescale(out[:, :_N_SURFACE], *S2_CLIP, out=out[:, :_N_SURFACE])
    # column by column: an m×2 block would be walked two values at a time
    for col in range(_N_SURFACE, out.shape[1]):
        _rescale(out[:, col], *S1_CLIP, out=out[:, col])
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


@dataclass(frozen=True)
class BandRows:
    """Training pixels as the containers store them: one row of float32
    band values per pixel, in feature column order, every row valid.
    ``normalize_bands`` turns rows into features, so a fit reads them as it
    would the FeatureMatrix rows of the same pixels, from half the bytes.
    """

    bands: np.ndarray         # N×d float32

    @property
    def n_rows(self) -> int:
        return self.bands.shape[0]

    @property
    def d(self) -> int:
        return self.bands.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        """One True per row, as a FeatureMatrix whose rows are all valid."""
        return np.ones(self.n_rows, dtype=bool)


Features = FeatureMatrix | BandRows | np.ndarray


def _stored(features: Features) -> np.ndarray:
    """The rows features holds: float32 bands of BandRows, else float64
    feature values."""
    if isinstance(features, BandRows):
        return features.bands
    if isinstance(features, FeatureMatrix):
        return features.values
    return np.asarray(features, dtype=np.float64)


def feature_rows(features: Features, d: int) -> np.ndarray:
    """Every row of features as an N×d float64 array; raises unless the width
    is the model's d."""
    X = _stored(features)
    if X.ndim != 2:
        raise ValueError(f"expected N×d features, got shape {X.shape}")
    check_width(X.shape[1], d)
    return normalize_bands(X) if isinstance(features, BandRows) else X


def are_class_ids(labels: np.ndarray, lowest: int) -> bool:
    """Whether every label is a whole number in lowest..10 (a float label
    such as 1.5 or NaN is not a class id)."""
    ok = bool(((labels >= lowest) & (labels <= N_SIMPLIFIED_CLASSES)).all())
    if ok and labels.dtype.kind not in "biu":
        ok = bool((labels == np.trunc(labels)).all())
    return ok


class TrainingRows:
    """The rows a model fits on, read as float64 feature rows.

    Position i is the i-th selected row in row order. FeatureMatrix and
    array rows are read as stored; BandRows are normalized as they are
    read, so a fit holds the float32 bands and the blocks it reads, never a
    float64 copy of the split.
    """

    def __init__(self, values: np.ndarray, rows: np.ndarray | None, bands: bool):
        self._values = values  # N×d stored rows
        self._rows = rows      # ascending selected row ids; None when all are
        self._bands = bands
        self._gathered = values[:0]  # reused block of gathered band rows

    def __len__(self) -> int:
        return len(self._values) if self._rows is None else len(self._rows)

    @property
    def d(self) -> int:
        return self._values.shape[1]

    def select(self, per_row: np.ndarray) -> np.ndarray:
        """The entries of a one-per-row vector at the selected rows."""
        return per_row if self._rows is None else per_row[self._rows]

    def read(self, index: slice | np.ndarray, out: np.ndarray) -> np.ndarray:
        """The rows at positions ``index`` (a slice, or an integer array),
        written to ``out``, an m×d float64 array; returns out."""
        if self._rows is not None:
            index = self._rows[index]
        # np.take with mode="clip" writes straight to out (the positions are
        # in range); the default mode would go through a new buffer
        if not self._bands:
            if isinstance(index, slice):
                out[...] = self._values[index]
                return out
            return np.take(self._values, index, axis=0, out=out, mode="clip")
        if isinstance(index, slice):
            return normalize_bands(self._values[index], out)
        if len(self._gathered) < len(index):
            self._gathered = np.empty((len(index), self.d), dtype=self._values.dtype)
        gathered = self._gathered[: len(index)]
        np.take(self._values, index, axis=0, out=gathered, mode="clip")
        return normalize_bands(gathered, out)

    def column(self, f: int, index: np.ndarray | None = None) -> np.ndarray:
        """Feature column f at every selected row, or at positions
        ``index``, as float64 (a view of stored float64 features when every
        row is selected)."""
        rows = self._rows
        if index is not None:
            rows = index if rows is None else rows[index]
        values = self._values[:, f] if rows is None else self._values[rows, f]
        return normalize_bands(values, column=f) if self._bands else values

    def all(self) -> np.ndarray:
        """Every selected row in one C-contiguous m×d float64 array: stored
        float64 features themselves when every row is selected."""
        values = self._values if self._rows is None else self._values[self._rows]
        return normalize_bands(values) if self._bands else np.ascontiguousarray(values)


def training_rows(features: Features, labels: np.ndarray | None = None) -> TrainingRows:
    """The rows a model may fit on, as a TrainingRows reader.

    A row is selected when it is valid (a FeatureMatrix's valid_mask; mask
    rows out of a fit with FeatureMatrix.with_mask) and, when labels are
    given, its label is not 0 (no-data). Raises unless d >= 1, labels have
    N whole-number entries in 0..10, some row is selected and every selected
    row is finite.
    """
    X = _stored(features)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected N×d features with d >= 1, got shape {X.shape}")
    keep = features.valid_mask.copy() if isinstance(features, FeatureMatrix) else None
    if labels is not None:
        labels = np.asarray(labels).ravel()
        if len(labels) != len(X):
            raise ValueError(f"labels length {len(labels)} != feature rows {len(X)}")
        if not are_class_ids(labels, 0):
            raise ValueError(
                f"labels must be 0 (no-data) or simplified class ids 1..{N_SIMPLIFIED_CLASSES}"
            )
        labeled = labels != 0
        keep = labeled if keep is None else np.logical_and(keep, labeled, out=keep)
    rows = None
    if keep is not None and keep.all():
        keep = None
    elif keep is not None:
        index = np.int32 if len(X) <= np.iinfo(np.int32).max else np.intp
        rows = np.arange(len(X), dtype=index)[keep]
    if not len(X) or (rows is not None and not len(rows)):
        raise ValueError("no valid, masked-in, labeled rows to train on")
    for start in range(0, len(X), _FINITE_CHUNK):
        stop = start + _FINITE_CHUNK
        finite = np.isfinite(X[start:stop]).all(axis=1)
        if not (finite if keep is None else finite[keep[start:stop]]).all():
            raise ValueError("training features must be finite (no NaN or inf)")
    return TrainingRows(X, rows, isinstance(features, BandRows))


def _feature_planes(patch: Patch, config: FusionConfig) -> list[np.ndarray]:
    """The patch's flat band planes, one per feature column, as stored: the
    ten surface S2 bands, then VV, VH under fusion."""
    bands = _surface_band_indices(patch.s2)
    if config.mode is FusionMode.S1_PLUS_S2 and patch.s1 is None:
        raise ValueError(f"patch {patch.id!r} has no S1 stack but fusion requires it")
    n = patch.height * patch.width
    s2 = patch.s2.values.reshape(-1, n)
    planes = [s2[band] for band in bands]
    if config.mode is FusionMode.S1_PLUS_S2:
        planes += list(patch.s1.values.reshape(-1, n))
    return planes


def _finite_pixels(planes: list[np.ndarray]) -> np.ndarray:
    """Pixels whose every plane value is finite."""
    finite = np.isfinite(planes[0])
    for plane in planes[1:]:
        finite &= np.isfinite(plane)
    return finite


def assemble_features(
    patch: Patch,
    config: FusionConfig,
    out: np.ndarray | None = None,
    rows: slice = slice(None),
) -> FeatureMatrix:
    """Build the per-pixel feature matrix of one patch, row-major: one row
    per pixel in ``rows``, a slice of the H·W pixel positions (every pixel
    by default), in pixel order.

    Columns are the ten surface S2 bands first, then normalized VV, VH under
    fusion. Rows whose sources were non-finite before clipping, or whose LR
    label is 0, are masked out. The features are written to ``out`` when
    given (an m×d float64 array for m selected pixels, such as a block of a
    larger buffer), else to a new array: the bands are copied in and
    normalized in place (``normalize_bands``). A row's values do not depend
    on the range it was built in.
    """
    n = patch.height * patch.width
    planes = [plane[rows] for plane in _feature_planes(patch, config)]
    shape = (len(planes[0]), config.d)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"feature output must be {shape} float64, got {out.shape} {out.dtype}")
    for col, plane in enumerate(planes):
        out[:, col] = plane
    valid = _finite_pixels(planes)
    normalize_bands(out, out)
    valid &= patch.lr_labels.values.reshape(n)[rows] != 0
    return FeatureMatrix(values=out, valid_mask=valid)


def band_rows(
    patch: Patch, config: FusionConfig, out: np.ndarray, exclude: frozenset[int] = frozenset()
) -> np.ndarray:
    """Write the band rows (see BandRows) of the patch's training pixels to
    the first rows of ``out``, an M×d float32 array, in pixel order.

    A training pixel has a finite value in every feature band and an LR
    label that is neither 0 (no-data) nor in ``exclude``. Returns the pixel
    mask of the rows written; normalized, they are those pixels' rows of
    ``assemble_features``. Raises unless out is float32 of width d with
    room for every row.
    """
    planes = _feature_planes(patch, config)
    labels = patch.lr_labels.values.reshape(-1)
    keep = _finite_pixels(planes)
    keep &= labels != 0
    for cls in exclude:
        keep &= labels != cls
    m = int(np.count_nonzero(keep))
    if out.dtype != np.float32 or out.ndim != 2 or out.shape[1] != config.d or len(out) < m:
        raise ValueError(
            f"band rows need a float32 output of {m} or more rows of width {config.d}, "
            f"got {out.shape} {out.dtype}"
        )
    for col, plane in enumerate(planes):
        out[:m, col] = plane[keep]
    return keep
