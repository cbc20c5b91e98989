"""Patch containers, split manifests, and dataset statistics.

The on-disk container is a deliberately dependency-free little-endian binary
format (magic ``WLCB``). Labels ride on the same pixel grid as the imagery;
class id 0 is reserved for invalid/no-data pixels.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import InitVar, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

MAGIC = b"WLCB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIBBBB")  # magic, version, H, W, s1, s2_bands, hr, scheme

S1_BAND_NAMES = ("VV", "VH")
S2_ALL_BANDS = ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A", "B9", "B10", "B11", "B12")
S2_SURFACE_BANDS = ("B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A", "B11", "B12")

N_SIMPLIFIED_CLASSES = 10
N_IGBP_CLASSES = 17


class ContainerError(ValueError):
    """Raised for malformed or invariant-violating patch containers."""


class ManifestError(ValueError):
    """Raised for malformed split manifests."""


class Scheme(Enum):
    """Classification scheme of a label raster (wire values in the container)."""

    IGBP17 = 1
    SIMPLIFIED10 = 2

    @property
    def max_class_id(self) -> int:
        return N_IGBP_CLASSES if self is Scheme.IGBP17 else N_SIMPLIFIED_CLASSES


class SplitRole(Enum):
    TRAIN = "train"
    HOLDOUT = "holdout"
    VALIDATION = "validation"
    TEST = "test"


@dataclass(frozen=True)
class BandStack:
    """C band planes of H×W float32 values plus their band names."""

    values: np.ndarray
    band_names: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise ContainerError(f"band stack must be C×H×W, got shape {v.shape}")
        if len(self.band_names) != v.shape[0]:
            raise ContainerError(
                f"{len(self.band_names)} band names for {v.shape[0]} band planes"
            )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "band_names", tuple(self.band_names))

    @property
    def n_bands(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[1], self.values.shape[2]


@dataclass(frozen=True)
class LabelRaster:
    """H×W uint8 class ids tagged with their scheme; 0 means invalid/no-data.

    Construction refuses a class id above the scheme's largest; ``name`` is
    how that error refers to the raster."""

    values: np.ndarray
    scheme: Scheme
    name: InitVar[str] = "labels"

    def __post_init__(self, name: str):
        v = np.asarray(self.values, dtype=np.uint8)
        if v.ndim != 2:
            raise ContainerError(f"label raster must be H×W, got shape {v.shape}")
        top = self.scheme.max_class_id
        if v.size and int(v.max()) > top:
            idx = int(np.argmax(v.ravel() > top))
            raise ContainerError(
                f"illegal class id {int(v.flat[idx])} in {name} at pixel "
                f"{idx} under scheme {self.scheme.name}"
            )
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass
class Patch:
    """One scene sample: optional S1 stack, S2 stack, LR labels, optional HR labels."""

    id: str
    s2: BandStack
    lr_labels: LabelRaster
    s1: BandStack | None = None
    hr_labels: LabelRaster | None = None

    @property
    def height(self) -> int:
        return self.s2.shape[0]

    @property
    def width(self) -> int:
        return self.s2.shape[1]

    def labels(self, which: str) -> LabelRaster:
        """The label raster in slot ``which``, "lr" or "hr" (exact, lowercase);
        raises ValueError for another slot name or absent HR labels."""
        if which == "lr":
            return self.lr_labels
        if which != "hr":
            raise ValueError(f"label slot must be 'lr' or 'hr', got {which!r}")
        if self.hr_labels is None:
            raise ValueError(f"patch {self.id!r} lacks hr labels")
        return self.hr_labels

    def validate(self) -> None:
        """Check the invariants between fields; raises ContainerError on the
        first violation. Each LabelRaster checked its class ids when built."""
        self._check_layout()
        if self.s1 is not None and not np.isfinite(self.s1.values).all():
            raise ContainerError("non-finite value in s1 bands")
        if not np.isfinite(self.s2.values).all():
            raise ContainerError("non-finite value in s2 bands")

    def _check_layout(self) -> None:
        """validate() without the band values' finiteness pass."""
        h, w = self.s2.shape
        if h < 1 or w < 1:
            raise ContainerError(f"patch dimensions must be >= 1, got {h}x{w}")
        if self.s1 is not None:
            if self.s1.n_bands != 2:
                raise ContainerError(f"s1 stack must have 2 bands, got {self.s1.n_bands}")
            if self.s1.shape != (h, w):
                raise ContainerError(
                    f"s1 shape {self.s1.shape} does not match s2 shape {(h, w)}"
                )
        if self.lr_labels.shape != (h, w):
            raise ContainerError(
                f"lr_labels shape {self.lr_labels.shape} does not match {(h, w)}"
            )
        if self.hr_labels is not None:
            if self.hr_labels.shape != (h, w):
                raise ContainerError(
                    f"hr_labels shape {self.hr_labels.shape} does not match {(h, w)}"
                )
            if self.hr_labels.scheme is not Scheme.SIMPLIFIED10:
                raise ContainerError("hr_labels must use the SIMPLIFIED10 scheme")


def _default_s2_names(n: int) -> tuple[str, ...]:
    if n == 13:
        return S2_ALL_BANDS
    if n == 10:
        return S2_SURFACE_BANDS
    return tuple(f"S2_{i + 1}" for i in range(n))


@dataclass(frozen=True)
class ContainerHeader:
    """The fixed-size header of a WLCB container: what it holds and its size."""

    height: int
    width: int
    s1_present: bool
    s2_bands: int
    hr_present: bool
    scheme: Scheme

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def size(self) -> int:
        """Bytes of the whole container this header describes."""
        n_float_planes = (2 if self.s1_present else 0) + self.s2_bands
        return _HEADER.size + self.pixels * (4 * n_float_planes + 1 + self.hr_present)


def _read_header(fh, path: Path) -> ContainerHeader:
    """Parse and check the header at the start of the open file fh, and the
    file's size against it, so no caller sizes anything from a header the
    file does not match."""
    data = fh.read(_HEADER.size)
    if len(data) < _HEADER.size:
        raise ContainerError(f"truncated header: {len(data)} bytes at offset 0 in {path}")
    magic, version, h, w, s1_present, s2_bands, hr_present, scheme_id = _HEADER.unpack(data)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r} at offset 0 in {path}")
    if version != FORMAT_VERSION:
        raise ContainerError(f"unsupported format version {version} at offset 4")
    if h < 1 or w < 1:
        raise ContainerError(f"illegal dimensions {h}x{w} at offset 6")
    if s1_present not in (0, 1) or hr_present not in (0, 1):
        raise ContainerError("s1/hr presence flags must be 0 or 1 (offsets 14, 16)")
    if s2_bands < 1:
        raise ContainerError("s2 band count must be >= 1 (offset 15)")
    try:
        scheme = Scheme(scheme_id)
    except ValueError:
        raise ContainerError(f"unknown scheme id {scheme_id} at offset 17") from None
    header = ContainerHeader(h, w, bool(s1_present), s2_bands, bool(hr_present), scheme)
    size = os.fstat(fh.fileno()).st_size
    if size != header.size:
        raise _size_error(size, header.size)
    return header


def read_header(path: str | Path) -> ContainerHeader:
    """Read and check the header of a WLCB container and the file's size,
    reading nothing past the header; a bad header or size raises the
    ContainerError read_patch raises for it."""
    path = Path(path)
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _size_error(size: int, expected: int) -> ContainerError:
    return ContainerError(
        f"container size {size} != expected {expected} "
        f"(truncated or trailing bytes after offset {min(size, expected)})"
    )


def read_patch(path: str | Path) -> Patch:
    """Load and validate a WLCB container; the patch id is the file stem.

    The payload is read once into one buffer, and the band stacks and label
    rasters are views of it."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        expected = header.size
        # the float planes start at offset 0 of the (aligned) payload buffer
        payload = np.empty(expected - _HEADER.size, dtype=np.uint8)
        got = fh.readinto(payload)
        if got != len(payload):  # the file shrank after the size check
            raise _size_error(_HEADER.size + got, expected)

    h, w, plane = header.height, header.width, header.pixels
    off = 0

    def take_planes(count: int, fieldname: str) -> np.ndarray:
        nonlocal off
        arr = payload[off : off + 4 * count * plane].view("<f4").reshape(count, h, w)
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ContainerError(
                f"non-finite value in {fieldname} at payload offset {_HEADER.size + off + 4 * bad}"
            )
        off += 4 * count * plane
        return arr

    s1 = None
    if header.s1_present:
        s1 = BandStack(take_planes(2, "s1"), S1_BAND_NAMES)
    s2 = BandStack(take_planes(header.s2_bands, "s2"), _default_s2_names(header.s2_bands))

    lr = payload[off : off + plane].reshape(h, w)
    off += plane
    hr_raster = None
    if header.hr_present:
        hr = payload[off : off + plane].reshape(h, w)
        hr_raster = LabelRaster(hr, Scheme.SIMPLIFIED10, "hr_labels")

    patch = Patch(
        id=path.stem,
        s2=s2,
        lr_labels=LabelRaster(lr, header.scheme, "lr_labels"),
        s1=s1,
        hr_labels=hr_raster,
    )
    patch._check_layout()  # take_planes checked every band value
    return patch


def _container_parts(patch: Patch) -> list:
    """The header bytes and every array of a validated patch, in file order;
    their buffers joined are the canonical container bytes."""
    patch.validate()
    h, w = patch.s2.shape
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        h,
        w,
        1 if patch.s1 is not None else 0,
        patch.s2.n_bands,
        1 if patch.hr_labels is not None else 0,
        patch.lr_labels.scheme.value,
    )
    stacks = [s for s in (patch.s1, patch.s2) if s is not None]
    rasters = [r for r in (patch.lr_labels, patch.hr_labels) if r is not None]
    # no copy on a little-endian host: these are the patch's own arrays
    return [
        header,
        *(np.ascontiguousarray(s.values, dtype="<f4") for s in stacks),
        *(np.ascontiguousarray(r.values) for r in rasters),
    ]


def patch_to_bytes(patch: Patch) -> bytes:
    """Serialize a validated patch to the canonical container bytes."""
    return b"".join(_container_parts(patch))


def atomic_write(path: str | Path, data: bytes | list) -> None:
    """Write bytes, or a list of buffers one after another, via a uniquely
    named same-directory temp file and rename. The temp file is created
    with mode 0o666, so the umask sets the file's permissions, as with
    ``open()``."""
    path = Path(path)
    parts = data if isinstance(data, list) else [data]
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_patch(patch: Patch, path: str | Path) -> None:
    """Write the container; read_patch inverts it bit-exactly. The header
    and each array go to the file in turn, with no whole-container copy."""
    atomic_write(path, _container_parts(patch))


@dataclass(frozen=True)
class SplitManifest:
    """Named list of patch ids with its benchmarking role.

    A patch id is a plain file name: the commands read ``{data_dir}/{id}.wlcb``
    and write outputs named by the id, so an id may not be empty, ``.`` or
    ``..``, or contain ``/``, ``\\`` or NUL, and no two ids are the same.
    """

    name: str
    role: SplitRole
    patch_ids: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ManifestError(f"manifest name must be a string, got {self.name!r}")
        object.__setattr__(self, "patch_ids", tuple(self.patch_ids))
        for pid in self.patch_ids:
            if (
                not isinstance(pid, str)
                or pid in ("", ".", "..")
                or any(c in pid for c in "/\\\0")
            ):
                raise ManifestError(
                    f"patch id {pid!r} in manifest {self.name!r} is not a plain file name"
                )
        if len(set(self.patch_ids)) != len(self.patch_ids):
            raise ManifestError(f"duplicate patch ids in manifest {self.name!r}")

    def __len__(self) -> int:
        return len(self.patch_ids)


def load_manifest(path: str | Path) -> SplitManifest:
    """Read a UTF-8 JSON manifest with fields name, role, patch_ids."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    for key in ("name", "role", "patch_ids"):
        if key not in raw:
            raise ManifestError(f"manifest {path} missing field {key!r}")
    try:
        role = SplitRole(str(raw["role"]).lower())
    except ValueError:
        raise ManifestError(f"unknown manifest role {raw['role']!r}") from None
    ids = raw["patch_ids"]
    if not isinstance(ids, list) or not all(isinstance(p, str) for p in ids):
        raise ManifestError(f"manifest {path} field 'patch_ids' must be a list of strings")
    return SplitManifest(raw["name"], role, tuple(ids))


def save_manifest(manifest: SplitManifest, path: str | Path) -> None:
    doc = {
        "name": manifest.name,
        "role": manifest.role.value,
        "patch_ids": list(manifest.patch_ids),
    }
    atomic_write(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def subsample_manifest(manifest: SplitManifest, n: int, seed: int) -> SplitManifest:
    """Uniformly subsample n ids without replacement; deterministic given seed."""
    if n < 0:
        raise ManifestError(f"subsample size must be >= 0, got {n}")
    if n > len(manifest):
        raise ManifestError(
            f"cannot subsample {n} from manifest of size {len(manifest)}"
        )
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(manifest), size=n, replace=False)
    ids = tuple(manifest.patch_ids[i] for i in idx)
    return SplitManifest(f"{manifest.name}-sub{n}", manifest.role, ids)


def iter_patches(manifest: SplitManifest, data_dir: str | Path) -> Iterable[Patch]:
    """Yield patches for every manifest id, expecting {data_dir}/{id}.wlcb."""
    data_dir = Path(data_dir)
    for pid in manifest.patch_ids:
        yield read_patch(data_dir / f"{pid}.wlcb")


def iter_headers(manifest: SplitManifest, data_dir: str | Path) -> Iterable[ContainerHeader]:
    """Yield the header of every manifest id's container, in manifest order,
    reading nothing past the headers."""
    data_dir = Path(data_dir)
    for pid in manifest.patch_ids:
        yield read_header(data_dir / f"{pid}.wlcb")


def _require_simplified(raster: LabelRaster, patch_id: str) -> np.ndarray:
    if raster.scheme is not Scheme.SIMPLIFIED10:
        raise ValueError(
            f"patch {patch_id!r} labels use {raster.scheme.name}; "
            "apply labels.simplify_igbp first"
        )
    return raster.values


@dataclass(frozen=True)
class ClassHistogram:
    """Label statistics of a split over SIMPLIFIED10 classes 1..10."""

    counts: np.ndarray             # 10 int64 pixel counts; invalid (0) pixels excluded
    fractions: np.ndarray          # counts / their sum, all zero when no pixel is valid
    classes_per_patch: np.ndarray  # entry i-1: patches with exactly i distinct valid classes
    patches: int
    with_hr_labels: int            # patches that carry an HR raster


def class_histogram(patches: Iterable[Patch], which: str = "lr") -> ClassHistogram:
    """Pixel counts, class fractions and per-patch class diversity of the
    ``which`` labels, in one pass that holds one patch at a time."""
    counts = np.zeros(N_SIMPLIFIED_CLASSES, dtype=np.int64)
    per_patch = np.zeros(N_SIMPLIFIED_CLASSES, dtype=np.int64)
    n_patches = with_hr = 0
    for patch in patches:
        vals = _require_simplified(patch.labels(which), patch.id)
        c = np.bincount(vals.ravel(), minlength=N_SIMPLIFIED_CLASSES + 1)[1:]
        counts += c
        n_distinct = int(np.count_nonzero(c))
        if n_distinct > 0:
            per_patch[n_distinct - 1] += 1
        n_patches += 1
        with_hr += patch.hr_labels is not None
    if n_patches == 0:
        raise ValueError("class_histogram needs at least one patch")
    total = counts.sum()
    fractions = counts / total if total > 0 else np.zeros(N_SIMPLIFIED_CLASSES)
    return ClassHistogram(counts, fractions, per_patch, n_patches, with_hr)
