"""Versioned binary model files shared by all trainable models.

Layout: magic ``WLCM``, format version (u16), model-kind byte, then a
kind-specific payload. Every integer is little-endian and every float is
32-bit, so files are byte-identical across platforms for the same model.
Training curves are not stored here; the command layer emits those as CSV.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .dataset import N_SIMPLIFIED_CLASSES, atomic_write
from .maskedlr import LogRegConfig, LogRegModel
from .shallow import ForestModel, KMeansModel, Tree

MODEL_MAGIC = b"WLCM"
MODEL_FORMAT_VERSION = 1

KIND_KMEANS = 1
KIND_FOREST = 2
KIND_LOGREG = 3

# Fixed header of each kind's payload, in file order: (field, struct code).
_HEADERS = {
    KIND_KMEANS: (
        ("k", "I"), ("d", "I"), ("n_init", "I"), ("max_iter", "I"),
        ("seed", "q"), ("inertia", "f"),
    ),
    KIND_FOREST: (("n_trees", "I"), ("max_depth", "I"), ("n_features", "I"), ("seed", "q")),
    KIND_LOGREG: (
        ("d", "I"), ("learning_rate", "f"), ("batch_size", "I"), ("epochs", "I"),
        ("seed", "q"), ("best_epoch", "i"),
    ),
}
_FIELD_RANGE = {"I": "u32, 0..4294967295", "i": "i32", "q": "i64", "f": "float32"}


def _header_format(kind: int) -> str:
    return "".join(code for _, code in _HEADERS[kind])


class ModelIOError(ValueError):
    """Raised for malformed or truncated model files."""


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        size = struct.calcsize(fmt)
        if self.off + size > len(self.data):
            raise ModelIOError(f"truncated model file at offset {self.off}")
        out = struct.unpack_from(fmt, self.data, self.off)
        self.off += size
        return out

    def array(self, dtype: str, count: int) -> np.ndarray:
        size = np.dtype(dtype).itemsize * count
        if self.off + size > len(self.data):
            raise ModelIOError(f"truncated model file at offset {self.off}")
        arr = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.off)
        self.off += size
        return arr

    def done(self) -> None:
        if self.off != len(self.data):
            raise ModelIOError(
                f"{len(self.data) - self.off} trailing bytes after offset {self.off}"
            )


def _f32(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _kmeans_payload(model: KMeansModel) -> bytes:
    parts = [
        struct.pack(
            "<" + _header_format(KIND_KMEANS),
            model.k,
            model.d,
            model.n_init,
            model.max_iter,
            model.seed,
            model.inertia,
        )
    ]
    class_of = np.zeros(model.k, dtype=np.uint8)  # 0 = unmapped
    if model.cluster_to_class is not None:
        for cluster, cls in model.cluster_to_class.items():
            class_of[cluster] = cls
    parts.append(struct.pack("<B", 1 if model.cluster_to_class is not None else 0))
    parts.append(class_of.tobytes())
    parts.append(_f32(model.centroids))
    return b"".join(parts)


def _kmeans_from(r: _Reader) -> KMeansModel:
    k, d, n_init, max_iter, seed, inertia = r.unpack(_header_format(KIND_KMEANS))
    (has_map,) = r.unpack("B")
    class_of = r.array("u1", k)
    centroids = r.array("<f4", k * d).astype(np.float64).reshape(k, d)
    mapping = None
    if has_map:
        mapping = {int(i): int(c) for i, c in enumerate(class_of) if c}
    return KMeansModel(
        centroids=centroids,
        inertia=float(inertia),
        cluster_to_class=mapping,
        seed=seed,
        n_init=n_init,
        max_iter=max_iter,
    )


def _forest_payload(model: ForestModel) -> bytes:
    parts = [
        struct.pack(
            "<" + _header_format(KIND_FOREST),
            model.n_trees,
            model.max_depth,
            model.n_features,
            model.seed,
        )
    ]
    for tree in model.trees:
        parts.append(struct.pack("<I", tree.n_nodes))
        parts.append(np.ascontiguousarray(tree.feature, dtype="<i2").tobytes())
        parts.append(_f32(tree.threshold))
        parts.append(np.ascontiguousarray(tree.left, dtype="<i4").tobytes())
        parts.append(np.ascontiguousarray(tree.right, dtype="<i4").tobytes())
        parts.append(_f32(tree.probs))
    return b"".join(parts)


def _check_tree(t: int, feature, left, right, n_features: int) -> None:
    """Raise ModelIOError unless tree t is a binary tree numbered in
    pre-order, with leaves marked by feature -1 and links -1, so routing
    ends at a leaf of the same tree after at most n_nodes - 1 steps."""
    n = len(feature)
    if n < 1:
        raise ModelIOError(f"tree {t} has no nodes")
    if feature.min() < -1 or feature.max() >= n_features:
        raise ModelIOError(f"tree {t} splits on a feature outside -1..{n_features - 1}")
    leaf = feature < 0
    if (left[leaf] != -1).any() or (right[leaf] != -1).any():
        raise ModelIOError(f"tree {t} has a leaf with children")
    inner = np.flatnonzero(~leaf)
    kids = np.concatenate([left[inner], right[inner]])
    if ((kids <= np.tile(inner, 2)) | (kids >= n)).any():
        raise ModelIOError(f"tree {t} links a node to a child outside (node, {n})")
    if (np.bincount(kids, minlength=n)[1:] != 1).any():
        raise ModelIOError(f"tree {t} has a non-root node without exactly one parent")


def _forest_from(r: _Reader) -> ForestModel:
    n_trees, max_depth, n_features, seed = r.unpack(_header_format(KIND_FOREST))
    if n_trees < 1:
        raise ModelIOError("a forest needs at least one tree")
    trees = []
    for t in range(n_trees):
        (n_nodes,) = r.unpack("I")
        feature = r.array("<i2", n_nodes).copy()
        threshold = r.array("<f4", n_nodes).astype(np.float64)
        left = r.array("<i4", n_nodes).copy()
        right = r.array("<i4", n_nodes).copy()
        _check_tree(t, feature, left, right, n_features)
        probs = r.array("<f4", n_nodes * N_SIMPLIFIED_CLASSES).astype(np.float64)
        probs = probs.reshape(n_nodes, N_SIMPLIFIED_CLASSES)
        trees.append(
            Tree(feature=feature, threshold=threshold, left=left, right=right, probs=probs)
        )
    return ForestModel(
        trees=tuple(trees),
        n_trees=n_trees,
        max_depth=max_depth,
        n_features=n_features,
        seed=seed,
    )


def _logreg_payload(model: LogRegModel) -> bytes:
    cfg = model.config
    best = -1 if model.best_epoch is None else model.best_epoch
    return b"".join(
        [
            struct.pack(
                "<" + _header_format(KIND_LOGREG),
                model.d,
                cfg.learning_rate,
                cfg.batch_size,
                cfg.epochs,
                cfg.seed,
                best,
            ),
            _f32(model.weights),
            _f32(model.bias),
        ]
    )


def _logreg_from(r: _Reader) -> LogRegModel:
    d, lr, batch, epochs, seed, best = r.unpack(_header_format(KIND_LOGREG))
    weights = r.array("<f4", d * N_SIMPLIFIED_CLASSES).astype(np.float64)
    weights = weights.reshape(d, N_SIMPLIFIED_CLASSES)
    bias = r.array("<f4", N_SIMPLIFIED_CLASSES).astype(np.float64)
    return LogRegModel(
        weights=weights,
        bias=bias,
        config=LogRegConfig(
            learning_rate=float(lr), batch_size=batch, epochs=epochs, seed=seed
        ),
        best_epoch=None if best < 0 else best,
    )


AnyModel = KMeansModel | ForestModel | LogRegModel

#: kind byte -> (model class, payload writer, payload reader)
_KINDS = {
    KIND_KMEANS: (KMeansModel, _kmeans_payload, _kmeans_from),
    KIND_FOREST: (ForestModel, _forest_payload, _forest_from),
    KIND_LOGREG: (LogRegModel, _logreg_payload, _logreg_from),
}
_KIND_OF = {model_type: kind for kind, (model_type, _, _) in _KINDS.items()}


def check_fields(model_type: type, **values) -> None:
    """Raise ValueError unless each value fits the header field of that name
    in ``model_type``'s files, so a command can refuse a hyperparameter
    before fitting instead of failing to save the fitted model."""
    codes = dict(_HEADERS[_KIND_OF[model_type]])
    for name, value in values.items():
        try:
            struct.pack("<" + codes[name], value)
        except (struct.error, OverflowError):
            raise ValueError(
                f"{name}={value!r} does not fit the model file's "
                f"{_FIELD_RANGE[codes[name]]} field"
            ) from None


def model_to_bytes(model: AnyModel) -> bytes:
    kind = _KIND_OF.get(type(model))
    if kind is None:
        raise ModelIOError(f"unsupported model type {type(model).__name__}")
    _, write_payload, _ = _KINDS[kind]
    return MODEL_MAGIC + struct.pack("<HB", MODEL_FORMAT_VERSION, kind) + write_payload(model)


def model_from_bytes(data: bytes) -> AnyModel:
    r = _Reader(data)
    magic, version, kind = r.unpack("4sHB")
    if magic != MODEL_MAGIC:
        raise ModelIOError(f"bad magic {magic!r}; not a model file")
    if version != MODEL_FORMAT_VERSION:
        raise ModelIOError(f"unsupported model format version {version}")
    if kind not in _KINDS:
        raise ModelIOError(f"unknown model kind {kind}")
    _, _, read_payload = _KINDS[kind]
    model = read_payload(r)
    r.done()
    return model


def save_model(model: AnyModel, path: str | Path) -> None:
    atomic_write(path, model_to_bytes(model))


def load_model(path: str | Path) -> AnyModel:
    return model_from_bytes(Path(path).read_bytes())
