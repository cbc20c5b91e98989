"""Binary model container: round trips, determinism, and corruption handling."""

import struct

import numpy as np
import pytest

from wlcbench.maskedlr import LogRegConfig, logreg_fit
from wlcbench.modelio import (
    KIND_FOREST,
    KIND_KMEANS,
    KIND_LOGREG,
    MODEL_MAGIC,
    ModelIOError,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
)
from wlcbench.shallow import (
    ForestModel,
    Tree,
    align_clusters,
    kmeans_cluster_ids,
    kmeans_fit,
    kmeans_predict,
    rf_fit,
    rf_predict,
)


def forest_bytes(feature, left, right, n_features=12):
    """A one-tree forest file with the given node links, written unchecked."""
    n = len(feature)
    tree = Tree(
        feature=np.array(feature, dtype=np.int16),
        threshold=np.zeros(n),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        probs=np.full((n, 10), 0.1),
    )
    return model_to_bytes(ForestModel((tree,), 1, 1, n_features, 0))


def f32(x):
    """Values as they survive the file's 32-bit floats."""
    return np.asarray(x, dtype=np.float32).astype(np.float64)


@pytest.fixture
def kmeans_model(rng):
    X = rng.random((60, 4))
    model = kmeans_fit(X, k=3, n_init=2, seed=1)
    clusters = kmeans_cluster_ids(model, X)
    reference = rng.integers(1, 11, 60).astype(np.uint8)
    model.cluster_to_class = align_clusters(clusters, reference)
    return model, X


@pytest.fixture
def forest_model(rng):
    X = rng.random((50, 3))
    y = rng.integers(1, 5, 50).astype(np.uint8)
    return rf_fit(X, y, n_trees=3, max_depth=3, seed=2), X


@pytest.fixture
def logreg_model(rng):
    X = rng.random((40, 2))
    y = rng.integers(1, 4, 40).astype(np.uint8)
    config = LogRegConfig(epochs=3, batch_size=16, seed=5)
    return logreg_fit(X, y, config=config, holdout=(X, y)), X


def test_header_layout(kmeans_model):
    blob = model_to_bytes(kmeans_model[0])
    assert blob[:4] == MODEL_MAGIC
    version, kind = struct.unpack_from("<HB", blob, 4)
    assert version == 1
    assert kind == KIND_KMEANS


def test_kind_bytes_differ(kmeans_model, forest_model, logreg_model):
    kinds = {
        model_to_bytes(m)[6]
        for m in (kmeans_model[0], forest_model[0], logreg_model[0])
    }
    assert kinds == {KIND_KMEANS, KIND_FOREST, KIND_LOGREG}


def test_kmeans_roundtrip_predictions_and_fields(kmeans_model):
    model, X = kmeans_model
    back = model_from_bytes(model_to_bytes(model))
    np.testing.assert_array_equal(back.centroids, f32(model.centroids))
    assert back.cluster_to_class == model.cluster_to_class
    assert (back.seed, back.n_init, back.max_iter) == (1, 2, 300)
    assert back.inertia == pytest.approx(model.inertia, rel=1e-6)
    np.testing.assert_array_equal(
        kmeans_predict(back, f32(X)), kmeans_predict(model, X)
    )


def test_kmeans_unmapped_roundtrip(rng):
    model = kmeans_fit(rng.random((20, 2)), k=2, n_init=1, seed=0)
    assert model.cluster_to_class is None
    back = model_from_bytes(model_to_bytes(model))
    assert back.cluster_to_class is None


def test_forest_roundtrip_exact_trees(forest_model):
    model, X = forest_model
    back = model_from_bytes(model_to_bytes(model))
    assert back.n_trees == 3 and back.max_depth == 3
    assert back.n_features == 3 and back.seed == 2
    for t_in, t_out in zip(model.trees, back.trees):
        np.testing.assert_array_equal(t_out.feature, t_in.feature)
        np.testing.assert_array_equal(t_out.left, t_in.left)
        np.testing.assert_array_equal(t_out.right, t_in.right)
        np.testing.assert_array_equal(t_out.threshold, f32(t_in.threshold))
        np.testing.assert_array_equal(t_out.probs, f32(t_in.probs))


def test_forest_roundtrip_predictions_match(forest_model):
    # thresholds in [0, 1] stay order-compatible after the f32 narrowing for
    # the training rows themselves (midpoints of f32-representable values)
    model, X = forest_model
    back = model_from_bytes(model_to_bytes(model))
    np.testing.assert_array_equal(rf_predict(back, X), rf_predict(model, X))


def test_logreg_roundtrip(logreg_model):
    model, X = logreg_model
    back = model_from_bytes(model_to_bytes(model))
    np.testing.assert_array_equal(back.weights, f32(model.weights))
    np.testing.assert_array_equal(back.bias, f32(model.bias))
    assert back.best_epoch == model.best_epoch
    cfg = back.config
    assert (cfg.batch_size, cfg.epochs, cfg.seed) == (16, 3, 5)
    assert cfg.learning_rate == pytest.approx(0.1, rel=1e-6)


def test_logreg_none_best_epoch(rng):
    X = rng.random((10, 2))
    y = np.ones(10, dtype=np.uint8)
    model = logreg_fit(X, y, config=LogRegConfig(epochs=1))
    assert model.best_epoch is None
    assert model_from_bytes(model_to_bytes(model)).best_epoch is None


def test_serialization_is_deterministic(kmeans_model, forest_model):
    for model, _ in (kmeans_model, forest_model):
        assert model_to_bytes(model) == model_to_bytes(model)


def test_double_roundtrip_is_fixed_point(forest_model):
    blob = model_to_bytes(forest_model[0])
    assert model_to_bytes(model_from_bytes(blob)) == blob


def test_save_load_files(tmp_path, kmeans_model):
    model, X = kmeans_model
    path = tmp_path / "model.wlcm"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(
        kmeans_predict(back, f32(X)), kmeans_predict(model, X)
    )
    assert not list(tmp_path.glob("*.tmp*"))


def test_bad_magic_rejected(kmeans_model):
    blob = bytearray(model_to_bytes(kmeans_model[0]))
    blob[:4] = b"XXXX"
    with pytest.raises(ModelIOError, match="magic"):
        model_from_bytes(bytes(blob))


def test_bad_version_rejected(kmeans_model):
    blob = bytearray(model_to_bytes(kmeans_model[0]))
    struct.pack_into("<H", blob, 4, 9)
    with pytest.raises(ModelIOError, match="version 9"):
        model_from_bytes(bytes(blob))


def test_bad_kind_rejected(kmeans_model):
    blob = bytearray(model_to_bytes(kmeans_model[0]))
    blob[6] = 77
    with pytest.raises(ModelIOError, match="kind 77"):
        model_from_bytes(bytes(blob))


@pytest.mark.parametrize("cut", [3, 6, 10, -5])
def test_truncation_rejected(forest_model, cut):
    blob = model_to_bytes(forest_model[0])
    with pytest.raises(ModelIOError, match="truncated"):
        model_from_bytes(blob[:cut])


def test_trailing_bytes_rejected(logreg_model):
    blob = model_to_bytes(logreg_model[0])
    with pytest.raises(ModelIOError, match="trailing"):
        model_from_bytes(blob + b"\x00")


def test_unsupported_model_type():
    with pytest.raises(ModelIOError, match="unsupported"):
        model_to_bytes(object())


def test_well_formed_hand_built_forest_loads():
    model = model_from_bytes(forest_bytes([3, -1, -1], [1, -1, -1], [2, -1, -1]))
    np.testing.assert_array_equal(model.trees[0].left, [1, -1, -1])


@pytest.mark.parametrize(
    "feature, left, right, message",
    [
        ([], [], [], "no nodes"),
        ([0, -1, -1], [0, -1, -1], [2, -1, -1], "child outside"),
        ([0, -1, -1], [10**6, -1, -1], [2, -1, -1], "child outside"),
        ([0, -1, 0, -1], [1, -1, 1, -1], [2, -1, 3, -1], "child outside"),
        ([99, -1, -1], [1, -1, -1], [2, -1, -1], "feature outside -1..11"),
        ([-2, -1, -1], [1, -1, -1], [2, -1, -1], "feature outside"),
        ([0, -1, -1], [1, 2, -1], [2, -1, -1], "leaf with children"),
        ([0, 0, -1, -1], [1, 2, -1, -1], [3, 3, -1, -1], "exactly one parent"),
        ([0, -1, -1, -1], [1, -1, -1, -1], [2, -1, -1, -1], "exactly one parent"),
    ],
    ids=[
        "no-nodes", "root-links-itself", "child-past-the-end", "child-before-parent",
        "feature-too-high", "feature-below-leaf-mark", "leaf-with-children",
        "two-parents", "no-parent",
    ],
)
def test_malformed_forest_structure_rejected(feature, left, right, message):
    with pytest.raises(ModelIOError, match=message):
        model_from_bytes(forest_bytes(feature, left, right))


def test_forest_without_trees_rejected():
    blob = model_to_bytes(ForestModel((), 0, 1, 12, 0))
    with pytest.raises(ModelIOError, match="at least one tree"):
        model_from_bytes(blob)
