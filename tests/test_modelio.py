"""Binary model container: round trips, determinism, and corruption handling."""

import dataclasses
import struct

import numpy as np
import pytest

from wlcbench.dataset import N_SIMPLIFIED_CLASSES
from wlcbench.maskedlr import logreg_fit
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
from wlcbench.models import ForestModel, KMeansModel, LogRegConfig, LogRegModel, Tree
from wlcbench.shallow import (
    align_clusters,
    kmeans_cluster_ids,
    kmeans_fit,
    kmeans_predict,
    rf_fit,
    rf_predict,
)


def hand_tree(feature, left, right):
    """A tree with the given node links, every node's probabilities 0.1."""
    n = len(feature)
    return Tree(
        feature=np.array(feature, dtype=np.int16),
        threshold=np.zeros(n),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        probs=np.full((n, 10), 0.1),
    )


def forest_bytes(feature, left, right, n_features=12):
    """A one-tree forest file with the given node links, which the writer
    would refuse if they are malformed: a one-leaf forest's header (magic,
    version, kind and 20 header bytes), then the tree laid out as the
    writer lays it out."""
    tree = hand_tree(feature, left, right)
    leaf = ForestModel((hand_tree([-1], [-1], [-1]),), 1, n_features, 0)
    return model_to_bytes(leaf)[:27] + b"".join([
        struct.pack("<I", tree.n_nodes),
        tree.feature.astype("<i2").tobytes(),
        tree.threshold.astype("<f4").tobytes(),
        tree.left.astype("<i4").tobytes(),
        tree.right.astype("<i4").tobytes(),
        tree.probs.astype("<f4").tobytes(),
    ])


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
    # the writer refuses what the reader refuses, so no such file is saved
    with pytest.raises(ModelIOError, match=message):
        model_to_bytes(ForestModel((hand_tree(feature, left, right),), 1, 12, 0))


def test_forest_without_trees_rejected(forest_model):
    blob = bytearray(model_to_bytes(forest_model[0])[:27])
    struct.pack_into("<I", blob, 7, 0)  # n_trees, the first header field
    with pytest.raises(ModelIOError, match="at least one tree"):
        model_from_bytes(bytes(blob))


def test_forest_writer_refuses_a_forest_the_reader_would(forest_model):
    model = forest_model[0]  # three trees that split on features 0..2
    with pytest.raises(ModelIOError, match="at least one tree"):
        model_to_bytes(dataclasses.replace(model, trees=()))
    with pytest.raises(ModelIOError, match=r"splits on a feature outside -1\.\.0"):
        model_to_bytes(dataclasses.replace(model, n_features=1))
    # the tree count is the number of trees, so a file cannot disagree with it
    fewer = dataclasses.replace(model, trees=model.trees[:2])
    back = model_from_bytes(model_to_bytes(fewer))
    assert fewer.n_trees == back.n_trees == 2
    X = forest_model[1]
    np.testing.assert_array_equal(rf_predict(back, X), rf_predict(fewer, X))


@pytest.mark.parametrize(
    "field, resize",
    [
        ("threshold", lambda a: a[:2]),
        ("left", lambda a: a[:2]),
        ("right", lambda a: np.append(a, -1)),
        ("probs", lambda a: a[:2]),
        ("probs", lambda a: a[:, :9]),
    ],
    ids=["2-thresholds", "2-left-links", "4-right-links", "2-probability-rows", "9-classes"],
)
def test_tree_arrays_of_another_length_than_its_nodes_are_not_saved(field, resize):
    # A 3-node tree with 2 thresholds once saved a file the reader misread
    # as "tree 0 has a leaf with children".
    tree = hand_tree([0, -1, -1], [1, -1, -1], [2, -1, -1])
    bad = dataclasses.replace(tree, **{field: resize(getattr(tree, field))})
    with pytest.raises(ModelIOError, match="tree 0 needs 3 thresholds"):
        model_to_bytes(ForestModel((bad,), 1, 12, 0))


def _poisoned(model, field, value):
    """A copy of model with the first entry of one of its stored float
    arrays set to value; "threshold" and "probs" hit the first tree's root
    and first leaf."""
    if isinstance(model, ForestModel):
        tree = model.trees[0]
        node = 0 if field == "threshold" else int(np.flatnonzero(tree.feature < 0)[0])
        arr = getattr(tree, field).copy()
        arr.reshape(len(tree.feature), -1)[node, 0] = value
        trees = (dataclasses.replace(tree, **{field: arr}),) + model.trees[1:]
        return dataclasses.replace(model, trees=trees)
    arr = getattr(model, field).copy()
    arr.flat[0] = value
    return dataclasses.replace(model, **{field: arr})


def _stored_offset(model, field):
    """Offset in model's file of the float32 entry _poisoned sets. Each
    file starts with magic, version and kind (7 bytes), then its header:
    28 bytes for k-means and logreg, 20 for a forest."""
    if isinstance(model, KMeansModel):
        return 35 + 1 + model.k  # after the has-map byte and k class bytes
    if isinstance(model, LogRegModel):
        return 35 + (0 if field == "weights" else 4 * model.weights.size)
    tree = model.trees[0]
    n = tree.n_nodes
    thresholds = 27 + 4 + 2 * n  # after n_nodes (u32) and the i2 features
    if field == "threshold":
        return thresholds
    leaf = int(np.flatnonzero(tree.feature < 0)[0])
    return thresholds + 12 * n + 4 * N_SIMPLIFIED_CLASSES * leaf  # past the i4 links


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "which, field, message",
    [
        ("kmeans", "centroids", "k-means centroids must be finite"),
        ("forest", "threshold", "tree 0's split thresholds must be finite"),
        ("forest", "probs", "tree 0's leaf probabilities must be finite"),
        ("logreg", "weights", "logreg weights must be finite"),
        ("logreg", "bias", "logreg bias must be finite"),
    ],
)
def test_non_finite_parameters_rejected(
    kmeans_model, forest_model, logreg_model, which, field, message, value
):
    model = {"kmeans": kmeans_model, "forest": forest_model, "logreg": logreg_model}[which][0]
    saved = model_to_bytes(model)
    assert model_to_bytes(model_from_bytes(saved)) == saved
    # the writer refuses to save such a model ...
    with pytest.raises(ModelIOError, match=message):
        model_to_bytes(_poisoned(model, field, value))
    # ... and the reader refuses such a file, written into a saved one
    blob = bytearray(saved)
    offset = _stored_offset(model, field)
    struct.pack_into("<f", blob, offset, 0.5)
    assert bytes(blob) == model_to_bytes(_poisoned(model, field, 0.5))  # the entry's offset
    struct.pack_into("<f", blob, offset, value)
    with pytest.raises(ModelIOError, match=message):
        model_from_bytes(bytes(blob))


@pytest.mark.parametrize(
    "offset, code, value, message",
    [
        (23, "<q", -1, "logreg header: seed must be >= 0, got -1"),
        (15, "<I", 0, "logreg header: batch_size must be >= 1, got 0"),
        (11, "<f", float("nan"), "logreg header: learning_rate must be finite"),
    ],
    ids=["seed", "batch_size", "learning_rate"],
)
def test_logreg_header_refused_like_its_config(logreg_model, offset, code, value, message):
    blob = bytearray(model_to_bytes(logreg_model[0]))
    # the header follows magic, version and kind (7 bytes): d (u32),
    # learning_rate (f32), batch_size (u32), epochs (u32), seed (i64)
    struct.pack_into(code, blob, offset, value)
    with pytest.raises(ModelIOError, match=message):
        model_from_bytes(bytes(blob))


BEYOND_F32 = np.array([[0.0], [1e39], [2e39], [3e39]])


@pytest.mark.parametrize(
    "which, message",
    [
        ("rf_fit", "tree 0's split thresholds must lie within float32 range"),
        ("kmeans_fit", r"inertia=.* does not fit the model file's float32 field"),
        ("centroids", "k-means centroids must lie within float32 range"),
        ("weights", "logreg weights must lie within float32 range"),
        ("bias", "logreg bias must lie within float32 range"),
    ],
)
def test_parameters_beyond_float32_are_refused_when_saved(
    kmeans_model, logreg_model, which, message
):
    if which == "rf_fit":
        model = rf_fit(BEYOND_F32, np.array([1, 1, 2, 2]), n_trees=1, max_depth=2, seed=0)
    elif which == "kmeans_fit":
        model = kmeans_fit(BEYOND_F32, k=2, n_init=1, seed=0)
    elif which == "centroids":
        model = _poisoned(kmeans_model[0], "centroids", 3e39)
    else:
        model = _poisoned(logreg_model[0], which, -3e39)
    with pytest.raises(ModelIOError, match=message):
        model_to_bytes(model)


def test_the_largest_float32_is_stored(logreg_model):
    top = float(np.finfo(np.float32).max)
    model = _poisoned(logreg_model[0], "weights", top)
    assert model_from_bytes(model_to_bytes(model)).weights.flat[0] == top


def _kmeans(k, cluster_to_class):
    return KMeansModel(
        centroids=np.zeros((k, 10)), inertia=0.0, cluster_to_class=cluster_to_class,
        seed=0, n_init=1, max_iter=1,
    )


def _kmeans_file(class_bytes, has_map=1):
    """A k-means file of len(class_bytes) zero centroids with these class
    bytes and has-map byte: the writer's bytes of a one-cluster model with
    k (after magic, version and kind), the has-map byte (after the 28-byte
    header) and what follows it patched."""
    k = len(class_bytes)
    head = bytearray(model_to_bytes(_kmeans(1, None))[:36])
    struct.pack_into("<I", head, 7, k)
    head[35] = has_map
    return bytes(head) + bytes(class_bytes) + bytes(4 * 10 * k)


@pytest.mark.parametrize(
    "class_bytes, has_map, message",
    [
        ([], 1, "a k-means model needs at least one cluster"),
        ([], 0, "a k-means model needs at least one cluster"),
        ([200, 0, 0], 1, "k-means cluster class 200 is outside 1..10"),
        ([11, 0, 1], 1, "k-means cluster class 11 is outside 1..10"),
        ([4, 0, 4], 1, "k-means class map gives two clusters the same class"),
        ([4, 0, 0], 2, "k-means has-map byte must be 0 or 1, got 2"),
        ([4, 0, 0], 255, "k-means has-map byte must be 0 or 1, got 255"),
        ([4, 0, 0], 0, "k-means model without a class map gives a cluster a class"),
    ],
    ids=["k0", "k0-unmapped", "class200", "class11", "repeated", "has-map2", "has-map255",
         "class-without-map"],
)
def test_kmeans_file_the_writer_cannot_produce_is_refused(class_bytes, has_map, message):
    # a fit has k >= 1 clusters, and align_clusters maps them one to one
    # onto class ids 1..10
    with pytest.raises(ModelIOError, match=message):
        model_from_bytes(_kmeans_file(class_bytes, has_map))


@pytest.mark.parametrize(
    "model, message",
    [
        (_kmeans(0, None), "a k-means model needs at least one cluster"),
        (_kmeans(0, {}), "a k-means model needs at least one cluster"),
        (_kmeans(3, {0: 200}), "k-means cluster class 200 is outside 1..10"),
        (_kmeans(3, {0: 300}), "k-means cluster class 300 is outside 1..10"),
        (_kmeans(3, {1: -1}), "k-means cluster class -1 is outside 1..10"),
        (_kmeans(3, {0: 4, 2: 4}), "k-means class map gives two clusters the same class"),
    ],
    ids=["k0", "k0-mapped", "class200", "class300", "class-1", "repeated"],
)
def test_kmeans_model_the_reader_would_refuse_is_not_written(model, tmp_path, message):
    with pytest.raises(ModelIOError, match=message):
        model_to_bytes(model)
    with pytest.raises(ModelIOError, match=message):
        save_model(model, tmp_path / "bad.wlcm")
    assert not (tmp_path / "bad.wlcm").exists()


def test_kmeans_partial_and_empty_class_maps_load():
    assert _kmeans_file([4, 0, 5]) == model_to_bytes(_kmeans(3, {0: 4, 2: 5}))
    assert _kmeans_file([0, 0, 0], has_map=0) == model_to_bytes(_kmeans(3, None))
    for mapping in ({}, {1: 10}, {0: 3, 1: 1, 2: 2}):
        back = model_from_bytes(model_to_bytes(_kmeans(3, mapping)))
        assert back.cluster_to_class == mapping


def _logreg(epochs, best):
    return LogRegModel(
        weights=np.zeros((10, 10)), bias=np.zeros(10), config=LogRegConfig(epochs=epochs),
        best_epoch=None if best == -1 else best,
    )


@pytest.mark.parametrize(
    "epochs, best, ok",
    [(3, -2, False), (3, -1, True), (3, 0, True), (3, 2, True), (3, 3, False),
     (0, -1, True), (0, 0, False)],
)
def test_logreg_best_epoch_must_be_none_or_a_trained_epoch(epochs, best, ok):
    blob = bytearray(model_to_bytes(_logreg(epochs, -1)))
    # best_epoch (i32) ends the 28-byte header that follows magic, version
    # and kind (7 bytes)
    assert struct.unpack_from("<i", blob, 31) == (-1,)
    struct.pack_into("<i", blob, 31, best)
    if ok:
        assert bytes(blob) == model_to_bytes(_logreg(epochs, best))
        assert model_from_bytes(bytes(blob)).best_epoch == (None if best == -1 else best)
        return
    message = f"best_epoch={best} is neither -1"
    with pytest.raises(ModelIOError, match=message):
        model_from_bytes(bytes(blob))
    with pytest.raises(ModelIOError, match=message):
        model_to_bytes(_logreg(epochs, best))
