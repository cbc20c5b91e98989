"""The apply commands stream their split: the same numbers and bytes as the
whole-split computations in ``stream_reference``, memory that does not grow
with the split, and one JSON error line when a container is bad."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlcbench import cli as cli_module, dataset, metrics, modelio, shallow
from wlcbench.cli import main
from wlcbench.dataset import (
    LabelRaster,
    Scheme,
    SplitManifest,
    SplitRole,
    class_histogram,
    iter_patches,
    load_manifest,
    patch_to_bytes,
    save_manifest,
    write_patch,
)
from wlcbench.labels import IGBP_TO_SIMPLIFIED, SAVANNA, SIMPLIFIED_CLASS_NAMES, as_simplified
from wlcbench.maskedlr import logreg_predict
from wlcbench.modelio import load_model
from wlcbench.models import ForestModel, KMeansModel, LogRegConfig, LogRegModel, Tree
from wlcbench.preprocess import FeatureMatrix, FusionConfig, assemble_features
from wlcbench.render import render_labels

from conftest import make_patch, traced_peak
from kmeans_reference import reference_kmeans, reference_nearest
from logreg_reference import reference_fit
from preprocess_reference import reference_assemble_features
from rf_reference import reference_trees
from stream_reference import (
    reference_aggregate_confusion,
    reference_class_histogram,
    reference_classes_per_patch,
    reference_transition,
)


def seeded_patches(seed: int, n: int = 12, drop_hr: bool = False):
    """Random-size patches; every third has IGBP17 LR labels, and with
    ``drop_hr`` every fourth lacks HR labels."""
    rng = np.random.default_rng(seed)
    patches = []
    for i in range(n):
        h, w = rng.integers(1, 9, 2)
        igbp = i % 3 == 2
        lr = rng.integers(0, 18 if igbp else 11, (h, w))
        hr = rng.integers(0, 11, (h, w))
        if drop_hr and i % 4 == 1:
            hr = None
        patches.append(
            make_patch(
                lr, hr, patch_id=f"p{i}", lr_scheme=Scheme.IGBP17 if igbp else Scheme.SIMPLIFIED10
            )
        )
    return patches


def simplified(patches):
    return [dataclasses.replace(p, lr_labels=as_simplified(p.lr_labels)) for p in patches]


# --- the streamed statistics equal the whole-split ones ---------------------

@pytest.mark.parametrize("seed", range(6))
def test_summed_transition_counts_equal_the_concatenated_ones(seed):
    patches = seeded_patches(seed)
    joint = metrics.aggregate_confusion(
        iter(patches), pred="hr", ref="lr", masked_classes=frozenset()
    )
    tm = metrics.transition_matrix(joint)
    ref = reference_transition(patches)
    np.testing.assert_array_equal(tm.probs, ref.probs)
    np.testing.assert_array_equal(tm.row_support, ref.row_support)
    np.testing.assert_array_equal(joint.counts.sum(axis=1), ref.row_support)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pred, ref", [("lr", "hr"), ("hr", "lr"), ("lr", "lr")])
@pytest.mark.parametrize(
    "masked", [frozenset(), frozenset({SAVANNA}), frozenset({1, 4, 10})], ids=["none", "sav", "three"]
)
def test_summed_pair_counts_equal_the_per_patch_matrices(seed, pred, ref, masked):
    patches = seeded_patches(seed)
    got = metrics.aggregate_confusion(iter(patches), pred=pred, ref=ref, masked_classes=masked)
    want = reference_aggregate_confusion(patches, pred, ref, masked)
    assert got.counts.dtype == np.int64
    np.testing.assert_array_equal(got.counts, want.counts)


def test_aggregate_confusion_keeps_the_per_patch_checks():
    uneven = [make_patch([[1, 2]], [[1, 2]]), make_patch([[1, 2]], [[1], [2]], patch_id="p1")]
    with pytest.raises(ValueError, match="shape mismatch"):
        metrics.aggregate_confusion(uneven)
    with pytest.raises(ValueError, match="no patches"):
        metrics.aggregate_confusion(iter([]))


def test_transition_from_counts_keeps_the_joint_support_error():
    with pytest.raises(ValueError, match="no jointly valid pixels"):
        metrics.transition_matrix(metrics.ConfusionMatrix.zero())
    blank = [make_patch([[0, 1]], [[1, 0]])]
    joint = metrics.aggregate_confusion(blank, pred="hr", ref="lr", masked_classes=frozenset())
    with pytest.raises(ValueError, match="no jointly valid pixels"):
        metrics.transition_matrix(joint)


def test_streamed_transition_and_reference_refuse_a_patch_without_hr():
    patches = seeded_patches(3, drop_hr=True)
    for compute in (
        reference_transition,
        lambda ps: metrics.aggregate_confusion(iter(ps), pred="hr", ref="lr",
                                               masked_classes=frozenset()),
    ):
        with pytest.raises(ValueError, match="'p1' lacks hr labels"):
            compute(patches)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("which", ["lr", "hr"])
def test_one_pass_histogram_equals_the_two_pass_reference(seed, which):
    patches = simplified(seeded_patches(seed, drop_hr=which == "lr"))
    hist = class_histogram(iter(patches), which=which)
    counts, fractions = reference_class_histogram(patches, which)
    np.testing.assert_array_equal(hist.counts, counts)
    np.testing.assert_array_equal(hist.fractions, fractions)
    np.testing.assert_array_equal(
        hist.classes_per_patch, reference_classes_per_patch(patches, which)
    )
    assert hist.patches == len(patches)
    assert hist.with_hr_labels == sum(p.hr_labels is not None for p in patches)


def test_histogram_of_invalid_pixels_only():
    hist = class_histogram([make_patch(np.zeros((3, 3)), patch_id="z")])
    assert hist.counts.sum() == 0 and hist.fractions.sum() == 0.0
    assert hist.classes_per_patch.sum() == 0 and hist.patches == 1


# --- command outputs equal the whole-split computations ----------------------

def cli(*argv):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def split_args(d, manifest="manifest.json"):
    return ["--manifest", d / manifest, "--data-dir", d]


@pytest.fixture(scope="module")
def mixed_split(tmp_path_factory):
    """Six 32 px synthetic scenes; scenes 1 and 4 carry IGBP17 LR labels
    (each class written as the first IGBP id that simplifies to it)."""
    d = tmp_path_factory.mktemp("mixed")
    assert cli("synth", "--out", d, "--size", 32, "--block-factor", 8,
               "--n-scenes", 6, "--seed", 3)[0] == 0
    to_igbp = np.array([int(np.flatnonzero(IGBP_TO_SIMPLIFIED == c)[0]) for c in range(11)])
    for p in iter_patches(load_manifest(d / "manifest.json"), d):
        if p.id in ("scene-00001", "scene-00004"):
            lr = LabelRaster(to_igbp[p.lr_labels.values], Scheme.IGBP17)
            write_patch(dataclasses.replace(p, lr_labels=lr), d / f"{p.id}.wlcb")
    return d


@pytest.fixture(scope="module")
def rf_model(mixed_split, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "rf.wlcm"
    code, _, err = cli("train", *split_args(mixed_split), "--model", "rf", "--trees", 3,
                       "--depth", 5, "--out", path)
    assert code == 0, err
    return path


def loaded(d):
    """The split as a list, LR labels simplified, as the commands once held it."""
    manifest = load_manifest(d / "manifest.json")
    return manifest, simplified(iter_patches(manifest, d))


@pytest.mark.parametrize("which", ["lr", "hr"])
def test_stats_output_equals_the_reference(mixed_split, tmp_path, which):
    manifest, patches = loaded(mixed_split)
    code, out, _ = cli("stats", *split_args(mixed_split), "--which", which,
                       "--out", tmp_path / "s.json")
    assert code == 0
    counts, fractions = reference_class_histogram(patches, which)
    doc = {
        "manifest": manifest.name,
        "patches": len(patches),
        "which": which,
        "class_counts": {n: int(c) for n, c in zip(SIMPLIFIED_CLASS_NAMES, counts)},
        "class_fractions": {n: float(f) for n, f in zip(SIMPLIFIED_CLASS_NAMES, fractions)},
        "classes_per_patch_histogram": [
            int(v) for v in reference_classes_per_patch(patches, which)
        ],
        "with_hr_labels": len(patches),
    }
    assert out == json.dumps(doc) + "\n"
    assert (tmp_path / "s.json").read_text() == json.dumps(doc, indent=2) + "\n"


def test_transition_output_equals_the_reference(mixed_split, tmp_path):
    _, patches = loaded(mixed_split)
    code, out, _ = cli("transition", *split_args(mixed_split), "--out", tmp_path / "t.csv")
    assert code == 0
    tm = reference_transition(patches)
    assert (tmp_path / "t.csv").read_text() == metrics.matrix_csv(tm.probs, ".6f")
    support = {n: int(s) for n, s in zip(SIMPLIFIED_CLASS_NAMES, tm.row_support)}
    assert out == json.dumps({"out": str(tmp_path / "t.csv"), "row_support": support}) + "\n"


@pytest.mark.parametrize("mask", ["true", "false"])
def test_evaluate_output_equals_the_reference(mixed_split, tmp_path, mask):
    _, patches = loaded(mixed_split)
    code, out, _ = cli("evaluate", *split_args(mixed_split), "--mask-savanna", mask,
                       "--csv", tmp_path / "e.csv", "--matrix", tmp_path / "m.csv")
    assert code == 0
    masked = frozenset({SAVANNA}) if mask == "true" else frozenset()
    cm = metrics.aggregate_confusion(patches, pred="lr", ref="hr", masked_classes=masked)
    rep = metrics.report(cm)
    assert out == metrics.report_json(rep) + "\n"
    assert (tmp_path / "e.csv").read_text() == metrics.report_csv(rep)
    assert (tmp_path / "m.csv").read_text() == metrics.matrix_csv(cm.counts, "d")


@pytest.mark.parametrize("which", ["lr", "hr"])
def test_render_output_equals_the_reference(mixed_split, tmp_path, which):
    manifest, patches = loaded(mixed_split)
    code, out, _ = cli("render", *split_args(mixed_split), "--which", which,
                       "--out", tmp_path / "r")
    assert code == 0
    assert out == json.dumps({"rendered": len(patches), "out": str(tmp_path / "r")}) + "\n"
    assert sorted(os.listdir(tmp_path / "r")) == [f"{i}.ppm" for i in manifest.patch_ids]
    for p in patches:
        assert (tmp_path / "r" / f"{p.id}.ppm").read_bytes() == render_labels(p.labels(which))


def test_predict_output_equals_the_reference(mixed_split, rf_model, tmp_path):
    manifest, patches = loaded(mixed_split)
    code, out, _ = cli("predict", *split_args(mixed_split), "--model-file", rf_model,
                       "--out", tmp_path / "p")
    assert code == 0
    assert out == json.dumps({"patches": len(patches), "out": str(tmp_path / "p")}) + "\n"
    model = load_model(rf_model)
    fusion = FusionConfig.from_string("s2")
    for p in patches:
        pred = shallow.rf_predict(model, assemble_features(p, fusion))
        raster = LabelRaster(pred.reshape(p.height, p.width), Scheme.SIMPLIFIED10)
        expected = patch_to_bytes(dataclasses.replace(p, lr_labels=raster))
        assert (tmp_path / "p" / f"{p.id}.wlcb").read_bytes() == expected
    back = load_manifest(tmp_path / "p" / "manifest.json")
    assert (back.name, back.role, back.patch_ids) == (
        f"{manifest.name}-pred", manifest.role, manifest.patch_ids
    )


def float64_training_features(d, fusion, mask_savanna):
    """The split's features as train once held them: every pixel's row of
    the reference assembly in one float64 FeatureMatrix, Savanna masked out
    with with_mask, and the simplified LR labels."""
    _, patches = loaded(d)
    parts = [reference_assemble_features(p, FusionConfig.from_string(fusion)) for p in patches]
    labels = np.concatenate([p.lr_labels.values.ravel() for p in patches])
    feats = FeatureMatrix(
        np.vstack([f.values for f in parts]), np.concatenate([f.valid_mask for f in parts])
    )
    return (feats.with_mask(labels != SAVANNA) if mask_savanna else feats), labels


@pytest.mark.parametrize("mask", [True, False])
@pytest.mark.parametrize("model", ["kmeans", "rf", "logreg"])
def test_train_writes_the_bytes_of_a_fit_on_float64_features(mixed_split, tmp_path, model, mask):
    fusion = "s1s2" if model == "rf" else "s2"
    flags = {
        "kmeans": ["--seed", 2],
        "rf": ["--trees", 3, "--depth", 6, "--seed", 4],
        "logreg": ["--epochs", 3, "--lr", 1.0, "--seed", 5],
    }[model]
    # a copy of the split with a block of no-data LR labels in one scene
    d = Path(shutil.copytree(mixed_split, tmp_path / "split"))
    patch = next(iter_patches(load_manifest(d / "manifest.json"), d))
    lr = patch.lr_labels.values.copy()
    lr[4:12, 8:20] = 0
    write_patch(dataclasses.replace(patch, lr_labels=LabelRaster(lr, Scheme.SIMPLIFIED10)),
                d / f"{patch.id}.wlcb")
    path = tmp_path / "m.wlcm"
    code, out, err = cli("train", *split_args(d), "--model", model, "--fusion", fusion,
                         "--mask-savanna", str(mask).lower(), *flags, "--out", path)
    assert code == 0, err

    # the reference fits, on the float64 rows
    feats, labels = float64_training_features(d, fusion, mask)
    rows = feats.valid_mask & (labels != 0)
    if model == "kmeans":
        k = len(np.unique(labels[rows]))
        centroids, inertia, history = reference_kmeans(feats.values[rows], k, 10, 300, 2)
        centroids = centroids.astype(np.float32).astype(np.float64)
        clusters, _ = reference_nearest(feats.values, centroids)
        want = KMeansModel(centroids, inertia, None, 2, 10, 300, history)
        valid = feats.valid_mask
        want.cluster_to_class = shallow.align_clusters(clusters[valid], labels[valid])
        curve = "iteration,inertia\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(history))
    elif model == "rf":
        trees = reference_trees(feats.values[rows], labels[rows], 3, 6, 4)
        want = ForestModel(tuple(Tree(*t) for t in trees), 6, 12, 4)
        curve = "tree,n_nodes\n" + "".join(f"{i},{t.n_nodes}\n" for i, t in enumerate(want.trees))
    else:
        want = reference_fit(feats, labels, LogRegConfig(learning_rate=1.0, epochs=3, seed=5))
        curve = "epoch,loss,holdout_aa\n" + "".join(
            f"{i},{v!r},\n" for i, v in enumerate(want.loss_curve)
        )
    assert path.read_bytes() == modelio.model_to_bytes(want)
    assert Path(f"{path}.curve.csv").read_text() == curve
    dropped = (labels == 0) | ((labels == SAVANNA) if mask else False)
    assert json.loads(out)["training_rows"] == rows.sum() == len(labels) - dropped.sum()
    assert (labels == 0).sum() == 96 and (not mask or (labels == SAVANNA).any())


def whole_patch_prediction(model, patch) -> np.ndarray:
    """The labels of one prediction over every pixel of the patch at once."""
    feats = assemble_features(patch, FusionConfig())
    if isinstance(model, KMeansModel):
        return shallow.kmeans_predict(model, feats)
    if isinstance(model, ForestModel):
        return shallow.rf_predict(model, feats)
    return logreg_predict(model, feats, exclude_classes=frozenset({SAVANNA}))


def test_predict_output_equals_the_reference_across_patch_sizes(model_files, tmp_path):
    # predict walks each patch in row blocks of one reused buffer; its labels
    # equal one whole-patch prediction on a patch of one pixel, of one full
    # block, of one block and a one-row tail joined to it, and of blocks with
    # a partial last one, a small patch following a large one
    rng = np.random.default_rng(11)
    d = tmp_path / "sizes"
    d.mkdir()
    patches = []
    for i, (h, w) in enumerate([(64, 64), (1, 1), (129, 129), (1, 4097), (65, 65)]):
        lr = rng.integers(0, 11, (h, w), dtype=np.uint8)
        s2 = rng.uniform(-500, 1.2e4, (10, h, w))
        patches.append(make_patch(lr, s2=s2, patch_id=f"p{i}"))
        write_patch(patches[-1], d / f"p{i}.wlcb")
    save_manifest(SplitManifest("sizes", SplitRole.TEST, [p.id for p in patches]),
                  d / "manifest.json")
    for kind, data in sorted(model_files.items()):
        path = tmp_path / f"{kind}.wlcm"
        path.write_bytes(data)
        code, _, err = cli("predict", *split_args(d), "--model-file", path,
                           "--out", tmp_path / kind)
        assert code == 0, err
        model = load_model(path)
        for p in patches:
            pred = whole_patch_prediction(model, p)
            raster = LabelRaster(pred.reshape(p.height, p.width), Scheme.SIMPLIFIED10)
            expected = patch_to_bytes(dataclasses.replace(p, lr_labels=raster))
            got = (tmp_path / kind / f"{p.id}.wlcb").read_bytes()
            assert got == expected, (kind, p.height, p.width)


# --- memory does not grow with the split -------------------------------------

@pytest.fixture(scope="module")
def sized_splits(tmp_path_factory):
    """32 scenes of 32 px; manifest-8.json lists the first 8 of them."""
    d = tmp_path_factory.mktemp("sized")
    assert cli("synth", "--out", d, "--size", 32, "--block-factor", 8,
               "--n-scenes", 32, "--seed", 5)[0] == 0
    full = load_manifest(d / "manifest.json")
    save_manifest(SplitManifest("first8", SplitRole.TRAIN, full.patch_ids[:8]),
                  d / "manifest-8.json")
    model = d / "rf.wlcm"
    assert cli("train", *split_args(d, "manifest-8.json"), "--model", "rf", "--trees", 2,
               "--depth", 4, "--out", model)[0] == 0
    return d, model


def command_peak(argv) -> int:
    """tracemalloc peak of one in-process command, in bytes."""
    peak, (code, _, err) = traced_peak(lambda: cli(*argv))
    assert code == 0, err
    return peak


@pytest.mark.parametrize("command", ["predict", "transition", "stats"])
def test_peak_memory_does_not_grow_with_the_split(sized_splits, tmp_path, command):
    d, model = sized_splits
    container = os.path.getsize(d / "scene-00000.wlcb")

    def argv(manifest, run):
        extra = {
            "predict": ["--model-file", model, "--out", tmp_path / f"pred-{run}"],
            "transition": ["--out", tmp_path / f"t-{run}.csv"],
            "stats": [],
        }[command]
        return [command, *split_args(d, manifest), *extra]

    cli(*argv("manifest-8.json", "warm"))
    small = command_peak(argv("manifest-8.json", "8"))
    large = command_peak(argv("manifest.json", "32"))
    assert large - small < 2 * container, (
        f"{command}: peak {small / container:.1f} -> {large / container:.1f} containers"
    )


@pytest.fixture(scope="module")
def scene_sizes(tmp_path_factory):
    """Two scenes of 64 px in s64, two of 256 px in s256, and a model of each
    kind trained on s64."""
    d = tmp_path_factory.mktemp("scene-sizes")
    for size in (64, 256):
        assert cli("synth", "--out", d / f"s{size}", "--size", size, "--n-scenes", 2,
                   "--seed", 3)[0] == 0
    flags = {"kmeans": ["--k", 4], "rf": ["--trees", 2, "--depth", 4], "logreg": ["--epochs", 1]}
    for kind, extra in flags.items():
        assert cli("train", *split_args(d / "s64"), "--model", kind, *extra,
                   "--out", d / f"{kind}.wlcm")[0] == 0
    return d


@pytest.mark.parametrize("kind", ["kmeans", "rf", "logreg"])
def test_predict_peak_grows_with_the_containers_not_the_feature_rows(scene_sizes, tmp_path, kind):
    # predict holds its patch, the one before it while the stream reads the
    # next, and one block of feature rows: from 64 px to 256 px scenes its
    # peak grows by 2.0 to 2.1 containers, where a whole patch of float64
    # feature rows and the model's per-row temporaries grew it by 4.3 to 5.8
    d = scene_sizes

    def argv(size, run):
        return ["predict", *split_args(d / f"s{size}"), "--model-file", d / f"{kind}.wlcm",
                "--out", tmp_path / f"p-{run}"]

    cli(*argv(64, "warm"))
    small = command_peak(argv(64, "small"))
    large = command_peak(argv(256, "large"))
    growth = os.path.getsize(d / "s256" / "scene-00000.wlcb") - os.path.getsize(
        d / "s64" / "scene-00000.wlcb"
    )
    assert large - small < 2.5 * growth, f"peak grew by {(large - small) / growth:.2f} containers"


def test_train_peak_grows_by_about_the_added_feature_rows(sized_splits, tmp_path):
    # train fills one float32 band matrix sized from the container headers
    # (half the float64 feature rows); the rest that grows with the split
    # is the labels and, per training row, the fit's int32 positions and
    # shuffled order, int8 label slots and float64 loss terms. A float64
    # feature matrix grew by 1.21 times the rows, and per-patch matrices
    # concatenated by about 2.5 times.
    d, _ = sized_splits

    def argv(manifest, run):
        return ["train", *split_args(d, manifest), "--model", "logreg", "--epochs", 1,
                "--out", tmp_path / f"m-{run}.wlcm"]

    cli(*argv("manifest-8.json", "warm"))
    small = command_peak(argv("manifest-8.json", "8"))
    large = command_peak(argv("manifest.json", "32"))
    added = 24 * 32 * 32 * FusionConfig().d * 8
    assert large - small <= 0.75 * added, f"peak grew by {(large - small) / added:.2f}x"


def test_train_feature_storage_grows_by_at_most_six_tenths_of_the_rows(
    sized_splits, tmp_path, monkeypatch
):
    # With the fit stubbed out, what grows with the split is the feature
    # storage: float32 band rows of the split's pixels (half the float64
    # rows) and their labels. A float64 feature matrix with its valid mask
    # and labels grew by 1.25 times the rows.
    d, _ = sized_splits

    def no_fit(features, labels, config):
        return LogRegModel(np.zeros((features.d, 10)), np.zeros(10), config, loss_curve=(1.0,))

    monkeypatch.setattr(cli_module, "logreg_fit", no_fit)

    def argv(manifest, run):
        return ["train", *split_args(d, manifest), "--model", "logreg", "--epochs", 1,
                "--out", tmp_path / f"m-{run}.wlcm"]

    cli(*argv("manifest-8.json", "warm"))
    small = command_peak(argv("manifest-8.json", "8"))
    large = command_peak(argv("manifest.json", "32"))
    added = 24 * 32 * 32 * FusionConfig().d * 8
    assert large - small <= 0.6 * added, f"storage grew by {(large - small) / added:.2f}x"


def test_a_container_resized_after_the_probe_fails_train(mixed_split, tmp_path, monkeypatch):
    d = Path(shutil.copytree(mixed_split, tmp_path / "split"))
    victim = d / f"{load_manifest(d / 'manifest.json').patch_ids[2]}.wlcb"
    probe = dataset.read_header

    def probe_then_resize(path):
        header = probe(path)
        if Path(path) == victim:
            write_patch(make_patch(np.ones((4, 4), dtype=np.uint8), patch_id="x"), victim)
        return header

    monkeypatch.setattr(dataset, "read_header", probe_then_resize)
    code, out, err = cli("train", *split_args(d), "--model", "logreg", "--epochs", 1,
                         "--out", tmp_path / "m.wlcm")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        f"patch {victim.stem!r} has 16 pixels, but its header read 1024 when the split was sized"
    )
    assert not (tmp_path / "m.wlcm").exists()


# --- a bad container fails the command with one JSON line --------------------

@pytest.fixture()
def third_truncated(mixed_split, tmp_path):
    d = tmp_path / "split"
    shutil.copytree(mixed_split, d)
    third = d / f"{load_manifest(d / 'manifest.json').patch_ids[2]}.wlcb"
    third.write_bytes(third.read_bytes()[:-7])
    return d


@pytest.mark.parametrize("command", ["predict", "render", "evaluate", "stats", "transition"])
def test_a_truncated_third_container_fails_after_two_outputs(
    third_truncated, rf_model, tmp_path, command
):
    out_dir = tmp_path / "out"
    extra = {
        "predict": ["--model-file", rf_model, "--out", out_dir],
        "render": ["--out", out_dir],
        "transition": ["--out", tmp_path / "t.csv"],
    }.get(command, [])
    code, out, err = cli(command, *split_args(third_truncated), *extra)
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "container size" in json.loads(lines[0])["error"]
    assert "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()
    if command in ("predict", "render"):
        ids = load_manifest(third_truncated / "manifest.json").patch_ids
        suffix = ".wlcb" if command == "predict" else ".ppm"
        assert sorted(os.listdir(out_dir)) == [f"{i}{suffix}" for i in ids[:2]]
        assert not (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("command", ["predict", "render"])
def test_an_empty_subsample_fails_before_the_out_directory_exists(
    mixed_split, rf_model, tmp_path, command
):
    extra = ["--model-file", rf_model] if command == "predict" else []
    code, out, err = cli(command, *split_args(mixed_split), "--subsample", 0, *extra,
                         "--out", tmp_path / "out")
    assert code == 1
    assert out == ""
    assert "lists no patches" in json.loads(err.strip())["error"]
    assert not (tmp_path / "out").exists()


# --- corrupted containers never crash the CLI --------------------------------

@st.composite
def corruptions(draw):
    kind = draw(st.sampled_from(["truncate", "flip_header", "nan_band"]))
    victim = draw(st.integers(0, 5))
    if kind == "truncate":
        return kind, victim, draw(st.integers(0, 51217))
    if kind == "flip_header":
        return kind, victim, (draw(st.integers(0, 17)), draw(st.integers(1, 255)))
    return kind, victim, draw(st.integers(0, 12 * 32 * 32 - 1))


def corrupt(path, kind, arg):
    data = bytearray(path.read_bytes())
    if kind == "truncate":
        data = data[:arg]
    elif kind == "flip_header":
        data[arg[0]] ^= arg[1]
    else:
        off = 18 + 4 * arg
        data[off:off + 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))


@settings(max_examples=40, deadline=None)
@given(corruptions())
def test_corrupted_containers_fail_cleanly_or_pass(mixed_split, rf_model, case):
    kind, victim, arg = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(shutil.copytree(mixed_split, Path(tmp) / "split"))
        ids = load_manifest(d / "manifest.json").patch_ids
        corrupt(d / f"{ids[victim]}.wlcb", kind, arg)
        for argv in (
            ["evaluate", *split_args(d)],
            ["predict", *split_args(d), "--model-file", rf_model,
             "--out", Path(tmp) / "pred"],
        ):
            code, out, err = cli(*argv)
            assert "Traceback" not in err
            if code == 0:
                assert err == "" and len(out.strip().splitlines()) == 1
            else:
                assert code == 1 and out == ""
                lines = err.strip().splitlines()
                assert len(lines) == 1 and "error" in json.loads(lines[0])


# --- corrupted model files never crash predict -------------------------------

@pytest.fixture(scope="module")
def model_files(mixed_split, rf_model, tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    files = {"rf": Path(rf_model)}
    for kind, flags in (("kmeans", ["--k", 4]), ("logreg", ["--epochs", 2])):
        files[kind] = d / f"{kind}.wlcm"
        code, _, err = cli("train", *split_args(mixed_split), "--model", kind, *flags,
                           "--out", files[kind])
        assert code == 0, err
    return {kind: path.read_bytes() for kind, path in files.items()}


def header_end(data: bytes) -> int:
    """Offset past magic, version, kind byte and the kind's header fields."""
    return 7 + struct.calcsize("<" + modelio._header_format(data[6]))


def float_offsets(data: bytes) -> list[int]:
    """Byte offsets of the float32 arrays of a .wlcm file: k-means centroids,
    logreg weights and bias, every tree's thresholds and node probabilities."""
    kind, off = data[6], header_end(data)
    if kind == modelio.KIND_KMEANS:
        k, d = struct.unpack_from("<II", data, 7)
        start = off + 1 + k  # map flag, cluster -> class map
        return list(range(start, start + 4 * k * d, 4))
    if kind == modelio.KIND_LOGREG:
        return list(range(off, len(data), 4))
    offsets = []
    while off < len(data):
        (n,) = struct.unpack_from("<I", data, off)
        off += 4 + 2 * n                             # n_nodes, features
        offsets += range(off, off + 4 * n, 4)        # thresholds
        off += 4 * n + 8 * n                         # thresholds, left, right
        offsets += range(off, off + 40 * n, 4)       # probabilities
        off += 40 * n
    return offsets


@st.composite
def model_corruptions(draw, files):
    kind = draw(st.sampled_from(sorted(files)))
    data = files[kind]
    how = draw(st.sampled_from(["truncate", "flip_header", "flip_payload", "non_finite"]))
    if how == "truncate":
        return kind, how, draw(st.integers(0, len(data) - 1))
    end = header_end(data)
    if how == "flip_header":
        return kind, "flip", (draw(st.integers(0, end - 1)), draw(st.integers(1, 255)))
    if how == "flip_payload":  # tree links and features, k-means map, float bits
        return kind, "flip", (draw(st.integers(end, len(data) - 1)), draw(st.integers(1, 255)))
    return kind, how, (draw(st.integers(0, 10**6)), draw(st.sampled_from([np.nan, np.inf, -np.inf])))


def corrupt_model(data: bytes, how, arg) -> bytes:
    data = bytearray(data)
    if how == "truncate":
        return bytes(data[:arg])
    if how == "flip":
        data[arg[0]] ^= arg[1]
        return bytes(data)
    offsets = float_offsets(bytes(data))
    off = offsets[arg[0] % len(offsets)]
    data[off:off + 4] = np.array([arg[1]], dtype="<f4").tobytes()
    return bytes(data)


def loads(data: bytes) -> bool:
    try:
        modelio.model_from_bytes(data)
    except modelio.ModelIOError:
        return False
    return True


def test_float_offsets_cover_each_kind(model_files):
    for kind, data in model_files.items():
        offsets = float_offsets(data)
        assert offsets and offsets[-1] + 4 <= len(data)
        for off in offsets[:: max(1, len(offsets) // 50)]:
            assert np.isfinite(np.frombuffer(data, "<f4", 1, off)).all()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_corrupted_model_files_fail_cleanly_or_pass(mixed_split, model_files, data):
    kind, how, arg = data.draw(model_corruptions(model_files))
    bad = corrupt_model(model_files[kind], how, arg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.wlcm"
        path.write_bytes(bad)
        code, out, err = cli("predict", *split_args(mixed_split), "--model-file", path,
                             "--out", Path(tmp) / "pred")
    assert "Traceback" not in err
    if code == 0:
        assert loads(bad)
        assert err == "" and len(out.strip().splitlines()) == 1
    else:
        assert code == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])
