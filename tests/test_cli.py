"""End-to-end command flows, exit codes, and the JSON error contract."""

import argparse
import contextlib
import dataclasses
import errno
import filecmp
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlcbench import cli, dataset, metrics, modelio, models, shallow
from wlcbench.cli import main
from wlcbench.dataset import (
    LabelRaster,
    Scheme,
    SplitManifest,
    SplitRole,
    iter_patches,
    load_manifest,
    save_manifest,
    write_patch,
)
from wlcbench.labels import SAVANNA
from wlcbench.modelio import load_model, model_to_bytes
from wlcbench.models import ForestModel, KMeansModel, LogRegConfig, LogRegModel, Tree

from conftest import make_patch

SPLIT = ["--size", "32", "--block-factor", "8", "--n-scenes", "4", "--seed", "0"]


def run(capsys, *argv):
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("split")
    assert main(["synth", "--out", str(d), *SPLIT]) == 0
    return d


def split_args(d):
    return ["--manifest", str(d / "manifest.json"), "--data-dir", str(d)]


# --- synth ---------------------------------------------------------------

def test_synth_writes_split(split_dir, capsys):
    names = {p.name for p in split_dir.iterdir()}
    assert "manifest.json" in names
    assert "synth-config.json" in names
    assert {f"scene-0000{i}.wlcb" for i in range(4)} <= names

    manifest = load_manifest(split_dir / "manifest.json")
    assert manifest.name == "synthetic-seed0"
    assert manifest.role.value == "train"
    assert len(manifest.patch_ids) == 4

    cfg = json.loads((split_dir / "synth-config.json").read_text())
    assert cfg["size"] == 32 and cfg["seed"] == 0

    patches = list(iter_patches(manifest, split_dir))
    for p in patches:
        p.validate()
        assert p.hr_labels is not None
        assert p.lr_labels.scheme is Scheme.SIMPLIFIED10


def test_synth_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code, out, _ = run(capsys, "synth", "--out", str(d), "--size", "16",
                           "--block-factor", "4", "--n-scenes", "2", "--seed", "7")
        assert code == 0
        assert last_json(out)["scenes"] == 2
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


# --- stats -----------------------------------------------------------------

def test_stats_report(split_dir, capsys, tmp_path):
    out_file = tmp_path / "stats.json"
    code, out, _ = run(
        capsys, "stats", *split_args(split_dir), "--out", str(out_file)
    )
    assert code == 0
    doc = last_json(out)
    assert doc["patches"] == 4
    assert doc["which"] == "lr"
    assert doc["with_hr_labels"] == 4
    assert set(doc["class_counts"]) == {
        "Forest", "Shrubland", "Savanna", "Grassland", "Wetlands",
        "Croplands", "Urban/Built-up", "Snow/Ice", "Barren", "Water",
    }
    assert sum(doc["class_fractions"].values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(doc["classes_per_patch_histogram"]) == 4
    assert json.loads(out_file.read_text()) == doc


def test_stats_hr_has_no_savanna(split_dir, capsys):
    code, out, _ = run(capsys, "stats", *split_args(split_dir), "--which", "hr")
    assert code == 0
    assert last_json(out)["class_counts"]["Savanna"] == 0


def test_stats_subsample(split_dir, capsys):
    code, out, _ = run(
        capsys, "stats", *split_args(split_dir), "--subsample", "2", "--seed", "1"
    )
    assert code == 0
    assert last_json(out)["patches"] == 2


# --- train / predict / evaluate ------------------------------------------------

@pytest.fixture(scope="module")
def rf_model_file(split_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "rf.wlcm"
    assert main([
        "train", *split_args(split_dir), "--model", "rf",
        "--trees", "5", "--depth", "6", "--out", str(path),
    ]) == 0
    return path


def test_train_kmeans(split_dir, tmp_path, capsys):
    path = tmp_path / "km.wlcm"
    code, out, _ = run(
        capsys, "train", *split_args(split_dir), "--model", "kmeans",
        "--out", str(path),
    )
    assert code == 0
    doc = last_json(out)
    assert doc["model"] == "kmeans"
    assert doc["k"] >= 2
    assert doc["training_rows"] > 0
    model = load_model(path)
    assert isinstance(model, KMeansModel)
    assert model.cluster_to_class is not None

    curve = (tmp_path / "km.wlcm.curve.csv").read_text().splitlines()
    assert curve[0] == "iteration,inertia"
    inertias = [float(line.split(",")[1]) for line in curve[1:]]
    assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(inertias, inertias[1:]))


def test_train_rf_outputs(rf_model_file, capsys):
    model = load_model(rf_model_file)
    assert isinstance(model, ForestModel)
    assert model.n_trees == 5
    curve = (
        rf_model_file.parent / "rf.wlcm.curve.csv"
    ).read_text().splitlines()
    assert curve[0] == "tree,n_nodes"
    assert len(curve) == 6


def test_train_logreg(split_dir, tmp_path, capsys):
    path = tmp_path / "lg.wlcm"
    code, out, _ = run(
        capsys, "train", *split_args(split_dir), "--model", "logreg",
        "--epochs", "8", "--out", str(path),
    )
    assert code == 0
    doc = last_json(out)
    assert doc["final_loss"] > 0
    curve = (tmp_path / "lg.wlcm.curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,loss,holdout_aa"
    assert len(curve) == 9


def test_train_is_deterministic(split_dir, tmp_path, capsys):
    paths = [tmp_path / "m1.wlcm", tmp_path / "m2.wlcm"]
    for path in paths:
        assert main([
            "train", *split_args(split_dir), "--model", "rf",
            "--trees", "3", "--depth", "4", "--seed", "5", "--out", str(path),
        ]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (tmp_path / "m1.wlcm.curve.csv").read_bytes() == (
        tmp_path / "m2.wlcm.curve.csv"
    ).read_bytes()


def test_predict_then_evaluate(split_dir, rf_model_file, tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    code, out, _ = run(
        capsys, "predict", *split_args(split_dir),
        "--model-file", str(rf_model_file), "--out", str(pred_dir),
    )
    assert code == 0
    assert last_json(out)["patches"] == 4

    manifest = load_manifest(pred_dir / "manifest.json")
    assert manifest.name == "synthetic-seed0-pred"
    patches = list(iter_patches(manifest, pred_dir))
    for p in patches:
        p.validate()
        assert p.hr_labels is not None
        assert not (p.lr_labels.values == 3).any()  # Savanna never predicted
        assert (p.lr_labels.values >= 1).all()

    code, out, _ = run(capsys, "evaluate", *split_args(split_dir))
    assert code == 0
    baseline = last_json(out)

    code, out, _ = run(
        capsys, "evaluate", "--manifest", str(pred_dir / "manifest.json"),
        "--data-dir", str(pred_dir),
    )
    assert code == 0
    doc = last_json(out)
    # the model prediction must clearly beat the weak labels it learned from
    assert doc["aa"] > baseline["aa"] + 0.05
    assert doc["aa"] > 0.6
    assert doc["pixels"] == baseline["pixels"]


def test_evaluate_hr_against_itself(split_dir, capsys):
    code, out, _ = run(
        capsys, "evaluate", *split_args(split_dir), "--pred", "hr", "--ref", "hr"
    )
    assert code == 0
    doc = last_json(out)
    assert doc["aa"] == 1.0 and doc["oa"] == 1.0 and doc["miou"] == 1.0


def test_evaluate_artifacts_and_mask_flag(split_dir, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "per_class.csv"
    out_matrix = tmp_path / "confusion.csv"
    code, out, _ = run(
        capsys, "evaluate", *split_args(split_dir),
        "--out", str(out_json), "--csv", str(out_csv), "--matrix", str(out_matrix),
    )
    assert code == 0
    masked = last_json(out)
    assert json.loads(out_json.read_text()) == masked
    assert out_csv.read_text().startswith("class,name,producers_acc,iou,support")
    assert out_matrix.read_text().startswith(",Forest,")

    code, out, _ = run(
        capsys, "evaluate", *split_args(split_dir), "--mask-savanna", "false"
    )
    assert code == 0
    unmasked = last_json(out)
    assert unmasked["pixels"] == masked["pixels"]  # HR truth holds no Savanna

    # with LR as the reference, the mask actually removes Savanna pixels
    lr_ref = ["evaluate", *split_args(split_dir), "--pred", "hr", "--ref", "lr"]
    code, out, _ = run(capsys, *lr_ref)
    assert code == 0
    lr_ref_masked = last_json(out)
    code, out, _ = run(capsys, *lr_ref, "--mask-savanna", "false")
    assert code == 0
    assert last_json(out)["pixels"] > lr_ref_masked["pixels"]


def test_transition_outputs(split_dir, tmp_path, capsys):
    out_csv = tmp_path / "transition.csv"
    code, out, _ = run(
        capsys, "transition", *split_args(split_dir), "--out", str(out_csv)
    )
    assert code == 0
    doc = last_json(out)
    assert doc["row_support"]["Savanna"] > 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith(",Forest,")
    assert len(lines) == 11
    sav_row = [float(v) for v in lines[3].split(",")[1:]]
    assert sum(sav_row) == pytest.approx(1.0, abs=1e-5)


def test_render_writes_ppm(split_dir, tmp_path, capsys):
    out_dir = tmp_path / "img"
    code, out, _ = run(
        capsys, "render", *split_args(split_dir), "--which", "hr",
        "--out", str(out_dir),
    )
    assert code == 0
    assert last_json(out)["rendered"] == 4
    files = sorted(out_dir.glob("*.ppm"))
    assert len(files) == 4
    blob = files[0].read_bytes()
    assert blob.startswith(b"P6\n32 32\n255\n")
    assert len(blob) == 13 + 32 * 32 * 3


# --- failure contract -------------------------------------------------------------

def single_json_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_missing_manifest_is_runtime_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "stats", "--manifest", str(tmp_path / "nope.json"),
        "--data-dir", str(tmp_path),
    )
    assert code == 1
    assert out == ""
    assert "error" in single_json_error(err)


@pytest.mark.parametrize("patch_ids", [5, "abc"])
def test_manifest_patch_ids_must_be_a_list_of_strings(
    split_dir, tmp_path, capsys, patch_ids
):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"name": "bad", "role": "train", "patch_ids": patch_ids})
    )
    code, out, err = run(
        capsys, "stats", "--manifest", str(manifest), "--data-dir", str(split_dir)
    )
    assert code == 1
    assert out == ""
    assert "list of strings" in single_json_error(err)["error"]


@pytest.mark.parametrize(
    "flags, message", [(["--trees", "0"], "n_trees"), (["--depth", "-1"], "max_depth")]
)
def test_train_rejects_bad_forest_hyperparameters(
    split_dir, tmp_path, capsys, flags, message
):
    path = tmp_path / "rf.wlcm"
    code, out, err = run(
        capsys, "train", *split_args(split_dir), "--model", "rf", *flags,
        "--out", str(path),
    )
    assert code == 1
    assert out == ""
    assert message in single_json_error(err)["error"]
    assert not path.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--model", "rf", "--depth", str(2**32)], "max_depth"),
        (["--model", "rf", "--trees", str(2**32)], "n_trees"),
        (["--model", "rf", "--seed", str(2**63)], "seed"),
        (["--model", "kmeans", "--seed", str(2**63)], "seed"),
        (["--model", "kmeans", "--k", str(2**32)], "k="),
        (["--model", "logreg", "--epochs", "0"], "epochs"),
        (["--model", "logreg", "--epochs", str(2**32)], "epochs"),
        (["--model", "logreg", "--lr", "1e39"], "learning_rate"),
        (["--model", "logreg", "--seed", str(2**63)], "seed"),
        (["--model", "rf", "--trees", "0"], "n_trees must be >= 1"),
        (["--model", "kmeans", "--k", "0"], "k must be >= 1"),
        (["--model", "logreg", "--lr", "0"], "learning_rate must be finite and > 0"),
        (["--model", "logreg", "--lr", "inf"], "learning_rate must be finite and > 0"),
        (["--model", "logreg", "--lr", "nan"], "learning_rate must be finite and > 0"),
    ],
)
def test_train_refuses_unsavable_hyperparameters_before_fitting(
    split_dir, tmp_path, capsys, monkeypatch, flags, message
):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitting started")

    def no_data(*args, **kwargs):
        raise AssertionError("data read")

    for name in ("kmeans_fit", "rf_fit"):
        monkeypatch.setattr(shallow, name, no_fit)
    monkeypatch.setattr(cli, "logreg_fit", no_fit)
    monkeypatch.setattr(cli, "load_manifest", no_data)
    path = tmp_path / "m.wlcm"
    code, out, err = run(
        capsys, "train", *split_args(split_dir), *flags, "--out", str(path)
    )
    assert code == 1
    assert out == ""
    assert message in single_json_error(err)["error"]
    assert not path.exists()


def test_train_accepts_the_widest_savable_values(split_dir, tmp_path, capsys):
    path = tmp_path / "rf.wlcm"
    code, _, _ = run(
        capsys, "train", *split_args(split_dir), "--model", "rf", "--trees", "1",
        "--depth", str(2**32 - 1), "--seed", str(2**63 - 1), "--out", str(path),
    )
    assert code == 0
    model = load_model(path)
    assert (model.max_depth, model.seed) == (2**32 - 1, 2**63 - 1)


def test_oversized_subsample_fails(split_dir, capsys):
    code, _, err = run(
        capsys, "stats", *split_args(split_dir), "--subsample", "99"
    )
    assert code == 1
    assert "4" in single_json_error(err)["error"]


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "error" in single_json_error(err)


def test_bad_bool_flag_is_usage_error(split_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", *split_args(split_dir), "--mask-savanna", "maybe"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "boolean" in single_json_error(err)["error"]


def test_kmeans_k_too_large_fails(split_dir, tmp_path, capsys):
    code, _, err = run(
        capsys, "train", *split_args(split_dir), "--model", "kmeans",
        "--k", "100000", "--out", str(tmp_path / "km.wlcm"),
    )
    assert code == 1
    assert "distinct" in single_json_error(err)["error"]


@pytest.mark.parametrize("model", ["kmeans", "rf", "logreg"])
def test_fusion_mismatch_fails(split_dir, tmp_path, capsys, model):
    flags = {"kmeans": ["--k", "3"], "rf": ["--trees", "1"], "logreg": ["--epochs", "1"]}
    path = tmp_path / "m.wlcm"
    code, _, _ = run(
        capsys, "train", *split_args(split_dir), "--model", model, *flags[model],
        "--out", str(path),
    )
    assert code == 0
    code, out, err = run(
        capsys, "predict", *split_args(split_dir),
        "--model-file", str(path), "--fusion", "s1s2",
        "--out", str(tmp_path / "pred"),
    )
    assert code == 1
    assert out == ""
    assert single_json_error(err)["error"] == (
        "feature dimension d=12 != model dimension d=10"
    )
    # the width is checked before the output directory is made
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("model", ["kmeans", "rf", "logreg"])
def test_a_fused_model_with_the_default_fusion_fails_before_any_read(
    split_dir, tmp_path, capsys, monkeypatch, model
):
    flags = {"kmeans": ["--k", "3"], "rf": ["--trees", "1"], "logreg": ["--epochs", "1"]}
    path = tmp_path / "m.wlcm"
    code, _, err = run(
        capsys, "train", *split_args(split_dir), "--model", model, *flags[model],
        "--fusion", "s1s2", "--out", str(path),
    )
    assert code == 0, err
    reads = []
    monkeypatch.setattr(dataset, "read_patch", lambda *a: reads.append(a))
    code, out, err = run(
        capsys, "predict", *split_args(split_dir), "--model-file", str(path),
        "--out", str(tmp_path / "pred"),
    )
    assert code == 1
    assert out == ""
    assert single_json_error(err)["error"] == (
        "feature dimension d=10 != model dimension d=12"
    )
    assert reads == []
    assert not (tmp_path / "pred").exists()


def test_predict_builds_the_forest_node_table_once(
    rf_model_file, tmp_path, capsys, monkeypatch
):
    d = tmp_path / "three"
    assert main([
        "synth", "--out", str(d), "--size", "32", "--block-factor", "8",
        "--n-scenes", "3", "--seed", "5",
    ]) == 0
    builds = []
    stack = models._stack_trees

    def counted(trees):
        builds.append(trees)
        return stack(trees)

    monkeypatch.setattr(models, "_stack_trees", counted)
    code, out, _ = run(
        capsys, "predict", *split_args(d), "--model-file", str(rf_model_file),
        "--out", str(tmp_path / "pred"),
    )
    assert code == 0
    assert last_json(out)["patches"] == 3
    assert len(builds) == 1 and len(builds[0]) == 5


def test_predict_refuses_a_forest_whose_root_links_itself(split_dir, tmp_path, capsys):
    tree = Tree(
        feature=np.array([0, -1, -1], dtype=np.int16),
        threshold=np.zeros(3),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        probs=np.full((3, 10), 0.1),
    )
    blob = bytearray(model_to_bytes(ForestModel((tree,), 1, 10, 0)))
    # the root's left link: after 27 header bytes, the node count, 3 feature
    # ids and 3 thresholds (the writer refuses the loop itself)
    struct.pack_into("<i", blob, 27 + 4 + 3 * 2 + 3 * 4, 0)
    path = tmp_path / "loop.wlcm"
    path.write_bytes(bytes(blob))
    code, out, err = run(
        capsys, "predict", *split_args(split_dir), "--model-file", str(path),
        "--out", str(tmp_path / "pred"),
    )
    assert code == 1
    assert out == ""
    assert "child outside" in single_json_error(err)["error"]
    assert not (tmp_path / "pred").exists()


def test_predict_refuses_a_logreg_model_with_a_nan_bias(split_dir, tmp_path, capsys):
    model = LogRegModel(weights=np.zeros((10, 10)), bias=np.zeros(10), config=LogRegConfig())
    blob = bytearray(model_to_bytes(model))
    # bias[4]: after 35 header bytes and 10x10 weights (the writer refuses NaN)
    struct.pack_into("<f", blob, 35 + 4 * 100 + 4 * 4, np.nan)
    path = tmp_path / "nan.wlcm"
    path.write_bytes(bytes(blob))
    code, out, err = run(
        capsys, "predict", *split_args(split_dir), "--model-file", str(path),
        "--out", str(tmp_path / "pred"),
    )
    assert code == 1
    assert out == ""
    assert "logreg bias must be finite" in single_json_error(err)["error"]
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize(
    "class_bytes, message",
    [
        ([], "a k-means model needs at least one cluster"),
        ([200] + [0] * 8, "k-means cluster class 200 is outside 1..10"),
        ([3, 0, 0, 0, 3, 0, 0, 0, 0], "k-means class map gives two clusters the same class"),
    ],
    ids=["k0", "class200", "repeated"],
)
def test_predict_refuses_a_kmeans_model_train_cannot_write(
    split_dir, tmp_path, capsys, class_bytes, message
):
    # k = 0 failed in argmin after the output directory was made, and a
    # class byte of 200 failed on the first patch with an error naming no
    # model. The writer refuses both, so the file is the writer's bytes of
    # a one-cluster model with k (after magic, version and kind), the
    # has-map byte's followers and the zero centroids patched.
    one = KMeansModel(
        centroids=np.zeros((1, 10)), inertia=0.0, cluster_to_class={},
        seed=0, n_init=1, max_iter=1,
    )
    head = bytearray(model_to_bytes(one)[:36])
    head[7:11] = len(class_bytes).to_bytes(4, "little")
    path = tmp_path / "bad.wlcm"
    path.write_bytes(bytes(head) + bytes(class_bytes) + bytes(4 * 10 * len(class_bytes)))
    code, out, err = run(
        capsys, "predict", *split_args(split_dir), "--model-file", str(path),
        "--out", str(tmp_path / "pred"),
    )
    assert code == 1
    assert out == ""
    assert single_json_error(err)["error"] == message
    assert not (tmp_path / "pred").exists()


def test_kmeans_clusters_are_aligned_on_the_stored_float32_centroids(
    tmp_path, capsys, monkeypatch
):
    """Pixel B (every feature 0.5) lies between the float64 and the float32
    boundary of centroids 1 and 2: nearer 2 in float64, nearer 1 once the
    centroids are rounded to the float32 the model file stores. Alignment
    must use what predict uses, or B's cluster maps to a class B never had."""
    s2 = np.full((10, 2, 2), 1000.0, dtype=np.float32)  # pixels A, class 1
    s2[:, 1, 1] = 5000.0                                 # pixel B, class 2
    lr = np.array([[1, 1], [1, 2]])
    write_patch(make_patch(lr, s2=s2), tmp_path / "p0.wlcb")
    save_manifest(SplitManifest("b", SplitRole.TRAIN, ("p0",)), tmp_path / "manifest.json")

    p32, q32 = 0.5 + 2.0**-10, 0.5 - 2.0**-10 - 2.0**-25  # float32 values
    centroids = np.full((3, 10), 0.5)
    centroids[0] = 0.1
    centroids[1, 0] = p32 + 0.75 * 2.0**-25  # rounds down to p32
    centroids[2, 0] = q32 + 0.75 * 2.0**-26  # rounds down to q32
    stored = centroids.astype(np.float32).astype(np.float64)
    assert (stored[1:, 0] == [p32, q32]).all()
    b = np.full((1, 10), 0.5)
    assert shallow.kmeans_cluster_ids(
        KMeansModel(centroids, 0.0, None, 0, 1, 1), b
    ).tolist() == [2]
    assert shallow.kmeans_cluster_ids(KMeansModel(stored, 0.0, None, 0, 1, 1), b).tolist() == [1]

    monkeypatch.setattr(
        shallow, "kmeans_fit",
        lambda feats, k, seed: KMeansModel(centroids.copy(), 0.0, None, seed, 1, 1, (0.0,)),
    )
    code, _, _ = run(
        capsys, "train", *split_args(tmp_path), "--model", "kmeans", "--k", "3",
        "--out", str(tmp_path / "km.wlcm"),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "predict", *split_args(tmp_path), "--model-file", str(tmp_path / "km.wlcm"),
        "--out", str(tmp_path / "pred"),
    )
    assert code == 0
    (pred,) = iter_patches(load_manifest(tmp_path / "pred" / "manifest.json"), tmp_path / "pred")
    np.testing.assert_array_equal(pred.lr_labels.values, lr)


@pytest.fixture(scope="module")
def savanna_split_dir(split_dir, tmp_path_factory):
    """The split with every LR label Savanna and the HR labels dropped."""
    d = tmp_path_factory.mktemp("savanna")
    manifest = load_manifest(split_dir / "manifest.json")
    for p in iter_patches(manifest, split_dir):
        lr = LabelRaster(np.full(p.lr_labels.shape, SAVANNA), Scheme.SIMPLIFIED10)
        write_patch(dataclasses.replace(p, lr_labels=lr, hr_labels=None), d / f"{p.id}.wlcb")
    save_manifest(manifest, d / "manifest.json")
    return d


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--model", "kmeans", "--k", "2"], "no valid, masked-in, labeled rows"),
        (["train", "--model", "rf", "--trees", "1"], "no valid, masked-in, labeled rows"),
        (["train", "--model", "logreg", "--epochs", "1"], "no valid, masked-in, labeled rows"),
        (["transition"], "lacks hr labels"),
        (["render", "--which", "hr"], "lacks hr labels"),
        (["evaluate"], "lacks hr labels"),
        (["stats", "--which", "hr"], "lacks hr labels"),
    ],
    ids=["kmeans", "rf", "logreg", "transition", "render", "evaluate", "stats"],
)
def test_no_training_rows_or_hr_labels_fails(savanna_split_dir, tmp_path, capsys, argv, message):
    out_flag = ["--out", str(tmp_path / "out")] if argv[0] in ("train", "transition", "render") else []
    code, out, err = run(capsys, argv[0], *split_args(savanna_split_dir), *argv[1:], *out_flag)
    assert code == 1
    assert out == ""
    assert message in single_json_error(err)["error"]


@pytest.mark.parametrize("command", ["synth", "train", "subsample"])
def test_negative_seed_is_refused_before_reading_data(
    split_dir, tmp_path, capsys, monkeypatch, command
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("kmeans_fit", "rf_fit"):
        monkeypatch.setattr(shallow, name, no_work)
    for name in ("logreg_fit", "load_manifest", "generate_scenes"):
        monkeypatch.setattr(cli, name, no_work)
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "out")],
        "train": ["train", *split_args(split_dir), "--model", "rf",
                  "--out", str(tmp_path / "out")],
        "subsample": ["stats", *split_args(split_dir), "--subsample", "2"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--seed" in single_json_error(err)["error"]
    assert not (tmp_path / "out").exists()


def test_console_entry_point_subprocess(split_dir, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "wlcbench.cli", "stats", *split_args(split_dir)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.strip())["patches"] == 4


@pytest.mark.parametrize(
    "argv, code, stream",
    [
        (["train", "--model", "logreg", "--epochs", "1"], 0, "stdout"),  # model written
        (["train", "--model", "logreg", "--epochs", "1", "--lr", "1e300"], 1, "stderr"),
        (["train", "--model", "logreg", "--epochs", "x"], 2, "stderr"),
    ],
)
def test_a_process_ends_with_one_complete_line_and_its_exit_code(
    split_dir, tmp_path, argv, code, stream
):
    # The process ends with os._exit after flushing, so a piped (block
    # buffered) stream must still hold the whole line.
    model = tmp_path / "m.wlcm"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run(
        [sys.executable, "-m", "wlcbench.cli", *argv, *split_args(split_dir), "--out", str(model)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == code
    text = getattr(result, stream)
    assert text.endswith("\n") and text.count("\n") == 1, text
    assert isinstance(json.loads(text), dict)
    assert (result.stdout if stream == "stderr" else result.stderr) == ""
    assert model.exists() == (code == 0)
    if code == 0:
        assert load_model(model).d == 10


def test_the_console_script_runs_through_the_process_entry():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert '\nwlcbench = "wlcbench.entry:run"\n' in pyproject


PROCESS_ENTRIES = {
    "module": ["-m", "wlcbench.cli"],
    "script": ["-c", "from wlcbench.entry import run; run()"],
}


def command_threads(entry: str, env: dict, fifo: Path) -> int:
    """Threads of a ``stats`` process of the given entry once numpy has
    loaded: the process waits to read its manifest from a FIFO while
    /proc/<pid>/task is counted, then fails on a manifest that is no object."""
    os.mkfifo(fifo)
    proc = subprocess.Popen(
        [sys.executable, *PROCESS_ENTRIES[entry], "stats", "--manifest", str(fifo),
         "--data-dir", str(fifo.parent)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while True:  # the write end opens once the command opens its manifest
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError as exc:
                assert exc.errno == errno.ENXIO, exc
                assert proc.poll() is None and time.monotonic() < deadline, proc.stderr.read()
                time.sleep(0.01)
        threads = len(os.listdir(f"/proc/{proc.pid}/task"))
        os.write(fd, b"[]")
        os.close(fd)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1 and "is not a JSON object" in err, err
    return threads


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads Linux /proc")
@pytest.mark.parametrize("entry", sorted(PROCESS_ENTRIES))
@pytest.mark.parametrize("setting", [None, "2"])
def test_a_command_process_runs_one_blas_thread_unless_its_environment_says(
    tmp_path, entry, setting
):
    from wlcbench.entry import BLAS_THREAD_VARIABLES

    want = 1 if setting is None else int(setting)
    if want > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts at most one thread per CPU this process may use")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    assert command_threads(entry, env, tmp_path / "manifest.json") == want


@pytest.mark.parametrize("entry", sorted(PROCESS_ENTRIES))
def test_a_command_process_never_imports_openssl(split_dir, tmp_path, entry):
    # numpy.random imports secrets -> hmac -> _hashlib, which maps libcrypto.
    # -v logs each module as it is loaded ("import 'name' # loader"); unlike
    # -X importtime, it does not log an import that fails.
    result = subprocess.run(
        [sys.executable, "-v", *PROCESS_ENTRIES[entry], "train", "--model", "kmeans",
         *split_args(split_dir), "--out", str(tmp_path / "m.wlcm")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = {
        line.split("'")[1] for line in result.stderr.splitlines() if line.startswith("import '")
    }
    assert "numpy.random" in loaded
    assert "_hashlib" not in loaded
    assert result.stdout.count("\n") == 1 and json.loads(result.stdout)["model"] == "kmeans"


def test_prepare_process_keeps_set_variables_and_library_imports_change_nothing():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")
    unset = {k: v for k, v in os.environ.items() if k not in names}
    for given, want in [({}, ["1", "1", "0"]),
                        ({"OPENBLAS_NUM_THREADS": "2", "NUMPY_MADVISE_HUGEPAGE": "1"},
                         ["2", "1", "1"])]:
        prepared = subprocess.run(
            [sys.executable, "-c",
             "import json, os; from wlcbench.entry import prepare_process; prepare_process(); "
             f"print(json.dumps([os.environ.get(k) for k in {names!r}]))"],
            env={**unset, **given}, capture_output=True, text=True, timeout=60, check=True,
        )
        assert json.loads(prepared.stdout) == want, given

    imported = subprocess.run(
        [sys.executable, "-c",
         "import json, os, sys; before = dict(os.environ); import wlcbench.cli; "
         "print(json.dumps([dict(os.environ) == before, '_hashlib' in sys.modules]))"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(imported.stdout) == [True, False]


# --- what each command loads and calls --------------------------------------

MODEL_MODULES = {"wlcbench.shallow", "wlcbench.modelio", "wlcbench.maskedlr"}

LOADED_MODULES = (
    "import json, sys\n"
    "from wlcbench.entry import prepare_process\n"
    "prepare_process()\n"
    "from wlcbench.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(\n"
    "    m for m in sys.modules if m.startswith('wlcbench') or m == 'numpy.ma'\n"
    ")]))\n"
)


def loaded_modules(*argv):
    """The wlcbench modules, and numpy.ma if loaded, that a fresh
    interpreter holds after one command, prepared as the command is."""
    result = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout.strip().splitlines()[-1])
    assert code == 0
    return set(modules)


@pytest.mark.parametrize("command", ["stats", "transition", "evaluate", "render"])
def test_scoring_commands_load_no_model_feature_or_scene_module(split_dir, tmp_path, command):
    out = ["--out", str(tmp_path / "out")] if command in ("transition", "render") else []
    loaded = loaded_modules(command, *split_args(split_dir), *out)
    assert "wlcbench.cli" in loaded
    assert not loaded & (MODEL_MODULES | {"wlcbench.synth", "wlcbench.preprocess"})


@pytest.mark.parametrize("model", ["kmeans", "rf", "logreg"])
def test_a_model_command_loads_only_its_own_kind_s_fit_module(split_dir, tmp_path, model):
    model_file = str(tmp_path / "m.wlcm")
    flags = {"kmeans": [], "rf": ["--trees", "2", "--depth", "3"], "logreg": ["--epochs", "2"]}
    trained = loaded_modules(
        "train", *split_args(split_dir), "--model", model, *flags[model], "--out", model_file
    )
    predicted = loaded_modules(
        "predict", *split_args(split_dir), "--model-file", model_file,
        "--out", str(tmp_path / "pred"),
    )
    own, other = "wlcbench.shallow", "wlcbench.maskedlr"
    if model == "logreg":
        own, other = other, own
    for loaded in (trained, predicted):
        assert {"wlcbench.models", "wlcbench.modelio", own} <= loaded
        assert other not in loaded
        if model == "kmeans":  # np.unique without a count output imports it
            assert "numpy.ma" not in loaded


def test_synth_loads_no_model_module(tmp_path):
    loaded = loaded_modules("synth", "--out", str(tmp_path / "s"), *SPLIT)
    assert "wlcbench.synth" in loaded
    assert not loaded & MODEL_MODULES


# The layer trace in perfbench/trace_child.py wraps these attributes; a
# command that reached a layer some other way would hide its time.
TRACED = [
    (cli, "write_patch"),
    (cli, "class_histogram"),
    (cli, "generate_scenes"),
    (cli, "assemble_features"),
    (cli, "logreg_fit"),
    (cli, "logreg_predict"),
    (cli, "render_labels"),
    (dataset, "read_patch"),
    (shallow, "rf_fit"),
    (shallow, "rf_predict"),
    (shallow, "kmeans_fit"),
    (shallow, "kmeans_cluster_ids"),
    (shallow, "align_clusters"),
    (shallow, "kmeans_predict"),
    (metrics, "aggregate_confusion"),
    (metrics, "transition_matrix"),
    (modelio, "save_model"),
    (modelio, "load_model"),
]


def test_commands_call_through_every_traced_name(tmp_path, capsys, monkeypatch):
    calls = set()

    def counting(label, fn):
        def counted(*args, **kwargs):
            calls.add(label)
            return fn(*args, **kwargs)
        return counted

    for owner, name in TRACED:
        fn = getattr(owner, name)
        assert callable(fn)
        monkeypatch.setattr(owner, name, counting(name, fn))

    d = tmp_path / "split"
    steps = [
        (["synth", "--out", str(d), *SPLIT], {"generate_scenes", "write_patch"}),
        (["stats", *split_args(d)], {"read_patch", "class_histogram"}),
        (["evaluate", *split_args(d)], {"read_patch", "aggregate_confusion"}),
        (["transition", *split_args(d), "--out", str(tmp_path / "t.csv")],
         {"read_patch", "aggregate_confusion", "transition_matrix"}),
        (["render", *split_args(d), "--out", str(tmp_path / "ppm")],
         {"read_patch", "render_labels"}),
    ]
    fits = {
        "kmeans": (["--k", "3"], {"kmeans_fit", "kmeans_cluster_ids", "align_clusters"},
                   "kmeans_predict"),
        "rf": (["--trees", "1", "--depth", "3"], {"rf_fit"}, "rf_predict"),
        "logreg": (["--epochs", "1"], {"logreg_fit"}, "logreg_predict"),
    }
    for model, (flags, fit_names, predict_name) in fits.items():
        path = str(tmp_path / f"{model}.wlcm")
        steps += [
            # train keeps the float32 band rows (preprocess.band_rows) and
            # never assembles a float64 feature matrix
            (["train", *split_args(d), "--model", model, *flags, "--out", path],
             {"read_patch", "save_model", *fit_names}),
            (["predict", *split_args(d), "--model-file", path,
              "--out", str(tmp_path / f"pred-{model}")],
             {"load_model", "read_patch", "assemble_features", predict_name, "write_patch"}),
        ]
    for argv, names in steps:
        calls.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert names <= calls, argv[0]
        assert ("assemble_features" in calls) == (argv[0] == "predict"), argv[0]


# --- argv fuzz --------------------------------------------------------------

def command_flags():
    """Every long flag of every command, with its argparse action."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: {
            o: a for a in p._actions for o in a.option_strings
            if o.startswith("--") and o != "--help"
        }
        for command, p in sub.choices.items()
    }


COMMAND_FLAGS = command_flags()

BAD_VALUES = st.one_of(
    st.sampled_from(["-1", str(2**31), str(2**32), str(2**63), str(10**30), "-" + str(2**63)]),
    st.sampled_from(["abc", "", " 3", "1e400", "3.5", "0x10", "nan", "inf", "-inf", "1e-400"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers().map(str),
)
# Path values are tokens that the test maps to real paths.
OUT_PATHS = st.sampled_from(["@fresh", "@fresh", "@under-a-file", "@a-directory"])
PATH_VALUES = {
    "--manifest": st.sampled_from(["@manifest", "@manifest", "@missing", "@a-file"]),
    "--data-dir": st.sampled_from(["@split", "@split", "@missing"]),
    "--model-file": st.sampled_from(["@kmeans", "@rf", "@logreg", "@missing", "@a-file"]),
    "--out": OUT_PATHS,
    "--csv": OUT_PATHS,
    "--matrix": OUT_PATHS,
}


def valid_values(flag, action):
    if flag in PATH_VALUES:
        return PATH_VALUES[flag]
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is float:
        return st.floats(0, 1).map(repr)
    if action.type is cli._bool_flag:
        return st.sampled_from(["true", "false", "0", "1"])
    return st.integers(1, 8).map(str)


@st.composite
def fuzzed_argv(draw, command):
    """One argv for ``command``: each flag given once, absent or repeated;
    about one value in six is missing, non-numeric, negative or huge."""
    argv = [command]
    flags = COMMAND_FLAGS[command]
    for flag in draw(st.permutations(sorted(flags))):
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2]))):
            bad = draw(st.sampled_from([False] * 5 + [True]))
            argv += [flag, draw(BAD_VALUES if bad else valid_values(flag, flags[flag]))]
    return argv


@pytest.fixture(scope="module")
def fuzz_paths(split_dir, tmp_path_factory):
    """The path tokens of PATH_VALUES; ``@tmp`` is a fresh directory per case."""
    d = tmp_path_factory.mktemp("fuzz-models")
    flags = {"kmeans": ["--k", "3"], "rf": ["--trees", "2", "--depth", "4"],
             "logreg": ["--epochs", "2"]}
    for model, extra in flags.items():
        assert main(["train", *split_args(split_dir), "--model", model, *extra,
                     "--out", str(d / f"{model}.wlcm")]) == 0
    return {
        "@manifest": split_dir / "manifest.json",
        "@split": split_dir,
        **{f"@{model}": d / f"{model}.wlcm" for model in flags},
        "@fresh": Path("@tmp", "new"),
        "@under-a-file": Path("@tmp", "a-file", "new"),
        "@a-directory": Path("@tmp"),
        "@a-file": Path("@tmp", "a-file"),
        "@missing": Path("@tmp", "missing"),
    }


def refuse(*args, **kwargs):
    raise ValueError("not run in the argv fuzz")


def small_scenes_only(generate):
    """Scene generation bounded to a few small scenes; larger requests fail
    with a data error, so no fuzzed argv runs unbounded."""

    def bounded(config, n_scenes):
        if n_scenes > 3 or config.size > 40:
            raise ValueError("not run in the argv fuzz")
        return generate(config, n_scenes)

    return bounded


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(fuzz_paths, command, data):
    """Fits refuse and scene generation is bounded, so every case is quick;
    a case may succeed or fail, but only with the CLI's error contract."""
    drawn = data.draw(fuzzed_argv(command))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)  # a non-path value given to --out writes here
        (Path(tmp) / "a-file").write_bytes(b"not json, not a model")
        argv = [
            str(fuzz_paths[v]).replace("@tmp", tmp, 1) if v in fuzz_paths else v
            for v in drawn
        ]
        for name in ("kmeans_fit", "rf_fit"):
            mp.setattr(shallow, name, refuse)
        mp.setattr(cli, "logreg_fit", refuse)
        mp.setattr(cli, "generate_scenes", small_scenes_only(cli.generate_scenes))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.strip()
    else:
        assert code in (1, 2), (argv, code)
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1, (argv, err)
        assert "error" in json.loads(lines[0])


# --- quality signal ----------------------------------------------------------

# Average accuracy on the validation split of the plan below, recorded when
# the test was written. Class means 0.625 apart against band noise of sigma
# 0.3 keep every model off the ceiling, so a weakened model shows: rf at
# depth 6 read 0.8514 and logreg at --lr 0.5 read 0.8892. A change that
# moves model bytes on purpose updates these and says why.
RECORDED_AA = {
    "lr_vs_hr": 0.8008,
    "rf": 0.8957,
    "logreg_3": 0.5554,
    "logreg_20": 0.9241,
    "kmeans": 0.8229,
}
AA_TOLERANCE = 0.01
MODELS = {
    "rf": ["--model", "rf", "--trees", "4", "--depth", "10"],
    "logreg_3": ["--model", "logreg", "--lr", "1.0", "--epochs", "3"],
    "logreg_20": ["--model", "logreg", "--lr", "1.0", "--epochs", "20"],
    "kmeans": ["--model", "kmeans"],
}


def test_models_keep_their_accuracy_on_a_noisy_split(tmp_path, capsys):
    splits = {}
    for name, seed in (("train", 5), ("val", 77)):
        splits[name] = split_args(tmp_path / name)
        assert main(["synth", "--out", str(tmp_path / name), "--n-scenes", "8", "--size", "64",
                     "--block-factor", "8", "--sigma", "0.3", "--seed", str(seed)]) == 0
    assert main(["evaluate", *splits["val"]]) == 0
    aa = {"lr_vs_hr": last_json(capsys.readouterr().out)["aa"]}
    for name, flags in MODELS.items():
        model, pred = tmp_path / f"{name}.wlcm", tmp_path / f"pred-{name}"
        common = ["--fusion", "s1s2"]
        assert main(["train", *splits["train"], *flags, *common, "--seed", "1",
                     "--out", str(model)]) == 0
        assert main(["predict", *splits["val"], *common, "--model-file", str(model),
                     "--out", str(pred)]) == 0
        capsys.readouterr()
        assert main(["evaluate", *split_args(pred)]) == 0
        aa[name] = last_json(capsys.readouterr().out)["aa"]
    with capsys.disabled():
        print("\nAA " + " ".join(f"{name} {value:.4f}" for name, value in aa.items()))
    assert all(aa[name] >= RECORDED_AA[name] - AA_TOLERANCE for name in RECORDED_AA), aa
    # criterion 8's margin over the labels the models learn from
    assert aa["rf"] >= aa["lr_vs_hr"] + 0.05 and aa["logreg_20"] >= aa["lr_vs_hr"] + 0.05, aa
