"""End-to-end command flows, exit codes, and the JSON error contract."""

import dataclasses
import filecmp
import json
import subprocess
import sys

import numpy as np
import pytest

from wlcbench import cli, shallow
from wlcbench.cli import main
from wlcbench.dataset import (
    LabelRaster,
    Scheme,
    iter_patches,
    load_manifest,
    save_manifest,
    write_patch,
)
from wlcbench.labels import SAVANNA
from wlcbench.modelio import load_model, model_to_bytes
from wlcbench.shallow import ForestModel, KMeansModel, Tree

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
        monkeypatch.setattr(cli.shallow, name, no_fit)
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


def test_predict_builds_the_forest_node_table_once(
    rf_model_file, tmp_path, capsys, monkeypatch
):
    d = tmp_path / "three"
    assert main([
        "synth", "--out", str(d), "--size", "32", "--block-factor", "8",
        "--n-scenes", "3", "--seed", "5",
    ]) == 0
    builds = []
    stack = shallow._stack_trees

    def counted(trees):
        builds.append(trees)
        return stack(trees)

    monkeypatch.setattr(shallow, "_stack_trees", counted)
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
        left=np.array([0, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        probs=np.full((3, 10), 0.1),
    )
    path = tmp_path / "loop.wlcm"
    path.write_bytes(model_to_bytes(ForestModel((tree,), 1, 1, 10, 0)))
    code, out, err = run(
        capsys, "predict", *split_args(split_dir), "--model-file", str(path),
        "--out", str(tmp_path / "pred"),
    )
    assert code == 1
    assert out == ""
    assert "child outside" in single_json_error(err)["error"]
    assert not (tmp_path / "pred").exists()


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
        monkeypatch.setattr(cli.shallow, name, no_work)
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
