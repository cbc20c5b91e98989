"""Hostile split inputs: manifest ids that are not plain file names, and
container headers that do not match their files, fail every command that
reads a split with one JSON error line, before anything is sized or written
from them."""

import contextlib
import io
import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wlcbench import cli as cli_module
from wlcbench.cli import main
from wlcbench.dataset import ManifestError, load_manifest, write_patch

from conftest import make_patch


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def one_error(code, out, err) -> str:
    """The message of a failed command's one JSON error line."""
    assert code == 1, (code, out, err)
    assert out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])["error"]


def write_manifest(path, ids, name="hostile"):
    path.write_text(json.dumps({"name": name, "role": "test", "patch_ids": ids}))
    return path


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    """Four 32 px scenes in ``s`` and an rf model trained on them."""
    d = tmp_path_factory.mktemp("hostile")
    assert cli("synth", "--out", d / "s", "--size", 32, "--block-factor", 8,
               "--n-scenes", 4, "--seed", 0)[0] == 0
    assert cli("train", "--manifest", d / "s" / "manifest.json", "--data-dir", d / "s",
               "--model", "rf", "--trees", 2, "--depth", 4, "--out", d / "rf.wlcm")[0] == 0
    return d


# --- manifest ids are plain file names ----------------------------------------

def test_an_id_that_climbs_out_of_the_data_dir_cannot_pass_for_a_prediction(split, tmp_path):
    # With the id read as a path, predict wrote pred/scene-00000.wlcb but
    # listed ../s/scene-00000, and evaluate on pred/manifest.json then scored
    # the input's weak labels (the LR-vs-HR AA) and exited 0.
    manifest = write_manifest(tmp_path / "m.json", ["../s/scene-00000"])
    pred = tmp_path / "pred"
    error = one_error(*cli("predict", "--manifest", manifest, "--data-dir", split / "s",
                           "--model-file", split / "rf.wlcm", "--out", pred))
    assert error == "patch id '../s/scene-00000' in manifest 'hostile' is not a plain file name"
    assert not pred.exists()
    one_error(*cli("evaluate", "--manifest", manifest, "--data-dir", split / "s"))


@pytest.mark.parametrize(
    "ids",
    [[""], ["."], [".."], ["a/x", "b/x"], ["/abs/scene"], ["sub\\x"], ["a\x00b"], ["./x"]],
    ids=["empty", "dot", "dotdot", "same_stem", "absolute", "backslash", "nul", "dot_slash"],
)
def test_manifest_ids_that_are_not_plain_file_names_are_refused(tmp_path, ids):
    with pytest.raises(ManifestError, match="is not a plain file name"):
        load_manifest(write_manifest(tmp_path / "m.json", ids))


@pytest.mark.parametrize("name", [5, None, ["x"], {"a": 1}, 1.5, True])
def test_a_manifest_name_that_is_not_a_string_is_refused(tmp_path, name):
    with pytest.raises(ManifestError, match="manifest name must be a string"):
        load_manifest(write_manifest(tmp_path / "m.json", ["a"], name=name))


def test_plain_names_with_dots_and_spaces_are_ids(tmp_path):
    ids = ["...", "a.b", " x ", ".hidden", "scene-00000.wlcb"]
    assert load_manifest(write_manifest(tmp_path / "m.json", ids)).patch_ids == tuple(ids)


# --- header sizes are checked before train sizes its matrix -------------------

def test_train_refuses_a_header_that_claims_more_pixels_than_its_file(tmp_path):
    # a 12,818-byte container whose header claims 65535×65535: train used to
    # size a 160 GiB matrix from it and die with numpy's MemoryError traceback
    lr = np.ones((16, 16), dtype=np.uint8)
    d = tmp_path / "s"
    d.mkdir()
    path = d / "big.wlcb"
    write_patch(make_patch(lr, hr=lr, s1=np.zeros((2, 16, 16))), path)
    data = bytearray(path.read_bytes())
    assert len(data) == 12_818
    data[6:14] = struct.pack("<II", 65535, 65535)
    path.write_bytes(bytes(data))
    write_manifest(d / "manifest.json", ["big"])
    error = one_error(*cli("train", "--manifest", d / "manifest.json", "--data-dir", d,
                           "--model", "logreg", "--epochs", 1, "--out", tmp_path / "m.wlcm"))
    assert error.startswith(f"container size 12818 != expected {18 + 65535**2 * 50}")
    assert not (tmp_path / "m.wlcm").exists()


def test_a_split_too_large_for_memory_fails_with_one_json_line(split, tmp_path, monkeypatch):
    def too_large(*args):
        raise MemoryError("Unable to allocate 160. GiB for an array")

    monkeypatch.setattr(cli_module, "_band_rows_and_labels", too_large)
    error = one_error(*cli("train", "--manifest", split / "s" / "manifest.json",
                           "--data-dir", split / "s", "--model", "rf",
                           "--out", tmp_path / "m.wlcm"))
    assert error == "Unable to allocate 160. GiB for an array"


# --- every command that reads a split, on hostile manifests and headers -------

PATH_LIKE = st.text(alphabet="./\\\x00ab", max_size=5)
PREFIXES = ["", "./", "../s/", "@abs/", "x/../", ".\\", "s/"]


@st.composite
def hostile_splits(draw, names, pixels):
    """(manifest name, ids, header faults): some ids of the split's names
    and, making the case hostile, at least one of an id built from a
    path-like prefix and a name or path-like text, a name that is not a
    string, or a listed container whose header dimensions claim another
    pixel count than the ``pixels`` its file holds."""
    listed = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    bad_ids = draw(st.lists(
        st.tuples(st.sampled_from(PREFIXES), st.one_of(st.sampled_from(names), PATH_LIKE))
        .map("".join).filter(lambda i: i not in names),
        max_size=2,
    ))
    ids = draw(st.permutations(listed + bad_ids))
    name = draw(st.sampled_from(["fuzz", "fuzz", "fuzz", 5, None]))
    faults = {}
    if listed and draw(st.booleans()):
        victim = draw(st.sampled_from(listed))
        faults[victim] = draw(
            st.tuples(st.integers(1, 65535), st.integers(1, 65535))
            .filter(lambda hw: hw[0] * hw[1] != pixels)
        )
    return name, ids, faults


NAMES = ["scene-00000", "scene-00001", "scene-00002"]


def command_argvs(case: Path, manifest: Path, model: Path):
    """Every command that reads a split, each writing under its own out-*."""
    split = ["--manifest", manifest, "--data-dir", case / "s"]
    return {
        "stats": ["stats", *split, "--out", case / "out-stats"],
        "evaluate": ["evaluate", *split, "--out", case / "out-evaluate"],
        "transition": ["transition", *split, "--out", case / "out-transition"],
        "render": ["render", *split, "--out", case / "out-render"],
        "train": ["train", *split, "--model", "logreg", "--epochs", 1,
                  "--out", case / "out-train"],
        "predict": ["predict", *split, "--model-file", model, "--out", case / "out-predict"],
    }


def snapshot(case: Path) -> dict:
    """Every file under case but the commands' outputs, with its bytes."""
    return {
        p.relative_to(case).as_posix(): p.read_bytes()
        for p in sorted(case.rglob("*"))
        if p.is_file() and not p.relative_to(case).as_posix().startswith("out-")
    }


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hostile_splits_fail_every_command_cleanly(split, data):
    name, ids, faults = data.draw(hostile_splits(NAMES, 32 * 32))
    assume(name != "fuzz" or faults or not ids or any(i not in NAMES for i in ids))
    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp)
        shutil.copytree(split / "s", case / "s")
        for victim, (h, w) in faults.items():
            path = case / "s" / f"{victim}.wlcb"
            blob = bytearray(path.read_bytes())
            blob[6:14] = struct.pack("<II", h, w)
            path.write_bytes(bytes(blob))
        ids = [i.replace("@abs", str(case / "s")) for i in ids]
        manifest = write_manifest(case / "m.json", ids, name=name)
        before = snapshot(case)
        for command, argv in command_argvs(case, manifest, split / "rf.wlcm").items():
            code, out, err = cli(*argv)
            assert "Traceback" not in err, (command, err)
            assert code in (1, 2), (command, ids, faults, code, out)
            assert out == ""
            lines = err.strip().splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0]), (command, err)
            assert snapshot(case) == before, command
        pred = case / "out-predict"
        if (pred / "manifest.json").exists():
            listed = load_manifest(pred / "manifest.json").patch_ids
            assert all((pred / f"{i}.wlcb").is_file() for i in listed)
