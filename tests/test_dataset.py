"""Container format, manifests, and dataset statistics."""

import json
import os
import stat
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlcbench.dataset import (
    BandStack,
    ContainerError,
    LabelRaster,
    ManifestError,
    Patch,
    Scheme,
    SplitManifest,
    SplitRole,
    atomic_write,
    class_histogram,
    iter_patches,
    load_manifest,
    patch_to_bytes,
    read_header,
    read_patch,
    save_manifest,
    subsample_manifest,
    write_patch,
)
from conftest import make_patch, traced_peak

HEADER = struct.Struct("<4sHIIBBBB")


# --- oracles -----------------------------------------------------------

def tally_oracle(rasters):
    """Per-pixel python-loop class tally, independent of numpy bincount."""
    counts = {c: 0 for c in range(1, 11)}
    for values in rasters:
        for v in values.ravel().tolist():
            if v != 0:
                counts[v] += 1
    return np.array([counts[c] for c in range(1, 11)], dtype=np.int64)


def distinct_oracle(rasters):
    hist = np.zeros(10, dtype=np.int64)
    for values in rasters:
        seen = {int(v) for v in values.ravel().tolist() if v != 0}
        if seen:
            hist[len(seen) - 1] += 1
    return hist


# --- container format --------------------------------------------------

def test_header_is_18_bytes():
    assert HEADER.size == 18


def test_minimal_container_four_water_pixels(tmp_path):
    p = make_patch(np.full((2, 2), 10, dtype=np.uint8))
    path = tmp_path / "w.wlcb"
    write_patch(p, path)
    back = read_patch(path)
    assert back.height == back.width == 2
    assert (back.lr_labels.values == 10).all()
    assert back.lr_labels.scheme is Scheme.SIMPLIFIED10
    assert back.s1 is None and back.hr_labels is None


def test_one_band_patch_size_arithmetic():
    # header + one 2x2 float32 plane + 2x2 u8 labels
    p = make_patch(np.ones((2, 2), dtype=np.uint8), s2=np.zeros((1, 2, 2), np.float32))
    assert len(patch_to_bytes(p)) == 18 + 16 + 4


def test_hr_presence_flag():
    lr = np.ones((3, 3), dtype=np.uint8)
    without = patch_to_bytes(make_patch(lr))
    with_hr = patch_to_bytes(make_patch(lr, hr=lr))
    assert without[16] == 0
    assert with_hr[16] == 1
    assert len(with_hr) == len(without) + 9


def test_nan_band_value_rejected_before_writing(tmp_path):
    bad = np.zeros((10, 2, 2), dtype=np.float32)
    bad[3, 1, 1] = np.nan
    p = make_patch(np.ones((2, 2), dtype=np.uint8), s2=bad)
    with pytest.raises(ContainerError, match="non-finite"):
        write_patch(p, tmp_path / "bad.wlcb")
    assert not (tmp_path / "bad.wlcb").exists()


@st.composite
def patch_strategy(draw):
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    n_s2 = draw(st.sampled_from([1, 3, 10, 13]))
    scheme = draw(st.sampled_from([Scheme.IGBP17, Scheme.SIMPLIFIED10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    s2 = rng.normal(0, 5000, (n_s2, h, w)).astype(np.float32)
    s1 = rng.normal(-12, 6, (2, h, w)).astype(np.float32) if draw(st.booleans()) else None
    lr = rng.integers(0, scheme.max_class_id + 1, (h, w), dtype=np.uint8)
    hr = rng.integers(0, 11, (h, w), dtype=np.uint8) if draw(st.booleans()) else None
    return make_patch(lr, hr=hr, s2=s2, s1=s1, lr_scheme=scheme)


@settings(max_examples=60, deadline=None)
@given(patch_strategy())
def test_roundtrip_byte_identical(patch):
    """write -> read -> write reproduces the original container bytes."""
    blob = patch_to_bytes(patch)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.wlcb"
        atomic_write(path, blob)
        back = read_patch(path)
        assert patch_to_bytes(back) == blob
        assert back.id == "p"
        np.testing.assert_array_equal(back.lr_labels.values, patch.lr_labels.values)
        np.testing.assert_array_equal(back.s2.values, patch.s2.values)


def _valid_blob():
    lr = np.arange(4, dtype=np.uint8).reshape(2, 2) % 10 + 1
    return patch_to_bytes(make_patch(lr, hr=lr))


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda b: b[:10], "truncated header"),
        (lambda b: b"XXXX" + b[4:], "bad magic"),
        (lambda b: b[:4] + struct.pack("<H", 9) + b[6:], "version"),
        (lambda b: b + b"\x00", "expected"),
        (lambda b: b[:17] + b"\x07" + b[18:], "scheme"),
    ],
)
def test_malformed_containers_rejected(tmp_path, mutate, message):
    blob = mutate(_valid_blob())
    path = tmp_path / "m.wlcb"
    path.write_bytes(blob)
    with pytest.raises(ContainerError, match=message):
        read_patch(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b[:0],
        lambda b: b[:17],
        lambda b: b"XXXX" + b[4:],
        lambda b: b[:4] + struct.pack("<H", 9) + b[6:],
        lambda b: b[:6] + struct.pack("<I", 0) + b[10:],
        lambda b: b[:14] + b"\x02" + b[15:],
        lambda b: b[:15] + b"\x00" + b[16:],
        lambda b: b[:16] + b"\x05" + b[17:],
        lambda b: b[:17] + b"\x07" + b[18:],
        lambda b: b[:-1],
        lambda b: b + b"\x00",
        lambda b: b[:6] + struct.pack("<I", 65535) + b[10:],
    ],
    ids=["empty", "short", "magic", "version", "height", "s1_flag", "s2_bands", "hr_flag", "scheme",
         "truncated_body", "trailing_byte", "inflated_height"],
)
def test_header_probe_and_read_give_the_same_error(tmp_path, mutate):
    path = tmp_path / "m.wlcb"
    path.write_bytes(mutate(_valid_blob()))
    with pytest.raises(ContainerError) as probed:
        read_header(path)
    with pytest.raises(ContainerError) as read:
        read_patch(path)
    assert str(probed.value) == str(read.value)


def test_header_probe_reads_the_layout_and_size(tmp_path):
    lr = np.ones((2, 3), dtype=np.uint8)
    patch = make_patch(lr, hr=lr, s1=np.zeros((2, 2, 3)), s2=np.zeros((13, 2, 3)))
    path = tmp_path / "p.wlcb"
    write_patch(patch, path)
    header = read_header(path)
    assert (header.height, header.width, header.pixels) == (2, 3, 6)
    assert (header.s1_present, header.s2_bands, header.hr_present) == (True, 13, True)
    assert header.scheme is Scheme.SIMPLIFIED10
    assert header.size == os.path.getsize(path)
    # the probe reads no body, but checks the file's size against the header
    path.write_bytes(path.read_bytes()[:-1])
    for read in (read_header, read_patch):
        with pytest.raises(ContainerError, match=f"container size {header.size - 1} != expected"):
            read(path)


def test_a_container_that_shrinks_after_its_size_check_is_refused(tmp_path, monkeypatch):
    blob = _valid_blob()
    path = tmp_path / "m.wlcb"
    path.write_bytes(blob[:-3])
    fstat = os.fstat

    def stale(fd):  # the size the file had before it shrank
        st = tuple(fstat(fd))
        return os.stat_result(st[:6] + (len(blob),) + st[7:])

    monkeypatch.setattr(os, "fstat", stale)
    with pytest.raises(ContainerError, match=f"container size {len(blob) - 3} != expected {len(blob)}"):
        read_patch(path)


@pytest.fixture
def big_patch(rng):
    h = w = 128
    lr = rng.integers(1, 11, (h, w), dtype=np.uint8)
    return make_patch(
        lr,
        hr=lr,
        s2=rng.normal(0, 5000, (10, h, w)),
        s1=rng.normal(-12, 6, (2, h, w)),
    )


def test_read_patch_holds_the_container_once(tmp_path, big_patch):
    # one payload buffer the planes are views of, plus the band stacks'
    # finiteness masks (a quarter of a float plane each); the parent held
    # the file's bytes and a float32 copy of every plane
    path = tmp_path / "p.wlcb"
    write_patch(big_patch, path)
    peak, _ = traced_peak(lambda: read_patch(path))
    assert peak <= 1.25 * os.path.getsize(path)


def test_write_patch_copies_no_container(tmp_path, big_patch):
    # the header and each array go to the file as they are; only the
    # finiteness masks of the band stacks are allocated
    path = tmp_path / "p.wlcb"
    peak, _ = traced_peak(lambda: write_patch(big_patch, path))
    assert peak <= 0.5 * os.path.getsize(path)
    assert path.read_bytes() == patch_to_bytes(big_patch)


def test_illegal_class_id_reported_with_location(tmp_path):
    blob = bytearray(_valid_blob())
    blob[-4] = 11  # first hr label byte, SIMPLIFIED10 allows 1..10
    path = tmp_path / "m.wlcb"
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="illegal class id 11"):
        read_patch(path)


@pytest.mark.parametrize(
    "index, field", [(-5, "lr_labels"), (-1, "hr_labels")], ids=["lr", "hr"]
)
def test_illegal_class_id_names_the_field_and_the_pixel(tmp_path, index, field):
    blob = bytearray(_valid_blob())
    blob[index] = 11  # the last pixel of the field
    path = tmp_path / "m.wlcb"
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError) as exc:
        read_patch(path)
    assert str(exc.value) == (
        f"illegal class id 11 in {field} at pixel 3 under scheme SIMPLIFIED10"
    )


def test_read_patch_checks_each_label_raster_once(tmp_path, monkeypatch):
    path = tmp_path / "m.wlcb"
    path.write_bytes(_valid_blob())
    reads = []
    top = Scheme.max_class_id

    def counted(scheme):
        reads.append(scheme)
        return top.fget(scheme)

    monkeypatch.setattr(Scheme, "max_class_id", property(counted))
    read_patch(path)
    assert reads == [Scheme.SIMPLIFIED10, Scheme.SIMPLIFIED10]  # lr, then hr


def test_read_patch_checks_each_band_value_once(tmp_path, monkeypatch):
    lr = np.arange(4, dtype=np.uint8).reshape(2, 2) % 10 + 1
    path = tmp_path / "m.wlcb"
    path.write_bytes(patch_to_bytes(make_patch(lr, s1=np.zeros((2, 2, 2)))))
    checked = []
    isfinite = np.isfinite

    def counted(values, *args, **kwargs):
        checked.append(np.size(values))
        return isfinite(values, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    read_patch(path)
    assert checked == [2 * 4, 10 * 4]  # the s1 planes, then the s2 planes


@pytest.mark.parametrize("scheme, top", [(Scheme.SIMPLIFIED10, 10), (Scheme.IGBP17, 17)])
def test_label_raster_refuses_a_class_id_above_its_scheme(scheme, top):
    assert LabelRaster(np.array([[top, 0]]), scheme).values.max() == top
    with pytest.raises(
        ContainerError,
        match=f"^illegal class id {top + 1} in labels at pixel 1 under scheme {scheme.name}$",
    ):
        LabelRaster(np.array([[1, top + 1]]), scheme)


def test_nonfinite_payload_rejected_with_offset(tmp_path):
    blob = bytearray(_valid_blob())
    blob[18:22] = struct.pack("<f", np.nan)  # first s2 float
    path = tmp_path / "m.wlcb"
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="non-finite value in s2 at payload offset 18"):
        read_patch(path)


def test_mismatched_shapes_rejected():
    p = make_patch(np.ones((2, 2), dtype=np.uint8))
    bad = Patch(
        id="x",
        s2=p.s2,
        lr_labels=LabelRaster(np.ones((3, 3), dtype=np.uint8), Scheme.SIMPLIFIED10),
    )
    with pytest.raises(ContainerError, match="does not match"):
        patch_to_bytes(bad)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    atomic_write(tmp_path / "out.bin", b"abc")
    assert (tmp_path / "out.bin").read_bytes() == b"abc"
    assert [f.name for f in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_write_honours_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "out.bin", b"abc")
        write_patch(make_patch(np.ones((2, 2))), tmp_path / "p.wlcb")
    finally:
        os.umask(old)
    for name in ("out.bin", "p.wlcb"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_atomic_write_skips_a_taken_temp_name(tmp_path, monkeypatch):
    taken = tmp_path / "out.bin.00000000"
    taken.write_bytes(b"other")
    draws = iter([b"\0\0\0\0", b"\0\0\0\1"])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    atomic_write(tmp_path / "out.bin", b"abc")
    assert (tmp_path / "out.bin").read_bytes() == b"abc"
    assert taken.read_bytes() == b"other"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out.bin", taken.name]


# --- manifests ----------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    m = SplitManifest("demo", SplitRole.VALIDATION, ("a", "b", "c"))
    save_manifest(m, tmp_path / "m.json")
    back = load_manifest(tmp_path / "m.json")
    assert back == m


def test_manifest_duplicate_ids_rejected():
    with pytest.raises(ManifestError, match="duplicate"):
        SplitManifest("d", SplitRole.TRAIN, ("a", "a"))


@pytest.mark.parametrize("doc", [
    {}, {"name": "x", "role": "train"}, {"name": "x", "role": "nope", "patch_ids": []},
    [], {"name": "x", "role": "train", "patch_ids": [1, 2]},
])
def test_manifest_bad_documents(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_manifest(path)


def test_subsample_full_size_is_identity_on_id_set():
    m = SplitManifest("d", SplitRole.TRAIN, tuple(f"p{i}" for i in range(10)))
    sub = subsample_manifest(m, 10, seed=4)
    assert sorted(sub.patch_ids) == sorted(m.patch_ids)
    assert sub.role is m.role


def test_subsample_zero_and_determinism():
    m = SplitManifest("d", SplitRole.TEST, tuple(f"p{i}" for i in range(7)))
    assert len(subsample_manifest(m, 0, seed=1)) == 0
    a = subsample_manifest(m, 3, seed=9)
    b = subsample_manifest(m, 3, seed=9)
    assert a.patch_ids == b.patch_ids
    assert a.name == "d-sub3"


def test_subsample_too_large_rejected():
    m = SplitManifest("d", SplitRole.TRAIN, ("a",))
    with pytest.raises(ManifestError, match="cannot subsample"):
        subsample_manifest(m, 2, seed=0)


def test_subsample_pairs_uniform_within_3_sigma():
    """5-choose-2 over 10,000 seeds: each pair within 3 sigma of uniform."""
    m = SplitManifest("d", SplitRole.TRAIN, tuple("abcde"))
    freq = {}
    for seed in range(10_000):
        pair = frozenset(subsample_manifest(m, 2, seed).patch_ids)
        freq[pair] = freq.get(pair, 0) + 1
    assert len(freq) == 10
    expected = 1000.0
    sigma = (10_000 * 0.1 * 0.9) ** 0.5
    for pair, n in freq.items():
        assert abs(n - expected) <= 3 * sigma, (sorted(pair), n)


def test_iter_patches_reads_by_id(tmp_path):
    lr = np.ones((2, 2), dtype=np.uint8)
    for pid in ("x", "y"):
        write_patch(make_patch(lr, patch_id=pid), tmp_path / f"{pid}.wlcb")
    m = SplitManifest("d", SplitRole.TRAIN, ("x", "y"))
    got = [p.id for p in iter_patches(m, tmp_path)]
    assert got == ["x", "y"]


def test_iter_patches_missing_file(tmp_path):
    m = SplitManifest("d", SplitRole.TRAIN, ("ghost",))
    with pytest.raises(FileNotFoundError):
        list(iter_patches(m, tmp_path))


# --- statistics ---------------------------------------------------------

def test_histogram_single_class_patch():
    p = make_patch(np.ones((16, 16), dtype=np.uint8))
    hist = class_histogram([p])
    counts, fractions = hist.counts, hist.fractions
    assert counts[0] == 256
    assert fractions[0] == 1.0
    assert counts[1:].sum() == 0


def test_histogram_two_patches_half_water():
    lr = np.array([[1, 1], [10, 10]], dtype=np.uint8)
    hist = class_histogram([make_patch(lr, patch_id="a"), make_patch(lr, patch_id="b")])
    counts, fractions = hist.counts, hist.fractions
    assert counts[0] == 4 and counts[9] == 4
    assert fractions[0] == 0.5 and fractions[9] == 0.5


def test_histogram_matches_pixel_loop_oracle(rng):
    rasters = [rng.integers(0, 11, (7, 5), dtype=np.uint8) for _ in range(20)]
    patches = [make_patch(r, patch_id=f"p{i}") for i, r in enumerate(rasters)]
    hist = class_histogram(patches)
    np.testing.assert_array_equal(hist.counts, tally_oracle(rasters))
    assert abs(hist.fractions.sum() - 1.0) < 1e-12


def test_histogram_requires_simplified_scheme():
    p = make_patch(np.ones((2, 2), dtype=np.uint8), lr_scheme=Scheme.IGBP17)
    with pytest.raises(ValueError, match="simplify_igbp"):
        class_histogram([p])


def test_histogram_empty_input():
    with pytest.raises(ValueError, match="at least one patch"):
        class_histogram([])


def test_histogram_hr_missing():
    p = make_patch(np.ones((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="lacks hr labels"):
        class_histogram([p], which="hr")
    with pytest.raises(ValueError, match="label slot must be 'lr' or 'hr', got 'LR'"):
        class_histogram([p], which="LR")


def test_classes_per_patch_examples():
    single = make_patch(np.full((4, 4), 5, dtype=np.uint8), patch_id="s")
    three = make_patch(np.array([[1, 4], [6, 6]], dtype=np.uint8), patch_id="t")
    hist = class_histogram([single, three]).classes_per_patch
    assert hist[0] == 1 and hist[2] == 1
    assert hist.sum() == 2


def test_classes_per_patch_matches_oracle(rng):
    rasters = [rng.integers(0, 11, (6, 6), dtype=np.uint8) for _ in range(100)]
    patches = [make_patch(r, patch_id=f"p{i}") for i, r in enumerate(rasters)]
    np.testing.assert_array_equal(
        class_histogram(patches).classes_per_patch, distinct_oracle(rasters)
    )
