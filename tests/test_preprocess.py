"""Normalization endpoints, band selection, and feature assembly."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_patch, traced_peak
from preprocess_reference import reference_assemble_features
from wlcbench import preprocess
from wlcbench.dataset import BandStack, LabelRaster, Patch, Scheme, S2_ALL_BANDS, S2_SURFACE_BANDS
from wlcbench.labels import SAVANNA
from wlcbench.preprocess import (
    BandRows,
    FeatureMatrix,
    FusionConfig,
    FusionMode,
    assemble_features,
    band_rows,
    feature_rows,
    normalize_bands,
    normalize_s1,
    normalize_s2,
    training_rows,
)
from wlcbench.maskedlr import LogRegConfig, logreg_fit
from wlcbench.shallow import kmeans_fit, rf_fit


def normalize_oracle(x, lo, hi):
    """Scalar clip-and-rescale written the long way."""
    if x < lo:
        x = lo
    if x > hi:
        x = hi
    return (x - lo) / (hi - lo)


# --- normalization ------------------------------------------------------

@pytest.mark.parametrize(
    "db,expected",
    [(-40.0, 0.0), (-25.0, 0.0), (-12.5, 0.5), (0.0, 1.0), (3.0, 1.0)],
)
def test_s1_endpoints_exact(db, expected):
    assert normalize_s1(db) == expected


@pytest.mark.parametrize(
    "dn,expected",
    [(-5.0, 0.0), (0.0, 0.0), (5000.0, 0.5), (10000.0, 1.0), (12000.0, 1.0)],
)
def test_s2_endpoints_exact(dn, expected):
    assert normalize_s2(dn) == expected


def test_normalization_vectorized_matches_scalar(rng):
    s1 = rng.uniform(-60, 20, 64)
    s2 = rng.uniform(-500, 2e4, 64)
    np.testing.assert_array_equal(
        normalize_s1(s1), [normalize_oracle(v, -25.0, 0.0) for v in s1]
    )
    np.testing.assert_array_equal(
        normalize_s2(s2), [normalize_oracle(v, 0.0, 1.0e4) for v in s2]
    )


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_normalization_is_monotone_and_bounded(a, b):
    lo, hi = sorted((a, b))
    for f in (normalize_s1, normalize_s2):
        ya, yb = f(lo), f(hi)
        assert ya <= yb
        assert 0.0 <= ya <= 1.0 and 0.0 <= yb <= 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalization_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        normalize_s1(np.array([0.0, bad]))
    with pytest.raises(ValueError):
        normalize_s2(np.array([0.0, bad]))


def test_normalization_preserves_shape(rng):
    x = rng.uniform(-30, 5, (3, 4, 5))
    assert normalize_s1(x).shape == (3, 4, 5)
    assert isinstance(normalize_s1(-10.0), float)


# --- fusion config --------------------------------------------------------

def test_fusion_dimensions():
    assert FusionConfig.from_string("s2").mode is FusionMode.S2_ONLY
    assert FusionConfig.from_string("s1s2").mode is FusionMode.S1_PLUS_S2
    assert FusionConfig().mode is FusionMode.S2_ONLY
    assert FusionConfig.from_string("s2").d == 10
    assert FusionConfig.from_string("s1s2").d == 12


def test_fusion_rejects_unknown_mode():
    with pytest.raises(ValueError):
        FusionConfig.from_string("s1")


# --- assemble_features ----------------------------------------------------

def test_single_pixel_s2_only():
    s2 = np.full((10, 1, 1), 5000.0, dtype=np.float32)
    fm = assemble_features(make_patch([[9]], s2=s2), FusionConfig.from_string("s2"))
    assert fm.values.shape == (1, 10)
    np.testing.assert_array_equal(fm.values[0], np.full(10, 0.5))
    assert fm.valid_mask.all()


def test_single_pixel_fused_column_order():
    s2 = np.full((10, 1, 1), 10000.0, dtype=np.float32)
    s1 = np.array([[[-25.0]], [[0.0]]], dtype=np.float32)  # VV, VH
    fm = assemble_features(
        make_patch([[1]], s2=s2, s1=s1), FusionConfig.from_string("s1s2")
    )
    assert fm.values.shape == (1, 12)
    np.testing.assert_array_equal(fm.values[0, :10], np.ones(10))
    assert fm.values[0, 10] == 0.0  # VV
    assert fm.values[0, 11] == 1.0  # VH


def test_feature_rows_match_per_pixel_oracle(rng):
    h, w = 3, 4
    s2 = rng.uniform(-100, 1.2e4, (10, h, w)).astype(np.float32)
    s1 = rng.uniform(-40, 5, (2, h, w)).astype(np.float32)
    lr = rng.integers(1, 11, (h, w), dtype=np.uint8)
    fm = assemble_features(
        make_patch(lr, s2=s2, s1=s1), FusionConfig.from_string("s1s2")
    )
    for i in range(h):
        for j in range(w):
            row = fm.values[i * w + j]
            for b in range(10):
                assert row[b] == normalize_oracle(float(s2[b, i, j]), 0.0, 1.0e4)
            assert row[10] == normalize_oracle(float(s1[0, i, j]), -25.0, 0.0)
            assert row[11] == normalize_oracle(float(s1[1, i, j]), -25.0, 0.0)


def test_nodata_label_masks_row():
    lr = np.array([[1, 0], [0, 4]], dtype=np.uint8)
    fm = assemble_features(make_patch(lr), FusionConfig.from_string("s2"))
    np.testing.assert_array_equal(fm.valid_mask, [True, False, False, True])


def test_non_finite_band_masks_row_but_values_stay_finite():
    s2 = np.zeros((10, 1, 2), dtype=np.float32)
    s2[3, 0, 1] = np.nan
    fm = assemble_features(make_patch([[2, 2]], s2=s2), FusionConfig.from_string("s2"))
    np.testing.assert_array_equal(fm.valid_mask, [True, False])
    assert np.isfinite(fm.values).all()


def test_fusion_requires_s1():
    with pytest.raises(ValueError, match="no S1"):
        assemble_features(make_patch([[1]]), FusionConfig.from_string("s1s2"))
    # three bands named S2_1..S2_3 are neither the ten surface bands nor all 13
    with pytest.raises(ValueError, match="cannot select surface bands"):
        assemble_features(make_patch([[1]], s2=np.zeros((3, 1, 1))), FusionConfig())


def test_thirteen_band_input_is_reduced():
    values = np.zeros((13, 1, 1), dtype=np.float32)
    values[0] = 1.0e4   # B1, must be dropped
    values[1] = 5000.0  # B2, must land in column 0
    patch = Patch(
        id="full",
        s2=BandStack(values, S2_ALL_BANDS),
        lr_labels=LabelRaster(np.array([[6]], dtype=np.uint8), Scheme.SIMPLIFIED10),
    )
    fm = assemble_features(patch, FusionConfig.from_string("s2"))
    assert fm.d == 10
    assert fm.values[0, 0] == 0.5


# NaN, both infinities, both zeros, the clip ends and values beyond them
_EDGE_VALUES = (
    np.nan, np.inf, -np.inf, 0.0, -0.0, -25.0, -25.5, -1e-3, 1e-3, 12.5,
    1.0e4, 1.0e4 + 1.0, -3.0e38, 3.0e38,
)


@st.composite
def assembly_cases(draw):
    h = draw(st.integers(1, 4))
    w = draw(st.integers(1, 4))
    n_s2 = draw(st.sampled_from([10, 13]))
    mode = draw(st.sampled_from(["s2", "s1s2"]))
    value = st.one_of(
        st.sampled_from(_EDGE_VALUES),
        st.floats(-1.0e5, 1.0e5, width=32),
    )

    def planes(count):
        flat = draw(st.lists(value, min_size=count * h * w, max_size=count * h * w))
        return np.array(flat, dtype=np.float32).reshape(count, h, w)

    s1 = planes(2) if mode == "s1s2" or draw(st.booleans()) else None
    lr = np.array(draw(st.lists(st.integers(0, 10), min_size=h * w, max_size=h * w)))
    patch = Patch(
        id="p",
        s2=BandStack(planes(n_s2), S2_ALL_BANDS if n_s2 == 13 else S2_SURFACE_BANDS),
        lr_labels=LabelRaster(lr.reshape(h, w).astype(np.uint8), Scheme.SIMPLIFIED10),
        s1=None if s1 is None else BandStack(s1, ("VV", "VH")),
    )
    return patch, FusionConfig.from_string(mode)


@settings(max_examples=200, deadline=None)
@given(assembly_cases(), st.data())
def test_assembly_matches_the_reference_bitwise(case, data):
    patch, config = case
    got = assemble_features(patch, config)
    want = reference_assemble_features(patch, config)
    assert got.values.dtype == np.float64
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    np.testing.assert_array_equal(got.valid_mask, want.valid_mask)
    # rows of a larger matrix get the same bytes
    n = got.n_rows
    big = np.full((n + 2, config.d), 7.0)
    into = assemble_features(patch, config, out=big[1 : n + 1])
    assert into.values.base is big
    assert big[1 : n + 1].tobytes() == want.values.tobytes()
    assert (big[0] == 7.0).all() and (big[-1] == 7.0).all()
    np.testing.assert_array_equal(into.valid_mask, want.valid_mask)
    # a pixel range gives those rows of the whole patch, into a block
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    block = np.full((n + 1, config.d), 7.0)
    part = assemble_features(patch, config, out=block[: stop - start], rows=slice(start, stop))
    assert part.values.tobytes() == want.values[start:stop].tobytes()
    assert (block[stop - start :] == 7.0).all()
    np.testing.assert_array_equal(part.valid_mask, want.valid_mask[start:stop])


@settings(max_examples=200, deadline=None)
@given(case=assembly_cases(), exclude=st.sampled_from([frozenset(), frozenset({SAVANNA})]))
def test_band_rows_normalize_to_the_reference_rows_bitwise(case, exclude):
    patch, config = case
    want = reference_assemble_features(patch, config)
    labels = patch.lr_labels.values.ravel()
    trains = want.valid_mask & ~np.isin(labels, list(exclude))  # no non-finite, 0 or excluded
    m = int(trains.sum())
    out = np.full((len(labels) + 1, config.d), 7.0, dtype=np.float32)
    keep = band_rows(patch, config, out, exclude)
    np.testing.assert_array_equal(keep, trains)
    assert (out[m:] == 7.0).all()  # nothing written past the training rows
    rows = want.values[trains]
    assert normalize_bands(out[:m]).tobytes() == rows.tobytes()
    if not m:
        return
    # each reader of BandRows gives the same bytes
    reader = training_rows(BandRows(out[:m]))
    assert reader.all().tobytes() == rows.tobytes()
    block = np.empty((m, config.d))
    backwards = np.arange(m)[::-1]
    assert reader.read(backwards, block).tobytes() == rows[backwards].tobytes()
    assert reader.read(slice(1, m), block[1:]).tobytes() == rows[1:].tobytes()
    for f in range(config.d):
        assert reader.column(f).tobytes() == rows[:, f].tobytes()
        assert reader.column(f, backwards[:2]).tobytes() == rows[backwards[:2], f].tobytes()


def test_band_rows_refuse_an_output_of_another_width_type_or_length():
    patch = make_patch(np.array([[1, 0], [2, 2]], dtype=np.uint8))
    band_rows(patch, FusionConfig(), np.empty((3, 10), dtype=np.float32))
    for bad in (
        np.empty((4, 10)), np.empty((4, 12), dtype=np.float32), np.empty((2, 10), dtype=np.float32)
    ):
        with pytest.raises(ValueError, match="band rows need a float32 output of 3 or more rows"):
            band_rows(patch, FusionConfig(), bad)


def test_assembly_refuses_an_output_of_another_shape_or_type():
    patch = make_patch(np.ones((2, 2), dtype=np.uint8))
    for bad in (np.empty((4, 12)), np.empty((3, 10)), np.empty((4, 10), dtype=np.float32)):
        with pytest.raises(ValueError, match="feature output must be"):
            assemble_features(patch, FusionConfig(), out=bad)
    with pytest.raises(ValueError, match=r"feature output must be \(2, 10\) float64"):
        assemble_features(patch, FusionConfig(), out=np.empty((4, 10)), rows=slice(1, 3))


@pytest.mark.parametrize(
    "n, size, stops",
    [
        (0, 4, []),
        (1, 4, [1]),
        (4, 4, [4]),
        (5, 4, [5]),  # a one-row tail joins the block before it
        (6, 4, [4, 6]),
        (9, 4, [4, 9]),
        (10, 4, [4, 8, 10]),
        (8193, 4096, [4096, 8193]),
    ],
)
def test_row_blocks_cover_the_rows_in_order_with_no_one_row_block(n, size, stops):
    blocks = list(preprocess.row_blocks(n, size))
    assert [b.stop for b in blocks] == stops
    assert [b.start for b in blocks] == [0, *stops][: len(stops)]
    assert all(b.step is None for b in blocks)
    assert all(b.stop - b.start > 1 for b in blocks) or n == 1


def test_row_blocks_default_to_a_multiple_of_64_rows():
    assert preprocess.ROW_BLOCK % 64 == 0
    assert [b.stop for b in preprocess.row_blocks(2 * preprocess.ROW_BLOCK + 1)] == [
        preprocess.ROW_BLOCK, 2 * preprocess.ROW_BLOCK + 1
    ]


@pytest.mark.parametrize("n_s2", [10, 13])
@pytest.mark.parametrize("mode", ["s2", "s1s2"])
def test_assembly_scratch_memory_stays_within_a_quarter_of_its_output(n_s2, mode):
    # The output plus an N×d finiteness mask (an eighth of it) and a few
    # N-long masks; the parent built four such matrices.
    rng = np.random.default_rng(3)
    h = w = 128
    patch = Patch(
        id="p",
        s2=BandStack(
            rng.uniform(-100, 1.2e4, (n_s2, h, w)).astype(np.float32),
            S2_ALL_BANDS if n_s2 == 13 else S2_SURFACE_BANDS,
        ),
        lr_labels=LabelRaster(rng.integers(0, 11, (h, w), dtype=np.uint8), Scheme.SIMPLIFIED10),
        s1=BandStack(rng.uniform(-30, 5, (2, h, w)).astype(np.float32), ("VV", "VH")),
    )
    peak, fm = traced_peak(lambda: assemble_features(patch, FusionConfig.from_string(mode)))
    assert peak <= 1.25 * fm.values.nbytes


def test_with_mask_intersects():
    fm = assemble_features(
        make_patch(np.ones((2, 2), dtype=np.uint8)), FusionConfig.from_string("s2")
    )
    out = fm.with_mask([True, False, True, False])
    np.testing.assert_array_equal(out.valid_mask, [True, False, True, False])
    with pytest.raises(ValueError):
        fm.with_mask([True])


def test_feature_rows_checks_the_model_width():
    X = np.zeros((3, 10))
    np.testing.assert_array_equal(feature_rows(X, 10), X)
    fm = FeatureMatrix(values=X, valid_mask=np.array([True, False, True]))
    assert feature_rows(fm, 10).shape == (3, 10)  # every row, not only valid ones
    with pytest.raises(ValueError) as exc:
        feature_rows(fm, 12)
    assert str(exc.value) == "feature dimension d=10 != model dimension d=12"
    with pytest.raises(ValueError, match="N×d"):
        feature_rows(np.zeros(10), 10)


def test_training_rows_filters():
    lr = np.array([[1, 0, 2, 3]], dtype=np.uint8)
    fm = assemble_features(make_patch(lr), FusionConfig.from_string("s2"))
    ids = np.arange(4)
    rows = training_rows(fm)
    np.testing.assert_array_equal(rows.select(ids), [0, 2, 3])  # valid_mask drops the LR no-data
    np.testing.assert_array_equal(rows.all(), fm.values[[0, 2, 3]])
    assert training_rows(fm.values).all() is fm.values  # every row selected: no copy
    labels = np.array([1, 1, 0, 3])
    mask = np.array([True, True, True, False])
    np.testing.assert_array_equal(training_rows(fm.with_mask(mask), labels).select(ids), [0])
    np.testing.assert_array_equal(training_rows(fm.values, labels).select(ids), [0, 1, 3])
    # a one-entry mask would broadcast over every row
    with pytest.raises(ValueError, match="mask length 1 != feature rows 4"):
        fm.with_mask(mask[:1])
    np.testing.assert_array_equal(fm.valid_mask, [True, False, True, True])  # left as it was


def test_training_rows_checks_finiteness_in_every_chunk():
    X = np.zeros((10, 2))
    X[9, 1] = np.nan
    with mock.patch.object(preprocess, "ROW_BLOCK", 4):
        with pytest.raises(ValueError, match="must be finite"):
            training_rows(X)
        rows = training_rows(FeatureMatrix(X, np.arange(10) != 9))
    np.testing.assert_array_equal(rows.select(np.arange(10)), np.arange(9))
    assert rows._rows.dtype == np.int32


def _fit(kind, features, labels):
    if kind == "kmeans":
        return kmeans_fit(features, k=1, n_init=1)
    if kind == "rf":
        return rf_fit(features, labels, n_trees=1, max_depth=1)
    return logreg_fit(features, labels, config=LogRegConfig(epochs=1))


@pytest.mark.parametrize("kind", ["rf", "logreg", "kmeans"])
def test_fits_share_the_training_row_refusals(kind, rng):
    X = rng.random((20, 3))
    y = np.ones(20, dtype=np.uint8)
    cases = [
        (X[:, 0], y, "N×d features with d >= 1"),
        (FeatureMatrix(X, np.zeros(20, dtype=bool)), y, "no valid, masked-in, labeled rows"),
    ]
    for bad in (np.nan, np.inf, -np.inf):
        X_bad = X.copy()
        X_bad[4, 2] = bad
        cases.append((X_bad, y, "must be finite"))
        # a row that is not selected is not part of the fit
        _fit(kind, FeatureMatrix(X_bad, np.arange(20) != 4), y)
    if kind != "kmeans":
        cases.append((X, y[:5], "labels length 5 != feature rows 20"))
        # a label outside the scheme is refused even on a row that is not selected
        y_bad = y.copy()
        y_bad[4] = 11
        cases.append((FeatureMatrix(X, np.arange(20) != 4), y_bad, "1..10"))
        # and so is a label that is not a whole number
        for bad in (1.5, np.nan):
            y_float = y.astype(np.float64)
            y_float[4] = bad
            cases.append((X, y_float, "1..10"))
        _fit(kind, X, y.astype(np.float64))
    for features, labels, message in cases:
        with pytest.raises(ValueError, match=message):
            _fit(kind, features, labels)
