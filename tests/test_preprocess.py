"""Normalization endpoints, band selection, and feature assembly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_patch
from wlcbench.dataset import BandStack, LabelRaster, Patch, Scheme, S2_ALL_BANDS, S2_SURFACE_BANDS
from wlcbench.preprocess import (
    FeatureMatrix,
    FusionConfig,
    FusionMode,
    assemble_features,
    feature_rows,
    normalize_s1,
    normalize_s2,
    select_surface_bands,
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


# --- surface band selection ----------------------------------------------

def test_select_surface_drops_atmospheric_bands():
    values = np.arange(13, dtype=np.float32).reshape(13, 1, 1)
    stack = BandStack(values, S2_ALL_BANDS)
    out = select_surface_bands(stack)
    assert out.band_names == S2_SURFACE_BANDS
    # B1 (index 0), B9 (index 9), B10 (index 10) removed
    np.testing.assert_array_equal(
        out.values[:, 0, 0], [1, 2, 3, 4, 5, 6, 7, 8, 11, 12]
    )


def test_select_surface_passthrough_when_already_selected():
    stack = BandStack(np.zeros((10, 2, 2), dtype=np.float32), S2_SURFACE_BANDS)
    assert select_surface_bands(stack) is stack


def test_select_surface_rejects_unknown_band_set():
    stack = BandStack(
        np.zeros((3, 1, 1), dtype=np.float32), ("S2_1", "S2_2", "S2_3")
    )
    with pytest.raises(ValueError, match="surface bands"):
        select_surface_bands(stack)


# --- fusion config --------------------------------------------------------

def test_fusion_dimensions():
    assert FusionConfig.from_string("s2").mode is FusionMode.S2_ONLY
    assert FusionConfig.from_string("s1s2").mode is FusionMode.S1_PLUS_S2
    assert FusionConfig().mode is FusionMode.S2_ONLY


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


def test_with_mask_intersects():
    fm = assemble_features(
        make_patch(np.ones((2, 2), dtype=np.uint8)), FusionConfig.from_string("s2")
    )
    out = fm.with_mask([True, False, True, False])
    np.testing.assert_array_equal(out.valid_mask, [True, False, True, False])
    with pytest.raises(ValueError):
        fm.with_mask([True])


def test_concat_tracks_origins():
    a = assemble_features(
        make_patch([[1, 0]], patch_id="a"), FusionConfig.from_string("s2")
    )
    b = assemble_features(
        make_patch([[3]], s2=np.full((10, 1, 1), 5000.0, dtype=np.float32), patch_id="b"),
        FusionConfig.from_string("s2"),
    )
    cat = FeatureMatrix.concat([a, b])
    assert cat.n_rows == 3
    np.testing.assert_array_equal(cat.values, np.vstack([a.values, b.values]))
    np.testing.assert_array_equal(cat.valid_mask, [True, False, True])


def test_concat_rejects_mixed_dimensions():
    s1 = np.zeros((2, 1, 1), dtype=np.float32)
    a = assemble_features(make_patch([[1]]), FusionConfig.from_string("s2"))
    b = assemble_features(
        make_patch([[1]], s1=s1), FusionConfig.from_string("s1s2")
    )
    with pytest.raises(ValueError, match="dimension"):
        FeatureMatrix.concat([a, b])


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
    X, rows = training_rows(fm)
    assert X is fm.values
    np.testing.assert_array_equal(rows, [0, 2, 3])  # valid_mask drops the LR no-data
    labels = np.array([1, 1, 0, 3])
    mask = np.array([True, True, True, False])
    np.testing.assert_array_equal(training_rows(fm.with_mask(mask), labels)[1], [0])
    np.testing.assert_array_equal(training_rows(fm.values, labels)[1], [0, 1, 3])
    # a one-entry mask would broadcast over every row
    with pytest.raises(ValueError, match="mask length 1 != feature rows 4"):
        fm.with_mask(mask[:1])
    np.testing.assert_array_equal(fm.valid_mask, [True, False, True, True])  # left as it was


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
    for features, labels, message in cases:
        with pytest.raises(ValueError, match=message):
            _fit(kind, features, labels)
