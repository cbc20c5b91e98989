"""Scheme remapping, masking policy, and label-grid resampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlcbench.dataset import LabelRaster, Scheme
from wlcbench.labels import (
    IGBP_TO_SIMPLIFIED,
    SAVANNA,
    SIMPLIFIED_CLASS_NAMES,
    SIMPLIFIED_PALETTE,
    SchemeError,
    as_simplified,
    block_class_counts,
    simplify_igbp,
    trainable_mask,
    upsample_nearest,
)

# Ground truth for the 17-class -> 10-class collapse, stated group by
# group (1-5 forest types -> Forest, 6-7 shrublands -> Shrubland, 8-9
# savannas -> Savanna, 12 and 14 -> Croplands, and so on).
EXPECTED_MAP = {
    0: 0,
    1: 1, 2: 1, 3: 1, 4: 1, 5: 1,
    6: 2, 7: 2,
    8: 3, 9: 3,
    10: 4,
    11: 5,
    12: 6, 14: 6,
    13: 7,
    15: 8,
    16: 9,
    17: 10,
}

EXPECTED_PALETTE = (
    "009900", "c6b044", "fbff13", "b6ff05", "27ff87",
    "c24f44", "a5a5a5", "69fff8", "f9ffa4", "1c0dff",
)


def simplify_oracle(values):
    out = np.zeros_like(values)
    for i, v in enumerate(values.ravel().tolist()):
        out.flat[i] = EXPECTED_MAP[v]
    return out


# --- Table 1 mapping ----------------------------------------------------

def test_mapping_matches_expected_table_exhaustively():
    for igbp, simplified in EXPECTED_MAP.items():
        assert IGBP_TO_SIMPLIFIED[igbp] == simplified, igbp


@pytest.mark.parametrize("igbp,simplified", [(8, 3), (14, 6), (17, 10)])
def test_mapping_spot_checks(igbp, simplified):
    raster = LabelRaster(np.full((2, 2), igbp, dtype=np.uint8), Scheme.IGBP17)
    assert (simplify_igbp(raster).values == simplified).all()


def test_simplify_full_raster_matches_loop_oracle(rng):
    values = rng.integers(0, 18, (9, 13), dtype=np.uint8)
    raster = LabelRaster(values, Scheme.IGBP17)
    out = simplify_igbp(raster)
    assert out.scheme is Scheme.SIMPLIFIED10
    np.testing.assert_array_equal(out.values, simplify_oracle(values))


def test_simplify_is_surjective_onto_1_to_10():
    all_ids = LabelRaster(np.arange(18, dtype=np.uint8).reshape(3, 6), Scheme.IGBP17)
    image = set(simplify_igbp(all_ids).values.ravel().tolist())
    assert image == set(range(11))


def test_simplify_rejects_simplified_input():
    raster = LabelRaster(np.ones((2, 2), dtype=np.uint8), Scheme.SIMPLIFIED10)
    with pytest.raises(SchemeError):
        simplify_igbp(raster)


def test_simplify_rejects_out_of_range_id():
    with pytest.raises((SchemeError, ValueError)):
        simplify_igbp(LabelRaster(np.full((1, 1), 18, dtype=np.uint8), Scheme.IGBP17))


def test_as_simplified_simplifies_igbp_and_passes_simplified_through():
    igbp = LabelRaster(np.arange(18, dtype=np.uint8).reshape(3, 6), Scheme.IGBP17)
    out = as_simplified(igbp)
    assert out.scheme is Scheme.SIMPLIFIED10
    np.testing.assert_array_equal(out.values, simplify_igbp(igbp).values)
    simplified = LabelRaster(np.array([[0, 3, 10]], dtype=np.uint8), Scheme.SIMPLIFIED10)
    assert as_simplified(simplified) is simplified


def test_palette_and_names():
    assert SIMPLIFIED_PALETTE == EXPECTED_PALETTE
    assert SIMPLIFIED_CLASS_NAMES[0] == "Forest"
    assert SIMPLIFIED_CLASS_NAMES[2] == "Savanna"
    assert SIMPLIFIED_CLASS_NAMES[9] == "Water"
    assert len(SIMPLIFIED_CLASS_NAMES) == 10


# --- trainable_mask -----------------------------------------------------

def test_mask_all_savanna_is_all_false():
    raster = LabelRaster(np.full((3, 3), SAVANNA, dtype=np.uint8), Scheme.SIMPLIFIED10)
    assert not trainable_mask(raster).any()


def test_mask_mixed_example():
    raster = LabelRaster(np.array([[1, 3], [10, 0]], dtype=np.uint8), Scheme.SIMPLIFIED10)
    np.testing.assert_array_equal(
        trainable_mask(raster), np.array([[True, False], [True, False]])
    )


def test_mask_empty_class_set_keeps_all_labeled():
    raster = LabelRaster(np.array([[1, 3], [10, 0]], dtype=np.uint8), Scheme.SIMPLIFIED10)
    np.testing.assert_array_equal(
        trainable_mask(raster, frozenset()), raster.values != 0
    )


def test_mask_requires_simplified():
    raster = LabelRaster(np.ones((2, 2), dtype=np.uint8), Scheme.IGBP17)
    with pytest.raises(SchemeError):
        trainable_mask(raster)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mask_never_marks_savanna_or_nodata(seed):
    values = np.random.default_rng(seed).integers(0, 11, (8, 8), dtype=np.uint8)
    raster = LabelRaster(values, Scheme.SIMPLIFIED10)
    mask = trainable_mask(raster)
    assert not mask[values == SAVANNA].any()
    assert not mask[values == 0].any()


# --- resampling ---------------------------------------------------------

def test_upsample_factor_1_identity():
    raster = LabelRaster(np.array([[1, 2], [3, 4]], dtype=np.uint8), Scheme.SIMPLIFIED10)
    np.testing.assert_array_equal(upsample_nearest(raster, 1).values, raster.values)


def test_upsample_single_pixel():
    raster = LabelRaster(np.array([[7]], dtype=np.uint8), Scheme.SIMPLIFIED10)
    out = upsample_nearest(raster, 3)
    assert out.values.shape == (3, 3)
    assert (out.values == 7).all()


def test_upsample_block_indexing():
    raster = LabelRaster(np.array([[1, 2], [3, 4]], dtype=np.uint8), Scheme.SIMPLIFIED10)
    up = upsample_nearest(raster, 2).values
    for i in range(4):
        for j in range(4):
            assert up[i, j] == raster.values[i // 2, j // 2]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_upsample_scales_histogram_by_factor_squared(seed, factor):
    values = np.random.default_rng(seed).integers(0, 11, (5, 4), dtype=np.uint8)
    raster = LabelRaster(values, Scheme.SIMPLIFIED10)
    up = upsample_nearest(raster, factor)
    before = np.bincount(values.ravel(), minlength=11)
    after = np.bincount(up.values.ravel(), minlength=11)
    np.testing.assert_array_equal(after, before * factor * factor)


def test_block_class_counts_fixed_width(rng):
    values = rng.integers(0, 5, (4, 4), dtype=np.uint8)
    counts = block_class_counts(values, 2, n_ids=11)
    assert counts.shape == (2, 2, 11)
    assert counts.sum() == 16
    # spot check one block against direct counting
    block = values[:2, :2]
    for cid in range(11):
        assert counts[0, 0, cid] == (block == cid).sum()
