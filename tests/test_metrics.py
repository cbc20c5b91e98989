"""Confusion tallies, AA/OA/mIoU, transition matrices, and report formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_patch
from wlcbench.dataset import LabelRaster, Scheme
from wlcbench.labels import SAVANNA
from wlcbench.metrics import (
    ConfusionMatrix,
    aggregate_confusion,
    confusion,
    lr_vs_hr_eval,
    matrix_csv,
    report,
    report_csv,
    report_json,
    transition_matrix,
)

K = 10


def raster(values):
    return LabelRaster(np.asarray(values, dtype=np.uint8), Scheme.SIMPLIFIED10)


def confusion_oracle(ref, pred, mask=None):
    """Per-pixel tally with explicit loops."""
    counts = np.zeros((K, K), dtype=np.int64)
    ref = np.asarray(ref)
    pred = np.asarray(pred)
    for i in range(ref.shape[0]):
        for j in range(ref.shape[1]):
            r, p = int(ref[i, j]), int(pred[i, j])
            if r == 0 or p == 0:
                continue
            if mask is not None and not mask[i, j]:
                continue
            counts[r - 1, p - 1] += 1
    return counts


def report_oracle(counts):
    """AA/OA/mIoU straight from the definitions, one class at a time."""
    counts = np.asarray(counts, dtype=float)
    pa, iou = [], []
    for c in range(K):
        row = counts[c].sum()
        if row == 0:
            continue
        col = counts[:, c].sum()
        diag = counts[c, c]
        pa.append(diag / row)
        iou.append(diag / (row + col - diag))
    oa = sum(counts[c, c] for c in range(K)) / counts.sum()
    return sum(pa) / len(pa), oa, sum(iou) / len(iou)


def transition_oracle(lr, hr):
    joint = np.zeros((K, K), dtype=np.int64)
    for l, h in zip(np.asarray(lr).ravel(), np.asarray(hr).ravel()):
        if l != 0 and h != 0:
            joint[l - 1, h - 1] += 1
    probs = np.zeros((K, K))
    for c in range(K):
        if joint[c].sum():
            probs[c] = joint[c] / joint[c].sum()
    return probs, joint.sum(axis=1)


# --- confusion -----------------------------------------------------------

def test_confusion_four_pixel_example():
    ref = raster([[1, 1], [10, 0]])
    pred = raster([[1, 10], [10, 5]])
    cm = confusion(ref, pred)
    assert int(cm.counts.sum()) == 3  # (0,0) excluded via ref nodata... ref[1,1]=0
    assert cm.counts[0, 0] == 1
    assert cm.counts[0, 9] == 1
    assert cm.counts[9, 9] == 1


def test_confusion_excludes_nodata_on_either_side():
    cm = confusion(raster([[0, 2]]), raster([[2, 0]]))
    assert int(cm.counts.sum()) == 0


def test_confusion_matches_loop_oracle(rng):
    ref = rng.integers(0, 11, (17, 13), dtype=np.uint8)
    pred = rng.integers(0, 11, (17, 13), dtype=np.uint8)
    mask = rng.random((17, 13)) < 0.7
    cm = confusion(raster(ref), raster(pred), mask)
    np.testing.assert_array_equal(cm.counts, confusion_oracle(ref, pred, mask))


def test_confusion_shape_and_scheme_errors():
    with pytest.raises(ValueError, match="shape"):
        confusion(raster([[1]]), raster([[1, 1]]))
    igbp = LabelRaster(np.ones((1, 1), dtype=np.uint8), Scheme.IGBP17)
    with pytest.raises(ValueError, match="SIMPLIFIED10"):
        confusion(igbp, raster([[1]]))
    with pytest.raises(ValueError, match="eval_mask"):
        confusion(raster([[1]]), raster([[1]]), np.ones((2, 2), bool))


def test_confusion_add_and_zero():
    a = confusion(raster([[1]]), raster([[1]]))
    b = confusion(raster([[2]]), raster([[1]]))
    merged = ConfusionMatrix.zero() + a + b
    assert int(merged.counts.sum()) == 2
    assert merged.counts[1, 0] == 1


# --- report ---------------------------------------------------------------

def test_perfect_prediction_scores_exactly_one(rng):
    values = rng.integers(1, 11, (16, 16), dtype=np.uint8)
    rep = report(confusion(raster(values), raster(values)))
    assert rep.aa == 1.0
    assert rep.oa == 1.0
    assert rep.miou == 1.0
    assert rep.pixels == 256


def test_two_class_average():
    # class 1: 4/5 correct; class 2: 2/5 correct -> AA = 0.6 exactly
    counts = np.zeros((K, K), dtype=np.int64)
    counts[0, 0], counts[0, 1] = 4, 1
    counts[1, 1], counts[1, 0] = 2, 3
    rep = report(ConfusionMatrix(counts))
    assert rep.producers_accuracy[0] == 0.8
    assert rep.producers_accuracy[1] == 0.4
    assert rep.aa == pytest.approx(0.6, abs=1e-15)
    assert rep.oa == 0.6  # 6/10, weighted the same here by equal support


def test_report_matches_definition_oracle(rng):
    for _ in range(20):
        counts = rng.integers(0, 40, (K, K))
        counts[rng.integers(0, K)] = 0  # ensure at least one absent class
        if counts.sum() == 0:
            continue
        rep = report(ConfusionMatrix(counts))
        aa, oa, miou = report_oracle(counts)
        assert math.isclose(rep.aa, aa, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(rep.oa, oa, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(rep.miou, miou, rel_tol=0, abs_tol=1e-12)


def test_absent_classes_are_nan_and_skipped():
    counts = np.zeros((K, K), dtype=np.int64)
    counts[4, 4] = 7
    rep = report(ConfusionMatrix(counts))
    assert rep.present.sum() == 1
    assert np.isnan(rep.producers_accuracy[0])
    assert rep.aa == 1.0
    assert list(rep.support) == [0, 0, 0, 0, 7, 0, 0, 0, 0, 0]


def test_aa_invariant_under_duplication(rng):
    counts = rng.integers(0, 25, (K, K))
    rep1 = report(ConfusionMatrix(counts))
    rep2 = report(ConfusionMatrix(counts * 3))
    assert rep2.aa == pytest.approx(rep1.aa, abs=1e-15)
    assert rep2.miou == pytest.approx(rep1.miou, abs=1e-15)
    assert rep2.pixels == 3 * rep1.pixels


def test_report_rejects_empty():
    with pytest.raises(ValueError, match="zero"):
        report(ConfusionMatrix.zero())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_iou_never_exceeds_producers_accuracy(seed):
    counts = np.random.default_rng(seed).integers(0, 30, (K, K))
    if counts.sum() == 0:
        counts[0, 0] = 1
    rep = report(ConfusionMatrix(counts))
    for c in range(K):
        if rep.present[c]:
            assert 0.0 <= rep.iou[c] <= rep.producers_accuracy[c] <= 1.0


# --- transition matrix ------------------------------------------------------

def test_transition_identity_when_hr_equals_lr(rng):
    values = rng.integers(1, 11, (8, 8), dtype=np.uint8)
    tm = transition_matrix(raster(values), raster(values))
    for c in range(K):
        if tm.row_support[c]:
            expected = np.zeros(K)
            expected[c] = 1.0
            np.testing.assert_array_equal(tm.probs[c], expected)


def test_transition_matches_joint_histogram_oracle(rng):
    lr = rng.integers(0, 11, (12, 9), dtype=np.uint8)
    hr = rng.integers(0, 11, (12, 9), dtype=np.uint8)
    tm = transition_matrix(raster(lr), raster(hr))
    probs, support = transition_oracle(lr, hr)
    np.testing.assert_allclose(tm.probs, probs, atol=1e-15)
    np.testing.assert_array_equal(tm.row_support, support)


def test_transition_rows_sum_to_one(rng):
    lr = rng.integers(0, 11, (20, 20), dtype=np.uint8)
    hr = rng.integers(0, 11, (20, 20), dtype=np.uint8)
    tm = transition_matrix(raster(lr), raster(hr))
    sums = tm.probs.sum(axis=1)
    for c in range(K):
        if tm.row_support[c]:
            assert abs(sums[c] - 1.0) <= 1e-12
        else:
            assert sums[c] == 0.0


def test_transition_worked_example():
    # three LR=1 pixels land on HR 1,1,4 -> row 1 is (2/3, 0, 0, 1/3, ...)
    lr = raster([[1, 1, 1]])
    hr = raster([[1, 1, 4]])
    tm = transition_matrix(lr, hr)
    assert tm.probs[0, 0] == pytest.approx(2 / 3)
    assert tm.probs[0, 3] == pytest.approx(1 / 3)
    assert tm.row_support[0] == 3


def test_transition_needs_joint_support():
    with pytest.raises(ValueError, match="jointly valid"):
        transition_matrix(raster([[0, 1]]), raster([[1, 0]]))


# --- aggregation across patches ----------------------------------------------

def _patch_pair(rng, patch_id):
    lr = rng.integers(0, 11, (6, 6), dtype=np.uint8)
    hr = rng.integers(0, 11, (6, 6), dtype=np.uint8)
    return make_patch(lr, hr=hr, patch_id=patch_id)


def test_aggregate_is_order_invariant(rng):
    patches = [_patch_pair(rng, f"p{i}") for i in range(5)]
    forward = aggregate_confusion(patches)
    backward = aggregate_confusion(patches[::-1])
    np.testing.assert_array_equal(forward.counts, backward.counts)


def test_aggregate_equals_per_patch_sum(rng):
    patches = [_patch_pair(rng, f"p{i}") for i in range(4)]
    whole = aggregate_confusion(patches, masked_classes=frozenset())
    total = ConfusionMatrix.zero()
    for p in patches:
        total = total + confusion(p.hr_labels, p.lr_labels)
    np.testing.assert_array_equal(whole.counts, total.counts)


def test_aggregate_excludes_savanna_reference_by_default():
    lr = np.array([[1, 2]], dtype=np.uint8)
    hr = np.array([[SAVANNA, 2]], dtype=np.uint8)
    cm = aggregate_confusion([make_patch(lr, hr=hr)])
    assert int(cm.counts.sum()) == 1
    included = aggregate_confusion([make_patch(lr, hr=hr)], masked_classes=frozenset())
    assert int(included.counts.sum()) == 2
    assert included.counts[SAVANNA - 1, 0] == 1


def test_aggregate_simplifies_igbp_slots():
    lr_igbp = np.array([[8]], dtype=np.uint8)  # woody savanna -> Savanna (3)
    hr = np.array([[1]], dtype=np.uint8)
    patch = make_patch(lr_igbp, hr=hr, lr_scheme=Scheme.IGBP17)
    cm = aggregate_confusion([patch], masked_classes=frozenset())
    assert cm.counts[0, SAVANNA - 1] == 1


def test_aggregate_requires_hr_and_patches():
    with pytest.raises(ValueError, match="lacks hr"):
        aggregate_confusion([make_patch([[1]])])
    with pytest.raises(ValueError, match="no patches"):
        aggregate_confusion([])
    with pytest.raises(ValueError, match="pred/ref"):
        aggregate_confusion([make_patch([[1]])], pred="s2")


def test_lr_vs_hr_perfect_copy_scores_one(rng):
    values = rng.integers(1, 11, (10, 10), dtype=np.uint8)
    values[values == SAVANNA] = 1
    rep = lr_vs_hr_eval([make_patch(values, hr=values)])
    assert rep.aa == 1.0 and rep.oa == 1.0 and rep.miou == 1.0


def test_lr_vs_hr_known_flip_rate():
    # 100 water pixels; 20 degraded to urban in lr -> PA(water)=0.8 exactly
    hr = np.full((10, 10), 10, dtype=np.uint8)
    lr = hr.copy()
    lr.flat[:20] = 7
    rep = lr_vs_hr_eval([make_patch(lr, hr=hr)])
    assert rep.producers_accuracy[9] == 0.8
    assert rep.aa == 0.8
    assert rep.oa == 0.8


# --- serialization -----------------------------------------------------------

def test_report_csv_layout():
    counts = np.zeros((K, K), dtype=np.int64)
    counts[0, 0], counts[9, 9] = 3, 1
    text = report_csv(report(ConfusionMatrix(counts)))
    lines = text.strip().split("\n")
    assert lines[0] == "class,name,producers_acc,iou,support"
    assert len(lines) == 11
    assert lines[1] == "1,Forest,1.000000,1.000000,3"
    assert lines[2] == "2,Shrubland,-,-,0"
    assert lines[10] == "10,Water,1.000000,1.000000,1"


def test_report_json_fields():
    counts = np.zeros((K, K), dtype=np.int64)
    counts[0, 0] = 2
    doc = json.loads(report_json(report(ConfusionMatrix(counts))))
    assert doc == {"aa": 1.0, "oa": 1.0, "miou": 1.0, "pixels": 2}


def test_matrix_csv_grid():
    counts = np.zeros((K, K), dtype=np.int64)
    counts[0, 9] = 4
    text = matrix_csv(counts)
    lines = text.strip().split("\n")
    assert lines[0].startswith(",Forest,Shrubland,Savanna")
    assert lines[1] == "Forest,0,0,0,0,0,0,0,0,0,4"
    with pytest.raises(ValueError):
        matrix_csv(np.zeros((3, 3)))
