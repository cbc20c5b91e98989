"""Masked cross-entropy, its gradient, the GD loop, and constrained prediction."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_peak
from logreg_reference import reference_fit, reference_masked_ce_loss
from wlcbench import maskedlr
from wlcbench.maskedlr import (
    LogRegConfig,
    LogRegModel,
    logreg_fit,
    logreg_predict,
    masked_ce_loss,
)
from wlcbench.preprocess import ROW_BLOCK, BandRows, FeatureMatrix, training_rows

K = 10


def loss_oracle(logits, labels, mask):
    """Scalar cross-entropy, one masked row at a time, no vectorization."""
    total, m = 0.0, 0
    for i in range(len(logits)):
        if not mask[i]:
            continue
        row = np.asarray(logits[i], dtype=float)
        e = np.exp(row - row.max())
        p = e / e.sum()
        total += -math.log(p[labels[i] - 1])
        m += 1
    return total / m


def fd_gradient(logits, labels, mask, h=1e-6):
    """Central finite differences of the masked loss wrt every logit."""
    grad = np.zeros_like(logits, dtype=float)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up = logits.copy()
            dn = logits.copy()
            up[i, j] += h
            dn[i, j] -= h
            lu, _ = masked_ce_loss(up, labels, mask)
            ld, _ = masked_ce_loss(dn, labels, mask)
            grad[i, j] = (lu - ld) / (2 * h)
    return grad


def random_instance(rng, n=6):
    logits = rng.normal(0, 2, (n, K))
    labels = rng.integers(1, K + 1, n).astype(np.uint8)
    mask = rng.random(n) < 0.6
    if not mask.any():
        mask[0] = True
    return logits, labels, mask


# --- loss and gradient -----------------------------------------------------

def test_uniform_logits_give_log_k():
    logits = np.zeros((4, K))
    labels = np.array([1, 5, 9, 10], dtype=np.uint8)
    loss, grad = masked_ce_loss(logits, labels, np.ones(4, bool))
    assert loss == pytest.approx(math.log(10), abs=1e-12)
    # d/dlogit at uniform: (1/K - onehot)/M
    expected = np.full((4, K), 1 / K)
    expected[np.arange(4), labels - 1] -= 1.0
    np.testing.assert_allclose(grad, expected / 4, atol=1e-15)


def test_loss_matches_scalar_oracle(rng):
    for _ in range(10):
        logits, labels, mask = random_instance(rng)
        loss, _ = masked_ce_loss(logits, labels, mask)
        assert loss == pytest.approx(loss_oracle(logits, labels, mask), abs=1e-12)


def test_masked_out_rows_get_exact_zero_gradient(rng):
    logits, labels, mask = random_instance(rng, n=8)
    _, grad = masked_ce_loss(logits, labels, mask)
    assert (grad[~mask] == 0.0).all()
    assert np.abs(grad[mask]).max() > 0


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        logits, labels, mask = random_instance(rng)
        _, grad = masked_ce_loss(logits, labels, mask)
        fd = fd_gradient(logits, labels, mask)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4


def test_gradient_rows_sum_to_zero(rng):
    # softmax - onehot always sums to zero along classes
    logits, labels, mask = random_instance(rng, n=7)
    _, grad = masked_ce_loss(logits, labels, mask)
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)


def test_masking_equals_deletion(rng):
    logits, labels, mask = random_instance(rng, n=9)
    loss_m, grad_m = masked_ce_loss(logits, labels, mask)
    loss_d, grad_d = masked_ce_loss(
        logits[mask], labels[mask], np.ones(mask.sum(), bool)
    )
    assert loss_m == loss_d
    np.testing.assert_array_equal(grad_m[mask], grad_d)


def test_loss_is_permutation_invariant(rng):
    logits, labels, mask = random_instance(rng, n=8)
    perm = rng.permutation(8)
    loss_a, grad_a = masked_ce_loss(logits, labels, mask)
    loss_b, grad_b = masked_ce_loss(logits[perm], labels[perm], mask[perm])
    assert loss_b == pytest.approx(loss_a, abs=1e-12)
    np.testing.assert_allclose(grad_b, grad_a[perm], atol=1e-15)


def test_loss_extreme_logits_stay_finite():
    logits = np.zeros((2, K))
    logits[0, 0] = 1e4
    logits[1, 1] = -1e4
    loss, grad = masked_ce_loss(
        logits, np.array([1, 2], dtype=np.uint8), np.ones(2, bool)
    )
    assert np.isfinite(loss)
    assert np.isfinite(grad).all()


def test_loss_input_validation():
    ok = np.zeros((2, K))
    labels = np.array([1, 2], dtype=np.uint8)
    with pytest.raises(ValueError, match="M == 0"):
        masked_ce_loss(ok, labels, np.zeros(2, bool))
    with pytest.raises(ValueError, match="1..10"):
        masked_ce_loss(ok, np.array([0, 1], dtype=np.uint8), np.ones(2, bool))
    with pytest.raises(ValueError, match="1..10"):
        masked_ce_loss(ok, np.array([11, 1]), np.ones(2, bool))
    with pytest.raises(ValueError, match="logits"):
        masked_ce_loss(np.zeros((2, 3)), labels, np.ones(2, bool))
    with pytest.raises(ValueError, match="length"):
        masked_ce_loss(ok, labels, np.ones(3, bool))


def test_nodata_label_on_masked_out_row_is_fine():
    logits = np.zeros((2, K))
    loss, _ = masked_ce_loss(
        logits, np.array([0, 4], dtype=np.uint8), np.array([False, True])
    )
    assert loss == pytest.approx(math.log(10), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_loss_and_gradient_match_the_reference_bitwise(n, seed):
    logits, labels, mask = random_instance(np.random.default_rng(seed), n=n)
    loss, grad = masked_ce_loss(logits, labels, mask)
    want_loss, want_grad = reference_masked_ce_loss(logits, labels, mask)
    assert loss == want_loss
    assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("bad", [1.5, 0.5, np.nan])
def test_non_integral_masked_in_labels_are_refused(bad):
    labels = np.array([bad, 2.0])
    with pytest.raises(ValueError, match="masked-in labels must be class ids 1..10"):
        masked_ce_loss(np.zeros((2, K)), labels, np.ones(2, bool))
    # whole-number floats are class ids, and masked-out rows are not read
    loss, _ = masked_ce_loss(np.zeros((2, K)), labels, np.array([False, True]))
    assert loss == pytest.approx(math.log(10), abs=1e-12)


# --- training loop -----------------------------------------------------------

def separable(rng, n_per=30):
    xa = rng.uniform(0.0, 0.2, (n_per, 1))
    xb = rng.uniform(0.8, 1.0, (n_per, 1))
    X = np.vstack([xa, xb])
    y = np.array([1] * n_per + [2] * n_per, dtype=np.uint8)
    return X, y


def test_epochs_zero_returns_initialization():
    X = np.random.default_rng(0).random((10, 3))
    y = np.ones(10, dtype=np.uint8)
    model = logreg_fit(X, y, config=LogRegConfig(epochs=0))
    assert (model.weights == 0).all()
    assert (model.bias == 0).all()
    assert model.loss_curve == ()
    assert model.best_epoch is None


def test_fit_solves_separable_problem(rng):
    X, y = separable(rng)
    config = LogRegConfig(learning_rate=0.5, batch_size=16, epochs=120, seed=0)
    model = logreg_fit(X, y, config=config)
    pred = logreg_predict(model, X)
    assert (pred == y).all()
    assert model.loss_curve[-1] < model.loss_curve[0]


def test_fit_is_deterministic(rng):
    X, y = separable(rng)
    config = LogRegConfig(epochs=5, batch_size=8, seed=3)
    m1 = logreg_fit(X, y, config=config)
    m2 = logreg_fit(X, y, config=config)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    assert m1.loss_curve == m2.loss_curve


def test_fit_mask_equals_deletion_bitwise(rng):
    X = rng.random((40, 2))
    y = rng.integers(1, 4, 40).astype(np.uint8)
    keep = rng.random(40) < 0.7
    fm = FeatureMatrix(values=X, valid_mask=keep)
    config = LogRegConfig(epochs=4, batch_size=8, seed=1)
    via_mask = logreg_fit(fm, y, config=config)
    via_delete = logreg_fit(X[keep], y[keep], config=config)
    np.testing.assert_array_equal(via_mask.weights, via_delete.weights)
    np.testing.assert_array_equal(via_mask.bias, via_delete.bias)


def test_fit_validation_errors(rng):
    X = rng.random((10, 2))
    with pytest.raises(ValueError, match="no valid, masked-in, labeled rows"):
        logreg_fit(X, np.zeros(10, dtype=np.uint8))
    masked_out = FeatureMatrix(X, np.ones(10, bool)).with_mask(np.zeros(10, bool))
    with pytest.raises(ValueError, match="no valid, masked-in, labeled rows"):
        logreg_fit(masked_out, np.ones(10, dtype=np.uint8))
    with pytest.raises(ValueError, match="length"):
        logreg_fit(X, np.ones(4, dtype=np.uint8))


def test_config_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            LogRegConfig(learning_rate=bad)
    with pytest.raises(ValueError):
        LogRegConfig(batch_size=0)
    with pytest.raises(ValueError):
        LogRegConfig(epochs=-1)
    assert LogRegConfig(epochs=0).epochs == 0
    for name in ("batch_size", "epochs", "seed"):
        for bad in (1.5, 2.0, True, "3", None):
            with pytest.raises(ValueError, match=f"{name} must be an int, got {bad!r}"):
                LogRegConfig(**{name: bad})
        assert getattr(LogRegConfig(**{name: np.int64(3)}), name) == 3
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        LogRegConfig(seed=-1)


@st.composite
def fit_inputs(draw):
    """Training rows (n of them selected), plus a few rows left out either by
    label 0 or through FeatureMatrix.with_mask. The sampled counts leave a
    one-row last loss chunk at a 64- or 128-row chunk, or a one-row last
    mini-batch at batch size 3 or 4096."""
    n = draw(st.one_of(st.integers(1, 300), st.sampled_from([65, 129, 193, 257, 4097])))
    extra = draw(st.integers(0, 12))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.random((n + extra, d))
    y = rng.integers(1, K + 1, n + extra).astype(np.uint8)
    left_out = rng.permutation(n + extra)[:extra]
    if draw(st.booleans()):
        keep = np.ones(n + extra, dtype=bool)
        keep[left_out] = False
        features = FeatureMatrix(X, np.ones(n + extra, dtype=bool)).with_mask(keep)
    else:
        y[left_out] = 0
        features = X
    holdout = None
    if draw(st.booleans()):
        m = draw(st.integers(1, 50))
        holdout = (rng.random((m, d)), rng.integers(0, K + 1, m).astype(np.uint8))
        holdout[1][0] = 1
    return features, y, holdout


@settings(max_examples=150, deadline=None)
@given(
    data=fit_inputs(),
    batch_size=st.sampled_from([1, 3, 4096]),
    epochs=st.integers(1, 3),
    learning_rate=st.sampled_from([0.1, 1.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([64, 128, ROW_BLOCK]),
)
@example(
    data=(np.linspace(0, 1, 4097)[:, None], np.arange(4097) % 10 + 1, None),
    batch_size=4096, epochs=2, learning_rate=1.0, seed=0, chunk=64,
)
def test_fit_matches_the_full_gradient_reference_bitwise(
    data, batch_size, epochs, learning_rate, seed, chunk
):
    features, y, holdout = data
    config = LogRegConfig(
        learning_rate=learning_rate, batch_size=batch_size, epochs=epochs, seed=seed
    )
    with mock.patch.object(maskedlr, "ROW_BLOCK", chunk):
        got = logreg_fit(features, y, config=config, holdout=holdout)
    want = reference_fit(features, y, config, holdout=holdout)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.bias.tobytes() == want.bias.tobytes()
    assert got.loss_curve == want.loss_curve
    assert got.holdout_curve == want.holdout_curve
    assert got.best_epoch == want.best_epoch


@pytest.mark.parametrize("chunk", [64, 128])
def test_loss_pass_keeps_a_one_row_tail_in_the_chunk_before_it(chunk):
    # A one-row product rounds differently from the same row inside a larger
    # one. Every row but the last is classified with a wide margin, so its
    # term is about 0 and the last row's term decides the loss's last bits.
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 2 * chunk + 1
        X = rng.random((n, 12))
        W = rng.normal(0, 100, (12, K))
        b = rng.normal(0, 1, K)
        logits = X @ W + b
        y = logits.argmax(axis=1) + 1
        y[-1] = logits[-1].argmin() + 1
        want, _ = reference_masked_ce_loss(logits, y, np.ones(n, bool))
        with mock.patch.object(maskedlr, "ROW_BLOCK", chunk):
            got = maskedlr._mean_ce(training_rows(X), y - 1, W, b)
        assert got == want


@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 4098, 8192, 8193, 12289])
def test_loss_pass_over_row_blocks_keeps_the_bits_of_one_full_data_pass(n):
    # _mean_ce forms its logits over preprocess.row_blocks: full blocks of
    # 4096 rows, a partial last block, or a one-row tail joined to the
    # block before it
    rng = np.random.default_rng(n)
    X = rng.random((n, 12))
    W = rng.normal(0, 3, (12, K))
    b = rng.normal(0, 1, K)
    y = rng.integers(1, K + 1, n)
    want, _ = reference_masked_ce_loss(X @ W + b, y, np.ones(n, bool))
    assert maskedlr._mean_ce(training_rows(X), y - 1, W, b) == want


def test_fit_on_band_rows_holds_a_loss_term_per_row_and_one_block():
    # README: a logreg fit holds its float32 band rows (the input here) and
    # 8 B per row of loss terms, next to 1 B per row of label slots. One
    # block is the float64 rows, logits and exponentials of _Blocks, the
    # gathered float32 bands and the block's per-row temporaries. Holding
    # the row order twice through the loss pass took 8 B per row more.
    rng = np.random.default_rng(7)
    n, d = 50_000, 10
    rows = BandRows((rng.random((n, d)) * 1.2e4).astype(np.float32))
    y = rng.integers(1, K + 1, n).astype(np.uint8)
    config = LogRegConfig(epochs=2)
    logreg_fit(BandRows(rows.bands[:100]), y[:100], config=config)  # first-call imports
    peak, _ = traced_peak(lambda: logreg_fit(rows, y, config=config))
    block = (ROW_BLOCK + 1) * (8 * d + 2 * 8 * K + 4 * d + 64)
    assert peak <= n * (8 + 1) + block


def test_fit_scratch_memory_stays_below_its_input():
    rng = np.random.default_rng(7)
    X = rng.random((200_000, 10))
    y = rng.integers(1, K + 1, len(X)).astype(np.uint8)
    config = LogRegConfig(epochs=2)
    peak, model = traced_peak(lambda: logreg_fit(X, y, config=config))
    # The fit holds int8 label slots, the int32 shuffled row order while an
    # epoch descends, one float64 loss term per row while it scores, and
    # the rows and logits of a 4096-row block: about a quarter of the input.
    # int64 vectors and 16384-row chunks took about four fifths.
    assert peak < 0.4 * X.nbytes
    # several full loss chunks and a tail, summed as in one full-data pass
    assert model.loss_curve == reference_fit(X, y, config).loss_curve


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_floating_point_error(rng):
    X = rng.uniform(1e4, 1e5, (32, 3))
    y = np.array([1, 2] * 16, dtype=np.uint8)
    config = LogRegConfig(learning_rate=1e300, batch_size=32, epochs=3, seed=0)
    with pytest.raises(FloatingPointError, match="diverged"):
        logreg_fit(X, y, config=config)


def test_holdout_tracks_and_snapshots_best_epoch(rng):
    X, y = separable(rng)
    config = LogRegConfig(learning_rate=0.5, batch_size=16, epochs=30, seed=2)
    model = logreg_fit(X, y, config=config, holdout=(X, y))
    assert len(model.holdout_curve) == 30
    assert all(0.0 <= v <= 1.0 for v in model.holdout_curve)
    assert model.best_epoch == int(np.argmax(model.holdout_curve))


def test_holdout_snapshot_equals_truncated_run(rng):
    X, y = separable(rng)
    config = LogRegConfig(learning_rate=0.5, batch_size=16, epochs=30, seed=2)
    model = logreg_fit(X, y, config=config, holdout=(X, y))
    shorter = LogRegConfig(
        learning_rate=0.5, batch_size=16, epochs=model.best_epoch + 1, seed=2
    )
    retrace = logreg_fit(X, y, config=shorter)
    np.testing.assert_array_equal(model.weights, retrace.weights)
    np.testing.assert_array_equal(model.bias, retrace.bias)


def test_holdout_is_checked_like_training_input(rng):
    X, y = separable(rng)
    config = LogRegConfig(epochs=2)
    nan_X = X.copy()
    nan_X[3, 0] = np.nan
    y_11 = y.copy()
    y_11[0] = 11
    cases = [
        ((X, y[:5]), "holdout: labels length 5 != feature rows 60"),
        ((X[:, 0], y), "holdout: expected N×d features"),
        ((np.hstack([X, X]), y), "holdout: feature dimension d=2 != model dimension d=1"),
        ((nan_X, y), "holdout: training features must be finite"),
        ((X, y_11), "holdout: labels must be 0 .no-data. or simplified class ids 1..10"),
    ]
    for holdout, message in cases:
        with pytest.raises(ValueError, match=message):
            logreg_fit(X, y, config=config, holdout=holdout)
    # a FeatureMatrix holdout scores its valid rows only
    masked = logreg_fit(
        X, y, config=config, holdout=(FeatureMatrix(nan_X, np.arange(60) != 3), y)
    )
    deleted = logreg_fit(
        X, y, config=config, holdout=(np.delete(X, 3, axis=0), np.delete(y, 3))
    )
    assert masked.holdout_curve == deleted.holdout_curve


def test_holdout_requires_labeled_pixels(rng):
    X, y = separable(rng)
    with pytest.raises(ValueError, match="holdout"):
        logreg_fit(
            X, y, config=LogRegConfig(epochs=1),
            holdout=(X, np.zeros(len(X), dtype=np.uint8)),
        )


# --- prediction ----------------------------------------------------------------

def manual_model(weights, bias):
    return LogRegModel(
        weights=np.asarray(weights, dtype=np.float64),
        bias=np.asarray(bias, dtype=np.float64),
        config=LogRegConfig(),
    )


def test_predict_matches_manual_argmax():
    # single feature scales class scores linearly; bias picks class 2 at x=0
    W = np.zeros((1, K))
    W[0, 4] = 3.0  # class 5 wins for large x
    b = np.zeros(K)
    b[1] = 1.0
    model = manual_model(W, b)
    pred = logreg_predict(model, np.array([[0.0], [1.0]]), exclude_classes=frozenset())
    np.testing.assert_array_equal(pred, [2, 5])


def test_predict_never_emits_excluded_class(rng):
    W = rng.normal(0, 1, (3, K))
    model = manual_model(W, rng.normal(0, 1, K))
    pred = logreg_predict(model, rng.random((500, 3)))
    assert 3 not in set(pred.tolist())


def test_predict_excluded_class_would_have_won():
    W = np.zeros((1, K))
    b = np.zeros(K)
    b[2] = 5.0  # Savanna dominates unconstrained
    b[7] = 1.0
    model = manual_model(W, b)
    assert logreg_predict(model, np.zeros((1, 1)))[0] == 8
    unconstrained = logreg_predict(model, np.zeros((1, 1)), exclude_classes=frozenset())
    assert unconstrained[0] == 3


def test_predict_tie_breaks_to_lowest_id():
    model = manual_model(np.zeros((1, K)), np.zeros(K))
    assert logreg_predict(model, np.zeros((1, 1)), exclude_classes=frozenset())[0] == 1
    assert logreg_predict(model, np.zeros((1, 1)))[0] == 1  # Savanna masked out


def test_predict_validation(rng):
    model = manual_model(np.zeros((2, K)), np.zeros(K))
    with pytest.raises(ValueError, match="dimension"):
        logreg_predict(model, rng.random((4, 3)))
    with pytest.raises(ValueError, match="every class"):
        logreg_predict(model, np.zeros((1, 2)), exclude_classes=frozenset(range(1, 11)))
    with pytest.raises(ValueError, match="outside"):
        logreg_predict(model, np.zeros((1, 2)), exclude_classes=frozenset({0}))
