"""The lean mini-batch step kernels equal the code they replace, bit for bit.

Three replacements are checked against references kept in this file:

* :func:`repro.linalg.khatri_rao_rows` — the grid gather and the per-set
  gather + ``combine`` give the same rows, whichever side of the
  ``∏ h_q ≤ len(labels)`` rule the call falls on;
* the sort-based point-identity check of ``partial_fit`` accepts and
  rejects exactly what the ``np.unique`` check did, with the same message;
* the vectorized ``_apply_batch_update`` equals the per-protocentroid loop
  (float32, weights, the gather update's ``safe`` mask, protocentroids
  with no batch mass).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MiniBatchKhatriRaoKMeans
from repro.core._update import set_statistics
from repro.exceptions import ValidationError
from repro.linalg import get_aggregator, khatri_rao_combine, khatri_rao_rows

_EPSILON = 1e-12


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    if want.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want))


# ------------------------------------------------------- khatri_rao_rows
@settings(max_examples=80, deadline=None)
@given(
    cards=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    aggregator=st.sampled_from(["sum", "product"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    side=st.sampled_from(["below", "at", "above"]),
    seed=st.integers(0, 2 ** 16),
)
def test_rows_grid_and_per_set_paths_agree(cards, aggregator, dtype, side, seed):
    rng = np.random.RandomState(seed)
    k = int(np.prod(cards))
    n = {"below": max(k - 1, 0), "at": k, "above": k + 1 + seed % 7}[side]
    thetas = [rng.standard_normal((h, 3)).astype(dtype) for h in cards]
    # Signed zeros must survive both paths.
    thetas[0][0, 0] = -0.0
    labels = rng.randint(0, k, size=n)
    agg = get_aggregator(aggregator)
    grid = khatri_rao_combine(thetas, agg)[labels]
    per_set = agg.combine([
        theta[idx] for theta, idx in zip(thetas, np.unravel_index(labels, cards))
    ])
    assert_same_bits(grid, per_set)
    assert_same_bits(khatri_rao_rows(thetas, labels, agg), grid)


def test_rows_handles_empty_labels():
    thetas = [np.ones((3, 2)), np.ones((2, 2))]
    rows = khatri_rao_rows(thetas, np.zeros(0, dtype=np.int64))
    assert rows.shape == (0, 2)


# ------------------------------------------------------ stream id check
def _unique_reference(index, n_rows):
    """The check as it was: ``astype(int64)``, ``min``, ``np.unique``."""
    index = np.asarray(index)
    if index.ndim != 1 or index.shape[0] != n_rows:
        return "1-D array"
    if index.dtype.kind not in "iu":
        return "integer"
    index = index.astype(np.int64, copy=False)
    if index.size and int(index.min()) < 0:
        return "non-negative"
    if np.unique(index).size != index.size:
        return "repeat"
    return None


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(-3, 40), max_size=30),
    dtype=st.sampled_from(
        [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64]
    ),
)
def test_sort_check_matches_unique_reference(values, dtype):
    index = np.array(values, dtype=np.int64)
    if np.dtype(dtype).kind == "u":
        index = np.abs(index)
    index = index.astype(dtype)
    expected = _unique_reference(index, index.size)
    check = MiniBatchKhatriRaoKMeans._check_stream_index
    if expected is None:
        assert_same_bits(check(index, index.size), index.astype(np.int64))
    else:
        with pytest.raises(ValidationError, match=expected):
            check(index, index.size)


# --------------------------------------------------- vectorized update
def _loop_reference(model, batch, labels, sample_weight):
    """The per-protocentroid update loop the vectorized step replaced."""
    thetas = model.protocentroids_
    set_labels = np.stack(np.unravel_index(labels, model.cardinalities), axis=1)
    total_shift = 0.0
    drift_tables = [np.zeros(h) for h in model.cardinalities]
    for q, numerator, denominator, batch_counts in set_statistics(
        batch, thetas, set_labels, model.aggregator, sample_weight,
        model.uses_factored_update, None,
    ):
        for j in np.flatnonzero(batch_counts > 0):
            if denominator is not None:
                safe = denominator[j] > _EPSILON
                target = thetas[q][j].copy()
                target[safe] = numerator[j][safe] / denominator[j][safe]
            else:
                target = numerator[j] / batch_counts[j]
            model._counts[q][j] += batch_counts[j]
            eta = batch_counts[j] / model._counts[q][j]
            updated = (1.0 - eta) * thetas[q][j] + eta * target
            step_shift = float(np.sum(
                (updated - thetas[q][j]) ** 2, dtype=np.float64
            ))
            total_shift += step_shift
            drift_tables[q][j] = np.sqrt(step_shift)
            thetas[q][j] = updated
    return total_shift, drift_tables


def _model(cards, aggregator, update, dtype, rng):
    model = MiniBatchKhatriRaoKMeans(
        cards, aggregator=aggregator, update=update, dtype=dtype, n_threads=1
    )
    model.dtype_ = np.dtype(dtype)
    model.protocentroids_ = [
        (rng.uniform(0.5, 2.0, size=(h, 4)) if aggregator == "product"
         else rng.standard_normal((h, 4))).astype(dtype)
        for h in cards
    ]
    if aggregator == "product":
        # Zero coordinates make zero gather denominators: the safe mask.
        model.protocentroids_[-1][:, 0] = 0.0
    # Earlier steps' masses, with untouched protocentroids at zero.
    model._counts = [
        rng.choice([0.0, 1.0, 7.5, 40.0], size=h) for h in cards
    ]
    return model


@settings(max_examples=60, deadline=None)
@given(
    cards=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    case=st.sampled_from([
        ("sum", "factored"), ("sum", "gather"), ("product", "gather"),
    ]),
    dtype=st.sampled_from(["float32", "float64"]),
    weighted=st.sampled_from([None, "positive", "with_zeros"]),
    n_rows=st.integers(1, 40),
    seed=st.integers(0, 2 ** 16),
)
def test_vectorized_update_matches_loop(cards, case, dtype, weighted, n_rows,
                                        seed):
    aggregator, update = case
    rng = np.random.RandomState(seed)
    k = int(np.prod(cards))
    batch = rng.standard_normal((n_rows, 4)).astype(dtype)
    # A narrow label range leaves protocentroids without batch mass.
    labels = rng.randint(0, max(1, k // 2 + seed % 2), size=n_rows)
    weights = None
    if weighted is not None:
        weights = rng.uniform(0.5, 2.0, size=n_rows).astype(dtype)
        if weighted == "with_zeros":
            weights[::2] = 0.0
    new = _model(cards, aggregator, update, dtype, np.random.RandomState(seed))
    old = _model(cards, aggregator, update, dtype, np.random.RandomState(seed))
    shift, drift = new._apply_batch_update(
        batch, labels, collect_drift=True, sample_weight=weights
    )
    ref_shift, ref_drift = _loop_reference(old, batch, labels, weights)
    assert_same_bits(np.float64(shift), np.float64(ref_shift))
    for got, want in zip(drift, ref_drift):
        assert_same_bits(got, want)
    for got, want in zip(new.protocentroids_, old.protocentroids_):
        assert_same_bits(got, want)
    for got, want in zip(new._counts, old._counts):
        assert_same_bits(got, want)
