"""Exact-equality grid for the grouped-sum kernel and the one-pass update
statistics.

``one_hot_row_sum`` computes grouped row sums as a one-hot CSC product,
and ``grouped_statistics`` stacks every label set into one such product
per row block.  The contract (``docs/numerics.md``) is bit-identity with
a sequential per-row scatter: each bucket starts at +0.0 and adds its
rows in increasing row order within a block, and the block partials fold
in ascending block order.  Every check here is ``assert_array_equal``
against that reference, built from ``np.add.at`` on zeros.
"""

import numpy as np
import pytest

from repro.core._factored import grouped_row_sum, one_hot_row_sum
from repro.core._update import grouped_statistics, pair_count_tables
from repro.exceptions import ValidationError
from repro.runtime.parallel import ParallelConfig, RowBlockPool, row_blocks

# Small blocks so a few hundred rows exercise multi-block folds.
BLOCK = 64
WIDTHS = (1, 2, 4)


def _scatter_reference(labels, values, num_groups, block_rows=None):
    """Per-row ``np.add.at`` on float64 zeros, one partial per block,
    folded in block order (one block when ``block_rows`` is None)."""
    n, m = values.shape
    blocks = ((0, n),) if block_rows is None else row_blocks(n, block_rows)
    out = np.zeros((num_groups, m))
    for start, stop in blocks:
        part = np.zeros((num_groups, m))
        np.add.at(part, labels[start:stop], values[start:stop])
        out += part
    return out


def _weighted(X, weights):
    """The per-block weighting the update applies: ``X·w`` in X's dtype."""
    if weights is None:
        return X
    return X * np.asarray(weights, dtype=X.dtype)[:, None]


def _data(dtype, n=300, m=5, num_groups=6, seed=0):
    rng = np.random.default_rng(seed)
    # Mixed magnitudes and signs, so any change of accumulation order
    # would show in the last bits.
    X = (rng.normal(size=(n, m)) * rng.exponential(50.0, size=(n, 1))).astype(dtype)
    labels = rng.integers(num_groups, size=n)
    weights = rng.uniform(0.1, 3.0, size=n).astype(dtype)
    return X, labels, weights


def _pool(width):
    return RowBlockPool(ParallelConfig(width, block_rows=BLOCK))


class TestOneHotRowSum:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_single_block_matches_sequential_scatter(self, dtype, weighted):
        X, labels, weights = _data(dtype)
        values = _weighted(X, weights if weighted else None)
        out = one_hot_row_sum(labels[:, None], values, 6)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, _scatter_reference(labels, values, 6))

    def test_signed_zeros_match_the_scatter(self):
        # An all -0.0 bucket sums to +0.0 from the +0.0 start, as in the
        # scatter; a bucket with no rows stays +0.0.
        values = np.array([[-0.0, 1.0], [-0.0, -1.0]])
        out = one_hot_row_sum(np.array([[0], [0]]), values, 2)
        ref = _scatter_reference(np.array([0, 0]), values, 2)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))

    def test_stacked_buckets_add_each_row_to_every_bucket(self):
        X, labels, _ = _data(np.float64)
        other = (labels * 7) % 4
        stacked = np.stack([labels, other + 6], axis=1)
        out = one_hot_row_sum(stacked, X, 10)
        np.testing.assert_array_equal(out[:6], _scatter_reference(labels, X, 6))
        np.testing.assert_array_equal(out[6:], _scatter_reference(other, X, 4))

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_labels_raise(self, bad):
        X, labels, _ = _data(np.float64, n=10)
        labels[3] = bad
        with pytest.raises(ValidationError):
            one_hot_row_sum(labels[:, None], X, 6)


class TestGroupedRowSumGrid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_pool_widths_match_block_folded_scatter(self, dtype, weighted, width):
        X, labels, weights = _data(dtype)
        values = _weighted(X, weights if weighted else None)
        ref = _scatter_reference(labels, values, 6, BLOCK)
        with _pool(width) as pool:
            np.testing.assert_array_equal(
                grouped_row_sum(labels, values, 6, pool), ref
            )
            (grouped,), _, _ = grouped_statistics(
                X, labels[:, None], (6,), weights if weighted else None, pool
            )
        np.testing.assert_array_equal(grouped, ref)

    def test_empty_groups_are_zero(self):
        X, labels, _ = _data(np.float64, num_groups=3)
        out = grouped_row_sum(labels, X, 8)
        np.testing.assert_array_equal(out, _scatter_reference(labels, X, 8))
        assert not out[3:].any()

    def test_no_rows(self):
        out = grouped_row_sum(np.zeros(0, dtype=np.intp), np.zeros((0, 4)), 3)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))
        grouped, masses, tables = grouped_statistics(
            np.zeros((0, 4)), np.zeros((0, 2), dtype=np.intp), (3, 2),
            np.zeros(0), pairs=True,
        )
        np.testing.assert_array_equal(grouped[1], np.zeros((2, 4)))
        np.testing.assert_array_equal(masses[0], np.zeros(3))
        np.testing.assert_array_equal(tables[0][1], np.zeros((3, 2)))

    def test_no_columns(self):
        labels = np.array([0, 2, 2, 1])
        out = grouped_row_sum(labels, np.zeros((4, 0)), 3)
        assert out.shape == (3, 0) and out.dtype == np.float64

    @pytest.mark.parametrize("width", WIDTHS)
    def test_non_contiguous_input(self, width):
        X, labels, _ = _data(np.float64, m=10)
        for view in (X[:, ::2], np.asfortranarray(X)):
            with _pool(width) as pool:
                np.testing.assert_array_equal(
                    grouped_row_sum(labels, view, 6, pool),
                    _scatter_reference(labels, np.ascontiguousarray(view), 6, BLOCK),
                )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_memmapped_input(self, tmp_path, dtype):
        X, labels, weights = _data(dtype)
        mapped = np.memmap(tmp_path / "X.dat", dtype=dtype, mode="w+", shape=X.shape)
        mapped[:] = X
        mapped.flush()
        mapped = np.memmap(tmp_path / "X.dat", dtype=dtype, mode="r", shape=X.shape)
        with _pool(2) as pool:
            (grouped,), _, _ = grouped_statistics(
                mapped, labels[:, None], (6,), weights, pool
            )
            np.testing.assert_array_equal(
                grouped_row_sum(labels, mapped, 6, pool),
                _scatter_reference(labels, X, 6, BLOCK),
            )
        np.testing.assert_array_equal(
            grouped, _scatter_reference(labels, _weighted(X, weights), 6, BLOCK)
        )


class TestStackedStatistics:
    """All ``p`` sets from one pass equal each statistic computed alone."""

    CARDINALITIES = (4, 3, 5)

    def _labels(self, n, seed=1):
        rng = np.random.default_rng(seed)
        return np.stack(
            [rng.integers(h, size=n) for h in self.CARDINALITIES], axis=1
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_single_block_equals_per_set_kernels(self, dtype, weighted):
        X, _, weights = _data(dtype)
        weights = weights if weighted else None
        set_labels = self._labels(X.shape[0])
        grouped, masses, tables = grouped_statistics(
            X, set_labels, self.CARDINALITIES, weights, pairs=True
        )
        alone = pair_count_tables(set_labels, self.CARDINALITIES, weights)
        for q, h in enumerate(self.CARDINALITIES):
            a_q = set_labels[:, q]
            np.testing.assert_array_equal(
                grouped[q], grouped_row_sum(a_q, _weighted(X, weights), h)
            )
            np.testing.assert_array_equal(
                masses[q],
                np.bincount(a_q, weights=weights, minlength=h).astype(float),
            )
            for r, h_r in enumerate(self.CARDINALITIES):
                if r == q:
                    assert tables[q][r] is None
                    continue
                expected = np.zeros((h, h_r))
                np.add.at(
                    expected, (a_q, set_labels[:, r]),
                    1.0 if weights is None else weights.astype(np.float64),
                )
                np.testing.assert_array_equal(tables[q][r], expected)
                np.testing.assert_array_equal(tables[q][r], alone[q][r])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_pool_widths_equal_per_set_kernels(self, weighted):
        X, _, weights = _data(np.float64)
        weights = weights if weighted else None
        set_labels = self._labels(X.shape[0])
        results = []
        for width in WIDTHS:
            with _pool(width) as pool:
                results.append(grouped_statistics(
                    X, set_labels, self.CARDINALITIES, weights, pool, pairs=True
                ))
                per_set = [
                    grouped_row_sum(set_labels[:, q], _weighted(X, weights), h, pool)
                    for q, h in enumerate(self.CARDINALITIES)
                ]
                alone = pair_count_tables(
                    set_labels, self.CARDINALITIES, weights, pool
                )
            grouped, masses, tables = results[-1]
            for q, h in enumerate(self.CARDINALITIES):
                np.testing.assert_array_equal(grouped[q], per_set[q])
                block_mass = sum(
                    np.bincount(
                        set_labels[s:e, q],
                        weights=None if weights is None else weights[s:e],
                        minlength=h,
                    ).astype(float)
                    for s, e in row_blocks(X.shape[0], BLOCK)
                )
                np.testing.assert_array_equal(masses[q], block_mass)
                for r in range(len(self.CARDINALITIES)):
                    if r != q:
                        np.testing.assert_array_equal(tables[q][r], alone[q][r])
        for grouped, masses, _ in results[1:]:
            for q in range(len(self.CARDINALITIES)):
                np.testing.assert_array_equal(grouped[q], results[0][0][q])
                np.testing.assert_array_equal(masses[q], results[0][1][q])
