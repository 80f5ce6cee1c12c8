"""Equivalence tests for the factored assignment subsystem.

The factored kernel (:mod:`repro.core._factored`) must be a drop-in
replacement for materializing all ``∏ h_q`` centroids: identical labels and
squared distances (within float tolerance) across aggregators, numbers of
sets, uneven cardinalities, sample weights, and the chunked memory mode.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KhatriRaoKMeans
from repro.core import MiniBatchKhatriRaoKMeans, assign_factored, grouped_row_sum
from repro.core._distances import assign_to_nearest, row_norms_squared
from repro.exceptions import ValidationError
from repro.linalg import ProductAggregator, SumAggregator, khatri_rao_combine

CARDINALITY_SETS = [(4,), (3, 5), (2, 3, 4), (5, 2), (2, 2, 2)]


def _random_problem(seed, cardinalities, n=40, m=6):
    rng = np.random.default_rng(seed)
    thetas = [rng.normal(size=(h, m)) for h in cardinalities]
    X = rng.normal(size=(n, m))
    return X, thetas


class TestKernelEquivalence:
    @given(
        seed=st.integers(0, 1000),
        cards_index=st.integers(0, len(CARDINALITY_SETS) - 1),
        chunk_size=st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_materialized(self, seed, cards_index, chunk_size):
        cardinalities = CARDINALITY_SETS[cards_index]
        X, thetas = _random_problem(seed, cardinalities)
        centroids = khatri_rao_combine(thetas, "sum")
        ref_labels, ref_distances = assign_to_nearest(X, centroids)
        labels, distances = assign_factored(
            X, thetas, "sum", chunk_size=chunk_size
        )
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_allclose(distances, ref_distances, atol=1e-9)

    @pytest.mark.parametrize("cardinalities", CARDINALITY_SETS)
    def test_precomputed_norms_match(self, cardinalities):
        X, thetas = _random_problem(7, cardinalities)
        labels, distances = assign_factored(X, thetas, "sum")
        labels_pre, distances_pre = assign_factored(
            X, thetas, "sum", x_squared_norms=row_norms_squared(X)
        )
        np.testing.assert_array_equal(labels, labels_pre)
        np.testing.assert_allclose(distances, distances_pre, atol=1e-12)

    def test_fewer_points_than_protocentroids(self):
        # n < Σ h_q must still work: 5 points against 4+4 protocentroids.
        X, thetas = _random_problem(11, (4, 4), n=5)
        centroids = khatri_rao_combine(thetas, "sum")
        ref_labels, ref_distances = assign_to_nearest(X, centroids)
        for chunk_size in (0, 3):
            labels, distances = assign_factored(
                X, thetas, "sum", chunk_size=chunk_size
            )
            np.testing.assert_array_equal(labels, ref_labels)
            np.testing.assert_allclose(distances, ref_distances, atol=1e-9)

    def test_product_aggregator_rejected(self):
        X, thetas = _random_problem(3, (3, 3))
        with pytest.raises(ValidationError):
            assign_factored(X, thetas, "product")


def _kernel_problem(seed, cardinalities, rows, dtype, ties):
    """Grams and self-terms of a random problem; ``ties`` draws small
    integers (exact scores, frequent ties) and duplicates protocentroids."""
    rng = np.random.default_rng(seed)
    m = 3
    if ties:
        X = rng.integers(-2, 3, size=(rows, m)).astype(dtype)
        thetas = [rng.integers(-1, 2, size=(h, m)).astype(dtype)
                  for h in cardinalities]
        for theta in thetas:
            theta[-1] = theta[0]
    else:
        X = rng.normal(size=(rows, m)).astype(dtype)
        thetas = [rng.normal(size=(h, m)).astype(dtype) for h in cardinalities]
    agg = SumAggregator()
    return agg.cross_gram(X, thetas), agg.self_interaction(thetas)


class TestSetMajorKernel:
    """The set-major block kernel is the grid kernel, bit for bit."""

    @given(
        seed=st.integers(0, 10_000),
        cardinalities=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        rows=st.integers(0, 40),
        dtype=st.sampled_from([np.float32, np.float64]),
        ties=st.booleans(),
        return_second=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_grid_kernel(
        self, seed, cardinalities, rows, dtype, ties, return_second
    ):
        from repro.core._factored import _grid_top2, _set_major_top2

        cardinalities = tuple(cardinalities)
        grams, self_terms = _kernel_problem(seed, cardinalities, rows, dtype, ties)
        before = [gram.copy() for gram in grams] + [self_terms.copy()]
        want = _grid_top2(grams, self_terms, cardinalities, return_second)
        got = _set_major_top2(grams, self_terms, cardinalities, return_second)
        for array, copy in zip(grams + [self_terms], before):
            np.testing.assert_array_equal(array, copy)
        if not return_second:
            assert want[2] is None and got[2] is None
            want, got = want[:2], got[:2]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(np.signbit(g), np.signbit(w))

    def test_tie_breaks_to_lowest_flat_index(self):
        from repro.core._factored import _set_major_top2

        # Every centroid scores the same: argmin's answer is flat index 0.
        grams = [np.zeros((4, 3)), np.zeros((4, 2))]
        labels, best, second = _set_major_top2(grams, np.zeros(6), (3, 2), True)
        np.testing.assert_array_equal(labels, 0)
        np.testing.assert_array_equal(second, 0.0)

    def test_selection_rule(self):
        from repro.core._factored import (
            SET_MAJOR_MIN_GRID_BYTES,
            _prefers_set_major,
        )

        terms = np.zeros(256)  # a (16, 16) float64 grid: 2 KiB per row
        rows = SET_MAJOR_MIN_GRID_BYTES // terms.nbytes
        assert _prefers_set_major(rows, (16, 16), terms)
        assert not _prefers_set_major(rows - 1, (16, 16), terms)
        # One set has no slabs to reduce; small blocks keep the grid.
        assert not _prefers_set_major(10**6, (256,), terms)
        assert not _prefers_set_major(32, (16, 16), terms)
        assert not _prefers_set_major(4096, (3, 3), np.zeros(9))

    @pytest.mark.parametrize("cardinalities", [(16, 16), (8, 8, 8)])
    def test_assign_factored_uses_set_major_on_large_blocks(
        self, cardinalities, monkeypatch
    ):
        from repro.core import _factored

        calls = []
        real = _factored._set_major_top2

        def spy(*args):
            calls.append(args[0][0].shape[0])
            return real(*args)

        monkeypatch.setattr(_factored, "_set_major_top2", spy)
        X, thetas = _random_problem(3, cardinalities, n=4096 + 32)
        centroids = khatri_rao_combine(thetas, "sum")
        ref = assign_to_nearest(X, centroids, return_second=True)
        got = assign_factored(X, thetas, "sum", return_second=True)
        assert calls == [4096]  # the trailing 32-row block stays on the grid
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_allclose(got[1], ref[1], atol=1e-9)
        np.testing.assert_allclose(got[2], ref[2], atol=1e-9)


class TestAssignFactoredInputs:
    @pytest.mark.parametrize("return_second", [False, True])
    @pytest.mark.parametrize("chunk_size", [0, 2])
    def test_zero_rows_return_empty(self, chunk_size, return_second):
        _, thetas = _random_problem(1, (3, 2))
        out = assign_factored(
            np.empty((0, 6)), thetas, "sum",
            chunk_size=chunk_size, return_second=return_second,
        )
        assert len(out) == (3 if return_second else 2)
        assert out[0].shape == (0,) and out[0].dtype == np.int64
        for distances in out[1:]:
            assert distances.shape == (0,) and distances.dtype == np.float64

    @pytest.mark.parametrize("chunk_size", [0, 2])
    def test_feature_mismatch_names_the_set(self, chunk_size):
        X, thetas = _random_problem(1, (3, 2))
        thetas[1] = thetas[1][:, :5]
        with pytest.raises(ValidationError, match="protocentroid set 1"):
            assign_factored(X, thetas, "sum", chunk_size=chunk_size)

    def test_wrong_length_norms_rejected(self):
        X, thetas = _random_problem(1, (3, 2))
        with pytest.raises(ValidationError, match="x_squared_norms"):
            assign_factored(
                X, thetas, "sum", x_squared_norms=row_norms_squared(X)[:-1]
            )


class TestAggregatorHooks:
    @pytest.mark.parametrize("cardinalities", CARDINALITY_SETS)
    def test_self_interaction_is_centroid_norms(self, cardinalities):
        _, thetas = _random_problem(5, cardinalities)
        agg = SumAggregator()
        centroids = khatri_rao_combine(thetas, agg)
        expected = np.einsum("ij,ij->i", centroids, centroids)
        np.testing.assert_allclose(agg.self_interaction(thetas), expected, atol=1e-9)

    @pytest.mark.parametrize("cardinalities", CARDINALITY_SETS)
    def test_self_interaction_blocks_match_full_grid(self, cardinalities):
        _, thetas = _random_problem(6, cardinalities)
        agg = SumAggregator()
        expected = agg.self_interaction(thetas)
        block = agg.self_interaction_blocks(thetas)
        k = int(np.prod(cardinalities))
        for start, stop in [(0, k), (0, 1), (1, min(4, k)), (k - 2, k)]:
            indices = np.unravel_index(np.arange(start, stop), cardinalities)
            np.testing.assert_allclose(
                block(indices), expected[start:stop], atol=1e-9
            )

    def test_chunked_assignment_never_builds_full_grid(self):
        # The chunked sweep must get self-interactions from the block
        # closure, not from the O(∏ h_q) flat vector — that allocation is
        # exactly what memory mode exists to avoid.
        X, thetas = _random_problem(13, (3, 4))

        class NoFullGrid(SumAggregator):
            def self_interaction(self, thetas):
                raise AssertionError(
                    "chunked assignment materialized the full grid"
                )

        labels, distances = assign_factored(X, thetas, NoFullGrid(), chunk_size=5)
        ref_labels, ref_distances = assign_to_nearest(
            X, khatri_rao_combine(thetas, "sum")
        )
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_allclose(distances, ref_distances, atol=1e-9)

    @pytest.mark.parametrize("cardinalities", CARDINALITY_SETS)
    def test_factored_shift_matches_materialized(self, cardinalities):
        _, old = _random_problem(8, cardinalities)
        _, new = _random_problem(9, cardinalities)
        agg = SumAggregator()
        expected = float(
            np.sum(
                (khatri_rao_combine(new, agg) - khatri_rao_combine(old, agg)) ** 2
            )
        )
        assert agg.factored_shift(old, new) == pytest.approx(expected, rel=1e-9)

    def test_capability_flags(self):
        assert SumAggregator().supports_factored_assignment
        assert not ProductAggregator().supports_factored_assignment
        with pytest.raises(ValidationError):
            ProductAggregator().cross_gram(np.zeros((2, 2)), [np.zeros((2, 2))])


class TestGroupedRowSum:
    @given(seed=st.integers(0, 500), num_groups=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_matches_scatter_add(self, seed, num_groups):
        rng = np.random.default_rng(seed)
        assignments = rng.integers(0, num_groups, size=50)
        values = rng.normal(size=(50, 4))
        expected = np.zeros((num_groups, 4))
        np.add.at(expected, assignments, values)
        np.testing.assert_allclose(
            grouped_row_sum(assignments, values, num_groups), expected, atol=1e-12
        )


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("aggregator", ["sum", "product"])
    @pytest.mark.parametrize("mode", ["time", "memory"])
    @pytest.mark.parametrize("cardinalities", [(4,), (3, 3), (2, 2, 2)])
    def test_fit_matches_materialized(self, aggregator, mode, cardinalities):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        kwargs = dict(
            aggregator=aggregator, mode=mode, n_init=2, max_iter=25, random_state=0
        )
        ref = KhatriRaoKMeans(
            cardinalities, assignment="materialized", **kwargs
        ).fit(X)
        fac = KhatriRaoKMeans(cardinalities, assignment="factored", **kwargs).fit(X)
        np.testing.assert_array_equal(ref.labels_, fac.labels_)
        np.testing.assert_array_equal(ref.set_labels_, fac.set_labels_)
        assert fac.inertia_ == pytest.approx(ref.inertia_, abs=1e-9, rel=1e-9)

    def test_first_iteration_shift_consistent_across_modes(self):
        # Regression: the materialized memory path used to return an infinite
        # shift on iteration 1 (no cached previous protocentroids yet) while
        # the factored path measured a real one, so a loose tol made the two
        # strategies stop at different iterations with different labels.
        X = np.random.default_rng(0).normal(size=(60, 4))
        runs = {
            (assignment, mode): KhatriRaoKMeans(
                (3, 3), mode=mode, assignment=assignment,
                n_init=1, tol=20.0, random_state=0,
            ).fit(X)
            for assignment in ("materialized", "factored")
            for mode in ("time", "memory")
        }
        reference = runs[("materialized", "time")]
        for model in runs.values():
            assert model.n_iter_ == reference.n_iter_
            np.testing.assert_array_equal(model.labels_, reference.labels_)

    def test_fit_with_sample_weights(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        weights = rng.uniform(0.1, 3.0, size=50)
        kwargs = dict(n_init=2, max_iter=25, random_state=1)
        ref = KhatriRaoKMeans((3, 3), assignment="materialized", **kwargs).fit(
            X, sample_weight=weights
        )
        fac = KhatriRaoKMeans((3, 3), assignment="factored", **kwargs).fit(
            X, sample_weight=weights
        )
        np.testing.assert_array_equal(ref.labels_, fac.labels_)
        assert fac.inertia_ == pytest.approx(ref.inertia_, abs=1e-9, rel=1e-9)

    def test_auto_defaults_to_factored_for_sum(self):
        model = KhatriRaoKMeans((2, 2))
        assert model.assignment == "auto"
        assert model.uses_factored_assignment
        assert not KhatriRaoKMeans(
            (2, 2), aggregator="product"
        ).uses_factored_assignment
        assert MiniBatchKhatriRaoKMeans((2, 2)).uses_factored_assignment
        assert not MiniBatchKhatriRaoKMeans(
            (2, 2), assignment="materialized"
        ).uses_factored_assignment

    def test_predict_matches_materialized(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 3))
        X_new = rng.normal(size=(30, 3))
        ref = KhatriRaoKMeans(
            (3, 3), assignment="materialized", n_init=2, random_state=0
        ).fit(X)
        fac = KhatriRaoKMeans(
            (3, 3), assignment="factored", n_init=2, random_state=0
        ).fit(X)
        np.testing.assert_array_equal(ref.predict(X_new), fac.predict(X_new))

    def test_predict_honors_factored_kernel(self, monkeypatch):
        # Out-of-sample assignment must get the same factored speedup as
        # fit(): with a decomposable aggregator, predict() may never
        # materialize the centroid grid.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        model = KhatriRaoKMeans(
            (3, 3), assignment="factored", n_init=2, random_state=0
        ).fit(X)

        def _no_materialize(*args, **kwargs):
            raise AssertionError("predict materialized the centroid grid")

        import repro.core.kr_kmeans as kr_module

        monkeypatch.setattr(kr_module, "khatri_rao_combine", _no_materialize)
        labels = model.predict(rng.normal(size=(20, 3)))
        assert labels.shape == (20,)

    def test_summary_assign_honors_factored_kernel(self, monkeypatch):
        from repro.core import _factored
        from repro.summary import summarize

        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 3))
        model = KhatriRaoKMeans((3, 3), n_init=2, random_state=0).fit(X)
        data_summary = summarize(model)
        X_new = rng.normal(size=(25, 3))
        expected = assign_to_nearest(X_new, data_summary.centroids())[0]

        def _no_materialize(*args, **kwargs):
            raise AssertionError("summary assignment materialized the grid")

        monkeypatch.setattr(_factored, "assign_to_nearest", _no_materialize)
        np.testing.assert_array_equal(data_summary.assign(X_new), expected)
        assert np.isfinite(data_summary.inertia(X_new))

    def test_invalid_assignment_rejected(self):
        with pytest.raises(ValidationError):
            KhatriRaoKMeans((2, 2), assignment="bogus")
        with pytest.raises(ValidationError):
            MiniBatchKhatriRaoKMeans((2, 2), assignment="bogus")

    def test_factored_falls_back_for_product(self):
        # Explicit "factored" with the product aggregator must transparently
        # use the materialized path, not crash.
        rng = np.random.default_rng(5)
        X = np.abs(rng.normal(size=(40, 3))) + 0.5
        ref = KhatriRaoKMeans(
            (2, 2), aggregator="product", assignment="materialized",
            n_init=2, random_state=0,
        ).fit(X)
        fac = KhatriRaoKMeans(
            (2, 2), aggregator="product", assignment="factored",
            n_init=2, random_state=0,
        ).fit(X)
        np.testing.assert_array_equal(ref.labels_, fac.labels_)

    @pytest.mark.parametrize("aggregator", ["sum", "product"])
    def test_minibatch_matches_materialized(self, aggregator):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 3))
        kwargs = dict(
            aggregator=aggregator, batch_size=32, max_steps=15, random_state=0
        )
        ref = MiniBatchKhatriRaoKMeans(
            (3, 3), assignment="materialized", **kwargs
        ).fit(X)
        fac = MiniBatchKhatriRaoKMeans((3, 3), assignment="factored", **kwargs).fit(X)
        np.testing.assert_array_equal(ref.labels_, fac.labels_)
        assert fac.inertia_ == pytest.approx(ref.inertia_, abs=1e-9, rel=1e-9)
