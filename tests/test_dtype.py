"""Certification of the dtype-aware kernel stack (the ``dtype`` knob).

Three guarantees are pinned here, stated precisely in ``docs/numerics.md``:

1. **float64 bit-identity.**  ``dtype="float64"`` (the default) reproduces
   the pre-dtype-refactor arithmetic bit for bit: seed-expectation cases
   pin exact inertias and SHA-256 digests of the fitted parameters, so any
   silent golden drift from the refactor fails loudly.

2. **float32 equivalence envelope.**  A ``dtype="float32"`` fit on
   well-separated data follows the float64 trajectory: identical labels,
   inertia within the *computable* expansion-form error envelope
   ``8·(m+8)·eps32 · Σ_i (‖x_i‖² + d_i)``, protocentroids within an
   ``O(eps32)`` per-coordinate envelope.

3. **Same-dtype pruning identity.**  ``pruning="bounds"`` at float32 is
   label/inertia/iteration-identical to the unpruned float32 run — the
   certified margins widen by ``eps32/eps64`` and keep absorbing the
   kernels' cancellation noise, including on un-centered data.

Plus the capability protocol: aggregators declare ``working_dtypes`` and
the resolver falls back to float64 loudly (``DtypeFallbackWarning``).
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro import (
    DataSummary,
    KhatriRaoKMeans,
    KMeans,
    MiniBatchKhatriRaoKMeans,
    summarize,
)
from repro.core import assign_factored, grouped_row_sum, update_factored, update_gather
from repro.core._distances import assign_to_nearest
from repro.core._factored import assign_khatri_rao
from repro.exceptions import DtypeFallbackWarning, ValidationError
from repro.federated import KhatriRaoFederatedKMeans, communication_cost_bytes
from repro.linalg import (
    SumAggregator,
    get_aggregator,
    khatri_rao_combine,
    resolve_working_dtype,
)
from repro._validation import check_dtype

EPS32 = float(np.finfo(np.float32).eps)


def _digest(arrays):
    dig = hashlib.sha256()
    for a in arrays:
        dig.update(np.ascontiguousarray(a).tobytes())
    return dig.hexdigest()[:16]


def _kr_data(n=400, m=12, cardinalities=(3, 4), seed=7, scale=6.0, noise=0.15):
    """Well-separated KR-structured blobs: the float32 and float64 argmin
    agree everywhere because inter-centroid gaps dwarf the O(eps32·‖x‖²)
    distance noise, so the two trajectories stay label-identical."""
    rng = np.random.default_rng(seed)
    thetas = [rng.normal(scale=scale, size=(h, m)) for h in cardinalities]
    flat = rng.integers(int(np.prod(cardinalities)), size=n)
    tuple_indices = np.unravel_index(flat, cardinalities)
    centers = sum(t[i] for t, i in zip(thetas, tuple_indices))
    return centers + rng.normal(scale=noise, size=(n, m))


def _inertia_envelope(X, distances):
    """The documented expansion-form envelope: Σ_i 8·(m+8)·eps32·(‖x_i‖²+d_i)."""
    m = X.shape[1]
    norms = np.einsum("ij,ij->i", X, X)
    return 8.0 * (m + 8) * EPS32 * float(np.sum(norms + distances))


class FloatOnlySum(SumAggregator):
    """A sum aggregator that never opted into float32 (capability test)."""

    working_dtypes = (np.dtype(np.float64),)


# --------------------------------------------------------------- validation
class TestDtypeValidation:
    def test_check_dtype_accepts_aliases(self):
        assert check_dtype("float32") == np.dtype(np.float32)
        assert check_dtype(np.float64) == np.dtype(np.float64)
        assert check_dtype(np.dtype("f4")) == np.dtype(np.float32)

    @pytest.mark.parametrize("bad", ["float16", np.int32, "complex128", object])
    def test_check_dtype_rejects_non_working_dtypes(self, bad):
        with pytest.raises(ValidationError):
            check_dtype(bad)

    def test_estimators_reject_bad_dtype_at_init(self):
        with pytest.raises(ValidationError):
            KhatriRaoKMeans((2, 2), dtype="int64")
        with pytest.raises(ValidationError):
            KMeans(3, dtype="float16")
        with pytest.raises(ValidationError):
            MiniBatchKhatriRaoKMeans((2, 2), dtype="c16")

    def test_builtin_aggregators_advertise_float32(self):
        for name in ("sum", "product"):
            assert np.dtype(np.float32) in get_aggregator(name).working_dtypes
        for name in ("sum", "product"):
            assert resolve_working_dtype("float32", name) == np.dtype(np.float32)

    def test_resolver_falls_back_loudly(self):
        with pytest.warns(DtypeFallbackWarning, match="float32"):
            resolved = resolve_working_dtype("float32", FloatOnlySum())
        assert resolved == np.dtype(np.float64)

    def test_estimator_fallback_fits_in_float64(self):
        X = _kr_data(n=120)
        model = KhatriRaoKMeans(
            (3, 4), aggregator=FloatOnlySum(), n_init=1, random_state=0,
            dtype="float32",
        )
        with pytest.warns(DtypeFallbackWarning):
            model.fit(X)
        assert model.dtype_ == np.dtype(np.float64)
        assert all(t.dtype == np.float64 for t in model.protocentroids_)


# ------------------------------------------------------- float64 bit-identity
class TestFloat64SeedGoldens:
    """The dtype refactor must not move the float64 default by one ulp.

    Exact inertias and parameter digests captured from the pre-refactor
    tree (PR 4 state) on a fixed dataset; ``dtype="float64"`` — implicit
    and explicit — must keep reproducing them bit for bit.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return _kr_data()

    def test_khatri_rao_kmeans_golden(self, data):
        model = KhatriRaoKMeans((3, 4), n_init=2, random_state=0).fit(data)
        assert model.inertia_ == 23547.092034432088
        assert _digest(model.protocentroids_) == "2052198b72a2fe61"
        assert model.n_iter_ == 9
        assert model.dtype_ == np.dtype(np.float64)

    def test_explicit_float64_matches_default(self, data):
        default = KhatriRaoKMeans((3, 4), n_init=2, random_state=0).fit(data)
        explicit = KhatriRaoKMeans(
            (3, 4), n_init=2, random_state=0, dtype="float64"
        ).fit(data)
        assert default.inertia_ == explicit.inertia_
        assert _digest(default.protocentroids_) == _digest(explicit.protocentroids_)

    def test_kmeans_golden(self, data):
        model = KMeans(4, n_init=2, random_state=0).fit(data[:, :5])
        assert model.inertia_ == 22289.48951026015
        assert _digest([model.cluster_centers_]) == "4498e72e04e846e3"

    def test_minibatch_golden(self, data):
        model = MiniBatchKhatriRaoKMeans(
            (3, 4), batch_size=64, max_steps=30, random_state=0
        ).fit(data)
        assert model.inertia_ == 37957.92867257202
        assert _digest(model.protocentroids_) == "4b5df7ad0c3426a6"

    def test_federated_golden(self, data):
        shards = [(data[i::3], None) for i in range(3)]
        model = KhatriRaoFederatedKMeans(
            (3, 4), aggregator="sum", n_rounds=3, random_state=0
        ).fit(shards)
        assert model.history_.inertia[-1] == 38725.20279966493
        assert _digest(model.protocentroids_) == "540af847b324e7b2"

    def test_weighted_golden(self, data):
        w = _weighted_golden_weights()
        model = KhatriRaoKMeans((3, 4), n_init=1, random_state=1).fit(
            data, sample_weight=w
        )
        assert model.inertia_ == 53565.64402229072
        assert _digest(model.protocentroids_) == "4fa5cc43a8f5d8d3"

    def test_product_aggregator_golden(self, data):
        model = KhatriRaoKMeans(
            (2, 2), aggregator="product", n_init=1, random_state=2
        ).fit(np.abs(data) + 0.5)
        assert model.inertia_ == 57266.9179543592
        assert _digest(model.protocentroids_) == "0a28ce41c2ee4160"


def _weighted_golden_weights():
    """The exact rng stream the weighted golden was captured with."""
    rng = np.random.default_rng(7)
    for h in (3, 4):
        rng.normal(scale=6.0, size=(h, 12))
    rng.integers(12, size=400)
    rng.normal(scale=0.15, size=(400, 12))
    return rng.uniform(0.5, 2.0, size=400)


# -------------------------------------------------- float32 fit equivalence
class TestFloat32Equivalence:
    @pytest.fixture(scope="class")
    def data(self):
        return _kr_data()

    @pytest.fixture(scope="class")
    def pair(self, data):
        kw = dict(n_init=2, random_state=0)
        f64 = KhatriRaoKMeans((3, 4), **kw).fit(data)
        f32 = KhatriRaoKMeans((3, 4), dtype="float32", **kw).fit(data)
        return f64, f32

    def test_working_dtype_propagates(self, pair):
        _, f32 = pair
        assert f32.dtype_ == np.dtype(np.float32)
        assert all(t.dtype == np.float32 for t in f32.protocentroids_)
        assert f32.centroids().dtype == np.float32

    def test_labels_identical_on_separated_data(self, pair):
        f64, f32 = pair
        np.testing.assert_array_equal(f32.labels_, f64.labels_)
        assert f32.n_iter_ == f64.n_iter_

    def test_inertia_within_documented_envelope(self, pair, data):
        f64, f32 = pair
        _, d64 = assign_to_nearest(data, f64.centroids().astype(np.float64))
        envelope = _inertia_envelope(data, d64)
        assert abs(f32.inertia_ - f64.inertia_) <= envelope

    def test_protocentroids_within_envelope(self, pair, data):
        f64, f32 = pair
        # Per-coordinate O(eps32) envelope: one store rounding per update
        # times the iteration count, scaled by the data magnitude.
        atol = 64.0 * EPS32 * (np.abs(data).max() + 1.0) * max(f64.n_iter_, 1)
        for a, b in zip(f32.protocentroids_, f64.protocentroids_):
            np.testing.assert_allclose(a, b.astype(np.float32), atol=atol)

    @pytest.mark.parametrize("assignment", ["factored", "materialized"])
    @pytest.mark.parametrize("update", ["factored", "gather"])
    def test_kernel_grid_agrees_at_float32(self, data, assignment, update):
        kw = dict(n_init=1, random_state=5, assignment=assignment, update=update)
        f64 = KhatriRaoKMeans((3, 4), **kw).fit(data)
        f32 = KhatriRaoKMeans((3, 4), dtype="float32", **kw).fit(data)
        np.testing.assert_array_equal(f32.labels_, f64.labels_)
        _, d64 = assign_to_nearest(data, f64.centroids())
        assert abs(f32.inertia_ - f64.inertia_) <= _inertia_envelope(data, d64)

    def test_memory_mode_float32(self, data):
        kw = dict(n_init=1, random_state=4, mode="memory", chunk_size=5)
        f64 = KhatriRaoKMeans((3, 4), **kw).fit(data)
        f32 = KhatriRaoKMeans((3, 4), dtype="float32", **kw).fit(data)
        np.testing.assert_array_equal(f32.labels_, f64.labels_)

    def test_product_aggregator_float32(self, data):
        Xp = np.abs(data) + 0.5
        kw = dict(aggregator="product", n_init=1, random_state=2)
        f64 = KhatriRaoKMeans((2, 2), **kw).fit(Xp)
        f32 = KhatriRaoKMeans((2, 2), dtype="float32", **kw).fit(Xp)
        assert f32.dtype_ == np.dtype(np.float32)
        np.testing.assert_array_equal(f32.labels_, f64.labels_)

    def test_sample_weight_stays_in_dtype(self, data):
        w = _weighted_golden_weights()
        f64 = KhatriRaoKMeans((3, 4), n_init=1, random_state=1).fit(
            data, sample_weight=w
        )
        f32 = KhatriRaoKMeans(
            (3, 4), n_init=1, random_state=1, dtype="float32"
        ).fit(data, sample_weight=w)
        np.testing.assert_array_equal(f32.labels_, f64.labels_)

    def test_predict_casts_to_fit_dtype(self, pair, data):
        f64, f32 = pair
        np.testing.assert_array_equal(f32.predict(data), f64.predict(data))

    def test_kmeans_float32(self, data):
        X = data[:, :5]
        f64 = KMeans(4, n_init=2, random_state=0).fit(X)
        f32 = KMeans(4, n_init=2, random_state=0, dtype="float32").fit(X)
        assert f32.cluster_centers_.dtype == np.float32
        assert f32.dtype_ == np.dtype(np.float32)
        np.testing.assert_array_equal(f32.labels_, f64.labels_)
        _, d64 = assign_to_nearest(X, f64.cluster_centers_)
        assert abs(f32.inertia_ - f64.inertia_) <= _inertia_envelope(X, d64)

    def test_minibatch_float32(self, data):
        kw = dict(batch_size=64, max_steps=30, random_state=0)
        f64 = MiniBatchKhatriRaoKMeans((3, 4), **kw).fit(data)
        f32 = MiniBatchKhatriRaoKMeans((3, 4), dtype="float32", **kw).fit(data)
        assert f32.dtype_ == np.dtype(np.float32)
        assert all(t.dtype == np.float32 for t in f32.protocentroids_)
        np.testing.assert_array_equal(f32.labels_, f64.labels_)

    def test_minibatch_partial_fit_float32(self, data):
        model = MiniBatchKhatriRaoKMeans((3, 4), random_state=0, dtype="float32")
        model.partial_fit(data[:128]).partial_fit(data[128:256])
        assert model.dtype_ == np.dtype(np.float32)
        assert all(t.dtype == np.float32 for t in model.protocentroids_)
        assert model.predict(data[:16]).shape == (16,)


# ------------------------------------------------ same-dtype pruning identity
class TestFloat32PruningIdentity:
    """``pruning="bounds"`` must stay exactly equivalent per dtype."""

    @pytest.mark.parametrize("assignment", ["factored", "materialized"])
    def test_batch_pruning_identity_float32(self, assignment):
        X = _kr_data(n=300, cardinalities=(4, 4), seed=11)
        kw = dict(
            n_init=1, max_iter=40, tol=0.0, random_state=0,
            assignment=assignment, dtype="float32",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pruned = KhatriRaoKMeans((4, 4), pruning="bounds", **kw).fit(X)
            plain = KhatriRaoKMeans((4, 4), pruning="none", **kw).fit(X)
        np.testing.assert_array_equal(pruned.labels_, plain.labels_)
        assert pruned.inertia_ == plain.inertia_
        assert pruned.n_iter_ == plain.n_iter_
        for a, b in zip(pruned.protocentroids_, plain.protocentroids_):
            np.testing.assert_array_equal(a, b)

    def test_pruning_identity_uncentered_float32(self):
        # A coordinate offset inflates ‖x‖² and with it the cancellation
        # error of the expansion-form kernels; the widened eps32 margins
        # must keep absorbing it (degrading pruning, never correctness).
        X = _kr_data(n=250, cardinalities=(3, 3), seed=13) + 1e3
        kw = dict(n_init=1, max_iter=30, random_state=1, dtype="float32")
        pruned = KhatriRaoKMeans((3, 3), pruning="bounds", **kw).fit(X)
        plain = KhatriRaoKMeans((3, 3), pruning="none", **kw).fit(X)
        np.testing.assert_array_equal(pruned.labels_, plain.labels_)
        assert pruned.inertia_ == plain.inertia_
        assert pruned.n_iter_ == plain.n_iter_

    def test_kmeans_pruning_identity_float32(self):
        X = _kr_data(n=300, seed=17)[:, :6]
        kw = dict(n_init=2, random_state=3, dtype="float32")
        pruned = KMeans(5, pruning="bounds", **kw).fit(X)
        plain = KMeans(5, pruning="none", **kw).fit(X)
        np.testing.assert_array_equal(pruned.labels_, plain.labels_)
        assert pruned.inertia_ == plain.inertia_

    def test_minibatch_streaming_pruning_identity_float32(self):
        X = _kr_data(n=400, cardinalities=(3, 3), seed=19)
        kw = dict(batch_size=80, max_steps=40, random_state=2, dtype="float32")
        pruned = MiniBatchKhatriRaoKMeans((3, 3), pruning="bounds", **kw).fit(X)
        plain = MiniBatchKhatriRaoKMeans((3, 3), pruning="none", **kw).fit(X)
        np.testing.assert_array_equal(pruned.labels_, plain.labels_)
        for a, b in zip(pruned.protocentroids_, plain.protocentroids_):
            np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------- kernel contracts
class TestKernelDtypeContracts:
    def test_grouped_row_sum_accumulates_float64(self):
        rng = np.random.default_rng(0)
        X32 = rng.normal(size=(200, 7)).astype(np.float32)
        a = rng.integers(5, size=200)
        out = grouped_row_sum(a, X32, 5)
        assert out.dtype == np.float64
        # f4 → f8 widening is exact, so summing the float32 values equals
        # summing a pre-widened float64 copy bit for bit.
        np.testing.assert_array_equal(out, grouped_row_sum(a, X32.astype(np.float64), 5))

    def test_assign_factored_float32_matches_materialized(self):
        rng = np.random.default_rng(1)
        X = rng.normal(scale=2.0, size=(150, 16)).astype(np.float32)
        thetas = [rng.normal(size=(h, 16)).astype(np.float32) for h in (3, 4)]
        grid = khatri_rao_combine(thetas, "sum")
        assert grid.dtype == np.float32
        ref_labels, ref_d, ref_second = assign_to_nearest(X, grid, return_second=True)
        norms = np.einsum("ij,ij->i", X, X, dtype=np.float64)
        envelope = 8.0 * (16 + 8) * EPS32 * (norms + np.asarray(ref_d, np.float64))
        # Labels are only *guaranteed* to agree where the top-2 gap clears
        # the combined envelope (docs/numerics.md §3); near-ties inside it
        # may flip between kernels, so assert exactly the contract.
        decided = (np.asarray(ref_second, np.float64) - ref_d) > 2.0 * envelope
        assert decided.mean() > 0.9  # the workload must actually test labels
        for chunk in (0, 5):
            labels, d = assign_factored(X, thetas, "sum", chunk_size=chunk)
            assert d.dtype == np.float32
            assert np.all(np.abs(d.astype(np.float64) - ref_d) <= envelope)
            np.testing.assert_array_equal(labels[decided], ref_labels[decided])

    @pytest.mark.parametrize("aggregator", ["product", "sum"])
    def test_chunked_materialized_sweep_keeps_float32(self, aggregator):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 6)).astype(np.float32)
        thetas = [rng.normal(size=(h, 6)).astype(np.float32) for h in (3, 4)]
        whole = assign_khatri_rao(X, thetas, aggregator, assignment="materialized",
                                  return_second=True)
        chunked = assign_khatri_rao(X, thetas, aggregator, assignment="materialized",
                                    chunk_size=5, return_second=True)
        for got, want in zip(chunked, whole):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert chunked[1].dtype == np.float32

    def test_update_kernels_preserve_dtype_and_agree(self):
        rng = np.random.default_rng(2)
        X32 = rng.normal(size=(300, 9)).astype(np.float32)
        thetas32 = [rng.normal(size=(h, 9)).astype(np.float32) for h in (3, 4)]
        labels = rng.integers(12, size=300)
        set_labels = np.stack(np.unravel_index(labels, (3, 4)), axis=1)
        fac = update_factored(X32, thetas32, set_labels, "sum")
        gat = update_gather(X32, thetas32, set_labels, "sum")
        assert all(t.dtype == np.float32 for t in fac + gat)
        for f, g in zip(fac, gat):
            # Both round a float64 accumulation once into float32 — they
            # agree to a couple of ulps of the stored values.
            np.testing.assert_allclose(f, g, rtol=8 * EPS32, atol=8 * EPS32)
        f64 = update_factored(
            X32.astype(np.float64),
            [t.astype(np.float64) for t in thetas32],
            set_labels, "sum",
        )
        for f, r in zip(fac, f64):
            np.testing.assert_allclose(f, r, rtol=8 * EPS32, atol=8 * EPS32)


# ------------------------------------------------------------- summary layer
class TestSummaryDtype:
    def test_astype_round_trip_and_save_load(self, tmp_path):
        X = _kr_data(n=150)
        model = KhatriRaoKMeans((3, 4), n_init=1, random_state=0).fit(X)
        summary = summarize(model)
        assert summary.dtype == np.float64
        half = summary.astype("float32")
        assert half.dtype == np.float32
        assert summary.dtype == np.float64  # original untouched
        path = half.save(tmp_path / "half.npz")
        loaded = DataSummary.load(path)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded.protocentroids[0], half.protocentroids[0])
        assert "float32" in half.report()

    def test_float32_summary_scores_in_float32(self):
        X = _kr_data(n=150)
        summary = summarize(
            KhatriRaoKMeans((3, 4), n_init=1, random_state=0).fit(X)
        ).astype("float32")
        labels = summary.assign(X)
        assert labels.shape == (150,)
        assert np.isfinite(summary.inertia(X))
        refined = summary.refine(X, n_steps=1, random_state=0)
        assert refined.dtype == np.float32

    def test_fitted_float32_model_exports_float32_summary(self):
        X = _kr_data(n=150)
        model = KhatriRaoKMeans(
            (3, 4), n_init=1, random_state=0, dtype="float32"
        ).fit(X)
        assert summarize(model).dtype == np.float32

    def test_mixed_dtype_sets_rejected(self):
        with pytest.raises(ValidationError, match="dtype"):
            DataSummary([
                np.zeros((2, 3), dtype=np.float32),
                np.zeros((2, 3), dtype=np.float64),
            ])


# ------------------------------------------------------------------ federated
class TestFederatedDtype:
    def test_communication_bytes_itemsize(self):
        assert communication_cost_bytes(10, 8, 4, 2) == 10 * 8 * 8 * 4 * 2
        assert communication_cost_bytes(10, 8, 4, 2, itemsize=4) == 10 * 8 * 4 * 4 * 2

    def test_float32_halves_broadcast_bytes(self):
        X = _kr_data(n=240)
        shards = [(X[i::3], None) for i in range(3)]
        kw = dict(aggregator="sum", n_rounds=3, random_state=0)
        f64 = KhatriRaoFederatedKMeans((3, 4), **kw).fit(shards)
        f32 = KhatriRaoFederatedKMeans((3, 4), dtype="float32", **kw).fit(shards)
        assert f32.dtype_ == np.dtype(np.float32)
        assert all(t.dtype == np.float32 for t in f32.protocentroids_)
        assert (
            f32.history_.communication_bytes[-1] * 2
            == f64.history_.communication_bytes[-1]
        )
        # Same trajectory within the envelope on separated shards.
        assert f32.history_.inertia[-1] == pytest.approx(
            f64.history_.inertia[-1], rel=1e-4
        )
        np.testing.assert_array_equal(f32.predict(X[:20]), f64.predict(X[:20]))
