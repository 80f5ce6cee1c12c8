"""Tests for the deterministic row-block execution layer (PR 9 tentpole).

The contract under test: block boundaries are a pure function of
``(n_rows, block_rows)`` — never of the thread count — and reductions
merge in ascending block order, so ``n_threads=1`` and ``n_threads=8``
produce bit-identical labels, inertia and iteration counts.  The same
blocked seam streams a memory-mapped ``X`` through ``fit`` one block at
a time, bit-identical to the in-RAM fit.

The cost rules are tested too: a single-block map runs inline with no
executor, and every fit leaves the OpenBLAS thread count as it found it.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro import KhatriRaoKMeans, KMeans
from repro.core import MiniBatchKhatriRaoKMeans, grouped_row_sum
from repro.datasets import make_blobs
from repro.exceptions import ValidationError
from repro.runtime.parallel import (
    DEFAULT_BLOCK_ROWS,
    ParallelConfig,
    RowBlockPool,
    blas_threads,
    fold_blocks,
    open_row_pool,
    resolve_parallel,
    row_blocks,
)

# Small enough that the 500-row fixtures split into many blocks — the
# determinism grid must exercise real multi-block merges, not the
# single-block degenerate case.
SMALL_BLOCK = 64


def _cfg(n_threads):
    return ParallelConfig(n_threads, block_rows=SMALL_BLOCK)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    base = np.array(
        [[0.0, 0.0, 0.0], [0.0, 6.0, 0.0], [6.0, 0.0, 6.0], [6.0, 6.0, 6.0]]
    )
    return np.vstack([b + 0.3 * rng.normal(size=(125, 3)) for b in base])


class TestRowBlocks:
    def test_partition_covers_rows_in_order(self):
        blocks = row_blocks(10, 4)
        assert blocks == ((0, 4), (4, 8), (8, 10))

    def test_single_block_when_small(self):
        assert row_blocks(3, 100) == ((0, 3),)

    def test_empty_input(self):
        assert row_blocks(0, 4) == ()

    def test_independent_of_thread_count(self):
        # The whole contract: the partition is a function of (n, block_rows)
        # only.  Pools of every width must report the same blocks.
        for width in (1, 2, 8):
            with RowBlockPool(_cfg(width)) as pool:
                assert pool.blocks(500) == row_blocks(500, SMALL_BLOCK)

    def test_invalid_block_rows(self):
        with pytest.raises(ValidationError):
            row_blocks(10, 0)


class TestResolveParallel:
    def test_none_is_one_worker_per_available_core(self):
        config = resolve_parallel(None)
        assert config.n_threads == len(os.sched_getaffinity(0))
        assert config.block_rows == DEFAULT_BLOCK_ROWS

    def test_int_and_config_pass_through(self):
        assert resolve_parallel(4).n_threads == 4
        config = _cfg(2)
        assert resolve_parallel(config) is config

    def test_invalid_values_raise(self):
        with pytest.raises(ValidationError):
            resolve_parallel(0)
        with pytest.raises(ValidationError):
            resolve_parallel(True)  # bools are not thread counts
        with pytest.raises(ValidationError):
            resolve_parallel("4")


class TestRowBlockPool:
    def test_results_in_block_order(self):
        # Delay early blocks so completion order inverts block order; the
        # results must come back in block order regardless.
        import time

        def block(start, stop):
            time.sleep(0.02 if start == 0 else 0.0)
            return (start, stop)

        with RowBlockPool(_cfg(4)) as pool:
            assert pool.map(block, 10 * SMALL_BLOCK) == list(
                row_blocks(10 * SMALL_BLOCK, SMALL_BLOCK)
            )

    def test_lowest_failing_block_wins(self):
        # Blocks 3 and 7 both fail; block 7 fails instantly, block 3 only
        # after a delay.  The error surfaced must still be block 3's.
        import time

        def block(start, stop):
            index = start // SMALL_BLOCK
            if index == 3:
                time.sleep(0.02)
                raise RuntimeError("block 3")
            if index == 7:
                raise RuntimeError("block 7")
            return index

        with RowBlockPool(_cfg(8)) as pool:
            with pytest.raises(RuntimeError, match="block 3"):
                pool.map(block, 10 * SMALL_BLOCK)
            # The pool survives a failed map and runs the next one.
            assert pool.map(lambda s, e: e - s, 2 * SMALL_BLOCK) == [
                SMALL_BLOCK, SMALL_BLOCK
            ]

    def test_runs_on_pool_threads(self):
        names = set()

        def block(start, stop):
            names.add(threading.current_thread().name)
            return None

        with RowBlockPool(_cfg(2)) as pool:
            pool.map(block, 4 * SMALL_BLOCK)
        assert names and all(n.startswith("repro-rowblock") for n in names)

    def test_fold_blocks_is_block_ordered(self):
        parts = [np.array([1.0]), np.array([2.0]), np.array([4.0])]
        assert fold_blocks(parts)[0] == 7.0

    def test_open_row_pool_yields_a_pool(self):
        with open_row_pool(resolve_parallel(None)) as pool:
            assert isinstance(pool, RowBlockPool)

    def test_single_block_runs_inline(self):
        caller = threading.current_thread().name
        with RowBlockPool(_cfg(4)) as pool:
            names = pool.map(
                lambda s, e: threading.current_thread().name, SMALL_BLOCK
            )
            assert names == [caller]
            assert pool._executor is None

    def test_zero_rows_is_one_empty_inline_block(self):
        with RowBlockPool(_cfg(4)) as pool:
            assert pool.map(lambda s, e: (s, e), 0) == [(0, 0)]
            assert pool._executor is None

    def test_closed_pool_runs_inline(self):
        pool = RowBlockPool(_cfg(2))
        pool.map(lambda s, e: None, 4 * SMALL_BLOCK)
        pool.close()
        caller = threading.current_thread().name
        names = pool.map(
            lambda s, e: threading.current_thread().name, 4 * SMALL_BLOCK
        )
        assert names == [caller] * 4
        assert pool._executor is None

    def test_kernels_without_pool_match_every_width(self):
        # No pool: the same fixed blocks run on the calling thread, so a
        # direct kernel call agrees bit for bit with an estimator's pool.
        rng = np.random.default_rng(3)
        n = 2 * DEFAULT_BLOCK_ROWS + 17
        X = rng.normal(size=(n, 5))
        labels = rng.integers(7, size=n)
        bare = grouped_row_sum(labels, X, 7)
        for width in (1, 3):
            with RowBlockPool(ParallelConfig(width)) as pool:
                np.testing.assert_array_equal(
                    grouped_row_sum(labels, X, 7, pool), bare
                )

def _fit_state(model):
    return model.labels_, model.inertia_, model.n_iter_


class TestThreadCountDeterminism:
    """The acceptance grid: labels, inertia and iteration counts are
    bit-identical across ``n_threads ∈ {1, 2, 8}`` for every assignment
    strategy, pruning mode and working dtype."""

    @pytest.mark.parametrize("assignment", ["auto", "materialized"])
    @pytest.mark.parametrize("pruning", ["bounds", "none"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_kr_kmeans_grid(self, data, assignment, pruning, dtype):
        fits = [
            KhatriRaoKMeans(
                (2, 2), n_init=2, random_state=0, assignment=assignment,
                pruning=pruning, dtype=dtype, n_threads=_cfg(t),
            ).fit(data)
            for t in (1, 2, 8)
        ]
        labels, inertia, n_iter = _fit_state(fits[0])
        for other in fits[1:]:
            np.testing.assert_array_equal(other.labels_, labels)
            assert other.inertia_ == inertia
            assert other.n_iter_ == n_iter

    def test_kr_kmeans_memory_mode(self, data):
        fits = [
            KhatriRaoKMeans(
                (2, 2), n_init=2, random_state=0, mode="memory",
                chunk_size=3, n_threads=_cfg(t),
            ).fit(data)
            for t in (1, 2, 8)
        ]
        assert _fit_state(fits[0])[1:] == _fit_state(fits[1])[1:] == _fit_state(fits[2])[1:]
        np.testing.assert_array_equal(fits[0].labels_, fits[2].labels_)

    def test_kr_kmeans_product_aggregator(self, data):
        X = np.abs(data) + 0.5
        fits = [
            KhatriRaoKMeans(
                (2, 2), aggregator="product", n_init=2, random_state=0,
                n_threads=_cfg(t),
            ).fit(X)
            for t in (1, 8)
        ]
        np.testing.assert_array_equal(fits[0].labels_, fits[1].labels_)
        assert fits[0].inertia_ == fits[1].inertia_

    @pytest.mark.parametrize("pruning", ["bounds", "none"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_kmeans_grid(self, data, pruning, dtype):
        fits = [
            KMeans(
                4, n_init=2, random_state=0, pruning=pruning, dtype=dtype,
                n_threads=_cfg(t),
            ).fit(data)
            for t in (1, 2, 8)
        ]
        labels, inertia, n_iter = _fit_state(fits[0])
        for other in fits[1:]:
            np.testing.assert_array_equal(other.labels_, labels)
            assert other.inertia_ == inertia
            assert other.n_iter_ == n_iter

    @pytest.mark.parametrize("pruning", ["bounds", "none"])
    def test_minibatch_grid(self, data, pruning):
        fits = [
            MiniBatchKhatriRaoKMeans(
                (2, 2), batch_size=96, max_steps=25, random_state=0,
                pruning=pruning, n_threads=_cfg(t),
            ).fit(data)
            for t in (1, 2, 8)
        ]
        for other in fits[1:]:
            np.testing.assert_array_equal(other.labels_, fits[0].labels_)
            assert other.inertia_ == fits[0].inertia_
            assert other.n_steps_ == fits[0].n_steps_

    def test_weighted_fit_grid(self, data):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 2.0, size=data.shape[0])
        for cls, kwargs in (
            (KMeans, {"n_clusters": 4}),
            (KhatriRaoKMeans, {"cardinalities": (2, 2)}),
        ):
            first = kwargs.pop("n_clusters", None) or kwargs.pop("cardinalities")
            fits = [
                cls(first, n_init=2, random_state=0, n_threads=_cfg(t)).fit(
                    data, sample_weight=w
                )
                for t in (1, 8)
            ]
            np.testing.assert_array_equal(fits[0].labels_, fits[1].labels_)
            assert fits[0].inertia_ == fits[1].inertia_

    @pytest.mark.parametrize("cls", [KhatriRaoKMeans, KMeans])
    def test_default_width_on_multi_block_data(self, cls):
        # Three blocks at the default block size: n_threads=1, the
        # default width and n_threads=8 all run the same partition.
        X, _ = make_blobs(2 * DEFAULT_BLOCK_ROWS + 500, n_features=4,
                          n_clusters=4, random_state=2)
        first = (2, 2) if cls is KhatriRaoKMeans else 4
        fits = [
            cls(first, n_init=1, max_iter=20, random_state=0,
                n_threads=t).fit(X)
            for t in (1, None, 8)
        ]
        labels, inertia, n_iter = _fit_state(fits[0])
        for other in fits[1:]:
            np.testing.assert_array_equal(other.labels_, labels)
            assert other.inertia_ == inertia
            assert other.n_iter_ == n_iter

    def test_n_jobs_composes_with_n_threads(self, data):
        # n_jobs runs restarts on spawned per-restart streams (its own
        # worker-count invariance), so the baseline is n_jobs=1 — the grid
        # here varies both pool widths at once.
        a = KhatriRaoKMeans(
            (2, 2), n_init=4, random_state=0, n_jobs=2, n_threads=_cfg(2)
        ).fit(data)
        b = KhatriRaoKMeans(
            (2, 2), n_init=4, random_state=0, n_jobs=1, n_threads=_cfg(8)
        ).fit(data)
        np.testing.assert_array_equal(a.labels_, b.labels_)
        assert a.inertia_ == b.inertia_

    def test_predict_matches_fit_labels(self, data):
        model = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, n_threads=_cfg(8)
        ).fit(data)
        np.testing.assert_array_equal(model.predict(data), model.labels_)


class TestMemmapStreaming:
    """A memory-mapped ``X`` streams through ``fit`` block by block and
    produces the bit-identical model of the in-RAM fit."""

    def _memmap(self, tmp_path, data, dtype=np.float64):
        path = tmp_path / "X.dat"
        arr = np.asarray(data, dtype=dtype)
        mm = np.memmap(path, dtype=dtype, mode="w+", shape=arr.shape)
        mm[:] = arr
        mm.flush()
        return np.memmap(path, dtype=dtype, mode="r", shape=arr.shape)

    def test_kr_fit_bit_identical_to_ram(self, tmp_path, data):
        mm = self._memmap(tmp_path, data)
        ram = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, n_threads=_cfg(2)
        ).fit(data)
        mapped = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, n_threads=_cfg(2)
        ).fit(mm)
        np.testing.assert_array_equal(mapped.labels_, ram.labels_)
        assert mapped.inertia_ == ram.inertia_
        assert mapped.n_iter_ == ram.n_iter_
        for got, want in zip(mapped.protocentroids_, ram.protocentroids_):
            np.testing.assert_array_equal(got, want)

    def test_kmeans_weighted_memmap(self, tmp_path, data):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.0, size=data.shape[0])
        mm = self._memmap(tmp_path, data)
        ram = KMeans(4, n_init=2, random_state=0, n_threads=_cfg(2)).fit(
            data, sample_weight=w
        )
        mapped = KMeans(4, n_init=2, random_state=0, n_threads=_cfg(2)).fit(
            mm, sample_weight=w
        )
        np.testing.assert_array_equal(mapped.labels_, ram.labels_)
        assert mapped.inertia_ == ram.inertia_

    def test_minibatch_memmap(self, tmp_path, data):
        mm = self._memmap(tmp_path, data)
        ram = MiniBatchKhatriRaoKMeans(
            (2, 2), batch_size=96, max_steps=20, random_state=0,
            n_threads=_cfg(2),
        ).fit(data)
        mapped = MiniBatchKhatriRaoKMeans(
            (2, 2), batch_size=96, max_steps=20, random_state=0,
            n_threads=_cfg(2),
        ).fit(mm)
        np.testing.assert_array_equal(mapped.labels_, ram.labels_)
        assert mapped.inertia_ == ram.inertia_

    def test_float32_memmap(self, tmp_path, data):
        mm = self._memmap(tmp_path, data, dtype=np.float32)
        ram = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, dtype="float32",
            n_threads=_cfg(2),
        ).fit(np.asarray(data, dtype=np.float32))
        mapped = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, dtype="float32",
            n_threads=_cfg(2),
        ).fit(mm)
        np.testing.assert_array_equal(mapped.labels_, ram.labels_)
        assert mapped.inertia_ == ram.inertia_

    def test_memmap_nan_rejected(self, tmp_path, data):
        corrupted = np.array(data, copy=True)
        corrupted[37, 1] = np.nan
        mm = self._memmap(tmp_path, corrupted)
        with pytest.raises(ValidationError, match="NaN or infinite"):
            KhatriRaoKMeans((2, 2), n_threads=_cfg(2)).fit(mm)

    def test_memmap_dtype_mismatch_rejected(self, tmp_path, data):
        # Casting would materialize the map in RAM, defeating the point —
        # a typed error tells the caller to store the working dtype.
        mm = self._memmap(tmp_path, data, dtype=np.float32)
        with pytest.raises(ValidationError, match="memory-mapped"):
            KhatriRaoKMeans((2, 2), dtype="float64", n_threads=_cfg(2)).fit(mm)


#: Start count of the BLAS-budget tests: above every budget, so a
#: missed restore cannot go unseen.
START_BLAS_THREADS = len(os.sched_getaffinity(0)) + 1


@pytest.fixture
def before():
    """Set OpenBLAS to :data:`START_BLAS_THREADS` for one test, then put
    back the count the suite had; skips without a reachable OpenBLAS."""
    from repro.runtime import parallel

    handle = parallel._openblas()
    if handle is None:
        pytest.skip("numpy's BLAS is not a reachable OpenBLAS")
    saved = handle[0]()
    handle[1](START_BLAS_THREADS)
    yield blas_threads()
    handle[1](saved)


def _budget(before, width):
    return min(before, max(1, len(os.sched_getaffinity(0)) // width))


class TestBlasBudget:
    """While a pool has live workers OpenBLAS runs ``cores // width``
    threads; every fit leaves the process's count as it found it."""

    def test_budget_while_workers_live_then_restored(self, before):
        seen = []
        with RowBlockPool(_cfg(2)) as pool:
            assert blas_threads() == before  # no workers yet
            pool.map(lambda s, e: seen.append(blas_threads()), 4 * SMALL_BLOCK)
            assert blas_threads() == _budget(before, 2)  # between maps
        assert set(seen) == {_budget(before, 2)}
        assert blas_threads() == before

    def test_restored_when_a_block_raises(self, before):

        def block(start, stop):
            if start == SMALL_BLOCK:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            with RowBlockPool(_cfg(2)) as pool:
                pool.map(block, 4 * SMALL_BLOCK)
        assert blas_threads() == before

    def test_restored_on_interrupt_salvage(self, data, before, monkeypatch):
        # A KeyboardInterrupt raised inside a block mid-fit, while the
        # pool holds the budget, takes the estimator's salvage path.
        original = RowBlockPool.map
        calls, seen = [], []

        def interrupting_map(pool, block_fn, n_rows):
            calls.append(n_rows)

            def block(start, stop):
                seen.append(blas_threads())
                if len(calls) == 10 and start > 0:
                    raise KeyboardInterrupt
                return block_fn(start, stop)

            return original(pool, block, n_rows)

        monkeypatch.setattr(RowBlockPool, "map", interrupting_map)
        model = KhatriRaoKMeans(
            (2, 2), n_init=3, random_state=0, n_threads=_cfg(2),
        ).fit(data)
        assert len(calls) > 10
        assert not model.converged_  # the salvage path ran
        assert _budget(before, 2) in seen
        assert blas_threads() == before

    def test_concurrent_fits_both_restore(self, data, before):
        barrier = threading.Barrier(2, timeout=30)
        errors = []

        def meet(restart, iteration):
            if iteration == 1:
                barrier.wait()  # both fits are mid-run here

        def fit(width):
            try:
                KhatriRaoKMeans(
                    (2, 2), n_init=1, random_state=0, n_threads=_cfg(width),
                    callback=meet,
                ).fit(data)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=fit, args=(w,)) for w in (2, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        assert blas_threads() == before

    def test_many_overlapping_pools_restore(self, before):
        # More pools than cores opening and closing under a short switch
        # interval: a lost update to the shared depth count would leave
        # the budget in force (or restore it while a pool is still live).
        from repro.runtime import parallel

        errors = []

        def churn(width):
            try:
                for _ in range(20):
                    with RowBlockPool(_cfg(width)) as pool:
                        seen = pool.map(
                            lambda s, e: blas_threads(), 3 * SMALL_BLOCK
                        )
                    assert all(t < before for t in seen)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=churn, args=(1 + i % 3,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert parallel._budget_depth == 0
        assert blas_threads() == before

    def test_single_block_fit_starts_no_executor(self, data, monkeypatch,
                                                 before):
        from repro.runtime import parallel

        def no_executor(*args, **kwargs):
            raise AssertionError("a single-block fit started an executor")

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_executor)
        seen = []
        assert data.shape[0] <= DEFAULT_BLOCK_ROWS
        for model in (
            KhatriRaoKMeans((2, 2), n_init=2, random_state=0),
            KMeans(4, n_init=2, random_state=0),
            MiniBatchKhatriRaoKMeans((2, 2), batch_size=96, max_steps=5,
                                     random_state=0),
        ):
            model.callback = lambda restart, step: seen.append(blas_threads())
            model.fit(data)
            model.predict(data)
        assert seen and set(seen) == {before}
        assert blas_threads() == before
