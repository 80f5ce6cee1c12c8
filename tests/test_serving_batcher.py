"""Micro-batcher tests: coalescing semantics and the edge cases.

The edge cases the serving layer leans on: an empty window (no traffic)
idles cleanly, a single-request window still serves, oversize backlogs
split across kernel calls, mixed-dtype requests against one model are
cast per-request, and a request failing validation inside a coalesced
batch fails alone while its batchmates succeed.
"""

import threading
import time

import numpy as np
import pytest

from repro import KhatriRaoKMeans, summarize
from repro.datasets import make_blobs
from repro.exceptions import (
    BatcherStoppedError,
    ModelNotFoundError,
    ValidationError,
)
from repro.serving import MicroBatcher, ModelRegistry


@pytest.fixture(scope="module")
def data_and_summary():
    X, _ = make_blobs(300, n_clusters=9, random_state=0)
    model = KhatriRaoKMeans((3, 3), n_init=2, random_state=0).fit(X)
    return X, summarize(model)


@pytest.fixture
def registry(data_and_summary):
    _, summary = data_and_summary
    registry = ModelRegistry()
    registry.register("m", summary)
    return registry


@pytest.fixture
def batcher(registry):
    """Synchronous batcher: submit then drain, no worker thread."""
    return MicroBatcher(registry, start=False)


class TestCoalescing:
    def test_results_match_unbatched_path(self, data_and_summary, registry, batcher):
        X, _ = data_and_summary
        served = registry.get("m")
        chunks = [X[i:i + 7] for i in range(0, 70, 7)]
        tickets = [batcher.submit("assign", "m", c) for c in chunks]
        assert batcher.drain() == len(chunks)
        # One kernel call for all ten requests ...
        assert batcher.metrics.counter("batches_total") == 1
        assert batcher.metrics.counter("batch_size_max") == len(chunks)
        # ... and each request's slice equals its own unbatched call.
        for ticket, chunk in zip(tickets, chunks):
            np.testing.assert_array_equal(
                ticket.result()["labels"], served.assign(chunk)
            )

    def test_inertia_per_request(self, data_and_summary, registry, batcher):
        X, _ = data_and_summary
        served = registry.get("m")
        t1 = batcher.submit("inertia", "m", X[:10])
        t2 = batcher.submit("inertia", "m", X[10:50])
        batcher.drain()
        assert t1.result()["inertia"] == pytest.approx(served.inertia(X[:10]))
        assert t2.result()["inertia"] == pytest.approx(served.inertia(X[10:50]))
        assert t2.result()["rows"] == 40

    def test_single_request_window(self, data_and_summary, batcher):
        """A lone request in its window is a batch of one, not a stall."""
        X, _ = data_and_summary
        ticket = batcher.submit("assign", "m", X[:3])
        assert batcher.drain() == 1
        assert ticket.result()["labels"].shape == (3,)
        assert batcher.metrics.counter("batch_size_max") == 1

    def test_empty_window_is_a_noop(self, batcher):
        """Draining with nothing queued serves nothing and breaks nothing."""
        assert batcher.drain() == 0
        assert batcher.metrics.counter("batches_total") == 0

    def test_ops_do_not_coalesce_with_each_other(self, data_and_summary, batcher):
        X, _ = data_and_summary
        batcher.submit("assign", "m", X[:5])
        batcher.submit("inertia", "m", X[:5])
        assert batcher.drain() == 2
        assert batcher.metrics.counter("batches_total") == 2


class TestSplitting:
    def test_oversize_backlog_splits(self, data_and_summary, registry):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, max_batch_requests=4, start=False)
        tickets = [batcher.submit("assign", "m", X[i:i + 2]) for i in range(10)]
        assert batcher.drain() == 10
        assert batcher.metrics.counter("batches_total") == 3  # 4 + 4 + 2
        assert batcher.metrics.counter("batch_size_max") == 4
        for t in tickets:
            assert t.result()["labels"].shape == (2,)

    def test_row_cap_splits(self, data_and_summary, registry):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, max_batch_rows=10, start=False)
        for i in range(4):
            batcher.submit("assign", "m", X[i * 4:(i + 1) * 4])
        batcher.drain()
        # 4-row requests against a 10-row cap: 8 + 8 rows → two calls.
        assert batcher.metrics.counter("batches_total") == 2

    def test_single_oversize_request_runs_alone(self, data_and_summary, registry):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, max_batch_rows=8, start=False)
        big = batcher.submit("assign", "m", X[:50])     # larger than the cap
        small = batcher.submit("assign", "m", X[50:52])
        assert batcher.drain() == 2
        assert big.result()["labels"].shape == (50,)
        assert small.result()["labels"].shape == (2,)
        assert batcher.metrics.counter("batches_total") == 2


class TestMixedDtypeAndValidation:
    def test_mixed_dtype_requests_coalesce(self, data_and_summary, registry, batcher):
        """float64, float32 and integer payloads in one batch: each is cast
        to the model's serving dtype before concatenation."""
        X, _ = data_and_summary
        served = registry.get("m")
        t64 = batcher.submit("assign", "m", X[:4])
        t32 = batcher.submit("assign", "m", X[4:8].astype(np.float32))
        tint = batcher.submit("assign", "m", np.zeros((2, X.shape[1]), dtype=int))
        assert batcher.drain() == 3
        assert batcher.metrics.counter("batches_total") == 1
        np.testing.assert_array_equal(t64.result()["labels"], served.assign(X[:4]))
        np.testing.assert_array_equal(
            t32.result()["labels"], served.assign(X[4:8].astype(np.float32))
        )
        assert tint.result()["labels"].shape == (2,)

    def test_validation_failure_inside_batch_is_isolated(
        self, data_and_summary, batcher
    ):
        X, _ = data_and_summary
        good_before = batcher.submit("assign", "m", X[:4])
        bad_features = batcher.submit("assign", "m", np.ones((3, 5)))
        bad_nan = batcher.submit("assign", "m", np.full((2, X.shape[1]), np.nan))
        good_after = batcher.submit("assign", "m", X[4:8])
        assert batcher.drain() == 4
        assert good_before.result()["labels"].shape == (4,)
        assert good_after.result()["labels"].shape == (4,)
        with pytest.raises(ValidationError, match="features"):
            bad_features.result()
        with pytest.raises(ValidationError):
            bad_nan.result()
        # The survivors still shared one kernel call.
        assert batcher.metrics.counter("batches_total") == 1
        assert batcher.metrics.counter("batched_requests_total") == 2

    def test_bad_weight_shape_is_isolated(self, data_and_summary, batcher):
        X, _ = data_and_summary
        bad = batcher.submit("refine", "m", X[:4], sample_weight=[1.0, 2.0])
        good = batcher.submit("refine", "m", X[4:8])
        assert batcher.drain() == 2
        with pytest.raises(ValidationError, match="sample_weight"):
            bad.result()
        assert good.result()["refined"] is True

    def test_unknown_op_and_model_fail_at_submit(self, batcher):
        with pytest.raises(ValidationError, match="op must be one of"):
            batcher.submit("predict", "m", np.ones((1, 2)))
        with pytest.raises(ModelNotFoundError):
            batcher.submit("assign", "ghost", np.ones((1, 2)))


class TestRefine:
    def test_refine_batches_by_n_steps(self, data_and_summary, registry, batcher):
        X, _ = data_and_summary
        batcher.submit("refine", "m", X[:20], n_steps=1)
        batcher.submit("refine", "m", X[20:40], n_steps=1)
        batcher.submit("refine", "m", X[40:60], n_steps=2)
        assert batcher.drain() == 3
        # n_steps=1 pair coalesces; the n_steps=2 request runs alone.
        assert batcher.metrics.counter("batches_total") == 2

    def test_refine_mutates_registry_copy_and_reports_fit(
        self, data_and_summary, registry, batcher
    ):
        X, _ = data_and_summary
        before = [theta.copy() for theta in registry.get("m").protocentroids]
        ticket = batcher.submit("refine", "m", X, n_steps=2)
        batcher.drain()
        result = ticket.result()
        assert result["refined"] is True and result["rows"] == X.shape[0]
        assert result["inertia"] == pytest.approx(
            registry.get("m").inertia(X), rel=1e-5
        )
        after = registry.get("m").protocentroids
        assert any(
            not np.array_equal(b, a) for b, a in zip(before, after)
        ), "refine should move the served protocentroids"


class TestThreadedWorker:
    def test_window_coalesces_concurrent_submitters(self, data_and_summary, registry):
        X, _ = data_and_summary
        # A generous window so even a heavily loaded CI machine gets all
        # eight submitters in before the batch closes.
        batcher = MicroBatcher(registry, window_s=0.25)
        try:
            served = registry.get("m")
            tickets = []
            lock = threading.Lock()

            def client(i):
                t = batcher.submit("assign", "m", X[i * 5:(i + 1) * 5])
                with lock:
                    tickets.append((i, t))

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i, ticket in tickets:
                np.testing.assert_array_equal(
                    ticket.result(timeout=5.0)["labels"],
                    served.assign(X[i * 5:(i + 1) * 5]),
                )
            # All eight submitters beat the 50 ms window: one kernel call.
            assert batcher.metrics.counter("batches_total") == 1
            assert batcher.metrics.counter("batch_size_max") == 8
        finally:
            batcher.stop()

    def test_default_window_coalesces_behind_a_running_batch(
        self, data_and_summary, registry
    ):
        """The default is work-conserving (window 0), yet it still
        batches: whatever queues while a kernel call runs shares the next
        one."""
        X, _ = data_and_summary
        batcher = MicroBatcher(registry)
        assert batcher.window_s == 0.0
        entered, release = threading.Event(), threading.Event()

        def hold_first_batch(key, batch):
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0)

        batcher.fault_hook = hold_first_batch
        try:
            first = batcher.submit("assign", "m", X[:5])
            assert entered.wait(10.0)
            chunks = [X[i * 5:(i + 1) * 5] for i in range(1, 9)]
            tickets = [batcher.submit("assign", "m", c) for c in chunks]
            release.set()
            served = registry.get("m")
            assert first.result(timeout=10.0)["labels"].shape == (5,)
            for ticket, chunk in zip(tickets, chunks):
                np.testing.assert_array_equal(
                    ticket.result(timeout=10.0)["labels"],
                    served.assign(chunk),
                )
            assert batcher.metrics.counter("batches_total") == 2
            assert batcher.metrics.counter("batch_size_max") == 8
        finally:
            batcher.stop()

    def test_zero_window_still_serves(self, data_and_summary, registry):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, window_s=0.0)
        try:
            ticket = batcher.submit("assign", "m", X[:4])
            assert ticket.result(timeout=5.0)["labels"].shape == (4,)
        finally:
            batcher.stop()

    def test_stop_flushes_backlog(self, data_and_summary, registry):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, window_s=5.0)  # window far away
        ticket = batcher.submit("assign", "m", X[:4])
        batcher.stop(flush=True)
        assert ticket.result(timeout=5.0)["labels"].shape == (4,)

    def test_stop_without_flush_fails_backlog(self, data_and_summary, registry):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, window_s=5.0)
        ticket = batcher.submit("assign", "m", X[:4])
        batcher.stop(flush=False)
        with pytest.raises(BatcherStoppedError):
            ticket.result(timeout=1.0)
        with pytest.raises(BatcherStoppedError):
            batcher.submit("assign", "m", X[:4])

    def test_latency_metrics_recorded(self, data_and_summary, registry):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, window_s=0.002)
        try:
            batcher.submit("assign", "m", X[:4]).result(timeout=5.0)
        finally:
            batcher.stop()
        snapshot = batcher.metrics.latency("assign")
        assert snapshot["count"] == 1
        assert snapshot["p50"] >= 0.0
        assert batcher.metrics.latency("batch_exec")["count"] == 1


def test_knob_validation(registry):
    with pytest.raises(ValidationError):
        MicroBatcher(registry, window_s=-1.0, start=False)
    with pytest.raises(ValidationError):
        MicroBatcher(registry, max_batch_requests=0, start=False)
    with pytest.raises(ValidationError):
        MicroBatcher(registry, start=False).submit(
            "refine", "m", np.ones((1, 2)), n_steps=0
        )


@pytest.mark.parametrize("n_steps", [0, -1, 1.5, True])
def test_refine_n_steps_validation(registry, n_steps):
    batcher = MicroBatcher(registry, start=False)
    with pytest.raises(ValidationError, match="n_steps"):
        batcher.submit("refine", "m", np.ones((1, 2)), n_steps=n_steps)
    assert batcher.pending_rows == 0
