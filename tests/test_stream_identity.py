"""The point-identity ``partial_fit`` protocol and its contracts.

Acceptance grid: an indexed (bounds-pruned) online stream must be
**bit-identical** — labels, inertia, protocentroid bytes, fraction log —
to the same stream run anonymously (fully re-scored), across the
dtype × aggregator grid.  Plus: the identity-violation degradation path,
index validation, the ``reassignment_fractions_`` contract, and
checkpoint/resume of a live stream (model-level and monitored).
"""

import numpy as np
import pytest

from repro import MiniBatchKhatriRaoKMeans
from repro.datasets import make_blobs
from repro.exceptions import (
    CheckpointError,
    MonitoringError,
    NotFittedError,
    ValidationError,
)
from repro.monitoring import DriftEngine, MonitoredStream


def stream_batches(n_batches=12, batch_size=60, pool=300, seed=5,
                   dtype=np.float64):
    pool_X, _ = make_blobs(pool, n_clusters=9, random_state=3)
    pool_X = pool_X.astype(dtype)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        idx = rng.choice(pool, size=batch_size, replace=False)
        out.append((pool_X[idx].copy(), idx.astype(np.int64)))
    return out


def run_stream(batches, *, use_index, dtype="float64", aggregator="sum",
               seed=0):
    model = MiniBatchKhatriRaoKMeans(
        (3, 3), aggregator=aggregator, dtype=dtype, random_state=seed
    )
    trace = []
    for batch, idx in batches:
        model.partial_fit(batch, index=idx if use_index else None)
        stats = model.last_batch_stats_
        trace.append((stats.labels.tobytes(), stats.inertia, stats.shift))
    return model, trace


class TestIndexedStreamBitIdentity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("aggregator", ["sum", "product"])
    def test_indexed_equals_anonymous(self, dtype, aggregator):
        np_dtype = np.dtype(dtype).type
        batches = stream_batches(dtype=np_dtype)
        anon, anon_trace = run_stream(
            batches, use_index=False, dtype=dtype, aggregator=aggregator
        )
        indexed, indexed_trace = run_stream(
            batches, use_index=True, dtype=dtype, aggregator=aggregator
        )
        assert anon_trace == indexed_trace  # labels, inertia, shift, per step
        for theta_a, theta_i in zip(
            anon.protocentroids_, indexed.protocentroids_
        ):
            assert theta_a.dtype == np.dtype(dtype)
            assert theta_a.tobytes() == theta_i.tobytes()

    def test_indexed_stream_actually_prunes(self):
        batches = stream_batches()
        model, _ = run_stream(batches, use_index=True)
        fractions = model.reassignment_fractions_
        assert len(fractions) == len(batches)
        assert fractions[0] == 1.0          # nothing known yet
        assert min(fractions) < 1.0         # bounds certified someone
        assert model._stream_state is not None
        assert model._stream_state.size > 0

    def test_product_aggregator_falls_back_transparently(self):
        batches = stream_batches()
        model, _ = run_stream(batches, use_index=True, aggregator="product")
        assert not model.uses_pruning
        assert model.reassignment_fractions_ is None
        assert model._stream_state is None

    def test_mixed_identified_and_anonymous_batches_stay_identical(self):
        batches = stream_batches()
        anon, anon_trace = run_stream(batches, use_index=False)
        model = MiniBatchKhatriRaoKMeans((3, 3), random_state=0)
        trace = []
        for i, (batch, idx) in enumerate(batches):
            model.partial_fit(batch, index=idx if i % 3 else None)
            stats = model.last_batch_stats_
            trace.append((stats.labels.tobytes(), stats.inertia, stats.shift))
        assert trace == anon_trace
        # Anonymous steps in a pruned stream are logged as fraction 1.0.
        assert all(model.reassignment_fractions_[i] == 1.0
                   for i in range(0, len(batches), 3))


class TestIdentityViolations:
    def test_changed_point_under_same_id_is_rescored(self):
        batches = stream_batches()
        model, _ = run_stream(batches[:6], use_index=True)
        state = model._stream_state
        batch, idx = batches[6]
        known_before = state.known.copy()
        # Violate the contract: same ids, shifted points.
        model.partial_fit(batch + 100.0, index=idx)
        # Every violated id was invalidated and exactly re-scored.
        assert model.reassignment_fractions_[-1] == 1.0
        assert known_before[idx].any()  # the violation actually hit cache

    @pytest.mark.parametrize("bad_index, message", [
        (np.arange(6).reshape(2, 3), "1-D"),
        (np.arange(3), "per batch row"),
        (np.array([0.5, 1.5, 2.5, 3.5, 4.5]), "integer"),
        (np.array([0, 1, 2, 3, -1]), "non-negative"),
        (np.array([0, 1, 2, 2, 3]), "repeat"),
    ])
    def test_index_validation(self, bad_index, message):
        model = MiniBatchKhatriRaoKMeans((2, 2), random_state=0)
        batch = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValidationError, match=message):
            model.partial_fit(batch, index=bad_index)

    def test_uint64_ids_past_int64_are_rejected_as_too_large(self):
        # 2**63 wraps to a negative int64; the error must name the range.
        model = MiniBatchKhatriRaoKMeans((2, 2), random_state=0)
        batch = np.random.default_rng(0).normal(size=(2, 2))
        with pytest.raises(ValidationError, match="fit in int64"):
            model.partial_fit(batch, index=np.array([2 ** 63, 1], dtype=np.uint64))

    def test_uint64_ids_in_range_stream_like_int64(self):
        batches = stream_batches(n_batches=4)
        as_uint = [(batch, idx.astype(np.uint64)) for batch, idx in batches]
        _, want = run_stream(batches, use_index=True)
        _, got = run_stream(as_uint, use_index=True)
        assert got == want


class TestFractionContract:
    """``reassignment_fractions_`` is None iff pruning is off; otherwise
    exactly one entry per completed step — the PR's normalized contract."""

    def test_none_iff_pruning_disabled(self):
        batches = stream_batches(n_batches=4)
        for aggregator, pruning, expect_none in (
            ("sum", "auto", False),
            ("sum", "none", True),
            ("product", "auto", True),
        ):
            model = MiniBatchKhatriRaoKMeans(
                (3, 3), aggregator=aggregator, pruning=pruning, random_state=0
            )
            for batch, idx in batches:
                model.partial_fit(batch, index=idx)
            if expect_none:
                assert model.reassignment_fractions_ is None
            else:
                assert len(model.reassignment_fractions_) == model.n_steps_

    def test_fit_then_stream_keeps_one_entry_per_step(self, ):
        X, _ = make_blobs(200, n_clusters=9, random_state=0)
        model = MiniBatchKhatriRaoKMeans(
            (3, 3), batch_size=50, max_steps=5, reassignment_tol=0.0,
            random_state=0,
        ).fit(X)
        assert len(model.reassignment_fractions_) == model.n_steps_
        for batch, idx in stream_batches(n_batches=3):
            model.partial_fit(batch, index=idx)
        assert len(model.reassignment_fractions_) == model.n_steps_

    def test_unpruned_estimator_stays_none_through_fit(self):
        X, _ = make_blobs(200, n_clusters=9, random_state=0)
        model = MiniBatchKhatriRaoKMeans(
            (3, 3), pruning="none", batch_size=50, max_steps=5,
            random_state=0,
        ).fit(X)
        assert model.reassignment_fractions_ is None


class TestStreamCheckpointResume:
    def test_interrupted_stream_is_bit_identical(self, tmp_path):
        batches = stream_batches()
        straight, straight_trace = run_stream(batches, use_index=True)

        model = MiniBatchKhatriRaoKMeans((3, 3), random_state=0)
        trace = []

        def note():
            stats = model.last_batch_stats_
            trace.append((stats.labels.tobytes(), stats.inertia, stats.shift))

        for batch, idx in batches[:7]:
            model.partial_fit(batch, index=idx)
            note()
        path = model.save_stream(tmp_path / "stream.npz")

        model = MiniBatchKhatriRaoKMeans((3, 3), random_state=0)
        model.load_stream(path)
        for batch, idx in batches[7:]:
            model.partial_fit(batch, index=idx)
            note()

        assert trace == straight_trace
        for theta_a, theta_b in zip(
            straight.protocentroids_, model.protocentroids_
        ):
            assert theta_a.tobytes() == theta_b.tobytes()
        assert (straight.reassignment_fractions_
                == model.reassignment_fractions_)
        # Bounds decisions, not just outputs: identical cached state.
        for key, value in straight._stream_state.state_arrays().items():
            assert value.tobytes() == \
                model._stream_state.state_arrays()[key].tobytes(), key
        assert straight._stream_state.cum_max == model._stream_state.cum_max

    def test_param_mismatch_is_typed(self, tmp_path):
        batches = stream_batches(n_batches=2)
        model, _ = run_stream(batches, use_index=True)
        path = model.save_stream(tmp_path / "stream.npz")
        other = MiniBatchKhatriRaoKMeans((3, 3), batch_size=999,
                                         random_state=0)
        with pytest.raises(CheckpointError, match="params"):
            other.load_stream(path)

    def test_unfitted_save_is_typed(self, tmp_path):
        with pytest.raises(NotFittedError):
            MiniBatchKhatriRaoKMeans((3, 3)).save_stream(tmp_path / "x.npz")

    def test_monitored_stream_resume_is_bit_identical(self, tmp_path):
        batches = stream_batches(n_batches=14)

        def build():
            return MonitoredStream(
                MiniBatchKhatriRaoKMeans((3, 3), random_state=0),
                engine=DriftEngine(warmup_steps=3,
                                   reassignment_threshold=0.75),
                policy={"name": "trigger_refine", "min_severity": "warning",
                        "cooldown": 4},
            )

        straight = build()
        for batch, idx in batches:
            straight.process(batch, index=idx)

        stream = build()
        for batch, idx in batches[:8]:
            stream.process(batch, index=idx)
        path = stream.save(tmp_path / "monitored.npz")

        resumed = build().load(path)
        for batch, idx in batches[8:]:
            stream.process(batch, index=idx)
            resumed.process(batch, index=idx)

        assert stream.timeline() == straight.timeline()
        assert resumed.timeline() == straight.timeline()
        assert resumed.engine.state_dict() == straight.engine.state_dict()
        assert resumed.policy.state_dict() == straight.policy.state_dict()
        for theta_a, theta_b in zip(
            straight.model.protocentroids_, resumed.model.protocentroids_
        ):
            assert theta_a.tobytes() == theta_b.tobytes()

    def test_monitored_load_rejects_plain_stream_checkpoint(self, tmp_path):
        batches = stream_batches(n_batches=2)
        model, _ = run_stream(batches, use_index=True)
        path = model.save_stream(tmp_path / "plain.npz")
        fresh = MonitoredStream(
            MiniBatchKhatriRaoKMeans((3, 3), random_state=0)
        )
        with pytest.raises(MonitoringError, match="monitor state"):
            fresh.load(path)

    def test_extra_header_key_collision_is_typed(self, tmp_path):
        batches = stream_batches(n_batches=2)
        model, _ = run_stream(batches, use_index=True)
        with pytest.raises(ValidationError, match="collides"):
            model.save_stream(tmp_path / "x.npz", extra_header={"step": 1})


class TestReinitialize:
    def test_reinitialize_restarts_schedule_but_keeps_history(self):
        batches = stream_batches(n_batches=6)
        model, _ = run_stream(batches, use_index=True)
        steps_before = model.n_steps_
        fractions_before = list(model.reassignment_fractions_)
        model.reinitialize(batches[0][0],
                           random_state=np.random.default_rng(1))
        assert model.n_steps_ == steps_before
        assert model.reassignment_fractions_ == fractions_before
        assert model._stream_state is None
        assert all(np.all(c == 0.0) for c in model._counts)
        # The stream continues; bounds rebuild from scratch.
        model.partial_fit(batches[1][0], index=batches[1][1])
        assert model.n_steps_ == steps_before + 1
        assert model.reassignment_fractions_[-1] == 1.0

    def test_reinitialize_is_deterministic_in_the_given_rng(self):
        batch, _ = stream_batches(n_batches=1)[0]
        thetas = []
        for _ in range(2):
            model = MiniBatchKhatriRaoKMeans((3, 3), random_state=0)
            model.reinitialize(batch, random_state=np.random.default_rng(9))
            thetas.append([t.tobytes() for t in model.protocentroids_])
        assert thetas[0] == thetas[1]
