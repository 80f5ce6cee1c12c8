"""Mini-batch Khatri-Rao-k-Means (web-scale extension, paper Section 4).

The paper notes that Khatri-Rao extensions of gradient-descent-based
clustering "are possible but require method-specific adjustments", citing
Sculley's web-scale mini-batch k-means.  This module provides that
adjustment: a streaming variant of Algorithm 1 whose protocentroid updates
use per-batch sufficient statistics with per-protocentroid learning rates
``1 / count`` (the mini-batch k-means schedule), so each pass touches only a
batch of the data.

The closed-form structure of Proposition 6.1 carries over: for a batch, the
same numerators/denominators are computed, and the protocentroid moves a
step toward the batch-optimal value instead of jumping to it.

Assignment inside each step goes through the same dispatch as
:class:`~repro.core.kr_kmeans.KhatriRaoKMeans`: for aggregators that support
it (sum), the factored Gram-matrix kernel of :mod:`repro.core._factored`
assigns the batch without materializing the ``∏ h_q`` centroids at all.

On top of that, :meth:`fit` supports cross-step Hamerly pruning (the
``pruning`` knob, :class:`repro.core._bounds.StreamingBounds`): every
point's distance bounds are anchored against cumulative per-protocentroid
drift tables at its last exact assignment, so when a point is re-sampled
after the learning rates have decayed, the telescoped triangle inequality
usually certifies its cached label and the batch re-scores only the stale
points — identical labels and updates to the unpruned schedule.

:meth:`partial_fit` extends the same pruning to *online* streams through
the opt-in point-identity protocol: a caller that can name its rows with
stable integer indices (``partial_fit(batch, index=...)``) gets a dynamic
:class:`~repro.core._bounds.StreamingBounds` that carries certified bounds
across batches, so re-presented points whose cached label is provably
still nearest skip the argmin — bit-identical labels, inertia and updates
to the anonymous (unpruned) stream.  Every completed step also publishes a
read-only :class:`BatchStats` snapshot (``last_batch_stats_``), the
contract the :mod:`repro.monitoring` drift engine consumes without
reaching into private attributes.

Every batch, from :meth:`~MiniBatchKhatriRaoKMeans.fit` or either kind of
:meth:`~MiniBatchKhatriRaoKMeans.partial_fit`, runs through one step
method.  The estimator surface shared with
:class:`~repro.core.kr_kmeans.KhatriRaoKMeans` lives in their common base
class, and the bounds write and rebuild their own part of a checkpoint
(:meth:`~repro.core._bounds.StreamingBounds.to_checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import (
    check_array,
    check_cardinalities,
    check_dtype,
    check_in,
    check_n_features,
    check_positive_int,
    check_random_state,
)
from ..exceptions import CheckpointError, NotFittedError, ValidationError
from ..runtime.checkpoint import resolve_checkpoint, state_array
from ..runtime.parallel import open_row_pool, resolve_parallel
from ..linalg import flat_to_set_labels, get_aggregator, khatri_rao_rows
from ._bounds import StreamingBounds, check_pruning
from ._distances import row_norms_squared
from ._factored import ASSIGNMENT_MODES
from ._lloyd import _fractions, fingerprint, iterate, read_state, write_state
from ._update import UPDATE_MODES, set_statistics
from .kr_kmeans import _KhatriRaoEstimator, _random_protocentroids

__all__ = ["BatchStats", "MiniBatchKhatriRaoKMeans"]

_EPSILON = 1e-12


@dataclass(frozen=True)
class BatchStats:
    """Read-only statistics snapshot of one completed mini-batch step.

    Published as ``last_batch_stats_`` by every step of
    :meth:`MiniBatchKhatriRaoKMeans.fit` / :meth:`~MiniBatchKhatriRaoKMeans.partial_fit`
    — the stable surface monitors (:mod:`repro.monitoring`) consume
    instead of reaching into private estimator attributes.  All arrays
    are read-only copies; every value is a pure function of
    ``(batch, labels, pre-update model state)``, so pruned and unpruned
    streams with identical labels publish identical snapshots.
    """

    #: 1-based step number this snapshot describes.
    step: int
    #: rows in the batch.
    batch_size: int
    #: total weighted mass of the batch (``batch_size`` when unweighted).
    mass: float
    #: weighted batch inertia against the *pre-update* protocentroids.
    inertia: float
    #: ``inertia / mass`` — the scale-free trajectory signal.
    mean_inertia: float
    #: total squared protocentroid shift applied by this step.
    shift: float
    #: share of the batch that was fully re-scored (1.0 when unpruned).
    reassignment_fraction: float
    #: the batch's (read-only) flat centroid labels.
    labels: np.ndarray
    #: per-set read-only tables ``‖Δθ_q[j]‖`` of this step's movement.
    drift_norms: Tuple[np.ndarray, ...]

    @property
    def max_drift(self) -> float:
        """Upper bound on any centroid's movement: ``Σ_q max_j ‖Δθ_q[j]‖``."""
        return float(sum(table.max() for table in self.drift_norms))

    def to_dict(self) -> dict:
        """Scalar fields as a JSON-able dict (arrays omitted)."""
        return {
            "step": self.step,
            "batch_size": self.batch_size,
            "mass": self.mass,
            "inertia": self.inertia,
            "mean_inertia": self.mean_inertia,
            "shift": self.shift,
            "reassignment_fraction": self.reassignment_fraction,
            "max_drift": self.max_drift,
        }


class MiniBatchKhatriRaoKMeans(_KhatriRaoEstimator):
    """Streaming Khatri-Rao-k-Means with mini-batch updates.

    Parameters
    ----------
    cardinalities : sequence of int
        Protocentroid set sizes ``(h_1, ..., h_p)``; the model streams
        ``∏ h_q`` centroids out of ``∑ h_q`` stored vectors.
    aggregator : {"sum", "product"} or Aggregator
        The elementwise ``⊕`` combining protocentroids.  Its capability
        flags decide which fast paths engage (factored
        assignment/updates, streaming pruning, float32 kernels).
    batch_size : int
        Points sampled per update step.
    max_steps : int
        Total mini-batch steps in :meth:`fit`.
    reassignment_tol : float
        Convergence tolerance on the exponentially-averaged centroid shift.
    assignment : {"auto", "factored", "materialized"}
        Nearest-centroid strategy, as in :class:`KhatriRaoKMeans`:
        ``"auto"`` (default) uses the factored Gram-matrix kernel whenever
        the aggregator supports it, skipping centroid materialization in
        every mini-batch step; unsupported aggregators fall back to the
        materialized path transparently.
    update : {"auto", "factored", "gather"}
        Strategy for the per-batch sufficient statistics, as in
        :class:`KhatriRaoKMeans`: ``"factored"`` assembles each set's
        batch numerator through per-set-pair contingency count tables
        (:mod:`repro.core._update`) instead of gathering a
        ``(batch, m)`` rest matrix per set; ``"auto"`` (default) picks it
        whenever the aggregator supports it (sum), falling back to
        ``"gather"`` otherwise.  The mini-batch learning-rate schedule is
        unaffected — only the arithmetic order of the batch-optimal target
        changes (last-ulp drift).
    pruning : {"auto", "bounds", "none"}
        Cross-step Hamerly pruning inside :meth:`fit` (which samples its own
        batch indices and can therefore track per-point state).  Bounds are
        anchored against cumulative drift tables so re-sampled points whose
        cached label is provably still nearest skip the argmin entirely —
        exactly the labels and updates of the unpruned schedule *at the
        same working dtype* (bound margins scale with the dtype's machine
        epsilon).  Requires a decomposable aggregator (sum); others fall
        back to unpruned transparently, as does :meth:`partial_fit`, which
        receives anonymous batches.
    dtype : {"float64", "float32"} or numpy dtype
        Working dtype of the kernel stack, as on
        :class:`~repro.core.kr_kmeans.KhatriRaoKMeans`: data and
        protocentroids are cast once (at :meth:`fit` entry, or at the first
        :meth:`partial_fit` batch) and every batch scores in that
        precision.  Per-batch grouped sums, the learning-rate count tables
        and the streaming-bound maintenance stay float64 (see
        ``docs/numerics.md``).  Unsupported aggregator/dtype combinations
        fall back to float64 with a
        :class:`~repro.exceptions.DtypeFallbackWarning`; ``"float64"``
        (default) reproduces the historical behavior bit for bit.
    random_state : None, int or Generator
        Source of randomness (batch sampling and initialization).
    checkpoint : None, path or CheckpointConfig
        When set, :meth:`fit` snapshots its full streaming state
        (protocentroids, learning-rate counts, streaming-bound caches,
        step counter, RNG state) atomically to this path on the config's
        cadence — see :mod:`repro.runtime.checkpoint`.
    resume_from : None or path
        Resume :meth:`fit` from a checkpoint written by a run with
        identical parameters on identical data (both verified, mismatch
        is a typed :class:`~repro.exceptions.CheckpointError`).  The
        resumed fit is bit-identical to the uninterrupted one.
    callback : None or callable
        ``callback(restart_index, step)`` invoked after every completed
        mini-batch step (``restart_index`` is always 0 — the streaming
        fit has no restarts; the signature matches the batch
        estimators').  A callback raising ``KeyboardInterrupt`` triggers
        the graceful-interrupt path.
    n_threads : None, int or ParallelConfig
        Width of the supervised thread pool that each batch's assignment
        and sufficient statistics, plus the final full-data labeling,
        run on, over fixed row blocks.  ``None`` (default) is one worker
        per available core; an int (or a full
        :class:`~repro.runtime.parallel.ParallelConfig`) sets it.
        Bit-identical at every pool width, and the seam
        that lets :meth:`fit` stream a :class:`numpy.memmap` ``X``
        (batches are gathered copies; only the final labeling touches
        the map, block by block).

    Attributes
    ----------
    protocentroids_ : list of arrays
        Learned protocentroid sets, in the working dtype.
    labels_ : int array of shape (n,)
        Labels of the full training data after the final step.
    inertia_ : float
    n_steps_ : int
    reassignment_fractions_ : list of float or None
        Per-step fraction of the batch that was fully re-scored.  ``None``
        exactly when pruning is disabled for this estimator
        (``uses_pruning`` is False); otherwise **every** completed step —
        pruned :meth:`fit` steps, indexed :meth:`partial_fit` batches, and
        anonymous batches that could not prune (recorded as 1.0) — appends
        exactly one entry, so the list always aligns with ``n_steps_``
        (one code path, :meth:`_step`).
    last_batch_stats_ : BatchStats or None
        Read-only statistics snapshot of the most recently completed step
        (``None`` before the first step) — the stable monitoring surface.
    dtype_ : numpy.dtype
        Working dtype training actually ran in (after capability
        resolution).
    converged_ : bool
        ``True`` when :meth:`fit` ran to normal completion; ``False``
        when a ``KeyboardInterrupt`` stopped it early (the
        last-completed-step model is retained instead of lost).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import make_blobs
    >>> X, _ = make_blobs(500, n_clusters=9, random_state=0)
    >>> model = MiniBatchKhatriRaoKMeans((3, 3), batch_size=64,
    ...                                  random_state=0).fit(X)
    >>> model.centroids().shape
    (9, 2)
    """

    def __init__(
        self,
        cardinalities: Sequence[int],
        *,
        aggregator="sum",
        batch_size: int = 256,
        max_steps: int = 100,
        reassignment_tol: float = 1e-4,
        assignment: str = "auto",
        update: str = "auto",
        pruning: str = "auto",
        dtype="float64",
        random_state=None,
        checkpoint=None,
        resume_from=None,
        callback=None,
        n_threads=None,
    ) -> None:
        self.cardinalities = check_cardinalities(cardinalities)
        self.aggregator = get_aggregator(aggregator)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.max_steps = check_positive_int(max_steps, "max_steps")
        self.reassignment_tol = float(reassignment_tol)
        self.assignment = check_in(assignment, "assignment", ASSIGNMENT_MODES)
        self.update = check_in(update, "update", UPDATE_MODES)
        self.pruning = check_pruning(pruning)
        self.dtype = check_dtype(dtype)
        self.random_state = random_state
        self.checkpoint = resolve_checkpoint(checkpoint)
        self.resume_from = None if resume_from is None else Path(resume_from)
        if callback is not None and not callable(callback):
            raise ValidationError(f"callback must be callable, got {callback!r}")
        self.callback = callback
        self.n_threads = resolve_parallel(n_threads)

        self.protocentroids_: Optional[List[np.ndarray]] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: float = np.inf
        self.n_steps_: int = 0
        self.reassignment_fractions_: Optional[List[float]] = None
        self.last_batch_stats_: Optional[BatchStats] = None
        self.dtype_: Optional[np.dtype] = None
        self.converged_: bool = False
        self._counts: Optional[List[np.ndarray]] = None
        self._stream_state: Optional[StreamingBounds] = None

    @property
    def uses_pruning(self) -> bool:
        """Whether :meth:`fit` tracks cross-step Hamerly bounds.

        Streaming bounds telescope drift through the aggregator's per-set
        ``factored_drift`` tables, so they require a decomposable aggregator
        (whatever the ``assignment`` knob says — re-scoring respects it);
        other aggregators fall back to the unpruned schedule transparently.
        """
        return self.pruning != "none" and self.aggregator.supports_factored_assignment

    # ------------------------------------------------------------------ API
    def fit(self, X, sample_weight=None) -> "MiniBatchKhatriRaoKMeans":
        """Run ``max_steps`` mini-batch steps over ``X``.

        ``sample_weight`` optionally weights each point, exactly as on the
        batch estimators: batch statistics use the weighted Proposition 6.1
        numerators, the learning-rate counts accumulate weighted *mass*
        instead of point counts, and the reported inertia is the weighted
        objective.  ``sample_weight=None`` reproduces the unweighted
        schedule bit for bit.
        """
        X, weights, rng = self._prepare(X, sample_weight)
        # A fresh training run owns its own bounds over X's positional
        # indices; any point-identity stream state from earlier
        # partial_fit calls names a different universe — and its step
        # count restarts from 0, like a fresh fit's.
        self._stream_state = None
        self.last_batch_stats_ = None
        self.n_steps_ = 0
        with open_row_pool(self.n_threads) as pool:
            return self._fit(X, weights, rng, pool)

    def _fit(self, X, weights, rng, parallel) -> "MiniBatchKhatriRaoKMeans":
        # ‖x‖² only seeds the bounds: an unpruned fit never reads X whole
        # before its final labeling.
        x_squared_norms = (
            row_norms_squared(X, parallel=parallel) if self.uses_pruning
            else None
        )
        fp = fingerprint(self, X, weights)
        smoothed_shift, start = np.inf, 1
        if self.resume_from is not None:
            header, arrays = read_state(self, self.resume_from, rng, data=fp)
            state = self._read_stream(
                header, arrays, self.resume_from, x_squared_norms
            )
            if self.uses_pruning and state is None:
                raise CheckpointError(
                    f"{self.resume_from} carries no streaming bounds but the "
                    "resuming estimator prunes", field="sb_known",
                )
            smoothed_shift, start = float(header["smoothed_shift"]), self.n_steps_ + 1
        else:
            self._initialize(X, rng)
            state = (
                StreamingBounds(x_squared_norms, X.shape[1], self.cardinalities)
                if self.uses_pruning else None
            )
            self.reassignment_fractions_ = [] if state is not None else None

        def step():
            nonlocal smoothed_shift
            indices = rng.choice(
                X.shape[0], size=min(self.batch_size, X.shape[0]),
                replace=False,
            )
            # Fancy-indexed batches (and weights) are gathered copies, so a
            # memory-mapped X is touched batch_size rows per step.
            index = None if state is None else indices
            shift = self._step(
                X[indices], None if weights is None else weights[indices],
                parallel, state, index,
                None if index is None else x_squared_norms[index],
            )
            smoothed_shift = shift if not np.isfinite(smoothed_shift) else (
                0.7 * smoothed_shift + 0.3 * shift
            )
            self.n_steps_ += 1
            return smoothed_shift

        def save(step):
            fields, arrays = self._stream_checkpoint(state)
            write_state(self, self.checkpoint.path, {
                "data": fp,
                "step": step,
                "smoothed_shift": float(smoothed_shift),
                **fields,
            }, arrays, rng)

        # An interrupt keeps the last-completed-step model: protocentroids
        # and counts advance in place per step (a mid-step interrupt leaves
        # a partially updated sweep — still a valid model to score).
        self.labels_, self.inertia_, _, _, interrupted = iterate(
            step,
            lambda: self._assign(X, self.protocentroids_, parallel=parallel),
            weights, start=start, max_iter=self.max_steps,
            tol=self.reassignment_tol, callback=self.callback,
            checkpoint=self.checkpoint, save=save,
        )
        self.converged_ = not interrupted
        return self

    def partial_fit(
        self, batch, sample_weight=None, index=None
    ) -> "MiniBatchKhatriRaoKMeans":
        """Incrementally update the model with one batch (online use).

        ``sample_weight`` optionally weights this batch's points — same
        weighted schedule as :meth:`fit`.

        ``index`` opts into the point-identity protocol: a 1-D array of
        stable non-negative integer ids that fit in int64, one per batch
        row, where the same id always names the same immutable point
        across calls.  With
        identities, cross-batch Hamerly pruning engages (when
        ``uses_pruning``): re-presented points whose certified bounds
        still hold skip the argmin, and the stream is bit-identical —
        labels, inertia, updates — to the same stream without ``index``.
        An id re-presented with a different ``‖x‖²`` is treated as new
        (re-scored exactly), so contract violations degrade pruning
        instead of corrupting labels.  Anonymous batches (``index=None``)
        keep the historical fully-re-scored behavior.
        """
        batch, weights, rng = self._prepare(batch, sample_weight, fit=False)
        index = self._check_stream_index(index, batch.shape[0])
        if self.protocentroids_ is None:
            self._initialize(batch, rng)
        check_n_features(batch, self.protocentroids_[0].shape[1])
        with open_row_pool(self.n_threads) as pool:
            norms = None
            if index is not None and self.uses_pruning:
                if self._stream_state is None:
                    self._stream_state = StreamingBounds.for_stream(
                        batch.shape[1], self.cardinalities,
                        seed_dtype=batch.dtype,
                    )
                norms = row_norms_squared(batch, parallel=pool)
                self._stream_state.observe(index, norms)
            else:
                index = None
            self._step(batch, weights, pool, self._stream_state, index, norms)
        self.n_steps_ += 1
        return self

    def reinitialize(self, batch, random_state=None) -> "MiniBatchKhatriRaoKMeans":
        """Re-seed the protocentroids from ``batch`` and restart the
        learning-rate schedule — the drift-policy refit hook.

        The point-identity bounds cache is cleared (every known point
        re-scores exactly on its next appearance), while ``n_steps_``,
        the reassignment-fraction log and ``last_batch_stats_`` keep
        running: monitors see one continuous stream with a refit event
        inside it.  ``random_state=None`` reuses the estimator's own
        seed; pass a seeded generator for deterministic policy behavior.
        """
        batch = check_array(batch, dtype=self._working_dtype())
        rng = check_random_state(
            self.random_state if random_state is None else random_state
        )
        self._initialize(batch, rng)
        self._stream_state = None
        return self

    # ------------------------------------------------------------ internals
    def _initialize(self, X: np.ndarray, rng: np.random.Generator) -> None:
        self.protocentroids_ = _random_protocentroids(
            X, self.cardinalities, self.aggregator, rng
        )
        # Learning-rate bookkeeping stays float64 at any working dtype: the
        # counts only feed the scalar schedule eta = batch/total.
        self._counts = [np.zeros(h) for h in self.cardinalities]

    # --------------------------------------------------------- checkpointing
    def _param_header(self) -> dict:
        """Configuration fingerprint a checkpoint must match to resume."""
        return {
            "cardinalities": [int(h) for h in self.cardinalities],
            "aggregator": self.aggregator.name,
            "batch_size": self.batch_size,
            "max_steps": self.max_steps,
            "reassignment_tol": self.reassignment_tol,
            "assignment": self.assignment,
            "update": self.update,
            "pruning": self.pruning,
            "dtype": np.dtype(self.dtype_).name,
        }

    def _stream_checkpoint(self, state: Optional[StreamingBounds]):
        """Header fields and arrays of :meth:`fit` checkpoints and
        :meth:`save_stream` snapshots alike, the bounds' own included."""
        arrays = {f"theta_{q}": t for q, t in enumerate(self.protocentroids_)}
        arrays.update({f"counts_{q}": c for q, c in enumerate(self._counts)})
        if self.reassignment_fractions_ is not None:
            arrays["fractions"] = np.asarray(
                self.reassignment_fractions_, dtype=np.float64
            )
        fields, bounds = StreamingBounds.to_checkpoint(state)
        arrays.update(bounds)
        return fields, arrays

    def _read_stream(
        self, header, arrays, path, x_squared_norms=None
    ) -> Optional[StreamingBounds]:
        """Restore what :meth:`_stream_checkpoint` wrote (plus the step
        count); returns the streaming bounds, or ``None`` when none were
        saved.

        ``x_squared_norms`` rebuilds :meth:`fit`'s bounds over the training
        rows; without it the bounds are a point-identity stream's.
        """
        p = len(self.cardinalities)
        self.protocentroids_ = [
            state_array(arrays, f"theta_{q}", self.dtype_, path) for q in range(p)
        ]
        self._counts = [
            state_array(arrays, f"counts_{q}", np.float64, path) for q in range(p)
        ]
        self.n_steps_ = int(header["step"])
        self.reassignment_fractions_ = _fractions(arrays, "fractions")
        return StreamingBounds.from_checkpoint(
            header, arrays, path, self.protocentroids_[0].shape[1],
            self.cardinalities, x_squared_norms, seed_dtype=self.dtype_,
        )

    # ------------------------------------------------- stream checkpointing
    def save_stream(self, path, extra_header: Optional[dict] = None):
        """Snapshot an online ``partial_fit`` stream atomically to ``path``.

        Captures everything a mid-sequence resume needs for bit-identical
        continuation: protocentroids, learning-rate masses, the step
        counter, the reassignment-fraction log, the point-identity bounds
        cache (trimmed to the ids actually seen, so the serialized state
        is independent of the growth pattern), and the last
        :class:`BatchStats` snapshot.  ``extra_header`` lets wrappers
        (:class:`repro.monitoring.MonitoredStream`) ride their own
        JSON-able state in the same artifact.  Returns the written path.
        """
        if self.protocentroids_ is None:
            raise NotFittedError(
                "MiniBatchKhatriRaoKMeans has no stream state to save; "
                "call fit or partial_fit first"
            )
        stats = self.last_batch_stats_
        bounds, arrays = self._stream_checkpoint(self._stream_state)
        fields = {
            "kind": "stream",
            "step": self.n_steps_,
            "has_fractions": self.reassignment_fractions_ is not None,
            **bounds,
            "stats": None if stats is None else stats.to_dict(),
        }
        for key in extra_header or {}:
            if key in fields or key in ("estimator", "params"):
                raise ValidationError(
                    f"extra_header key {key!r} collides with the "
                    "stream checkpoint schema"
                )
        fields.update(extra_header or {})
        if stats is not None:
            arrays["stats_labels"] = np.asarray(stats.labels, dtype=np.int64)
            for q, table in enumerate(stats.drift_norms):
                arrays[f"stats_drift_{q}"] = np.asarray(table)
        write_state(self, path, fields, arrays)
        return Path(path)

    def load_stream(self, path) -> "MiniBatchKhatriRaoKMeans":
        """Restore a :meth:`save_stream` snapshot into this estimator.

        The estimator must be configured identically to the writer (same
        ``_param_header`` fingerprint — verified, mismatch is a typed
        :class:`~repro.exceptions.CheckpointError`); continuing the batch
        sequence afterwards is bit-identical to the uninterrupted stream,
        bounds decisions included.  Returns ``self``.
        """
        self._restore_stream(path)
        return self

    def _restore_stream(self, path) -> dict:
        """:meth:`load_stream`, returning the archive's header so a
        wrapper reads its own fields without reading the archive again."""
        self._working_dtype()
        header, arrays = read_state(self, path, kind="stream")
        self._stream_state = self._read_stream(header, arrays, path)
        self.last_batch_stats_ = None
        if header.get("stats") is not None:
            fields = dict(header["stats"])
            fields.pop("max_drift", None)
            labels = state_array(arrays, "stats_labels", np.int64, path)
            tables = tuple(
                state_array(arrays, f"stats_drift_{q}", np.float64, path)
                for q in range(len(self.cardinalities))
            )
            for array in (labels, *tables):
                array.setflags(write=False)
            self.last_batch_stats_ = BatchStats(
                labels=labels, drift_norms=tables, **fields
            )
        return header

    @staticmethod
    def _check_stream_index(index, n_rows: int) -> Optional[np.ndarray]:
        """Validate a point-identity ``index`` array (or pass ``None``)."""
        if index is None:
            return None
        index = np.asarray(index)
        if index.ndim != 1 or index.shape[0] != n_rows:
            raise ValidationError(
                f"index must be a 1-D array with one id per batch row "
                f"({n_rows}), got shape {index.shape}"
            )
        if index.dtype.kind not in "iu":
            raise ValidationError(
                f"index must be an integer array, got dtype {index.dtype}"
            )
        if index.dtype.kind == "u" and index.size and (
            int(index.max()) > np.iinfo(np.int64).max
        ):
            raise ValidationError(
                "index ids must fit in int64 (at most 2**63 - 1)"
            )
        index = index.astype(np.int64, copy=False)
        # One sort answers both questions: the smallest id leads, and a
        # repeat sits next to its twin.
        ordered = np.sort(index)
        if ordered.size and ordered[0] < 0:
            raise ValidationError("index ids must be non-negative")
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValidationError("index ids must not repeat within a batch")
        return index

    def _pruned_batch_labels(
        self, batch: np.ndarray, indices: np.ndarray, state: StreamingBounds,
        x_squared_norms: np.ndarray, parallel=None,
    ) -> Tuple[np.ndarray, float]:
        """Batch labels with cross-step pruning, plus the re-score fraction.

        Sampled points whose telescoped bounds certify the cached label keep
        it; never-seen or stale points run the exact factored top-2 argmin
        (on their rows of the batch's ``x_squared_norms``) and re-anchor
        their bounds.  Identical labels to assigning the whole batch from
        scratch.
        """
        settled = state.settled(indices)
        labels = np.empty(indices.size, dtype=np.int64)
        labels[settled] = state.labels[indices[settled]]
        stale = ~settled
        if stale.any():
            sub = indices[stale]
            new_labels, d1, d2 = self._assign(
                batch[stale], self.protocentroids_, return_second=True,
                parallel=parallel, x_squared_norms=x_squared_norms[stale],
            )
            labels[stale] = new_labels
            state.record(sub, new_labels, d1, d2)
        return labels, float(np.count_nonzero(stale)) / indices.size

    def _batch_inertia(
        self, batch: np.ndarray, labels: np.ndarray, sample_weight
    ) -> float:
        """Weighted batch inertia at fixed ``labels`` against the current
        (pre-update) protocentroids.

        Computed in direct form (``‖x − c‖²`` row by row, float64) rather
        than through the assignment kernels' expansion form, so the value
        is a pure function of ``(batch, labels, model state)`` — pruned
        and unpruned streams with identical labels publish identical
        inertia by construction.
        """
        rows = khatri_rao_rows(self.protocentroids_, labels, self.aggregator)
        diff = batch.astype(np.float64, copy=False) - rows.astype(
            np.float64, copy=False
        )
        squared = np.einsum("ij,ij->i", diff, diff)
        if sample_weight is None:
            return float(squared.sum(dtype=np.float64))
        weights = np.asarray(sample_weight, dtype=np.float64)
        return float((squared * weights).sum(dtype=np.float64))

    def _step(
        self,
        batch: np.ndarray,
        sample_weight: Optional[np.ndarray],
        parallel,
        state: Optional[StreamingBounds] = None,
        index: Optional[np.ndarray] = None,
        x_squared_norms: Optional[np.ndarray] = None,
    ) -> float:
        """One mini-batch step from any batch source; returns the total
        squared protocentroid shift.

        Labels come from the bounds ``state`` for a batch with point
        ``index`` ids (and its rows' ``x_squared_norms``), else from the
        full assignment.  The drift then advances ``state`` either way, or
        an anonymous batch would leave a stream's bounds stale.  The one
        path that logs ``reassignment_fractions_`` (when ``uses_pruning``)
        and publishes ``last_batch_stats_``.
        """
        if index is None:
            labels, _ = self._assign(
                batch, self.protocentroids_, parallel=parallel
            )
            fraction = 1.0
        else:
            labels, fraction = self._pruned_batch_labels(
                batch, index, state, x_squared_norms, parallel
            )
        inertia = self._batch_inertia(batch, labels, sample_weight)
        shift, drift_tables = self._apply_batch_update(
            batch, labels, collect_drift=True,
            sample_weight=sample_weight, parallel=parallel,
        )
        if state is not None:
            state.advance(drift_tables)
        if self.uses_pruning:
            if self.reassignment_fractions_ is None:
                self.reassignment_fractions_ = []
            self.reassignment_fractions_.append(float(fraction))
        mass = (
            float(batch.shape[0]) if sample_weight is None
            else float(np.sum(sample_weight, dtype=np.float64))
        )
        labels = labels.copy()
        labels.setflags(write=False)
        for table in drift_tables:
            table.setflags(write=False)
        self.last_batch_stats_ = BatchStats(
            step=self.n_steps_ + 1,
            batch_size=int(batch.shape[0]),
            mass=mass,
            inertia=inertia,
            mean_inertia=inertia / mass if mass > 0 else 0.0,
            shift=shift,
            reassignment_fraction=float(fraction),
            labels=labels,
            drift_norms=tuple(drift_tables),
        )
        return shift

    def _apply_batch_update(
        self,
        batch: np.ndarray,
        labels: np.ndarray,
        collect_drift: bool = False,
        sample_weight: Optional[np.ndarray] = None,
        parallel=None,
    ) -> Tuple[float, Optional[List[np.ndarray]]]:
        """Apply the mini-batch protocentroid updates for fixed ``labels``.

        Returns the total squared protocentroid shift and, with
        ``collect_drift``, per-set tables of each protocentroid's movement
        norm this step — the increments :class:`StreamingBounds` accumulates.

        ``sample_weight`` turns every batch statistic into its weighted
        form (weighted Proposition 6.1 numerators, weighted mass in place
        of point counts — the learning rate becomes the batch's share of
        the total *mass* a protocentroid has absorbed); ``None`` is the
        byte-identical unweighted schedule.  ``parallel`` row-blocks the
        grouped reductions, folded in fixed block order.
        """
        thetas = self.protocentroids_
        set_labels = flat_to_set_labels(labels, self.cardinalities)
        total_shift = 0.0
        drift_tables = (
            [np.zeros(h) for h in self.cardinalities] if collect_drift else None
        )
        # The batch's Proposition 6.1 statistics — thetas moves in place per
        # set, matching the batch estimators' Gauss-Seidel sweep.  A set's
        # protocentroids with batch mass move together, one array op per
        # stage, each element in the per-protocentroid op order and dtypes
        # (docs/numerics.md §2.4); the shifts add up in that order too.
        for q, numerator, denominator, batch_counts in set_statistics(
            batch, thetas, set_labels, self.aggregator, sample_weight,
            self.uses_factored_update, parallel,
        ):
            js = np.flatnonzero(batch_counts > 0)
            current = thetas[q][js]
            if denominator is not None:
                # The quotient lands in a copy of θ (its dtype) where the
                # denominator is safe; elsewhere the target stays at θ.
                target = current.copy()
                np.divide(numerator[js], denominator[js], out=target,
                          where=denominator[js] > _EPSILON)
            else:
                target = numerator[js] / batch_counts[js, None]
            # Mini-batch schedule: learning rate decays with the total
            # number of points this protocentroid has absorbed.
            self._counts[q][js] += batch_counts[js]
            eta = (batch_counts[js] / self._counts[q][js])[:, None]
            updated = (1.0 - eta) * current + eta * target
            shifts = ((updated - current) ** 2).sum(axis=1, dtype=np.float64)
            for step_shift in shifts.tolist():
                total_shift += step_shift
            if collect_drift:
                drift_tables[q][js] = np.sqrt(shifts)
            thetas[q][js] = updated
        return total_shift, drift_tables
