"""Standard k-Means (Lloyd's algorithm) with k-means++ initialization.

This is the unconstrained baseline of the paper (Section 3).  It is written
from scratch on numpy so that the scalability comparison of Figure 8 runs
both algorithms on the same code path, as the paper does for fairness
("in the scalability experiments ... we use an implementation of k-Means
which mirrors the implementation of Khatri-Rao-k-Means", Appendix B).
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from .._validation import (
    check_array,
    check_dtype,
    check_in,
    check_positive_int,
    check_random_state,
)
from ..exceptions import ConvergenceWarning, NotFittedError, ValidationError
from ..runtime.checkpoint import (
    check_header_fields,
    data_fingerprint,
    read_checkpoint,
    resolve_checkpoint,
    restore_rng_state,
    serialize_rng_state,
    write_checkpoint,
)
from ..runtime.executor import resolve_executor, run_restarts
from ..runtime.parallel import map_row_blocks, open_row_pool, resolve_parallel
from ._bounds import HamerlyBounds, check_pruning, dense_drift, hamerly_step
from ._distances import (
    assign_to_nearest,
    paired_squared_distances,
    row_norms_squared,
    squared_distances,
)
from ._factored import grouped_row_sum
from ._update import _group_mass

__all__ = ["KMeans", "kmeans_plus_plus_init"]


def _check_sample_weight(sample_weight, n_samples: int, dtype=np.float64) -> np.ndarray:
    """Validate per-sample weights; defaults to all-ones.

    ``dtype`` is the estimator's working dtype: weights are cast once here
    so the per-point products (``w·X``, weighted inertia) stay in-dtype
    instead of silently promoting every float32 hot-loop array to float64.
    """
    if sample_weight is None:
        return np.ones(n_samples, dtype=dtype)
    weights = np.asarray(sample_weight, dtype=dtype).ravel()
    if weights.shape[0] != n_samples:
        raise ValidationError(
            f"sample_weight has length {weights.shape[0]}, expected {n_samples}"
        )
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("sample_weight must be finite and non-negative")
    if weights.sum() <= 0:
        raise ValidationError("sample_weight must have positive total mass")
    return weights


def kmeans_plus_plus_init(
    X: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding [Arthur & Vassilvitskii, 2007].

    The first centroid is drawn uniformly; each subsequent centroid is a data
    point sampled with probability proportional to its squared distance to
    the nearest centroid chosen so far.

    Returns
    -------
    array of shape (n_clusters, m)
    """
    n = X.shape[0]
    if n_clusters > n:
        raise ValidationError(f"n_clusters={n_clusters} exceeds number of samples {n}")
    # Seeds inherit the data dtype (the estimators' working dtype).
    centers = np.empty((n_clusters, X.shape[1]), dtype=X.dtype)
    first = rng.integers(n)
    centers[0] = X[first]
    closest = squared_distances(X, centers[:1]).ravel()
    for i in range(1, n_clusters):
        # D² probabilities in float64 whatever the working dtype:
        # rng.choice normalization is strict, and float32 distances summed
        # to a float32 total can miss its tolerance.  No-op at float64.
        closest64 = np.asarray(closest, dtype=np.float64)
        total = closest64.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; fall back to uniform.
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest64 / total)
        centers[i] = X[idx]
        new_distances = squared_distances(X, centers[i : i + 1]).ravel()
        np.minimum(closest, new_distances, out=closest)
    return centers


class KMeans:
    """Lloyd's k-Means with restarts.

    Parameters
    ----------
    n_clusters : int
        Number of centroids ``k``.
    init : {"k-means++", "random"}
        Seeding strategy.
    n_init : int
        Number of random restarts; the solution with the lowest inertia wins
        (the paper runs each method 20 times and keeps the best, Section 9.1).
    max_iter : int
        Maximum Lloyd iterations per restart (paper: 200).
    tol : float
        Stop when total squared centroid movement falls below ``tol``
        (paper: 1e-4).
    pruning : {"auto", "bounds", "none"}
        Cross-iteration Hamerly pruning (:mod:`repro.core._bounds`): keep a
        per-point upper bound on the distance to the assigned centroid and a
        lower bound on the second-nearest, inflate them by the centroid
        drift each iteration, and re-score only the points whose bounds
        overlap — late iterations cost ``O(|active|·k·m)`` instead of
        ``O(n·k·m)``.  Produces labels, inertia and iteration counts
        identical to the unpruned path *at the same working dtype* (the
        certified bound margins scale with the dtype's machine epsilon);
        ``"auto"`` (default) enables it, ``"none"`` forces the classic full
        re-assignment.
    dtype : {"float64", "float32"} or numpy dtype
        Working dtype of the fit: ``X`` is cast once at ``fit`` entry and
        the distance/update hot loops compute in that precision (float32
        halves memory bandwidth on the BLAS-bound assignment step).
        Grouped accumulation (centroid sums via
        :func:`repro.core.grouped_row_sum`), inertia reductions and the
        pruning-bound maintenance stay float64 — see ``docs/numerics.md``
        for the error envelope.  ``"float64"`` (default) is bit-identical
        to the historical behavior.
    random_state : None, int or Generator
        Source of randomness.
    checkpoint : None, path or CheckpointConfig
        When set, the sequential restart sweep snapshots its full state
        (centers, labels, bound caches, restart/iteration counters,
        best-so-far, RNG state) atomically to this path on the config's
        cadence — see :mod:`repro.runtime.checkpoint`.  Incompatible
        with ``n_jobs``.
    resume_from : None or path
        Resume a fit from a checkpoint written by a run with identical
        parameters on identical data (both verified, mismatch is a typed
        :class:`~repro.exceptions.CheckpointError`).  The resumed fit is
        bit-identical to the uninterrupted one.
    callback : None or callable
        ``callback(restart_index, iteration)`` invoked after every
        completed Lloyd iteration — the training fault-injection seam
        (:class:`~repro.faults.FaultHook`), also usable for progress
        reporting.  A callback raising ``KeyboardInterrupt`` triggers
        the graceful-interrupt path.
    n_jobs : None, int or ExecutorConfig
        ``None`` (default) runs restarts sequentially on a shared RNG —
        bit-compatible with every earlier release.  An int (or a full
        :class:`~repro.runtime.executor.ExecutorConfig`) runs them
        through the supervised parallel executor on per-restart
        ``rng.spawn`` streams: the result is identical at every worker
        count, and restart failures are retried/tolerated per the
        config.  Incompatible with ``checkpoint``/``resume_from``.
    n_threads : None, int or ParallelConfig
        Width of the supervised thread pool the per-iteration kernels
        run on, over fixed row blocks.  ``None`` (default) is one worker
        per available core; an int (or a full
        :class:`~repro.runtime.parallel.ParallelConfig`) sets it.  Block
        boundaries depend only on ``(n, block_rows)`` and reductions
        merge in block order, so every thread count is bit-identical.
        Data of at most one block runs inline on the calling thread.
        Composes with ``n_jobs`` (restart workers share the pool) and is
        the seam that streams a :class:`numpy.memmap` ``X`` through
        ``fit`` block by block.

    Attributes
    ----------
    cluster_centers_ : array of shape (n_clusters, m)
        Learned centroids, in the working dtype.
    labels_ : int array of shape (n,)
    inertia_ : float
        Sum of squared distances to assigned centroids (Eq. 1).
    n_iter_ : int
        Iterations run by the best restart.
    dtype_ : numpy.dtype
        Working dtype the fit actually ran in.
    converged_ : bool
        ``True`` when ``fit`` ran to normal completion; ``False`` when a
        ``KeyboardInterrupt`` stopped it early (the best state found so
        far is retained instead of lost).

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    >>> model = KMeans(n_clusters=2, random_state=0).fit(X)
    >>> sorted(np.bincount(model.labels_).tolist())
    [2, 2]
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        init: str = "k-means++",
        n_init: int = 10,
        max_iter: int = 200,
        tol: float = 1e-4,
        pruning: str = "auto",
        dtype="float64",
        random_state=None,
        checkpoint=None,
        resume_from=None,
        callback=None,
        n_jobs=None,
        n_threads=None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.init = check_in(init, "init", ("k-means++", "random"))
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.tol = float(tol)
        self.pruning = check_pruning(pruning)
        self.dtype = check_dtype(dtype)
        self.random_state = random_state
        self.checkpoint = resolve_checkpoint(checkpoint)
        self.resume_from = None if resume_from is None else Path(resume_from)
        if callback is not None and not callable(callback):
            raise ValidationError(f"callback must be callable, got {callback!r}")
        self.callback = callback
        self.n_jobs = resolve_executor(n_jobs)
        self.n_threads = resolve_parallel(n_threads)
        if self.n_jobs is not None and (
            self.checkpoint is not None or self.resume_from is not None
        ):
            raise ValidationError(
                "checkpoint/resume_from are sequential-sweep features and "
                "cannot be combined with n_jobs"
            )

        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0
        self.dtype_: Optional[np.dtype] = None
        self.converged_: bool = False

    # ------------------------------------------------------------------ API
    def fit(self, X, sample_weight=None) -> "KMeans":
        """Run ``n_init`` restarts of Lloyd's algorithm and keep the best.

        ``sample_weight`` optionally weights each point's contribution to
        the objective and to the centroid updates (e.g. counts of repeated
        rows).
        """
        # KMeans has no aggregator capability to consult: the requested
        # dtype is the working dtype, cast exactly once here.
        self.dtype_ = self.dtype
        X = check_array(X, min_samples=self.n_clusters, dtype=self.dtype_)
        weights = _check_sample_weight(sample_weight, X.shape[0], dtype=X.dtype)
        rng = check_random_state(self.random_state)
        with open_row_pool(self.n_threads) as pool:
            return self._fit(X, sample_weight, weights, rng, pool)

    def _fit(self, X, sample_weight, weights, rng, parallel) -> "KMeans":
        # ‖x‖² is constant across iterations and restarts — pay for it once.
        x_squared_norms = row_norms_squared(X, parallel=parallel)

        # ... and so is the weighted data matrix feeding the centroid sums.
        # Unweighted fits reuse X itself: X·1 is exact, so results are
        # unchanged, and a memory-mapped X is never materialized in RAM.
        weighted_X = X if sample_weight is None else X * weights[:, None]

        if self.n_jobs is not None:
            # Supervised parallel sweep: per-restart spawned streams, so
            # the selected model is identical at every worker count.  The
            # row pool is shared across restart workers (submit is
            # thread-safe; block workers never re-enter the pool).
            def run_one(gen, seed_index):
                (centers, labels, run_inertia, iterations, run_converged,
                 run_interrupted) = self._single_run(
                    X, gen, weights, weighted_X, x_squared_norms,
                    restart_index=seed_index,
                    parallel=parallel,
                )
                if run_interrupted:
                    # A callback-raised interrupt inside a worker: surface
                    # it so the sweep reports interrupted (the executor
                    # keeps every restart that already completed).
                    raise KeyboardInterrupt
                return run_inertia, (centers, labels, iterations, run_converged)

            report = run_restarts(run_one, self.n_init, rng, self.n_jobs)
            if report.interrupted and not report.outcomes:
                raise KeyboardInterrupt
            # Warn here, on the calling thread, not on the executor thread
            # that ran the restart.
            for outcome in report.outcomes:
                if not outcome.payload[-1]:
                    self._warn_not_converged()
            best = report.best()
            self.cluster_centers_, self.labels_, self.n_iter_, _ = best.payload
            self.inertia_ = best.inertia
            self.converged_ = not report.interrupted
            return self

        best_inertia = np.inf
        best_centers = None
        best_labels = None
        best_iterations = 0
        start_restart = 0
        resume_state = None
        # The full-pass sha256 fingerprint only feeds checkpoint headers;
        # plain fits (and streamed memmap fits) skip it entirely.
        fingerprint = (
            data_fingerprint(X, weights)
            if self.checkpoint is not None or self.resume_from is not None
            else None
        )
        if self.resume_from is not None:
            (start_restart, resume_state, best_resumed) = self._load_checkpoint(
                rng, fingerprint, x_squared_norms, X.shape[1]
            )
            if best_resumed is not None:
                best_centers, best_labels, best_inertia, best_iterations = (
                    best_resumed
                )
        interrupted = False
        for restart in range(start_restart, self.n_init):
            best_state = (
                None if best_centers is None
                else (best_centers, best_labels, best_inertia, best_iterations)
            )
            try:
                (centers, labels, run_inertia, iterations, run_converged,
                 run_interrupted) = self._single_run(
                    X, rng, weights, weighted_X, x_squared_norms,
                    restart_index=restart,
                    resume=resume_state,
                    fingerprint=fingerprint,
                    best_state=best_state,
                    parallel=parallel,
                )
            except KeyboardInterrupt:
                # Interrupted before this restart completed one iteration:
                # keep the best earlier restart if there is one.
                if best_centers is None:
                    raise
                interrupted = True
                break
            resume_state = None
            if not run_converged:
                self._warn_not_converged()
            if run_inertia < best_inertia:
                best_inertia = run_inertia
                best_centers = centers
                best_labels = labels
                best_iterations = iterations
            if run_interrupted:
                interrupted = True
                break

        self.cluster_centers_ = best_centers
        self.labels_ = best_labels
        self.inertia_ = float(best_inertia)
        self.n_iter_ = best_iterations
        self.converged_ = not interrupted
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return the labels of the training data."""
        return self.fit(X).labels_

    def predict(self, X) -> np.ndarray:
        """Assign each row of ``X`` to its nearest learned centroid."""
        self._check_fitted()
        X = check_array(X, dtype=self.cluster_centers_.dtype)
        if X.shape[1] != self.cluster_centers_.shape[1]:
            raise ValidationError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.cluster_centers_.shape[1]}"
            )
        with open_row_pool(self.n_threads) as pool:
            labels, _ = assign_to_nearest(
                X, self.cluster_centers_, parallel=pool
            )
        return labels

    def transform(self, X) -> np.ndarray:
        """Squared distances of each row of ``X`` to every centroid."""
        self._check_fitted()
        X = check_array(X, dtype=self.cluster_centers_.dtype)
        return squared_distances(X, self.cluster_centers_)

    def score(self, X) -> float:
        """Negative inertia of ``X`` under the learned centroids."""
        self._check_fitted()
        X = check_array(X, dtype=self.cluster_centers_.dtype)
        with open_row_pool(self.n_threads) as pool:
            _, distances = assign_to_nearest(
                X, self.cluster_centers_, parallel=pool
            )
        return -float(distances.sum(dtype=np.float64))

    def parameter_count(self) -> int:
        """Scalars stored by the summary: ``k · m``."""
        self._check_fitted()
        return int(self.cluster_centers_.size)

    # ------------------------------------------------------------ internals
    def _warn_not_converged(self) -> None:
        # Called from _fit only: stacklevel 4 skips this method, _fit and
        # fit, so the warning names the line that called fit().
        warnings.warn(
            f"KMeans did not converge in {self.max_iter} iterations",
            ConvergenceWarning,
            stacklevel=4,
        )

    def _check_fitted(self) -> None:
        if self.cluster_centers_ is None:
            raise NotFittedError("this KMeans instance is not fitted yet; call fit first")

    def _init_centers(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.init == "k-means++":
            return kmeans_plus_plus_init(X, self.n_clusters, rng)
        indices = rng.choice(X.shape[0], size=self.n_clusters, replace=False)
        return X[indices].copy()

    @property
    def uses_pruning(self) -> bool:
        """Whether Lloyd iterations run with Hamerly bounds pruning."""
        return self.pruning != "none"

    def _assign_step(
        self,
        X: np.ndarray,
        centers: np.ndarray,
        labels: np.ndarray,
        bounds: Optional[HamerlyBounds],
        x_squared_norms: np.ndarray,
        parallel=None,
    ):
        """One assignment pass; returns ``(labels, min_distances_or_None)``.

        ``min_distances`` is ``None`` on pruned iterations — the caller
        recomputes it on demand (only the empty-cluster reseed needs it).
        """
        if bounds is None:
            return assign_to_nearest(
                X, centers, x_squared_norms=x_squared_norms, parallel=parallel
            )

        def exact_squared(idx):
            # Active-set tightening, row-blocked over the *subset*: each
            # row's distance is independent, so the blocked sweep is
            # bit-identical and gathers only one block of rows at a time.
            return np.concatenate(map_row_blocks(
                parallel,
                lambda start, stop: paired_squared_distances(
                    X[idx[start:stop]], centers[labels[idx[start:stop]]]
                ),
                idx.size,
            ))

        def rescore(idx):
            if idx is None:
                return assign_to_nearest(
                    X, centers, x_squared_norms=x_squared_norms,
                    return_second=True, parallel=parallel,
                )
            return assign_to_nearest(
                X[idx], centers, x_squared_norms=x_squared_norms[idx],
                return_second=True, parallel=parallel,
            )

        labels, _, full_d1 = hamerly_step(bounds, labels, exact_squared, rescore)
        return labels, full_d1

    # --------------------------------------------------------- checkpointing
    def _param_header(self) -> dict:
        """Configuration fingerprint a checkpoint must match to resume."""
        # n_threads is deliberately absent: pool width never changes
        # results (the row-block contract), so checkpoints stay portable
        # across machine sizes — and older checkpoints keep resuming.
        return {
            "n_clusters": self.n_clusters,
            "init": self.init,
            "n_init": self.n_init,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "pruning": self.pruning,
            "dtype": np.dtype(self.dtype_).name,
        }

    def _write_checkpoint(
        self, restart, iteration, centers, labels, bounds, rng,
        fingerprint, best_state,
    ) -> None:
        if self.checkpoint is None or not self.checkpoint.due(iteration):
            return
        header = {
            "estimator": type(self).__name__,
            "params": self._param_header(),
            "data": fingerprint,
            "restart": restart,
            "iteration": iteration,
            "rng_state": serialize_rng_state(rng),
            "bounds_initialized": (
                None if bounds is None else bool(bounds.initialized)
            ),
            "has_best": best_state is not None,
            "best_inertia": (
                None if best_state is None else float(best_state[2])
            ),
            "best_iterations": (
                0 if best_state is None else int(best_state[3])
            ),
        }
        arrays = {"centers": centers, "labels": labels}
        if bounds is not None:
            arrays["bounds_upper"] = bounds.upper
            arrays["bounds_lower"] = bounds.lower
        if best_state is not None:
            arrays["best_centers"] = best_state[0]
            arrays["best_labels"] = best_state[1]
        write_checkpoint(self.checkpoint.path, header, arrays)

    def _load_checkpoint(self, rng, fingerprint, x_squared_norms, n_features):
        """Verify and unpack ``resume_from``; restores ``rng`` in place.

        Returns ``(restart_index, resume_state, best_state_or_None)``
        where ``resume_state`` re-enters :meth:`_single_run` at the
        checkpointed iteration's successor.
        """
        from ..exceptions import CheckpointError

        header, arrays = read_checkpoint(self.resume_from)
        check_header_fields(
            header,
            {
                "estimator": type(self).__name__,
                "params": self._param_header(),
                "data": fingerprint,
            },
            path=self.resume_from,
        )
        restore_rng_state(rng, header["rng_state"])
        centers = np.ascontiguousarray(arrays["centers"], dtype=self.dtype_)
        labels = np.ascontiguousarray(arrays["labels"], dtype=np.int64)
        bounds = None
        if self.uses_pruning:
            if "bounds_upper" not in arrays:
                raise CheckpointError(
                    f"{self.resume_from} carries no pruning bounds but the "
                    "resuming estimator prunes", field="bounds_upper",
                )
            # The dtype-margin scalars are deterministic functions of the
            # constructor inputs, so only the per-point arrays and the
            # initialized flag need the round trip.
            bounds = HamerlyBounds(x_squared_norms, n_features)
            bounds.upper = np.ascontiguousarray(
                arrays["bounds_upper"], dtype=np.float64
            )
            bounds.lower = np.ascontiguousarray(
                arrays["bounds_lower"], dtype=np.float64
            )
            bounds.initialized = bool(header["bounds_initialized"])
        resume_state = (centers, labels, bounds, int(header["iteration"]) + 1)
        best_state = None
        if header.get("has_best"):
            best_state = (
                np.ascontiguousarray(arrays["best_centers"], dtype=self.dtype_),
                np.ascontiguousarray(arrays["best_labels"], dtype=np.int64),
                float(header["best_inertia"]),
                int(header["best_iterations"]),
            )
        return int(header["restart"]), resume_state, best_state

    def _single_run(
        self,
        X: np.ndarray,
        rng: np.random.Generator,
        weights: np.ndarray,
        weighted_X: np.ndarray,
        x_squared_norms: np.ndarray,
        restart_index: int = 0,
        resume=None,
        fingerprint=None,
        best_state=None,
        parallel=None,
    ):
        if resume is None:
            centers = self._init_centers(X, rng)
            bounds = (
                HamerlyBounds(x_squared_norms, X.shape[1])
                if self.uses_pruning else None
            )
            labels = np.zeros(X.shape[0], dtype=np.int64)
            start = 1
        else:
            centers, labels, bounds, start = resume
        interrupted = False
        converged = False
        # `completed` and `centers` advance together at the end of each
        # iteration, so the KeyboardInterrupt handler always sees a
        # consistent last-completed state even mid-iteration.
        completed = start - 1
        try:
            for iterations in range(start, self.max_iter + 1):
                labels, min_distances = self._assign_step(
                    X, centers, labels, bounds, x_squared_norms, parallel
                )
                new_centers = centers.copy()
                counts = _group_mass(
                    labels, weights, self.n_clusters, parallel
                )
                # Per-column bincount reduction (grouped_row_sum) over the
                # fit-hoisted weighted matrix: same row-order accumulation as
                # the np.add.at scatter it replaces, an order of magnitude
                # faster — and with pruning this update is the iteration floor.
                sums = grouped_row_sum(
                    labels, weighted_X, self.n_clusters, parallel
                )
                non_empty = counts > 0
                new_centers[non_empty] = sums[non_empty] / counts[non_empty, None]
                # Empty clusters: re-seed on the points farthest from their
                # centroid, the standard remedy (also KR-k-Means, Appendix B).
                empty = np.flatnonzero(~non_empty)
                if empty.size:
                    if min_distances is None:
                        # Pruned iterations skip exact per-point distances;
                        # the reseed rule ranks all of them, so fall back to
                        # the full computation the unpruned path runs — same
                        # call, same inputs, bit-identical reseed choice.
                        _, min_distances = assign_to_nearest(
                            X, centers, x_squared_norms=x_squared_norms,
                            parallel=parallel,
                        )
                    farthest = (
                        np.argsort(min_distances * weights)[::-1][: empty.size]
                    )
                    new_centers[empty] = X[farthest]
                # float64 reduction for any working dtype (exact no-op at
                # f64): the convergence test must not drown in f32
                # accumulation noise.
                shift = float(
                    np.sum((new_centers - centers) ** 2, dtype=np.float64)
                )
                if bounds is not None and shift >= self.tol:
                    drift = dense_drift(centers, new_centers)
                    bounds.inflate(drift[labels], float(drift.max()))
                centers = new_centers
                completed = iterations
                if self.callback is not None:
                    self.callback(restart_index, iterations)
                if shift < self.tol:
                    converged = True
                    break
                # Snapshot only on continuing iterations: a resumed run
                # always has at least the terminal iteration left to do.
                self._write_checkpoint(
                    restart_index, iterations, centers, labels, bounds,
                    rng, fingerprint, best_state,
                )
        except KeyboardInterrupt:
            interrupted = True
        labels, min_distances = assign_to_nearest(
            X, centers, x_squared_norms=x_squared_norms, parallel=parallel
        )
        inertia = float((min_distances * weights).sum(dtype=np.float64))
        # An interrupted run is reported as interrupted, not as unconverged.
        return (
            centers, labels, inertia, completed, converged or interrupted,
            interrupted,
        )
