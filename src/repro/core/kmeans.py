"""Standard k-Means (Lloyd's algorithm) with k-means++ initialization.

This is the unconstrained baseline of the paper (Section 3).  It is written
from scratch on numpy so that the scalability comparison of Figure 8 runs
both algorithms on the same code path, as the paper does for fairness
("in the scalability experiments ... we use an implementation of k-Means
which mirrors the implementation of Khatri-Rao-k-Means", Appendix B).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .._validation import (
    check_array,
    check_dtype,
    check_in,
    check_n_features,
    check_positive_int,
    check_random_state,
)
from ..exceptions import NotFittedError, ValidationError
from ..runtime.checkpoint import resolve_checkpoint
from ..runtime.parallel import open_row_pool, resolve_parallel
from ._bounds import check_pruning, dense_drift
from ._distances import assign_to_nearest, row_norms_squared, squared_distances
from ._lloyd import fit_restarts, state_array
from ._update import grouped_statistics

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
        Grouped accumulation (the one-hot centroid sums of
        :func:`repro.core._update.grouped_statistics`), inertia
        reductions and the pruning-bound maintenance stay float64 — see
        ``docs/numerics.md`` for the error envelope.  ``"float64"``
        (default) is bit-identical to the historical behavior.
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
    n_jobs : None or int
        ``None`` (default) runs restarts sequentially on a shared RNG —
        bit-compatible with every earlier release.  An int ``>= 1`` runs
        them on that many threads, restart ``i`` on the ``i``-th
        ``rng.spawn`` stream: the result is identical at every worker
        count, and a failing restart raises its own exception (the
        lowest failing restart index wins).  Incompatible with
        ``checkpoint``/``resume_from``.
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
        self.n_jobs = (
            None if n_jobs is None else check_positive_int(n_jobs, "n_jobs")
        )
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
            best, interrupted = fit_restarts(
                self, _KMeansLloyd(self, X, weights, sample_weight, pool), rng
            )
        self.cluster_centers_ = best.model
        self.labels_ = best.labels
        self.inertia_ = float(best.inertia)
        self.n_iter_ = best.n_iter
        self.converged_ = not interrupted
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return the labels of the training data."""
        return self.fit(X).labels_

    def predict(self, X) -> np.ndarray:
        """Assign each row of ``X`` to its nearest learned centroid."""
        X = self._check_new_rows(X)
        with open_row_pool(self.n_threads) as pool:
            labels, _ = assign_to_nearest(
                X, self.cluster_centers_, parallel=pool
            )
        return labels

    def transform(self, X) -> np.ndarray:
        """Squared distances of each row of ``X`` to every centroid."""
        X = self._check_new_rows(X)
        return squared_distances(X, self.cluster_centers_)

    def score(self, X) -> float:
        """Negative inertia of ``X`` under the learned centroids."""
        X = self._check_new_rows(X)
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
    def _check_fitted(self) -> None:
        if self.cluster_centers_ is None:
            raise NotFittedError("this KMeans instance is not fitted yet; call fit first")

    def _check_new_rows(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X, dtype=self.cluster_centers_.dtype)
        check_n_features(X, self.cluster_centers_.shape[1])
        return X

    def _init_centers(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.init == "k-means++":
            return kmeans_plus_plus_init(X, self.n_clusters, rng)
        indices = rng.choice(X.shape[0], size=self.n_clusters, replace=False)
        return X[indices].copy()

    @property
    def uses_pruning(self) -> bool:
        """Whether Lloyd iterations run with Hamerly bounds pruning."""
        return self.pruning != "none"

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


class _KMeansLloyd:
    """``KMeans`` as an adapter of the Lloyd engine (:mod:`._lloyd`)."""

    logs_fractions = False

    def __init__(self, est, X, weights, sample_weight, parallel):
        self.est, self.X, self.weights, self.parallel = est, X, weights, parallel
        self.prunes = est.uses_pruning
        # ‖x‖² is constant across iterations and restarts — pay for it once.
        self.x_squared_norms = row_norms_squared(X, parallel=parallel)
        # The update's data pass weights X block by block; unweighted fits
        # pass no weights and skip the X·1 product (exact either way), and
        # a memory-mapped X is never materialized in RAM.
        self.update_weights = None if sample_weight is None else weights

    def init(self, rng):
        return self.est._init_centers(self.X, rng)

    def assign(self, centers, X, x_squared_norms, return_second=False):
        return assign_to_nearest(
            X, centers, x_squared_norms=x_squared_norms,
            return_second=return_second, parallel=self.parallel,
        )

    def decode(self, labels):
        return labels

    def assigned_rows(self, centers, labels):
        return centers[labels]

    def update(self, centers, labels, min_distances, rng):
        k = self.est.n_clusters
        new_centers = centers.copy()
        # The p = 1 data pass: sums and counts in one row-block map, each
        # bucket accumulated in row order like the np.add.at scatter it
        # replaces — and with pruning this update is the iteration floor.
        (sums,), (counts,), _ = grouped_statistics(
            self.X, labels[:, None], (k,), self.update_weights, self.parallel
        )
        non_empty = counts > 0
        new_centers[non_empty] = sums[non_empty] / counts[non_empty, None]
        # Empty clusters: re-seed on the points farthest from their
        # centroid, the standard remedy (also KR-k-Means, Appendix B).
        empty = np.flatnonzero(~non_empty)
        if empty.size:
            if min_distances is None:
                # Pruned iterations skip exact per-point distances; the
                # reseed rule ranks all of them, so fall back to the full
                # computation the unpruned path runs — same call, same
                # inputs, bit-identical reseed choice.
                _, min_distances = self.assign(
                    centers, self.X, self.x_squared_norms
                )
            farthest = np.argsort(min_distances * self.weights)[::-1][: empty.size]
            new_centers[empty] = self.X[farthest]
        return new_centers

    def shift(self, old, new):
        # float64 reduction for any working dtype (exact no-op at f64): the
        # convergence test must not drown in f32 accumulation noise.
        return float(np.sum((new - old) ** 2, dtype=np.float64))

    def drift(self, old, new, labels):
        drift = dense_drift(old, new)
        return drift[labels], float(drift.max())

    def model_arrays(self, centers, prefix):
        return {f"{prefix}centers": centers}

    def read_model(self, arrays, prefix, path):
        return state_array(arrays, f"{prefix}centers", self.est.dtype_, path)
