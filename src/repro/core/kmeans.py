"""Standard k-Means (Lloyd's algorithm) with k-means++ initialization.

This is the unconstrained baseline of the paper (Section 3).  A Khatri-Rao
model with a single protocentroid set *is* k-means, so :class:`KMeans` is
:class:`~repro.core.kr_kmeans.KhatriRaoKMeans` with ``cardinalities=(k,)``
scored against the materialized centroids: the scalability comparison of
Figure 8 runs both algorithms on the same code path, as the paper does for
fairness ("in the scalability experiments ... we use an implementation of
k-Means which mirrors the implementation of Khatri-Rao-k-Means",
Appendix B).  What stays k-means' own is the farthest-point reseed of
empty clusters, ``cluster_centers_``, ``transform``/``score`` and the
checkpoint format.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive_int
from ..runtime.checkpoint import data_fingerprint
from ..runtime.parallel import open_row_pool
from ._distances import kmeans_plus_plus_init, squared_distances
from .kr_kmeans import KhatriRaoKMeans

__all__ = ["KMeans", "kmeans_plus_plus_init"]


class KMeans(KhatriRaoKMeans):
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

    _init_options = ("k-means++", "random")
    _logs_fractions = False  # part of the checkpoint format, see below

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
        super().__init__(
            (check_positive_int(n_clusters, "n_clusters"),),
            init=init, n_init=n_init, max_iter=max_iter, tol=tol,
            mode="time", assignment="materialized", pruning=pruning,
            dtype=dtype, random_state=random_state, checkpoint=checkpoint,
            resume_from=resume_from, callback=callback, n_jobs=n_jobs,
            n_threads=n_threads,
        )

    @property
    def cluster_centers_(self):
        """The learned ``(n_clusters, m)`` centroids (``None`` before fit)."""
        return None if self.protocentroids_ is None else self.protocentroids_[0]

    def transform(self, X) -> np.ndarray:
        """Squared distances of each row of ``X`` to every centroid."""
        X = self._check_new_rows(X)
        return squared_distances(X, self.cluster_centers_)

    def score(self, X) -> float:
        """Negative inertia of ``X`` under the learned centroids."""
        X = self._check_new_rows(X)
        with open_row_pool(self.n_threads) as pool:
            _, distances = self._assign(
                X, self.protocentroids_, True, parallel=pool
            )
        return -float(distances.sum(dtype=np.float64))

    # ------------------------------------------------------------ internals
    def _empty_reseed(self, adapter, thetas, min_distances):
        """Empty clusters move to the points farthest (weighted) from their
        centroid, the standard remedy (also KR-k-Means, Appendix B)."""

        def farthest(centers, empty):
            distances = min_distances
            if distances is None:
                # Pruned iterations skip exact per-point distances; the
                # rule ranks all of them, so run the full assignment the
                # unpruned path runs — same inputs, same reseed choice.
                _, distances = adapter.assign(
                    thetas, adapter.X, adapter.x_squared_norms
                )
            if adapter.weights is not None:
                distances = distances * adapter.weights
            rows = np.argsort(distances)[::-1][: empty.size]
            centers[empty] = adapter.X[rows]

        return farthest

    # The checkpoint format KMeans archives have always had: its own
    # header keys, a "centers" array, no fraction log, and a fingerprint
    # over unit weights for an unweighted fit.
    def _param_header(self) -> dict:
        header = super()._param_header()
        return {"n_clusters": self.n_clusters, **{
            key: header[key]
            for key in ("init", "n_init", "max_iter", "tol", "pruning", "dtype")
        }}

    def _state_keys(self):
        return ["centers"]

    def _data_fingerprint(self, X, weights):
        if self.checkpoint is None and self.resume_from is None:
            return None
        if weights is None:
            weights = np.ones(X.shape[0], dtype=X.dtype)
        return data_fingerprint(X, weights)
