"""The Khatri-Rao-k-Means algorithm (paper Section 6, Algorithm 1).

Khatri-Rao k-Means represents ``k = h_1 · h_2 · ... · h_p`` centroids through
``p`` sets of protocentroids with only ``h_1 + ... + h_p`` stored vectors.
Each iteration, as the paper states it:

1. materializes centroids by aggregating protocentroids (on the fly in the
   memory-efficient mode, or cached in the time-efficient mode — Appendix B)
   — in this implementation an *implicit* step for decomposable
   aggregators, which score the grid without ever building it (see
   "Factored assignment" below);
2. assigns every point to its nearest centroid, which induces a per-set
   assignment through the centroid-index ↔ tuple bijection;
3. updates each protocentroid in closed form (Proposition 6.1, generalized
   here to arbitrary ``p``);
4. stops when the total squared movement of the reconstructed centroids
   falls below ``tol`` (Algorithm 1, line 20).

Both the sum and product aggregators of the paper are supported, as well as
random and k-means++-style initialization (Section 6, "Initialization").

Factored assignment (the Khatri-Rao fast path)
----------------------------------------------
Step 2 dominates the complexity analysis of Section 6.  A direct
implementation pays the full k-Means price — ``O(n·k·m)`` with
``k = ∏ h_q`` — but for the sum aggregator the squared distance to centroid
``c = Σ_q θ_q[j_q]`` decomposes as

.. math::

    ‖x − c‖² = ‖x‖² − 2 Σ_q x·θ_q[j_q] + ‖Σ_q θ_q[j_q]‖²

so assignment needs only ``p`` Gram matrices ``G_q = X @ θ_qᵀ`` of shape
``(n, h_q)`` and a data-free centroid-norm vector ``S`` — never the
``(k, m)`` centroid matrix.  On top of either strategy, cross-iteration
Hamerly bounds (:mod:`repro.core._bounds`, the ``pruning`` knob) shrink the
per-iteration scan to the ``a ≤ n`` *active* points whose bounds overlap:

==============  ==========================  ===========================  ==============
assignment      time per iteration (full)   pruned iteration             materializes?
==============  ==========================  ===========================  ==============
materialized    ``O(n·k·m)``                ``O(a·k·m + n)``             yes
factored        ``O(n·m·Σh_q + n·k·p)``     ``O(a·m·Σh_q + a·k·p + n)``  never
==============  ==========================  ===========================  ==============

The ``assignment`` knob selects the strategy; ``"auto"`` (default) uses the
factored kernel whenever the aggregator advertises
``supports_factored_assignment`` (sum: yes; product: no — it transparently
falls back to the materialized path).  The same capability powers a
closed-form centroid-shift test, so memory mode no longer re-materializes
the centroid grid to check convergence either.

Contingency-table updates (the ``update`` knob)
-----------------------------------------------
Once assignment is factored and pruned, the closed-form protocentroid
update of Proposition 6.1 becomes the per-iteration floor.  Its gather form
materializes an ``(n, m)`` *rest* matrix per set, plus several same-size
temporaries around it.  For the sum aggregator the grouped rest
contribution factors through per-set-pair contingency count tables,
``Σ_{a_q=j} θ_r[a_r] = (C_qr @ θ_r)[j]``, so the update needs one pass
over the data for all sets (grouped sums as a one-hot sparse product,
masses, pair tables) plus tiny ``(h_q, h_r) @ (h_r, m)`` matmuls — still
``Θ(p·n·m)``, but measured ~18× faster than the gather form on a
``6000 × 256``, ``(4, 4, 4)`` update (:mod:`repro.core._update`).  The
two forms reorder floating point, so they agree to last-ulp drift; the
``update`` knob selects between them and ``"auto"`` uses the factored
kernel whenever the aggregator advertises ``supports_factored_update``
(sum: yes; product: no — gather fallback).

Bounds-pruned incremental Lloyd (the ``pruning`` knob)
------------------------------------------------------
After the first few iterations most points provably cannot change label.
Each point keeps an upper bound on the distance to its assigned centroid
and a lower bound on the second-nearest; after every protocentroid update
the bounds are inflated by per-centroid drift bounds and only overlapping
points are re-scored.  For decomposable aggregators the drift side is
factored too: ``‖Δc(j_1..j_p)‖ ≤ Σ_q ‖Δθ_q[j_q]‖`` (the aggregator's
``factored_drift`` hook), so drift bounds for all ``k = ∏ h_q`` centroids
cost ``Σ h_q`` numbers.  Pruned and unpruned runs produce identical labels,
inertia and iteration counts; late iterations typically re-score under 10 %
of the points, a 2–5× end-to-end ``fit()`` speedup on multi-iteration
workloads.
"""

from __future__ import annotations

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
    check_sample_weight,
)
from ..exceptions import NotFittedError, ValidationError
from ..runtime.checkpoint import resolve_checkpoint, state_array
from ..runtime.parallel import open_row_pool, resolve_parallel
from ..linalg import (
    flat_to_set_labels,
    get_aggregator,
    khatri_rao_combine,
    khatri_rao_rows,
    num_combinations,
    resolve_working_dtype,
)
from ._bounds import check_pruning, dense_drift, drift_inflation_from_tables
from ._distances import kmeans_plus_plus_init, row_norms_squared
from ._factored import ASSIGNMENT_MODES, assign_khatri_rao, resolve_assignment
from ._lloyd import fingerprint, fit_restarts
from ._update import UPDATE_MODES, resolve_update, update_protocentroids

__all__ = ["KhatriRaoKMeans"]


def _split_seeds(seeds, cardinalities, aggregator) -> List[np.ndarray]:
    """Protocentroid sets from ``sum(h_q)`` seed points: each seed is
    factored into ``p`` parts whose aggregation reproduces it, and set
    ``q`` keeps the ``q``-th part of its own ``h_q`` seeds."""
    p = len(cardinalities)
    thetas = []
    offset = 0
    for q, h in enumerate(cardinalities):
        block = np.empty((h, seeds.shape[1]), dtype=seeds.dtype)
        for j in range(h):
            block[j] = aggregator.split(seeds[offset + j], p)[q]
        thetas.append(block)
        offset += h
    return thetas


def _random_protocentroids(X, cardinalities, aggregator, rng) -> List[np.ndarray]:
    """Random initialization (Algorithm 1, lines 3-4): sample data points
    per set and factor each through the aggregator's exact split, so the
    *initial centroids* (one protocentroid per set, aggregated) stay
    inside the data range — raw points would start centroids at e.g.
    ``x_i + x_j`` for the sum aggregator, far outside the hull
    (Appendix B)."""
    seeds = np.vstack([
        X[rng.choice(X.shape[0], size=h, replace=X.shape[0] < h)]
        for h in cardinalities
    ])
    return _split_seeds(seeds, cardinalities, aggregator)


class _KhatriRaoEstimator:
    """What the batch and mini-batch Khatri-Rao estimators share, over
    their constructor knobs and the fitted ``protocentroids_``."""

    @property
    def n_clusters(self) -> int:
        """Number of representable centroids, ``∏ h_q``."""
        return num_combinations(self.cardinalities)

    @property
    def uses_factored_assignment(self) -> bool:
        """Whether assignment runs through the factored Khatri-Rao kernel.

        Resolves the ``assignment`` knob against the aggregator's
        capability: True for ``"auto"``/``"factored"`` with a decomposable
        aggregator (sum), False when forced ``"materialized"`` or when the
        aggregator (product) requires the materialized fallback.
        """
        return resolve_assignment(self.assignment, self.aggregator)

    @property
    def uses_factored_update(self) -> bool:
        """Whether protocentroid updates run through the contingency kernel.

        Resolves the ``update`` knob against the aggregator's
        ``supports_factored_update`` capability: True for
        ``"auto"``/``"factored"`` with a decomposable aggregator (sum),
        False when forced ``"gather"`` or when the aggregator (product)
        requires the gather fallback.
        """
        return resolve_update(self.update, self.aggregator)

    def predict(self, X) -> np.ndarray:
        """Assign each row of ``X`` to its nearest reconstructed centroid."""
        X = self._check_new_rows(X)
        with open_row_pool(self.n_threads) as pool:
            labels, _ = self._assign(
                X, self.protocentroids_, self._should_materialize(X),
                parallel=pool,
            )
        return labels

    def centroids(self) -> np.ndarray:
        """Materialize the full ``(∏ h_q, m)`` centroid matrix."""
        self._check_fitted()
        return khatri_rao_combine(self.protocentroids_, self.aggregator)

    def parameter_count(self) -> int:
        """Scalars stored by the summary: ``(∑ h_q) · m``."""
        self._check_fitted()
        return int(sum(theta.size for theta in self.protocentroids_))

    # ------------------------------------------------------------ internals
    def _working_dtype(self, fit: bool = False) -> np.dtype:
        """The working dtype, resolved against the aggregator (loud float64
        fallback) by every fit, otherwise once, on first use."""
        if fit or self.dtype_ is None:
            self.dtype_ = resolve_working_dtype(self.dtype, self.aggregator)
        return self.dtype_

    def _prepare(self, X, sample_weight=None, fit: bool = True):
        """``(X, weights, rng)`` for a fit, or for one streamed batch, with
        ``X`` cast once to the working dtype."""
        X = check_array(
            X, min_samples=max(self.cardinalities) if fit else 1,
            dtype=self._working_dtype(fit),
        )
        # None stays None: the update kernels and the inertia reduction skip
        # the exact-but-wasted multiply by an all-ones weight column.
        weights = (
            None if sample_weight is None
            else check_sample_weight(sample_weight, X.shape[0], dtype=X.dtype)
        )
        return X, weights, check_random_state(self.random_state)

    def _check_fitted(self) -> None:
        if self.protocentroids_ is None:
            raise NotFittedError(
                f"this {type(self).__name__} instance is not fitted yet; "
                "call fit first"
            )

    def _check_new_rows(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X, dtype=self.protocentroids_[0].dtype)
        check_n_features(X, self.protocentroids_[0].shape[1])
        return X

    def _should_materialize(self, X: np.ndarray) -> bool:
        """Whether :meth:`_assign` scores the whole grid at once."""
        return True

    def _assign(
        self,
        X: np.ndarray,
        thetas: List[np.ndarray],
        materialize: bool = True,
        x_squared_norms: Optional[np.ndarray] = None,
        return_second: bool = False,
        parallel=None,
    ) -> Tuple[np.ndarray, ...]:
        # Time mode scores the whole grid at once; memory mode sweeps it in
        # chunk_size blocks (factored partial scores, or centroids built
        # chunk by chunk for the materialized path).
        return assign_khatri_rao(
            X, thetas, self.aggregator, assignment=self.assignment,
            chunk_size=0 if materialize else self.chunk_size,
            x_squared_norms=x_squared_norms, return_second=return_second,
            parallel=parallel,
        )


class KhatriRaoKMeans(_KhatriRaoEstimator):
    """Khatri-Rao k-Means clustering (Algorithm 1).

    Parameters
    ----------
    cardinalities : sequence of int
        ``(h_1, ..., h_p)`` — the size of each protocentroid set.  The model
        represents ``h_1 · ... · h_p`` centroids with ``h_1 + ... + h_p``
        stored vectors.
    aggregator : {"sum", "product"} or Aggregator
        The elementwise ``⊕`` combining protocentroids (paper: ``+`` or
        ``×``).
    init : {"random", "kr-k-means++"}
        ``"random"`` samples data points as initial protocentroids
        (Algorithm 1, lines 3-4); ``"kr-k-means++"`` D²-samples far-apart
        data points and factors each into per-set protocentroids via the
        aggregator's exact split (Section 6, "Initialization").
    n_init : int
        Restarts; the lowest-inertia solution is kept (paper: 20).
    max_iter : int
        Maximum iterations per restart (paper: 200).
    tol : float
        Stopping tolerance on total squared centroid movement (paper: 1e-4).
    mode : {"auto", "time", "memory"}
        Peak-memory policy of the scoring sweep (Appendix B): ``"time"``
        scores the whole centroid grid at once, ``"memory"`` sweeps it in
        ``chunk_size`` blocks so peak memory grows with ``∑ h_q`` instead
        of ``∏ h_q``, and ``"auto"`` picks ``"memory"`` when the grid would
        dominate the data matrix.  Whether centroids are *materialized* at
        all is the ``assignment`` knob's business: with the factored kernel
        (the sum-aggregator default since the factored-assignment
        subsystem) neither mode ever builds the ``(∏ h_q, m)`` matrix —
        time mode holds the full ``(n, ∏ h_q)`` partial-score block,
        memory mode only ``(n, chunk_size)`` blocks.
    assignment : {"auto", "factored", "materialized"}
        Strategy for the nearest-centroid step.  ``"factored"`` exploits the
        Khatri-Rao structure: per-set Gram matrices ``G_q = X @ θ_qᵀ`` and a
        data-free centroid-norm vector replace the ``O(n·k·m)`` distance
        computation with ``O(n·m·Σh_q + n·k·p)``, never materializing
        centroids (sum aggregator only; other aggregators fall back to
        ``"materialized"`` transparently).  ``"materialized"`` forces the
        classic full-price path.  ``"auto"`` (default) uses the factored
        kernel whenever the aggregator supports it.  Both strategies produce
        identical labels; in memory mode the factored kernel sweeps the
        tuple grid in ``chunk_size`` blocks so it keeps the bounded-memory
        guarantee too.
    update : {"auto", "factored", "gather"}
        Strategy for the closed-form protocentroid update (Proposition 6.1).
        ``"factored"`` assembles each set's numerator through per-set-pair
        contingency count tables (``C_qr @ θ_r``) instead of gathering an
        ``(n, m)`` rest matrix per set — one pass over the data for all
        sets, measured ~18× faster than the gather arithmetic (sum
        aggregator only; other aggregators fall back to ``"gather"``
        transparently).  ``"gather"``
        forces the reference per-point arithmetic.  ``"auto"`` (default)
        uses the factored kernel whenever the aggregator supports it.  The
        two strategies reorder floating point and so agree to last-ulp
        drift (empty-cluster reseeds consume the rng identically either
        way).
    pruning : {"auto", "bounds", "none"}
        Cross-iteration Hamerly pruning (:mod:`repro.core._bounds`).
        ``"bounds"`` maintains per-point distance bounds, inflates them with
        per-centroid drift bounds after each protocentroid update (factored
        through the aggregator's ``factored_drift`` hook when it
        decomposes), and re-runs the argmin only on the points whose bounds
        overlap.  Exactly equivalent to the unpruned path — identical
        labels, inertia and iteration counts *at the same working dtype*
        (the certified bound margins scale with the dtype's machine
        epsilon, so float32 runs stay label-identical to unpruned float32
        runs).  ``"auto"`` (default) enables it except in memory mode with
        a non-decomposable aggregator, where the dense ``(k,)`` drift
        vector would break the bounded-peak-memory guarantee; ``"none"``
        always re-scores every point.
    chunk_size : int
        Number of centroids scored at a time in memory mode.
    dtype : {"float64", "float32"} or numpy dtype
        Working dtype of the kernel stack: ``X`` is cast once at ``fit``
        entry, protocentroids/Grams/partial scores are allocated in-dtype,
        and the BLAS-bound hot paths (``cross_gram``, score blocks) run at
        that precision — float32 halves their memory bandwidth, the
        serving-shaped configuration.  Grouped accumulation
        (the one-hot grouped sums, the ``C_qr @ θ_r`` contingency
        matmuls), inertia/shift reductions and pruning-bound maintenance
        deliberately stay float64 (error analysis in ``docs/numerics.md``).
        The dtype must be supported by the aggregator's ``working_dtypes``
        capability; unsupported requests fall back to float64 with a
        :class:`~repro.exceptions.DtypeFallbackWarning`.  ``"float64"``
        (default) is bit-identical to the historical behavior.
    random_state : None, int or Generator
        Source of randomness.
    checkpoint : None, path or CheckpointConfig
        When set, the sequential restart sweep snapshots its full state
        (protocentroids, labels, bound caches, restart/iteration
        counters, best-so-far, RNG state) atomically to this path on the
        config's cadence — see :mod:`repro.runtime.checkpoint`.
        Incompatible with ``n_jobs``.
    resume_from : None or path
        Resume a fit from a checkpoint written by a run with identical
        parameters on identical data (both verified, mismatch is a typed
        :class:`~repro.exceptions.CheckpointError`).  The resumed fit is
        bit-identical to the uninterrupted one.
    callback : None or callable
        ``callback(restart_index, iteration)`` invoked after every
        completed Lloyd iteration — the training fault-injection seam
        (:class:`~repro.faults.FaultHook`).  A callback raising
        ``KeyboardInterrupt`` triggers the graceful-interrupt path.
    n_jobs : None or int
        ``None`` (default) runs restarts sequentially on a shared RNG —
        bit-compatible with every earlier release.  An int ``>= 1`` runs
        them on that many threads, restart ``i`` on the ``i``-th
        ``rng.spawn`` stream: the result is identical at every worker
        count, and a failing restart raises its own exception (the
        lowest failing restart index wins).  Incompatible with
        ``checkpoint``/``resume_from``.
    n_threads : None, int or ParallelConfig
        Width of the supervised thread pool that assignment, updates and
        bound sweeps run on, over fixed row blocks.  ``None`` (default)
        is one worker per available core; an int (or a full
        :class:`~repro.runtime.parallel.ParallelConfig`) sets it.  Block
        boundaries depend only on ``(n, block_rows)`` and reductions
        merge in ascending block order, so every thread count produces
        bit-identical labels, inertia and iteration counts.  Data of at
        most one block runs inline on the calling thread.  Composes with
        ``n_jobs`` (restart workers share the pool) and is the seam that
        streams a :class:`numpy.memmap` ``X`` through ``fit`` block by
        block — larger-than-RAM datasets train through the identical
        code path.

    Attributes
    ----------
    protocentroids_ : list of arrays, set ``q`` has shape ``(h_q, m)``
        Learned protocentroid sets, in the working dtype.
    labels_ : int array of shape (n,)
        Flat centroid index per point (C-order over the tuple indices).
    set_labels_ : int array of shape (n, p)
        Per-set protocentroid assignment of each point.
    inertia_ : float
    n_iter_ : int
    reassignment_fractions_ : list of float or None
        Fraction of points fully re-scored at each Lloyd iteration of the
        best restart (1.0 on the seeding iteration, then typically decaying
        fast); ``None`` when pruning is disabled.
    dtype_ : numpy.dtype
        Working dtype the fit actually ran in (after capability
        resolution — equals the requested ``dtype`` unless the aggregator
        forced the float64 fallback).
    converged_ : bool
        ``True`` when ``fit`` ran to normal completion; ``False`` when a
        ``KeyboardInterrupt`` stopped it early (the best state found so
        far is retained instead of lost).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> base = np.array([[0.0, 0.0], [0.0, 8.0], [8.0, 0.0], [8.0, 8.0]])
    >>> X = np.vstack([b + 0.05 * rng.normal(size=(30, 2)) for b in base])
    >>> model = KhatriRaoKMeans((2, 2), aggregator="sum", random_state=0).fit(X)
    >>> model.centroids().shape
    (4, 2)
    """

    #: Valid ``init`` values; every one but ``"random"`` seeds by k-means++.
    _init_options = ("random", "kr-k-means++")

    def __init__(
        self,
        cardinalities: Sequence[int],
        *,
        aggregator="sum",
        init: str = "random",
        n_init: int = 10,
        max_iter: int = 200,
        tol: float = 1e-4,
        mode: str = "auto",
        assignment: str = "auto",
        update: str = "auto",
        pruning: str = "auto",
        chunk_size: int = 256,
        dtype="float64",
        random_state=None,
        checkpoint=None,
        resume_from=None,
        callback=None,
        n_jobs=None,
        n_threads=None,
    ) -> None:
        self.cardinalities = check_cardinalities(cardinalities)
        self.aggregator = get_aggregator(aggregator)
        self.init = check_in(init, "init", self._init_options)
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.tol = float(tol)
        self.mode = check_in(mode, "mode", ("auto", "time", "memory"))
        self.assignment = check_in(assignment, "assignment", ASSIGNMENT_MODES)
        self.update = check_in(update, "update", UPDATE_MODES)
        self.pruning = check_pruning(pruning)
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
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

        self.protocentroids_: Optional[List[np.ndarray]] = None
        self.labels_: Optional[np.ndarray] = None
        self.set_labels_: Optional[np.ndarray] = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0
        self.reassignment_fractions_: Optional[List[float]] = None
        self.dtype_: Optional[np.dtype] = None
        self.converged_: bool = False

    # ------------------------------------------------------------------ API
    @property
    def n_protocentroids(self) -> int:
        """Number of stored vectors, ``∑ h_q``."""
        return int(sum(self.cardinalities))

    def _uses_pruning(self, materialize: bool) -> bool:
        """Resolve the ``pruning`` knob for a concrete run configuration."""
        if self.pruning == "none":
            return False
        if self.pruning == "bounds":
            return True
        # auto: enable everywhere except memory mode with a non-decomposable
        # aggregator, where the dense (k,) per-centroid drift vector would
        # break the bounded-peak-memory guarantee of Appendix B.  Keyed on
        # the aggregator capability, not the assignment knob: a decomposable
        # aggregator provides Σh_q drift tables whichever way assignment
        # runs.
        return self.aggregator.supports_factored_assignment or materialize

    def fit(self, X, sample_weight=None) -> "KhatriRaoKMeans":
        """Run ``n_init`` restarts of Algorithm 1 and keep the best solution.

        ``sample_weight`` optionally weights each point in the objective and
        in the closed-form protocentroid updates (the weighted form of
        Proposition 6.1).
        """
        X, weights, rng = self._prepare(X, sample_weight)
        with open_row_pool(self.n_threads) as pool:
            best, interrupted = fit_restarts(
                self, _KhatriRaoLloyd(self, X, weights, pool), rng
            )
        self.protocentroids_ = best.model
        self.labels_ = best.labels
        self.set_labels_ = self.set_assignments(best.labels)
        self.inertia_ = float(best.inertia)
        self.n_iter_ = best.n_iter
        self.reassignment_fractions_ = best.fractions
        self.converged_ = not interrupted
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return flat centroid labels for the training data."""
        return self.fit(X).labels_

    def set_assignments(self, labels: Optional[np.ndarray] = None) -> np.ndarray:
        """Decode flat centroid labels into per-set protocentroid indices."""
        if labels is None:
            self._check_fitted()
            labels = self.labels_
        labels = np.asarray(labels, dtype=np.int64).ravel()
        return flat_to_set_labels(labels, self.cardinalities)

    # ------------------------------------------------------------ internals
    def _should_materialize(self, X: np.ndarray) -> bool:
        if self.mode == "time":
            return True
        if self.mode == "memory":
            return False
        # auto: materialize unless the centroid matrix would rival the data.
        return self.n_clusters * X.shape[1] <= max(X.size, 4 * self.chunk_size * X.shape[1])

    # -- initialization ----------------------------------------------------
    def _init_protocentroids(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> List[np.ndarray]:
        if self.init == "random":
            return _random_protocentroids(X, self.cardinalities, self.aggregator, rng)
        # Sample sum(h_q) far-apart data points with k-means++ D²-sampling
        # (Section 6, "Initialization"); with one set this is plain k-means++.
        total = sum(self.cardinalities)
        seeds = kmeans_plus_plus_init(X, min(total, X.shape[0]), rng)
        if seeds.shape[0] < total:
            extra = X[rng.choice(X.shape[0], size=total - seeds.shape[0])]
            seeds = np.vstack([seeds, extra])
        return _split_seeds(seeds, self.cardinalities, self.aggregator)

    # -- protocentroid updates (Proposition 6.1, generalized to p sets) -----
    def _update_protocentroids(
        self,
        X: np.ndarray,
        thetas: List[np.ndarray],
        set_labels: np.ndarray,
        rng: np.random.Generator,
        weights: Optional[np.ndarray] = None,
        parallel=None,
        reseed=None,
    ) -> List[np.ndarray]:
        """One closed-form update sweep, routed by the ``update`` knob.

        The kernels live in :mod:`repro.core._update`: the contingency-table
        form for decomposable aggregators, the per-point gather reference
        otherwise.  Both take every set's weighted mass from one data pass
        (:func:`~repro.core._update.grouped_statistics`), shared by the
        update denominator and the empty-cluster reseed, and both accept
        a row pool — per-block partials folded in ascending
        block order, bit-identical at every pool width.  ``reseed`` is
        the empty-protocentroid rule (:meth:`_empty_reseed`).
        """
        return update_protocentroids(
            X, thetas, set_labels, self.aggregator, rng,
            weights=weights, factored=self.uses_factored_update,
            parallel=parallel, reseed=reseed,
        )

    def _empty_reseed(self, adapter, thetas, min_distances):
        """The empty-protocentroid rule of one update from ``thetas``:
        ``None`` for the default, a random data point split through the
        aggregator (:func:`repro.core._update.update_protocentroids`)."""
        return None

    # --------------------------------------------------------- checkpointing
    def _param_header(self) -> dict:
        """Configuration fingerprint a checkpoint must match to resume."""
        # n_threads is deliberately absent: pool width never changes the
        # results (fixed block boundaries, block-order reductions), so
        # checkpoints written at any thread count keep resuming.
        return {
            "cardinalities": [int(h) for h in self.cardinalities],
            "aggregator": self.aggregator.name,
            "init": self.init,
            "n_init": self.n_init,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "mode": self.mode,
            "assignment": self.assignment,
            "update": self.update,
            "pruning": self.pruning,
            "chunk_size": self.chunk_size,
            "dtype": np.dtype(self.dtype_).name,
        }

    #: Whether fits log, and checkpoint, the per-iteration re-scored fractions.
    _logs_fractions = True

    def _state_keys(self) -> List[str]:
        """Checkpoint array names of the protocentroid sets."""
        return [f"theta_{q}" for q in range(len(self.cardinalities))]

    def _data_fingerprint(self, X, weights) -> Optional[dict]:
        """The data fingerprint of a checkpoint header (``None`` when the
        fit neither writes nor reads one)."""
        return fingerprint(self, X, weights)


class _KhatriRaoLloyd:
    """``KhatriRaoKMeans`` as an adapter of the Lloyd engine
    (:mod:`._lloyd`)."""

    def __init__(self, est, X, weights, parallel):
        self.est, self.X, self.weights, self.parallel = est, X, weights, parallel
        self.materialize = est._should_materialize(X)
        self.prunes = est._uses_pruning(self.materialize)
        self.logs_fractions = est._logs_fractions
        # ‖x‖² is constant across iterations and restarts — pay for it once.
        self.x_squared_norms = row_norms_squared(X, parallel=parallel)

    def init(self, rng):
        return self.est._init_protocentroids(self.X, rng)

    def assign(self, thetas, X, x_squared_norms, return_second=False):
        return self.est._assign(
            X, thetas, self.materialize, x_squared_norms,
            return_second=return_second, parallel=self.parallel,
        )

    def decode(self, labels):
        return self.est.set_assignments(labels)

    def assigned_rows(self, thetas, labels):
        return khatri_rao_rows(thetas, labels, self.est.aggregator)

    def update(self, thetas, set_labels, min_distances, rng):
        return self.est._update_protocentroids(
            self.X, thetas, set_labels, rng, self.weights,
            parallel=self.parallel,
            reseed=self.est._empty_reseed(self, thetas, min_distances),
        )

    def _chunk_pairs(self, old, new):
        """Old and new centroid chunks: the whole grid in time mode,
        ``chunk_size`` centroids at a time in memory mode (never whole)."""
        est = self.est
        k = est.n_clusters
        step = k if self.materialize else est.chunk_size
        for start in range(0, k, step):
            stop = min(start + step, k)
            flat = np.arange(start, stop)
            yield (start, stop,
                   khatri_rao_rows(old, flat, est.aggregator),
                   khatri_rao_rows(new, flat, est.aggregator))

    def shift(self, old, new):
        """Total squared centroid movement (Algorithm 1, line 20)."""
        agg = self.est.aggregator
        if self.est.uses_factored_assignment:
            # Closed form for decomposable aggregators — O(m·Σh_q + p²·m),
            # no centroid grid in either time or memory mode.
            return agg.factored_shift(old, new)
        shift = 0.0
        for _, _, old_chunk, new_chunk in self._chunk_pairs(old, new):
            shift += float(np.sum((new_chunk - old_chunk) ** 2, dtype=np.float64))
        return shift

    def drift(self, old, new, set_labels):
        """Per-centroid movement bounds for Hamerly inflation.

        Decomposable aggregators bound all ``∏ h_q`` centroids through the
        per-set ``factored_drift`` norm tables (``Σ h_q`` numbers) — also
        in memory mode when the assignment knob forced the materialized
        kernel.  Otherwise the exact dense ``(k,)`` movement vector, chunk
        by chunk in memory mode (what ``pruning="auto"`` refuses to
        allocate there).
        """
        agg = self.est.aggregator
        if self.est.uses_factored_assignment or (
            not self.materialize and agg.supports_factored_assignment
        ):
            return drift_inflation_from_tables(
                agg.factored_drift(old, new), set_labels
            )
        drift = np.empty(self.est.n_clusters)
        for start, stop, old_chunk, new_chunk in self._chunk_pairs(old, new):
            drift[start:stop] = dense_drift(old_chunk, new_chunk)
        assigned = drift.reshape(self.est.cardinalities)[tuple(set_labels.T)]
        return assigned, float(drift.max())

    def model_arrays(self, thetas, prefix):
        return {
            prefix + key: theta
            for key, theta in zip(self.est._state_keys(), thetas)
        }

    def read_model(self, arrays, prefix, path):
        return [
            state_array(arrays, prefix + key, self.est.dtype_, path)
            for key in self.est._state_keys()
        ]
