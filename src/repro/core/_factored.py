"""Factored assignment kernel exploiting Khatri-Rao structure (Section 6).

The paper identifies the assignment step as the bottleneck of Khatri-Rao
k-Means, yet a direct implementation pays the full k-Means price: it
materializes all ``k = ∏ h_q`` centroids and computes an ``O(n·k·m)``
distance matrix, discarding the very structure that makes the model compact.

For the **sum** aggregator the squared distance decomposes.  With centroid
``c = Σ_q θ_q[j_q]``:

.. math::

    ‖x − c‖² = ‖x‖² − 2 Σ_q x·θ_q[j_q] + S[j_1..j_p]

where ``S[j_1..j_p] = ‖Σ_q θ_q[j_q]‖²`` depends only on the protocentroids.
The per-point work therefore needs just ``p`` Gram matrices
``G_q = X @ θ_qᵀ`` of shape ``(n, h_q)`` plus the data-free vector ``S``,
turning the dominant cost into ``O(n·m·Σh_q + n·k·p)`` and removing centroid
materialization from the hot loop entirely.  Since ``‖x‖²`` is constant per
row it does not affect the argmin, so the kernel minimizes the *partial*
score ``S − 2 Σ_q G_q`` and adds ``‖x‖²`` back only for the returned
distances.

Each row block reduces its scores to labels and top-2 distances with one
of two block kernels, chosen by the block's grid bytes
(:data:`SET_MAJOR_MIN_GRID_BYTES`) and bit-identical to each other:

==================  =====================================  ==========================
block kernel        passes over the ``rows · k`` scores    scratch per block
==================  =====================================  ==========================
grid (small)        ``p + 1`` writes, argmin, mask, min     ``rows · k``
set-major (large)   ``p`` writes + min, one slab in cache  ``rows · (k/h_1 + h_1)``
==================  =====================================  ==========================

The grid keeps serving-sized requests, ``p = 1`` and small grids such as
``(3, 3)``; the set-major sweep wins once the grid outgrows the cache.

Which aggregators decompose this way is an aggregator capability
(``supports_factored_assignment`` — see :mod:`repro.linalg.aggregators`);
the product aggregator does not, and falls back to the materialized grid.
:func:`assign_khatri_rao` makes that choice, and the memory-mode choice of
Appendix B (the whole grid, or ``chunk_size`` centroids at a time), for
every consumer: both estimators, :class:`~repro.summary.DataSummary` and
the federated clients.

The module also hosts :func:`grouped_row_sum` and its block kernel
:func:`one_hot_row_sum`, the one-hot sparse-product scatter reduction used
by the closed-form protocentroid updates (:mod:`repro.core._update`);
``np.add.at`` is an order of magnitude slower for this access pattern.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_float_array, int_prod
from ..exceptions import ValidationError
from ..linalg import get_aggregator, khatri_rao_combine, khatri_rao_rows
from ._distances import (
    _chunked_argmin,
    _row_min,
    _row_second_min,
    _working_dtype,
    assign_to_nearest,
    merge_row_block_assignments,
    row_norms_squared,
    squared_distances,
)
from ..runtime.parallel import fold_blocks, map_row_blocks

__all__ = [
    "assign_factored",
    "assign_khatri_rao",
    "grouped_row_sum",
    "one_hot_row_sum",
    "resolve_assignment",
]

#: valid values of the estimators' ``assignment`` knob
ASSIGNMENT_MODES = ("auto", "factored", "materialized")


def resolve_assignment(assignment: str, aggregator) -> bool:
    """Return True when the factored kernel should handle assignment.

    ``"auto"`` and ``"factored"`` both resolve to the factored kernel only
    when the aggregator advertises ``supports_factored_assignment``; other
    aggregators transparently fall back to the materialized path.
    """
    if assignment not in ASSIGNMENT_MODES:
        raise ValidationError(
            f"assignment must be one of {ASSIGNMENT_MODES}, got {assignment!r}"
        )
    if assignment == "materialized":
        return False
    return bool(get_aggregator(aggregator).supports_factored_assignment)


def assign_khatri_rao(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    aggregator="sum",
    *,
    assignment: str = "auto",
    chunk_size: int = 0,
    x_squared_norms: Optional[np.ndarray] = None,
    return_second: bool = False,
    parallel=None,
) -> Tuple[np.ndarray, ...]:
    """Assign rows of ``X`` to their nearest Khatri-Rao centroid.

    Scores through the protocentroid sets (:func:`assign_factored`) when
    ``assignment`` resolves to the factored kernel
    (:func:`resolve_assignment`), else against the materialized grid.
    ``chunk_size > 0`` sweeps the grid that many centroids at a time
    (Appendix B); the materialized sweep then builds each chunk on the
    fly (:func:`~repro.linalg.khatri_rao_rows`), never the whole
    ``(∏ h_q, m)`` matrix.  Other arguments and the returns are those of
    :func:`assign_factored`.
    """
    agg = get_aggregator(aggregator)
    if resolve_assignment(assignment, agg):
        return assign_factored(
            X, thetas, agg, chunk_size=chunk_size,
            x_squared_norms=x_squared_norms, return_second=return_second,
            parallel=parallel,
        )
    if chunk_size <= 0:
        return assign_to_nearest(
            X, khatri_rao_combine(thetas, agg),
            x_squared_norms=x_squared_norms, return_second=return_second,
            parallel=parallel,
        )
    k = int_prod(theta.shape[0] for theta in thetas)
    if x_squared_norms is None:
        x_squared_norms = row_norms_squared(X, parallel=parallel)
    dtype = np.result_type(*(_working_dtype(a) for a in (X, *thetas)))

    def _block(start, stop):
        Xb, norms = X[start:stop], x_squared_norms[start:stop]
        return _chunked_argmin(
            stop - start,
            k,
            chunk_size,
            lambda lo, hi: squared_distances(
                Xb,
                khatri_rao_rows(thetas, np.arange(lo, hi), agg),
                x_squared_norms=norms,
            ),
            return_second=return_second,
            dtype=dtype,
        )

    return merge_row_block_assignments(
        map_row_blocks(parallel, _block, X.shape[0]), return_second
    )


def assign_factored(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    aggregator="sum",
    *,
    chunk_size: int = 0,
    x_squared_norms: Optional[np.ndarray] = None,
    return_second: bool = False,
    parallel=None,
) -> Tuple[np.ndarray, ...]:
    """Assign rows of ``X`` to their nearest Khatri-Rao centroid, factored.

    Produces exactly the labels and squared distances of materializing all
    ``∏ h_q`` centroids and calling
    :func:`repro.core._distances.assign_to_nearest`, but in
    ``O(n·m·Σh_q + n·k·p)`` time and without the ``(k, m)`` centroid matrix.

    Parameters
    ----------
    X : array of shape (n, m)
    thetas : sequence of arrays, set ``q`` of shape ``(h_q, m)``
        The protocentroid sets; centroid ``(j_1, ..., j_p)`` is their
        aggregation, flat-ordered C-style (last set fastest).
    aggregator : str or Aggregator
        Must advertise ``supports_factored_assignment`` (the sum aggregator).
    chunk_size : int
        If positive, sweep the flat tuple grid in chunks of this many
        centroids so at most ``n * chunk_size`` partial scores exist at a
        time — the memory-efficient mode gets the factored speedup too.
    x_squared_norms : array of shape (n,), optional
        Precomputed ``‖x‖²`` per row (hoisted out of Lloyd iterations).
    return_second : bool
        Also return the squared distance to the second-nearest centroid
        (``inf`` when ``∏ h_q == 1``), seeding Hamerly pruning bounds at no
        extra asymptotic cost.
    parallel : RowBlockPool, optional
        Row-parallel execution: each fixed row block computes its own
        Grams and partial scores on a pool worker (on the calling thread
        without a pool), and the per-row outputs are concatenated in
        block order.  Rows are scored independently, so the result is
        bit-identical at every pool width, and a memory-mapped ``X`` is
        only touched one block at a time.

    Returns
    -------
    labels : int array of shape (n,)
    min_distances : float array of shape (n,)
    second_distances : float array of shape (n,), only if ``return_second``
    """
    agg = get_aggregator(aggregator)
    if not agg.supports_factored_assignment:
        raise ValidationError(
            f"aggregator {agg.name!r} does not support factored assignment; "
            "use the materialized path instead"
        )
    # Dtype-preserving: float32 data scores in float32 (sgemm Grams, half-
    # bandwidth partial-score blocks); anything else widens to float64.
    X = as_float_array(X)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-D, got shape {X.shape}")
    n, m = X.shape
    for q, theta in enumerate(thetas):
        if np.ndim(theta) != 2 or np.shape(theta)[1] != m:
            raise ValidationError(
                f"protocentroid set {q} must have shape (h_{q}, {m}) to match "
                f"X's {m} features, got {np.shape(theta)}"
            )
    if x_squared_norms is not None and np.shape(x_squared_norms) != (n,):
        raise ValidationError(
            f"x_squared_norms must have shape ({n},) to match X, got "
            f"{np.shape(x_squared_norms)}"
        )
    cardinalities = tuple(theta.shape[0] for theta in thetas)
    # int_prod, not np.prod: the implicit grid size overflows int64 for
    # large configurations (e.g. eight sets of 256) and np.prod wraps.
    k = int_prod(cardinalities)
    if x_squared_norms is None:
        x_squared_norms = row_norms_squared(X, parallel=parallel)
    # The data-free self-interaction terms are computed once per call and
    # shared by every row block.  The chunked sweep evaluates them per
    # centroid chunk from small per-set tables, so nothing of size k is
    # ever allocated and the memory mode's bounded-peak guarantee carries
    # over.
    full = chunk_size <= 0 or chunk_size >= k
    if full:
        self_terms = agg.self_interaction(thetas)  # flat (k,)
    else:
        self_term_block = agg.self_interaction_blocks(thetas)

    def _block(start, stop):
        grams = agg.cross_gram(X[start:stop], thetas)  # p x (rows, h_q)
        if full:
            top2 = (
                _set_major_top2
                if _prefers_set_major(stop - start, cardinalities, self_terms)
                else _grid_top2
            )
            labels, best, second = top2(
                grams, self_terms, cardinalities, return_second
            )
        else:
            labels, best, *second = _chunked_argmin(
                stop - start,
                k,
                chunk_size,
                lambda lo, hi: _partial_score_block(
                    grams, self_term_block, cardinalities, lo, hi
                ),
                return_second=return_second,
                dtype=_working_dtype(grams[0]),
            )
            second = second[0] if return_second else None
        norms = x_squared_norms[start:stop]
        min_distances = norms + best
        np.maximum(min_distances, 0.0, out=min_distances)
        if not return_second:
            return labels, min_distances
        second_distances = norms + second
        np.maximum(second_distances, 0.0, out=second_distances)
        return labels, min_distances, second_distances

    return merge_row_block_assignments(
        map_row_blocks(parallel, _block, n), return_second
    )


#: Grid bytes (``rows · k · itemsize``) from which a block's top-2 runs
#: set-major.  Set-major wins once the grid outgrows the cache and loses
#: below it to its per-slab ufunc dispatch: on a 2-vCPU Xeon, one thread,
#: it ran 0.75× the grid's speed at (16, 16) × 512 rows (1 MiB, float64),
#: 1.02× at 1024 rows (2 MiB) and 1.5× at 4096 rows; (8, 8, 8) broke
#: even at 1 MiB and (3, 3) lost up to 4096 rows (288 KiB).  See
#: ``benchmarks/test_perf_assignment.py``.
SET_MAJOR_MIN_GRID_BYTES = 2 << 20


def _prefers_set_major(
    rows: int, cardinalities: Tuple[int, ...], self_terms: np.ndarray
) -> bool:
    """Whether a ``rows``-row block's top-2 should run set-major."""
    return (
        len(cardinalities) >= 2
        and rows * self_terms.size * self_terms.itemsize
        >= SET_MAJOR_MIN_GRID_BYTES
    )


def _grid_top2(
    grams: Sequence[np.ndarray],
    self_terms: np.ndarray,
    cardinalities: Tuple[int, ...],
    return_second: bool,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Labels, best and (optionally) second partial score of every row,
    from the materialized ``(rows, k)`` score grid."""
    partial = _full_partial_scores(grams, self_terms, cardinalities)
    labels = np.argmin(partial, axis=1)
    best = _row_min(partial, labels)
    second = _row_second_min(partial, labels) if return_second else None
    return labels, best, second


def _set_major_top2(
    grams: Sequence[np.ndarray],
    self_terms: np.ndarray,
    cardinalities: Tuple[int, ...],
    return_second: bool,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """:func:`_grid_top2`, bit for bit, one leading-set slab at a time.

    Member ``v`` of set 1 owns the contiguous flat range
    ``[v·w, (v+1)·w)``, ``w = k / h_1``.  Its slab holds those scores
    with rows on the last axis, shape ``(h_2, ..., h_p, rows)``, built
    with the operation order of :func:`_full_partial_scores`
    (``((S − 2G_1) − 2G_2) − …``, each ``2G_q`` exact) so every score
    carries the same bits, and is reduced to its per-row minimum
    ``mins[v]`` while it is still in cache.  Only one slab and the
    ``(h_1, rows)`` minima are live.

    The first ``v*`` attaining ``min_v mins[v]`` holds the lowest flat
    index of the row minimum, since flat order is leading-set-major; the
    ``v*`` slab is rebuilt row-wise with the same order and its first
    argmin ``w*`` completes ``label = v*·w + w*`` — the index
    ``np.argmin`` picks on the grid, ties included.  The second-smallest
    score is the smaller of the other slabs' minima and the ``v*`` row
    with its argmin masked.  Scratch is ``rows · (w + h_1)`` scores.
    """
    rows = grams[0].shape[0]
    lead, tail = cardinalities[0], cardinalities[1:]
    width = self_terms.size // lead
    self_grid = self_terms.reshape(cardinalities)
    doubled = [2.0 * gram for gram in grams]
    # Set-major operands: 2G_q transposed to (h_q, rows), the tail sets
    # shaped to broadcast along their own slab axis.
    lead_rows = np.ascontiguousarray(doubled[0].T)
    tail_terms = []
    for q, term in enumerate(doubled[1:]):
        shape = [1] * len(tail) + [rows]
        shape[q] = tail[q]
        tail_terms.append(np.ascontiguousarray(term.T).reshape(shape))
    slab = np.empty(tail + (rows,), dtype=self_terms.dtype)
    mins = np.empty((lead, rows), dtype=self_terms.dtype)
    for v in range(lead):
        np.subtract(self_grid[v][..., None], lead_rows[v], out=slab)
        for term in tail_terms:
            np.subtract(slab, term, out=slab)
        np.minimum.reduce(slab.reshape(width, rows), axis=0, out=mins[v])
    winner = np.argmin(mins, axis=0)
    # The winning slab, row-major: row i holds its v* slab's scores.
    row_slab = self_grid.reshape(lead, width)[winner].reshape((rows,) + tail)
    np.subtract(
        row_slab,
        np.take_along_axis(doubled[0], winner[:, None], axis=1).reshape(
            (rows,) + (1,) * len(tail)
        ),
        out=row_slab,
    )
    for q, term in enumerate(doubled[1:]):
        shape = [rows] + [1] * len(tail)
        shape[q + 1] = tail[q]
        np.subtract(row_slab, term.reshape(shape), out=row_slab)
    row_slab = row_slab.reshape(rows, width)
    offsets = np.argmin(row_slab, axis=1)
    labels = winner * width + offsets
    best = _row_min(row_slab, offsets)
    if not return_second:
        return labels, best, None
    np.put_along_axis(mins, winner[None, :], np.inf, axis=0)
    second = _row_second_min(row_slab, offsets)
    np.minimum(second, mins.min(axis=0), out=second)
    return labels, best, second


def _full_partial_scores(
    grams: Sequence[np.ndarray],
    self_terms: np.ndarray,
    cardinalities: Tuple[int, ...],
) -> np.ndarray:
    """``S − 2 Σ_q G_q`` broadcast over the whole ``(n, h_1, ..., h_p)`` grid."""
    n = grams[0].shape[0]
    p = len(cardinalities)
    scores = np.broadcast_to(
        self_terms.reshape((1,) + cardinalities), (n,) + cardinalities
    ).copy()
    for q, gram in enumerate(grams):
        shape = [1] * (p + 1)
        shape[0] = n
        shape[q + 1] = cardinalities[q]
        scores -= 2.0 * gram.reshape(shape)
    # Explicit width: ``reshape(n, -1)`` cannot infer it when n == 0.
    return scores.reshape(n, self_terms.size)


def _partial_score_block(
    grams: Sequence[np.ndarray],
    self_term_block: Callable[[Sequence[np.ndarray]], np.ndarray],
    cardinalities: Tuple[int, ...],
    start: int,
    stop: int,
) -> np.ndarray:
    """Partial scores for flat centroid indices ``[start, stop)``."""
    tuple_indices = np.unravel_index(np.arange(start, stop), cardinalities)
    block = np.broadcast_to(
        self_term_block(tuple_indices)[None, :],
        (grams[0].shape[0], stop - start),
    ).copy()
    for gram, indices in zip(grams, tuple_indices):
        block -= 2.0 * gram[:, indices]
    return block


def grouped_row_sum(
    assignments: np.ndarray, values: np.ndarray, num_groups: int,
    parallel=None,
) -> np.ndarray:
    """Sum rows of ``values`` into ``num_groups`` buckets given by ``assignments``.

    Equivalent to ``np.add.at(out, assignments, values)`` on a zeroed
    ``(num_groups, m)`` array, computed as a one-hot sparse product
    (:func:`one_hot_row_sum`).  Bit-identical to that scatter and to the
    fused ``np.bincount`` it replaced: every output bucket starts from
    +0.0 and accumulates its rows in increasing row order.

    **Accumulates — and returns — float64 for every input dtype.**  This is
    one of the two deliberate float64 islands of the ``dtype="float32"``
    kernel stack (the other is the ``C_qr @ θ_r`` contingency matmuls; see
    ``docs/numerics.md``): the grouped sum reduces up to ``n`` terms per
    bucket, and a float32 accumulator would grow an ``O(eps32·n·|Σ|)``
    error that dwarfs the single ``O(eps32·|v|)`` rounding the callers pay
    when they store the quotient back into a float32 protocentroid.  Each
    float32 element widens to float64 exactly, so the result is
    bit-identical to summing a pre-widened copy.

    Each fixed row block computes its own partial (on a worker of
    ``parallel``, a :class:`~repro.runtime.parallel.RowBlockPool`, or on
    the calling thread without one) and the partials are **summed in
    ascending block order** — the accumulation split is fixed by the
    block boundaries alone, so the result is bit-identical at every pool
    width.
    """
    values = as_float_array(values)
    return fold_blocks(map_row_blocks(
        parallel,
        lambda start, stop: one_hot_row_sum(
            assignments[start:stop, None], values[start:stop], num_groups
        ),
        values.shape[0],
    ))


def one_hot_row_sum(
    buckets: np.ndarray, values: np.ndarray, num_buckets: int
) -> np.ndarray:
    """Add row ``i`` of ``values`` into each bucket ``buckets[i, 0..p-1]``.

    The grouped-sum kernel of every update: a ``(num_buckets, rows)``
    one-hot CSC matrix — column ``i`` holds a 1.0 at each of the ``p``
    rows ``buckets[i]`` — times the ``(rows, m)`` block.  With ``p > 1``
    the buckets of several label sets are stacked (offset per set), so
    one pass over the data yields every set's grouped sums.

    scipy's ``csc_matvecs`` walks the columns in increasing ``i`` and adds
    ``1.0·x_i`` (exactly ``x_i``) into a float64 output zeroed to +0.0,
    so each bucket sums its rows in increasing row order — the
    accumulation order of ``np.add.at`` and of a fused ``np.bincount``,
    hence bit-identical to both.  A float32 block widens to float64
    exactly.  One ``(20000, 64)`` sum into 16 groups took 4.65 ms as a
    fused ``bincount`` and 1.09 ms as this product (float64, one thread
    on a 2-vCPU Xeon, scipy 1.17); ``tests/test_grouped_sum_kernel.py``
    pins the equality.
    """
    # Deferred: ``import repro`` (and every serving process) must not
    # load scipy.
    from scipy.sparse import csc_matrix

    rows, p = buckets.shape
    # csc_matvecs does not bounds-check its indices: an out-of-range label
    # would write past the output, so reject it here.
    if rows and p and not (0 <= buckets.min() and buckets.max() < num_buckets):
        raise ValidationError(
            f"bucket labels must lie in [0, {num_buckets}), got "
            f"[{buckets.min()}, {buckets.max()}]"
        )
    one_hot = csc_matrix(
        (np.ones(rows * p), buckets.ravel(), np.arange(0, rows * p + 1, p)),
        shape=(num_buckets, rows),
    )
    return one_hot @ np.ascontiguousarray(values)
