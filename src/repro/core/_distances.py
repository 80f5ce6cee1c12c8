"""Vectorized squared-Euclidean distance kernels shared by the estimators.

The assignment step is the computational bottleneck of both k-Means and
Khatri-Rao k-Means (paper Section 6, "Complexity"), so the kernels here are
written to avoid Python-level loops and to support a chunked mode that keeps
peak memory bounded for the memory-efficient KR implementation.

Two assignment strategies share this module's chunked-argmin machinery:

* **Materialized** (:func:`assign_to_nearest`): distances against an explicit
  ``(k, m)`` centroid matrix via the expansion
  ``‖x − c‖² = ‖x‖² − 2 x·c + ‖c‖²`` — ``O(n·k·m)`` per call.
* **Factored** (:func:`repro.core.assign_factored`): for aggregators whose
  centroids decompose over protocentroid sets (the sum aggregator), the cross
  term becomes ``x·c = Σ_q x·θ_q[j_q]`` and ``‖c‖²`` is data-free, so
  assignment costs ``O(n·m·Σh_q + n·k·p)`` and never materializes centroids.

Complexity of one assignment over ``n`` points, ``m`` features and
``k = ∏ h_q`` centroids from ``p`` sets.  The *pruned iteration* column is
the cost once cross-iteration Hamerly bounds (:mod:`repro.core._bounds`)
restrict the scan to the ``a ≤ n`` active points whose bounds overlap —
late Lloyd iterations typically have ``a ≪ n``:

==============  ==========================  ===========================  ============================
strategy        time (full)                 time (pruned iteration)      extra memory
==============  ==========================  ===========================  ============================
materialized    ``O(n·k·m)``                ``O(a·k·m + n)``             ``O(k·m + n·c)`` (chunk c)
factored        ``O(n·m·Σh_q + n·k·p)``     ``O(a·m·Σh_q + a·k·p + n)``  ``O(n·Σh_q + n·c)``
==============  ==========================  ===========================  ============================

``c`` is the chunk width, or ``k`` for a full-grid block.  A factored
full-grid block large enough to run set-major (see
:mod:`repro.core._factored`) needs only ``b·(k/h_1 + h_1)`` scratch for
its ``b`` rows — one leading-set slab plus the per-slab minima — instead
of the ``b·k`` grid.

Both strategies can return the *top-2* distances per point
(``return_second=True``) at no extra asymptotic cost — the argmin entries
of each scored block are masked in place and a row minimum re-taken, so
block score matrices are treated as scratch on that path — which is what
seeds the Hamerly bounds.

Callers that assign repeatedly against the same data (Lloyd iterations) can
hoist ``‖x‖²`` out of the loop by passing ``x_squared_norms`` (sklearn-style).

All kernels are **dtype-preserving**: float32 inputs are scored in float32
end-to-end (the estimators' ``dtype`` knob casts once at ``fit`` entry), so
the BLAS matmuls run sgemm and the score blocks take half the bandwidth.
Scratch state (running best/second vectors) follows the block dtype; any
non-float32/float64 input falls back to float64, the historical behavior.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..runtime.parallel import map_row_blocks

__all__ = [
    "squared_distances",
    "assign_to_nearest",
    "merge_row_block_assignments",
    "paired_squared_distances",
    "row_norms_squared",
]


def _working_dtype(X: np.ndarray) -> np.dtype:
    """Scratch dtype for scoring ``X``: float32 stays float32, else float64."""
    return X.dtype if X.dtype == np.dtype(np.float32) else np.dtype(np.float64)


def row_norms_squared(X: np.ndarray, *, parallel=None) -> np.ndarray:
    """Squared Euclidean norm of every row of ``X`` (shape ``(n,)``).

    Runs over the fixed row blocks of ``parallel`` (a
    :class:`~repro.runtime.parallel.RowBlockPool`, or the calling thread
    without one); the per-row reduction is independent across rows, so
    a memory-mapped ``X`` streams one block at a time.
    """
    return np.concatenate(map_row_blocks(
        parallel,
        lambda start, stop: np.einsum("ij,ij->i", X[start:stop], X[start:stop]),
        X.shape[0],
    ))


def paired_squared_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``‖X[i] − C[i]‖²`` row by row (shape ``(n,)``).

    The tightening step of Hamerly pruning needs each point's exact distance
    to *its own* assigned centroid only — ``O(n·m)``, no ``(n, k)`` matrix.
    """
    delta = X - C
    return np.einsum("ij,ij->i", delta, delta)


def squared_distances(
    X: np.ndarray, C: np.ndarray, *, x_squared_norms: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of ``X`` and ``C``.

    Uses the expansion ``||x - c||^2 = ||x||^2 - 2 x·c + ||c||^2`` and clips
    tiny negative values produced by floating-point cancellation.
    ``x_squared_norms`` optionally supplies precomputed ``||x||^2`` so hot
    loops pay for it once per dataset instead of once per call.
    """
    if x_squared_norms is None:
        x_squared_norms = row_norms_squared(X)
    c_sq = row_norms_squared(C)[None, :]
    distances = x_squared_norms[:, None] - 2.0 * (X @ C.T) + c_sq
    np.maximum(distances, 0.0, out=distances)
    return distances


def _row_min(block: np.ndarray, block_labels: np.ndarray) -> np.ndarray:
    """Per-row minimum of ``block`` given its argmin columns.

    ``np.take_along_axis`` gathers without the ``(n,)`` arange index vector
    the fancy-index form ``block[rows, block_labels]`` would reallocate on
    every call.
    """
    return np.take_along_axis(block, block_labels[:, None], axis=1)[:, 0]


def _row_second_min(block: np.ndarray, block_labels: np.ndarray) -> np.ndarray:
    """Per-row second-smallest value of ``block`` (``inf`` for single-column
    blocks), given the per-row argmin columns.

    DESTRUCTIVE: overwrites the argmin entries of ``block`` with ``+inf``
    and takes a row minimum — ~5× faster than ``np.partition`` and safe
    because every caller hands in a scratch score matrix it owns.  Exact
    ties are preserved: only the argmin *position* is masked, so a tied
    second copy of the minimum still reports the tied value.
    """
    if block.shape[1] < 2:
        return np.full(block.shape[0], np.inf, dtype=block.dtype)
    np.put_along_axis(block, block_labels[:, None], np.inf, axis=1)
    return block.min(axis=1)


def _chunked_argmin(
    n: int,
    k: int,
    chunk_size: int,
    block_fn: Callable[[int, int], np.ndarray],
    *,
    return_second: bool = False,
    dtype=np.float64,
) -> Tuple[np.ndarray, ...]:
    """Running argmin over column blocks of an implicit ``(n, k)`` matrix.

    ``block_fn(start, stop)`` must return the ``(n, stop - start)`` block of
    scores for columns ``[start, stop)``.  Shared by every chunked assignment
    path (materialized centroids, on-the-fly KR chunks, factored distances)
    so the bookkeeping — running best, row gather, offset labels — lives in
    exactly one place.

    With ``return_second=True`` a third array carries the running
    second-smallest score per row (the seed of the Hamerly lower bound),
    merged across blocks as the second order statistic of
    ``{best, second, block_best, block_second}``; ``block_fn`` outputs are
    treated as scratch and clobbered by the second-min extraction.
    """
    labels = np.zeros(n, dtype=np.int64)
    best = np.full(n, np.inf, dtype=dtype)
    second = np.full(n, np.inf, dtype=dtype) if return_second else None
    for start in range(0, k, chunk_size):
        stop = min(start + chunk_size, k)
        block = block_fn(start, stop)
        block_labels = np.argmin(block, axis=1)
        block_best = _row_min(block, block_labels)
        if return_second:
            # Second-smallest of the union {best, second, b1, b2} with
            # best ≤ second and b1 ≤ b2: min(second, b2, max(best, b1)).
            # Must merge against the *old* best, before it is updated.
            np.minimum(second, _row_second_min(block, block_labels), out=second)
            np.minimum(second, np.maximum(best, block_best), out=second)
        improved = block_best < best
        labels[improved] = block_labels[improved] + start
        best[improved] = block_best[improved]
    if return_second:
        return labels, best, second
    return labels, best


def merge_row_block_assignments(parts, return_second: bool) -> Tuple[np.ndarray, ...]:
    """Concatenate per-row-block assignment tuples in block order.

    Each row lives in exactly one block, so concatenation is the whole
    merge — no fold order to worry about.  Shared by every row-blocked
    assignment path (materialized and factored).
    """
    if len(parts) == 1:
        return parts[0]
    labels = np.concatenate([p[0] for p in parts])
    best = np.concatenate([p[1] for p in parts])
    if return_second:
        return labels, best, np.concatenate([p[2] for p in parts])
    return labels, best


def assign_to_nearest(
    X: np.ndarray,
    C: np.ndarray,
    *,
    chunk_size: int = 0,
    x_squared_norms: Optional[np.ndarray] = None,
    return_second: bool = False,
    parallel=None,
) -> Tuple[np.ndarray, ...]:
    """Assign each row of ``X`` to its nearest row of ``C``.

    Parameters
    ----------
    X : array of shape (n, m)
    C : array of shape (k, m)
    chunk_size : int
        If positive, process centroids in chunks of this many rows so that at
        most ``n * chunk_size`` distances are materialized at a time.  This is
        the memory-efficient mode used when ``k`` is large.
    x_squared_norms : array of shape (n,), optional
        Precomputed ``||x||^2`` per row; pass it when assigning repeatedly
        against the same data to hoist the norm computation out of the loop.
    return_second : bool
        Also return the squared distance to the *second*-nearest centroid
        (``inf`` when ``k == 1``) — the seed of Hamerly-style pruning bounds.
    parallel : RowBlockPool, optional
        Row-parallel execution: each fixed row block is assigned by a pool
        worker and the per-row outputs concatenated in block order (without
        a pool the blocks run on the calling thread).  Rows are scored
        independently, so the result is bit-identical at every pool width;
        a memory-mapped ``X`` is only ever touched one block at a time.

    Returns
    -------
    labels : int array of shape (n,)
    min_distances : float array of shape (n,)
        Squared distance of each point to its assigned centroid.
    second_distances : float array of shape (n,), only if ``return_second``
    """
    k = C.shape[0]
    if x_squared_norms is None:
        x_squared_norms = row_norms_squared(X, parallel=parallel)
    dtype = np.promote_types(_working_dtype(X), _working_dtype(C))

    def _block(start, stop):
        Xb, norms = X[start:stop], x_squared_norms[start:stop]
        if chunk_size <= 0 or chunk_size >= k:
            distances = squared_distances(Xb, C, x_squared_norms=norms)
            labels = np.argmin(distances, axis=1)
            best = _row_min(distances, labels)
            if return_second:
                return labels, best, _row_second_min(distances, labels)
            return labels, best
        return _chunked_argmin(
            stop - start,
            k,
            chunk_size,
            lambda lo, hi: squared_distances(
                Xb, C[lo:hi], x_squared_norms=norms
            ),
            return_second=return_second,
            dtype=dtype,
        )

    return merge_row_block_assignments(
        map_row_blocks(parallel, _block, X.shape[0]), return_second
    )
