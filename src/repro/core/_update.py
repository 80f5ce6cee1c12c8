r"""Contingency-table protocentroid updates (Proposition 6.1, factored form).

With factored assignment (:mod:`repro.core._factored`) and Hamerly pruning
(:mod:`repro.core._bounds`) in place, the closed-form protocentroid update is
the per-iteration floor of Khatri-Rao k-Means: the textbook implementation of
Proposition 6.1 gathers, for every set ``q``, the per-point *rest*
contribution ``rest_i = ⊕_{r≠q} θ_r[a_r(i)]`` — an ``(n, m)`` materialization
per set, ``O(p·n·m)`` per iteration with several full-size temporaries.

For the decomposable (**sum**) aggregator that gather factors through
per-set-pair *contingency tables*.  The grouped rest contribution is

.. math::

    Σ_{i : a_q(i)=j} w_i · θ_r[a_r(i)] = (C_{qr} @ θ_r)[j],
    \qquad C_{qr}[j, l] = Σ_{i : a_q(i)=j, a_r(i)=l} w_i

so the weighted numerator of the update for set ``q`` becomes

.. math::

    N_q = \mathrm{grouped\_row\_sum}(a_q, w·X) − Σ_{r≠q} C_{qr} @ θ_r

with each ``C_qr`` obtained from a single ``bincount`` on the fused index
``a_q·h_r + a_r`` — ``O(n)`` per pair — and each matmul costing
``O(h_q·h_r·m)``.  Both forms remain ``Θ(p·n·m)`` asymptotically, but the
factored form reads the data **once per update**: :func:`grouped_statistics`
computes every set's grouped sums (one one-hot sparse product per row
block, ``p`` ones per column), masses and pair tables in a single row-block
map, and only the small ``C_qr @ θ_r`` terms stay inside the Gauss-Seidel
loop.  The gather form materializes and walks several ``(n, m)`` float
temporaries per set (the gathered rest, its combine, the subtraction, the
optional weight product).  Measured on ``n=6000, m=256``, cardinalities
``(4, 4, 4)``, one thread on a 2-vCPU Xeon (numpy 2.4, scipy 1.17,
OpenBLAS 0.3.31): gather 59 ms, factored 3.2 ms — the per-set
fused-``bincount`` factored kernel this pass replaced took 18 ms.

The factored form *reorders* floating-point arithmetic relative to the
gather form (grouped sums of ``x − rest`` versus grouped sums of ``x`` minus
table-factored sums of ``θ``), so results agree only to last-ulp drift —
:mod:`tests.test_update_equivalence` certifies the agreement with an
explicit error envelope.  Which aggregators decompose is an aggregator
capability (``supports_factored_update`` in
:mod:`repro.linalg.aggregators`, mirroring the assignment protocol); the
product aggregator does not (``x·∏ θ`` is not linear in any ``θ_r``) and
transparently falls back to the gather path.

Both kernels reseed empty protocentroids identically (same weighted-mass
test, same ``rng`` draws, in the same order), so the reseed trajectories of
the two arithmetic forms coincide bit for bit.

Dtype policy (the estimators' ``dtype`` knob)
---------------------------------------------
Inputs keep their float32/float64 dtype through the per-point arithmetic
(gathers, ``w·X``, ``x − rest``), but **all grouped accumulation runs in
float64**: the one-hot product (:func:`repro.core._factored.one_hot_row_sum`)
and ``np.bincount`` return float64 sums, and the ``C_qr @ θ_r`` rest terms are
computed as float64-``C_qr`` matmuls.  The float64 numerator/denominator
quotient is rounded **once** when stored into the (working-dtype)
protocentroid array, so the per-update error at float32 is ``O(eps32·|θ|)``
per coordinate instead of the ``O(eps32·n_j·|Σ|)`` a float32 accumulator
would pay over a bucket of ``n_j`` points (see ``docs/numerics.md``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_float_array
from ..exceptions import ValidationError
from ..linalg import get_aggregator
from ..runtime.parallel import fold_blocks, map_row_blocks
from ._factored import one_hot_row_sum

__all__ = [
    "UPDATE_MODES",
    "resolve_update",
    "pair_count_tables",
    "factored_sum_numerator",
    "grouped_statistics",
    "set_statistics",
    "store_quotient",
    "update_factored",
    "update_gather",
    "update_protocentroids",
]

#: valid values of the estimators' ``update`` knob
UPDATE_MODES = ("auto", "factored", "gather")

# Entries of the product-aggregator denominator below this threshold keep the
# previous protocentroid value instead of dividing by ~0.
_EPSILON = 1e-12


def resolve_update(update: str, aggregator) -> bool:
    """Return True when the contingency-table kernel should run the update.

    ``"auto"`` and ``"factored"`` both resolve to the factored kernel only
    when the aggregator advertises ``supports_factored_update``; other
    aggregators transparently fall back to the gather path.
    """
    if update not in UPDATE_MODES:
        raise ValidationError(
            f"update must be one of {UPDATE_MODES}, got {update!r}"
        )
    if update == "gather":
        return False
    return bool(get_aggregator(aggregator).supports_factored_update)


def _pair_table(
    a_q: np.ndarray,
    a_r: np.ndarray,
    h_q: int,
    h_r: int,
    weights: Optional[np.ndarray],
) -> np.ndarray:
    """One ``(h_q, h_r)`` contingency table of weighted co-assignment counts,
    from a single ``bincount`` on the fused index ``a_q·h_r + a_r``."""
    fused = a_q.astype(np.int64, copy=False) * h_r + a_r
    counts = np.bincount(fused, weights=weights, minlength=h_q * h_r)
    return counts.reshape(h_q, h_r).astype(float, copy=False)


def pair_count_tables(
    set_labels: np.ndarray,
    cardinalities: Sequence[int],
    weights: Optional[np.ndarray] = None,
    parallel=None,
) -> List[List[Optional[np.ndarray]]]:
    """All pairwise contingency tables of weighted co-assignment counts.

    ``tables[q][r][j, l] = Σ_{i : a_q(i)=j, a_r(i)=l} w_i`` for ``q ≠ r``
    (``w_i = 1`` without weights), each unordered pair computed with one
    fused ``bincount``; ``tables[r][q]`` is the transpose rather than a
    recount.  Diagonal entries are ``None``.  The tables of
    :func:`grouped_statistics` with ``pairs=True``, without the sums.
    """
    return grouped_statistics(
        None, set_labels, cardinalities, weights, parallel,
        sums=False, pairs=True,
    )[2]


def grouped_statistics(
    X: Optional[np.ndarray],
    set_labels: np.ndarray,
    cardinalities: Sequence[int],
    weights: Optional[np.ndarray] = None,
    parallel=None,
    *,
    sums: Union[bool, Sequence[int]] = True,
    pairs: bool = False,
):
    """Every set's data statistics of one update, in one row-block map.

    Returns ``(grouped, masses, tables)`` for the ``p`` label sets in the
    columns of ``set_labels``:

    * ``grouped[q]`` — ``grouped_row_sum(a_q, w·X)``, ``(h_q, m)``
      float64 (``None`` without ``sums``; ``sums`` may also name the
      sets to sum, and the others' entries are ``None``);
    * ``masses[q]`` — the weighted point mass per protocentroid,
      ``(h_q,)`` float64;
    * ``tables`` — the pairwise contingency tables of
      :func:`pair_count_tables` (``None`` without ``pairs``).

    Each fixed row block stacks its ``p`` label columns into one index
    (set ``q`` offset by ``h_0 + … + h_{q-1}``): one one-hot product
    (:func:`~repro.core._factored.one_hot_row_sum`, ``p`` ones per
    column) yields every set's grouped sums from a single pass over the
    block, and one ``bincount`` of the same index every set's masses.
    Each output entry still accumulates its rows in increasing row order,
    so every statistic is bit-identical to computing it on its own.  The
    block is weighted before the product in ``X``'s dtype (``X[s:e] *
    w[s:e]``, elementwise, so identical under any partition): a memory-
    mapped ``X`` streams through and no ``(n, m)`` ``w·X`` exists.  The
    partials are folded in ascending block order — bit-identical at every
    pool width (``parallel``; the calling thread without a pool).
    """
    cardinalities = tuple(int(h) for h in cardinalities)
    p = len(cardinalities)
    total = sum(cardinalities)
    offsets = np.cumsum((0,) + cardinalities[:-1])
    bounds = offsets[1:]
    pair_list = [(q, r) for q in range(p) for r in range(q + 1, p) if pairs]
    summed = tuple(range(p)) if sums is True else tuple(sums or ())

    def _block(start, stop):
        stacked = set_labels[start:stop] + offsets
        w = None if weights is None else weights[start:stop]
        parts = [np.bincount(
            stacked.ravel(), weights=None if w is None else np.repeat(w, p),
            minlength=total,
        ).astype(float, copy=False)]
        if summed:
            Xb = X[start:stop]
            if w is not None:
                Xb = Xb * np.asarray(w, dtype=X.dtype)[:, None]
            buckets = stacked if len(summed) == p else stacked[:, summed]
            parts.append(one_hot_row_sum(buckets, Xb, total))
        for q, r in pair_list:
            parts.append(_pair_table(
                set_labels[start:stop, q], set_labels[start:stop, r],
                cardinalities[q], cardinalities[r], w,
            ))
        return parts

    blocks = map_row_blocks(parallel, _block, set_labels.shape[0])
    folded = [fold_blocks(parts) for parts in zip(*blocks)]
    masses = np.split(folded.pop(0), bounds)
    grouped = None
    if summed:
        split = np.split(folded.pop(0), bounds)
        grouped = [split[q] if q in summed else None for q in range(p)]
    tables = None
    if pairs:
        tables = [[None] * p for _ in range(p)]
        for (q, r), table in zip(pair_list, folded):
            tables[q][r] = table
            tables[r][q] = table.T
    return grouped, masses, tables


def factored_sum_numerator(
    q: int,
    thetas: Sequence[np.ndarray],
    grouped_x: np.ndarray,
    tables: Sequence[Sequence[Optional[np.ndarray]]],
) -> np.ndarray:
    """Numerator of the sum-aggregator update for set ``q``.

    ``grouped_x`` is ``grouped_row_sum(a_q, w·X)``; the rest contribution is
    subtracted through the contingency tables against the *current* thetas
    (Gauss-Seidel callers pass the partially updated list).
    """
    numerator = grouped_x.copy()
    for r, theta in enumerate(thetas):
        if r == q:
            continue
        numerator -= tables[q][r] @ theta
    return numerator


def _group_mass(
    assignments: np.ndarray, weights: Optional[np.ndarray], num_groups: int,
    parallel=None,
) -> np.ndarray:
    """Weighted point mass per protocentroid of one label set — the
    masses of :func:`grouped_statistics`, without the sums.  A single-set
    entry point (the update itself takes every set's masses from one
    pass); ``perfbench/layers.py`` traces it under its own span name."""
    return grouped_statistics(
        None, assignments[:, None], (num_groups,), weights, parallel,
        sums=False,
    )[1][0]


def _weighted_grouped_row_sum(
    assignments: np.ndarray,
    X: np.ndarray,
    weights: Optional[np.ndarray],
    num_groups: int,
    parallel,
) -> np.ndarray:
    """``grouped_row_sum(a, w·X)`` of one label set, weighted block by
    block — the sums of :func:`grouped_statistics`; a single-set entry
    point like :func:`_group_mass`."""
    return grouped_statistics(
        X, assignments[:, None], (num_groups,), weights, parallel
    )[0][0]


def _reseed_empty(
    updated: np.ndarray,
    mass: np.ndarray,
    X: np.ndarray,
    aggregator,
    rng: Optional[np.random.Generator],
    num_sets: int,
    q: int,
) -> None:
    """Re-seed protocentroids with no assigned mass (Appendix B)."""
    empty = np.flatnonzero(mass == 0)
    if empty.size and rng is None:
        raise ValidationError(
            f"protocentroid set {q} has {empty.size} member(s) with no "
            "assigned mass; pass rng= to enable empty-cluster reseeding"
        )
    for j in empty:
        parts = aggregator.split(X[rng.integers(X.shape[0])], num_sets)
        updated[j] = parts[q]


def update_factored(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    aggregator="sum",
    rng: Optional[np.random.Generator] = None,
    weights: Optional[np.ndarray] = None,
    parallel=None,
) -> List[np.ndarray]:
    """Closed-form protocentroid update via contingency tables.

    Produces the Gauss-Seidel sweep of Proposition 6.1 — set ``q`` updated
    against the already-updated sets ``r < q`` and the old sets ``r > q``,
    empty protocentroids reseeded from ``rng`` between sets — exactly as
    :func:`update_gather` does, but assembles each numerator as
    ``grouped_row_sum(a_q, w·X) − Σ_{r≠q} C_qr @ θ_r`` instead of gathering
    an ``(n, m)`` rest matrix per set.  Same values up to last-ulp
    reordering drift (certified in ``tests/test_update_equivalence.py``);
    identical reseed draws.

    Parameters
    ----------
    X : array of shape (n, m)
    thetas : sequence of arrays, set ``q`` of shape ``(h_q, m)``
    set_labels : int array of shape (n, p)
        Per-set protocentroid assignment of each point.
    aggregator : str or Aggregator
        Must advertise ``supports_factored_update`` (the sum aggregator).
    rng : numpy Generator, optional
        Source of reseed draws; only required when a protocentroid can end
        up empty.
    weights : array of shape (n,), optional
        Per-point weights of the weighted Proposition 6.1.
    parallel : RowBlockPool, optional
        Row-parallel execution: contingency tables, grouped sums and
        masses are computed as per-block partials folded in fixed block
        order (bit-identical at every pool width; without a pool the
        blocks run on the calling thread); the Gauss-Seidel set order is
        untouched.  Also the memmap seam — a mapped ``X`` is weighted and
        reduced one block at a time.

    Returns
    -------
    list of arrays — the updated protocentroid sets (inputs untouched).
    """
    agg = get_aggregator(aggregator)
    if not agg.supports_factored_update:
        raise ValidationError(
            f"aggregator {agg.name!r} does not support the contingency-table "
            "update; use the gather path instead"
        )
    return _sweep(X, thetas, set_labels, agg, rng, weights, True, parallel)


def update_gather(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    aggregator="sum",
    rng: Optional[np.random.Generator] = None,
    weights: Optional[np.ndarray] = None,
    parallel=None,
) -> List[np.ndarray]:
    """Closed-form protocentroid update with per-point rest gathers.

    The reference arithmetic of Proposition 6.1 (any aggregator): for each
    set, the rest contribution ``⊕_{r≠q} θ_r[a_r]`` is materialized per
    point and reduced with :func:`repro.core._factored.grouped_row_sum` —
    ``O(p·n·m)`` per call.  The factored kernel reproduces it to last-ulp
    drift for decomposable aggregators.

    Each row block gathers its own rest slice and reduces it, partials
    folded in block order — the ``(n, m)`` rest temporaries shrink to
    per-block size (the memmap seam) and results are bit-identical at
    every pool width (``parallel``; the calling thread without a pool).
    """
    agg = get_aggregator(aggregator)
    return _sweep(X, thetas, set_labels, agg, rng, weights, False, parallel)


def set_statistics(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    aggregator,
    weights: Optional[np.ndarray] = None,
    factored: bool = False,
    parallel=None,
    *,
    sets: Optional[Iterable[int]] = None,
):
    """Sufficient statistics of one Gauss-Seidel sweep, set by set.

    Yields ``(q, numerator, denominator, mass)`` for ``q = 0, 1, ...``
    (or for the indices in ``sets``); the caller moves ``thetas[q]`` in
    place before asking for the next set, so set ``q`` is computed
    against the updated sets ``r < q`` and the old sets ``r > q``.
    ``factored`` assembles the numerator through the contingency tables
    (``denominator`` is ``None``: divide by ``mass``); otherwise it is
    the grouped sums of the aggregator's ``update_terms``
    (:func:`_gather_sums`).  The batch update
    (:func:`update_protocentroids`) jumps to the quotient; the mini-batch
    estimator steps toward it; a federated client reports one set
    (``sets=(q,)``), which the server sums across clients before
    dividing — the global closed-form update of Proposition 6.1.
    """
    cardinalities = tuple(theta.shape[0] for theta in thetas)
    sets = range(len(cardinalities)) if sets is None else tuple(sets)
    # The whole data pass up front (the labels are fixed for the sweep):
    # masses always, grouped sums (of the requested sets) and pair tables
    # for the factored numerator.  Only the small C_qr @ θ_r terms
    # (factored) or the rest gathers (gather) depend on the sets already
    # moved.
    grouped, masses, tables = grouped_statistics(
        X, set_labels, cardinalities, weights, parallel,
        sums=factored and sets, pairs=factored,
    )
    if not factored:
        w_column = (
            None if weights is None
            else np.asarray(weights, dtype=X.dtype)[:, None]
        )
    for q in sets:
        if factored:
            numerator = factored_sum_numerator(q, thetas, grouped[q], tables)
            denominator = None
        else:
            numerator, denominator = _gather_sums(
                aggregator, thetas, set_labels, q, X, w_column, parallel
            )
        yield q, numerator, denominator, masses[q]


def _sweep(X, thetas, set_labels, agg, rng, weights, factored, parallel):
    """One closed-form update sweep: the quotient of each set's
    statistics, then the empty-protocentroid reseed."""
    X = as_float_array(X)
    new_thetas = [as_float_array(theta).copy() for theta in thetas]
    for q, numerator, denominator, mass in set_statistics(
        X, new_thetas, set_labels, agg, weights, factored, parallel
    ):
        store_quotient(new_thetas[q], numerator, denominator, mass)
        _reseed_empty(new_thetas[q], mass, X, agg, rng, len(thetas), q)
    return new_thetas


def store_quotient(theta, numerator, denominator, mass) -> None:
    """Move ``theta`` to its closed-form update in place: ``numerator /
    denominator`` where the elementwise denominator exceeds ``_EPSILON``,
    else ``numerator / mass`` for every protocentroid with mass; the rest
    keep their values."""
    if denominator is not None:
        safe = denominator > _EPSILON
        theta[safe] = numerator[safe] / denominator[safe]
    else:
        non_empty = mass > 0
        theta[non_empty] = numerator[non_empty] / mass[non_empty, None]


def _gather_sums(
    aggregator,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    q: int,
    X: np.ndarray,
    w_column: Optional[np.ndarray],
    parallel=None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Grouped sums of the gather update for set ``q``.

    The grouped (weighted) sums of the aggregator's ``update_terms`` per
    protocentroid: ``(Σ w·(x − rest), None)`` for the sum,
    ``(Σ w·x ⊙ rest, Σ w·rest ⊙ rest)`` for the product (weighted
    Proposition 6.1).  Each row block gathers its own rest slice, partials
    folded in block order.
    """
    h = thetas[q].shape[0]

    def _block(start, stop):
        rest = _rest_contribution(
            aggregator, thetas, set_labels[start:stop], q, X.shape[1]
        )
        a_b = set_labels[start:stop, q]
        terms = aggregator.update_terms(X[start:stop], rest)
        return tuple(
            None if term is None else one_hot_row_sum(
                a_b[:, None],
                term if w_column is None else term * w_column[start:stop], h,
            )
            for term in terms
        )

    parts = map_row_blocks(parallel, _block, X.shape[0])
    numerator = fold_blocks([part[0] for part in parts])
    if parts[0][1] is None:
        return numerator, None
    return numerator, fold_blocks([part[1] for part in parts])


def update_protocentroids(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    aggregator,
    rng: Optional[np.random.Generator] = None,
    weights: Optional[np.ndarray] = None,
    factored: Optional[bool] = None,
    parallel=None,
) -> List[np.ndarray]:
    """Dispatch one closed-form update to the factored or gather kernel.

    ``factored=None`` resolves from the aggregator capability (the ``auto``
    behavior); ``factored=True`` with a non-decomposable aggregator falls
    back to the gather path transparently, mirroring the assignment knob.
    """
    agg = get_aggregator(aggregator)
    use_factored = agg.supports_factored_update if factored is None else (
        factored and agg.supports_factored_update
    )
    if use_factored:
        return update_factored(
            X, thetas, set_labels, agg, rng, weights, parallel
        )
    return update_gather(X, thetas, set_labels, agg, rng, weights, parallel)


def _rest_contribution(
    aggregator,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    excluded_set: int,
    feature_dim: int,
) -> np.ndarray:
    """Aggregate, per point, the protocentroids of every set but one."""
    parts = [
        thetas[l][set_labels[:, l]]
        for l in range(len(thetas))
        if l != excluded_set
    ]
    if not parts:
        return aggregator.identity(
            (set_labels.shape[0], feature_dim), dtype=thetas[0].dtype
        )
    return aggregator.combine(parts)
