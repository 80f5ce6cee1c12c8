"""Aggregator functions ``⊕`` combining protocentroids (paper Section 3).

The paper focuses on the elementwise **sum** (``⊕ = +``) and **product**
(``⊕ = ×``, i.e. the Hadamard product) aggregators.  Each aggregator is a
small strategy object exposing:

* ``combine`` — elementwise aggregation of a sequence of arrays;
* ``identity`` — the neutral element (0 for sum, 1 for product), used when
  reducing over sets and when constructing protocentroids that leave the
  other sets' contribution unchanged (Proposition 8.2's construction);
* ``split`` — factor a vector ``v`` into ``p`` parts whose aggregation
  reproduces ``v`` (used by the KR-k-means++-style initialization, which must
  turn a sampled centroid into one protocentroid per set);
* ``update_terms`` — the per-row terms whose grouped sums give the
  closed-form protocentroid update of Proposition 6.1 (the update kernels
  themselves live in :mod:`repro.core._update` because they also need
  cluster assignments).

Aggregators are selected by name (``"sum"``/``"+"`` or ``"product"``/``"*"``)
through :func:`get_aggregator`.

Factored-assignment capability protocol
---------------------------------------
The assignment step is the bottleneck of Khatri-Rao k-Means (paper
Section 6, "Complexity").  For the **sum** aggregator the squared distance
to a centroid decomposes over the protocentroid sets, so assignment never
has to materialize centroids (see :mod:`repro.core._factored`).  An
aggregator advertises this through the capability flag
``supports_factored_assignment`` and, when it opts in, provides the three
hooks the factored kernel needs:

* ``cross_gram(X, thetas)`` — the per-set Gram matrices ``G_q = X @ θ_qᵀ``
  of shape ``(n, h_q)`` carrying the data-centroid cross terms;
* ``self_interaction(thetas)`` — the flat ``(∏ h_q,)`` vector of centroid
  squared norms ``S[j_1..j_p] = ‖⊕_q θ_q[j_q]‖²`` computed *without*
  touching the data or materializing centroids;
* ``self_interaction_blocks(thetas)`` — a closure evaluating the same
  quantity for arbitrary tuple-index blocks, precomputing only
  ``O(Σh_q + Σ_{q<r} h_q·h_r)`` tables so the chunked (memory) mode never
  allocates anything of size ``∏ h_q``;
* ``factored_shift(old_thetas, new_thetas)`` — the total squared centroid
  movement ``Σ_grid ‖c_new − c_old‖²`` in closed form;
* ``factored_drift(old_thetas, new_thetas)`` — per-set drift norm tables
  ``d_q[j] = ‖θ_q^new[j] − θ_q^old[j]‖`` such that every centroid's
  movement obeys ``‖Δc(j_1..j_p)‖ ≤ Σ_q d_q[j_q]`` (triangle inequality on
  ``Δc = Σ_q Δθ_q[j_q]``), powering Hamerly bound inflation
  (:mod:`repro.core._bounds`) for all ``∏ h_q`` centroids from ``Σ h_q``
  numbers — no grid materialization.

The **product** aggregator does not decompose this way (``x·∏_q θ_q`` is
not a sum of per-set terms), so it keeps the default
``supports_factored_assignment = False`` and estimators transparently fall
back to the materialized assignment path.

Factored-update capability
--------------------------
The closed-form protocentroid update of Proposition 6.1 factors the same
way: for the sum aggregator the per-point *rest* gather
``Σ_{r≠q} θ_r[a_r]`` grouped by ``a_q`` equals ``C_qr @ θ_r`` through
per-set-pair contingency count tables, so the update never materializes an
``(n, m)`` rest matrix (see :mod:`repro.core._update`).  Aggregators
advertise this through ``supports_factored_update``; the product
aggregator's update is nonlinear in each ``θ_r`` (the denominator carries
``rest ⊙ rest``), so it keeps the gather path.  Which of the two update
shapes an aggregator has is itself a hook, ``update_terms(x, rest)``:
``(x − rest, None)`` for the sum (numerator over the group's mass) and
``(x ⊙ rest, rest ⊙ rest)`` for the product (elementwise quotient of
grouped sums).  Every update kernel asks the hook; none compares names.

Working-dtype capability
------------------------
The estimators' ``dtype`` knob selects the precision the BLAS-bound hot
paths (Grams, partial scores, rest gathers) compute in.  Each aggregator
declares the dtypes its kernels support end-to-end through
``working_dtypes``; :func:`resolve_working_dtype` resolves a requested
dtype against that capability and **falls back loudly** — a
:class:`~repro.exceptions.DtypeFallbackWarning` plus a float64 result —
when the aggregator cannot honor the request, so a serving configuration
never silently runs at a different precision than the caller believes.
Both built-in aggregators support float32 and float64; third-party
subclasses default to float64-only until they opt in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from .._validation import as_float_array, check_dtype, int_prod
from ..exceptions import DtypeFallbackWarning, ValidationError, warn_at_call_site

__all__ = [
    "Aggregator",
    "SumAggregator",
    "ProductAggregator",
    "get_aggregator",
    "resolve_working_dtype",
]


class Aggregator(ABC):
    """Strategy interface for the elementwise aggregator ``⊕``."""

    #: canonical name, e.g. ``"sum"``
    name: str = ""
    #: one-character symbol used in reports, e.g. ``"+"``
    symbol: str = ""
    #: whether squared distances to aggregated centroids decompose over the
    #: protocentroid sets, enabling :func:`repro.core.assign_factored`
    supports_factored_assignment: bool = False
    #: whether the closed-form protocentroid update factors through per-pair
    #: contingency tables, enabling :func:`repro.core.update_factored`
    supports_factored_update: bool = False
    #: working dtypes the aggregator's kernels compute in end-to-end; the
    #: conservative default is float64-only — subclasses whose arithmetic
    #: (combine/split/Grams/self-interactions) is dtype-generic opt into
    #: float32 by extending this tuple.  Resolution (with loud float64
    #: fallback) happens in :func:`resolve_working_dtype`.
    working_dtypes: tuple = (np.dtype(np.float64),)

    @abstractmethod
    def combine(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Aggregate ``parts`` elementwise; all parts must share a shape."""

    @abstractmethod
    def identity(self, shape, dtype=np.float64) -> np.ndarray:
        """Return the neutral element of ``⊕`` with the given shape/dtype."""

    @abstractmethod
    def split(self, vector: np.ndarray, num_parts: int) -> List[np.ndarray]:
        """Split ``vector`` into ``num_parts`` arrays aggregating back to it."""

    def pair(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Aggregate exactly two arrays (broadcasting allowed)."""
        return self.combine([a, b])

    def update_terms(self, x, rest):
        """Per-row terms of the closed-form update of one protocentroid set.

        ``rest`` is each row's aggregation of the *other* sets'
        protocentroids.  Returns ``(numerator, denominator)`` such that the
        update of protocentroid ``j`` is the grouped sum of ``numerator``
        over the rows assigned to ``j``, divided elementwise by the grouped
        sum of ``denominator`` — or by the group's mass when
        ``denominator`` is ``None``.
        """
        raise ValidationError(
            f"aggregator {self.name!r} does not define update_terms"
        )

    # -- factored-assignment hooks (capability protocol) --------------------
    def cross_gram(self, X: np.ndarray, thetas: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per-set Gram matrices carrying the data-centroid cross terms.

        Only meaningful when ``supports_factored_assignment`` is True.
        """
        raise ValidationError(
            f"aggregator {self.name!r} does not support factored assignment"
        )

    def self_interaction(self, thetas: Sequence[np.ndarray]) -> np.ndarray:
        """Flat ``(∏ h_q,)`` vector of centroid squared norms, data-free."""
        raise ValidationError(
            f"aggregator {self.name!r} does not support factored assignment"
        )

    def self_interaction_blocks(self, thetas: Sequence[np.ndarray]):
        """Return ``f(tuple_indices) -> (b,)`` evaluating centroid squared
        norms for arbitrary tuple-index blocks.

        Must agree with :meth:`self_interaction` but may never allocate
        anything of size ``∏ h_q`` — chunked assignment relies on it to keep
        peak memory bounded by the chunk, not the grid.
        """
        raise ValidationError(
            f"aggregator {self.name!r} does not support factored assignment"
        )

    def factored_shift(
        self, old_thetas: Sequence[np.ndarray], new_thetas: Sequence[np.ndarray]
    ) -> float:
        """Total squared centroid movement in closed form, data-free."""
        raise ValidationError(
            f"aggregator {self.name!r} does not support factored assignment"
        )

    def factored_drift(
        self, old_thetas: Sequence[np.ndarray], new_thetas: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Per-set drift tables bounding every centroid's movement.

        Returns one ``(h_q,)`` vector per set with
        ``‖Δc(j_1..j_p)‖ ≤ Σ_q table_q[j_q]`` for every tuple index.
        """
        raise ValidationError(
            f"aggregator {self.name!r} does not support factored assignment"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class SumAggregator(Aggregator):
    """Additive aggregator: ``θ_1 ⊕ θ_2 = θ_1 + θ_2``."""

    name = "sum"
    symbol = "+"
    supports_factored_assignment = True
    supports_factored_update = True
    working_dtypes = (np.dtype(np.float64), np.dtype(np.float32))

    def combine(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        if not parts:
            raise ValidationError("combine requires at least one array")
        result = as_float_array(parts[0]).copy()
        for part in parts[1:]:
            result = result + as_float_array(part)
        return result

    def identity(self, shape, dtype=np.float64) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def split(self, vector: np.ndarray, num_parts: int) -> List[np.ndarray]:
        vector = as_float_array(vector)
        if num_parts < 1:
            raise ValidationError("num_parts must be >= 1")
        # Equal shares: each part is v / p, summing back to v exactly.
        share = vector / float(num_parts)
        return [share.copy() for _ in range(num_parts)]

    def pair(self, a, b):
        # Operator-generic: also combines autodiff tensors on the tape.
        return a + b

    def update_terms(self, x, rest):
        # θ_q[j] = mean over the group of (x − rest) (Proposition 6.1).
        return x - rest, None

    # -- factored-assignment hooks ------------------------------------------
    # For ⊕ = + the centroid of tuple (j_1, ..., j_p) is Σ_q θ_q[j_q], so
    #   x · c          = Σ_q (X @ θ_qᵀ)[i, j_q]                (cross_gram)
    #   ‖c‖²           = Σ_q ‖θ_q[j_q]‖² + 2 Σ_{q<r} θ_q[j_q]·θ_r[j_r]
    #                                                     (self_interaction)
    # which needs only p Gram matrices of shape (n, h_q) and p(p−1)/2 small
    # (h_q, h_r) inner-product tables — never the (∏ h_q, m) centroid matrix.

    def cross_gram(self, X: np.ndarray, thetas: Sequence[np.ndarray]) -> List[np.ndarray]:
        # Dtype-preserving: float32 X against float32 thetas runs the whole
        # Gram through sgemm — the main bandwidth win of dtype="float32".
        return [X @ as_float_array(theta).T for theta in thetas]

    def self_interaction(self, thetas: Sequence[np.ndarray]) -> np.ndarray:
        mats = [as_float_array(theta) for theta in thetas]
        cardinalities = tuple(mat.shape[0] for mat in mats)
        p = len(mats)
        S = np.zeros(cardinalities, dtype=np.result_type(*mats))
        for q, mat in enumerate(mats):
            shape = [1] * p
            shape[q] = cardinalities[q]
            S += np.einsum("ij,ij->i", mat, mat).reshape(shape)
        for q in range(p):
            for r in range(q + 1, p):
                shape = [1] * p
                shape[q] = cardinalities[q]
                shape[r] = cardinalities[r]
                S += 2.0 * (mats[q] @ mats[r].T).reshape(shape)
        return S.ravel()

    def self_interaction_blocks(self, thetas: Sequence[np.ndarray]):
        # Same expansion as self_interaction, but evaluated per index block
        # from O(Σh_q) norm vectors and O(Σ_{q<r} h_q·h_r) pairwise tables —
        # nothing of size ∏ h_q is ever allocated.
        mats = [as_float_array(theta) for theta in thetas]
        norms = [np.einsum("ij,ij->i", mat, mat) for mat in mats]
        pairs = [
            (q, r, mats[q] @ mats[r].T)
            for q in range(len(mats))
            for r in range(q + 1, len(mats))
        ]

        def block(tuple_indices: Sequence[np.ndarray]) -> np.ndarray:
            # Fancy indexing yields a fresh array, safe to accumulate into.
            S = norms[0][tuple_indices[0]].copy()
            for q in range(1, len(norms)):
                S += norms[q][tuple_indices[q]]
            for q, r, table in pairs:
                S += 2.0 * table[tuple_indices[q], tuple_indices[r]]
            return S

        return block

    def factored_shift(
        self, old_thetas: Sequence[np.ndarray], new_thetas: Sequence[np.ndarray]
    ) -> float:
        # Σ_grid ‖Σ_q δ_q[j_q]‖² with δ_q = θ_q^new − θ_q^old expands into
        # per-set norm sums and pairwise sums of column totals; every grid
        # index not involved contributes a multiplicity factor k / ∏ h.
        # Always float64, whatever the working dtype: the shift feeds the
        # convergence test and the drift side of the certified Hamerly
        # bounds, whose maintenance arithmetic is float64 by contract
        # (docs/numerics.md) — the cast is O(Σh_q·m), off the hot path.
        deltas = [
            np.asarray(new, dtype=np.float64) - np.asarray(old, dtype=np.float64)
            for old, new in zip(old_thetas, new_thetas)
        ]
        cardinalities = [delta.shape[0] for delta in deltas]
        k = int_prod(cardinalities)
        totals = [delta.sum(axis=0) for delta in deltas]
        shift = 0.0
        for q, delta in enumerate(deltas):
            shift += (k / cardinalities[q]) * float(np.einsum("ij,ij->", delta, delta))
        for q in range(len(deltas)):
            for r in range(q + 1, len(deltas)):
                multiplicity = k / (cardinalities[q] * cardinalities[r])
                shift += 2.0 * multiplicity * float(totals[q] @ totals[r])
        return shift

    def factored_drift(
        self, old_thetas: Sequence[np.ndarray], new_thetas: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        # Δc(j_1..j_p) = Σ_q Δθ_q[j_q] for ⊕ = +, so the per-set norm tables
        # ‖Δθ_q[j]‖ bound every centroid's movement via the triangle
        # inequality — Σ h_q numbers covering all ∏ h_q centroids.  Computed
        # in float64 for any working dtype: bound-maintenance arithmetic is
        # float64 by contract so the certified margins only have to cover
        # the dtype-rounded *distance* seeds (docs/numerics.md).
        tables = []
        for old, new in zip(old_thetas, new_thetas):
            delta = np.asarray(new, dtype=np.float64) - np.asarray(old, dtype=np.float64)
            tables.append(np.sqrt(np.einsum("ij,ij->i", delta, delta)))
        return tables


class ProductAggregator(Aggregator):
    """Multiplicative (Hadamard) aggregator: ``θ_1 ⊕ θ_2 = θ_1 ⊙ θ_2``."""

    name = "product"
    symbol = "*"
    working_dtypes = (np.dtype(np.float64), np.dtype(np.float32))

    def combine(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        if not parts:
            raise ValidationError("combine requires at least one array")
        result = as_float_array(parts[0]).copy()
        for part in parts[1:]:
            result = result * as_float_array(part)
        return result

    def identity(self, shape, dtype=np.float64) -> np.ndarray:
        return np.ones(shape, dtype=dtype)

    def split(self, vector: np.ndarray, num_parts: int) -> List[np.ndarray]:
        vector = as_float_array(vector)
        if num_parts < 1:
            raise ValidationError("num_parts must be >= 1")
        if num_parts == 1:
            return [vector.copy()]
        # The first part carries the signed magnitude; the remaining parts are
        # |v|^(1/p) with the sign assigned to the first factor so the product
        # reproduces v exactly even for negative entries.
        magnitude = np.abs(vector)
        root = np.power(magnitude, 1.0 / num_parts)
        sign = np.sign(vector)
        sign[sign == 0] = 1.0
        first = sign * root
        return [first] + [root.copy() for _ in range(num_parts - 1)]

    def pair(self, a, b):
        # Operator-generic: also combines autodiff tensors on the tape.
        return a * b

    def update_terms(self, x, rest):
        # θ_q[j] = Σ x ⊙ rest / Σ rest ⊙ rest, elementwise (Proposition 6.1).
        return x * rest, rest * rest


_AGGREGATORS = {
    "sum": SumAggregator,
    "+": SumAggregator,
    "add": SumAggregator,
    "product": ProductAggregator,
    "*": ProductAggregator,
    "x": ProductAggregator,
    "prod": ProductAggregator,
    "mul": ProductAggregator,
}


def resolve_working_dtype(dtype, aggregator) -> np.dtype:
    """Resolve a requested working dtype against an aggregator's capability.

    The estimators call this once at ``fit`` entry.  When the aggregator
    advertises the requested dtype in ``working_dtypes`` it is returned
    canonicalized; otherwise the resolver **falls back loudly** — a
    :class:`~repro.exceptions.DtypeFallbackWarning` naming both the request
    and the aggregator — and returns float64, which every aggregator must
    support.  An outright invalid dtype (anything other than
    float32/float64) raises :class:`~repro.exceptions.ValidationError`
    instead of warning: that is a caller bug, not a capability gap.
    """
    requested = check_dtype(dtype)
    agg = get_aggregator(aggregator)
    if requested in agg.working_dtypes:
        return requested
    warn_at_call_site(
        f"aggregator {agg.name!r} does not support working dtype "
        f"{requested.name!r} (supported: "
        f"{tuple(d.name for d in agg.working_dtypes)}); falling back to "
        "float64",
        DtypeFallbackWarning,
    )
    return np.dtype(np.float64)


def get_aggregator(aggregator) -> Aggregator:
    """Resolve an aggregator name or instance to an :class:`Aggregator`.

    Parameters
    ----------
    aggregator : str or Aggregator
        ``"sum"``/``"+"``, ``"product"``/``"*"`` or an existing instance.

    Returns
    -------
    Aggregator
    """
    if isinstance(aggregator, Aggregator):
        return aggregator
    if isinstance(aggregator, str):
        key = aggregator.strip().lower()
        if key in _AGGREGATORS:
            return _AGGREGATORS[key]()
    raise ValidationError(
        f"unknown aggregator {aggregator!r}; expected 'sum'/'+' or 'product'/'*'"
    )
