"""Core clustering algorithms: the paper's primary contribution.

* :class:`KMeans` — standard Lloyd's algorithm with k-means++ (Section 3),
  the baseline the paper compares against;
* :class:`KhatriRaoKMeans` — Algorithm 1 with closed-form protocentroid
  updates (Proposition 6.1), sum/product aggregators and any number ``p``
  of protocentroid sets;
* :class:`NaiveKhatriRao` — the two-phase baseline of Section 5;
* design-choice helpers from Section 8 (:mod:`repro.core.design`);
* BIC-based model selection (:mod:`repro.core.model_selection`);
* :func:`assign_factored` — the factored assignment kernel that exploits
  Khatri-Rao structure to skip centroid materialization (Section 6,
  "Complexity"); ``_factored.assign_khatri_rao`` is the one assignment
  dispatch of every consumer (estimators, ``DataSummary``, federated
  clients): this kernel when the aggregator decomposes, else the
  materialized grid, whole or in chunks (Appendix B);
* :func:`update_factored` / :func:`update_gather` — the closed-form
  protocentroid update kernels (:mod:`repro.core._update`): the
  contingency-table form that kills the per-set ``(n, m)`` rest gather for
  decomposable aggregators, and the reference gather arithmetic (the
  estimators' ``update`` knob); their per-set statistics
  (``_update.set_statistics``) also feed the mini-batch step and the
  federated client reports;
* Hamerly bound pruning (:mod:`repro.core._bounds`) — cross-iteration
  distance bounds that restrict each Lloyd pass to the points whose labels
  could actually change (the estimators' ``pruning`` knob).
"""

from ._bounds import PRUNING_MODES, HamerlyBounds, StreamingBounds
from ._factored import assign_factored, grouped_row_sum
from ._update import (
    UPDATE_MODES,
    update_factored,
    update_gather,
    update_protocentroids,
)
from .design import (
    balanced_factor_pair,
    balanced_factorization,
    max_centroids_for_budget,
    optimal_num_sets,
    sets_bounds_for_k,
    suggest_aggregator,
)
from .gmeans import GMeans, anderson_darling_rejects_gaussian
from .kmeans import KMeans, kmeans_plus_plus_init
from .kr_kmeans import KhatriRaoKMeans
from .minibatch import BatchStats, MiniBatchKhatriRaoKMeans
from .model_selection import KhatriRaoXMeans, XMeans, bic_score
from .naive import NaiveKhatriRao, decompose_centroids

__all__ = [
    "KMeans",
    "kmeans_plus_plus_init",
    "assign_factored",
    "grouped_row_sum",
    "UPDATE_MODES",
    "update_factored",
    "update_gather",
    "update_protocentroids",
    "PRUNING_MODES",
    "HamerlyBounds",
    "StreamingBounds",
    "KhatriRaoKMeans",
    "BatchStats",
    "MiniBatchKhatriRaoKMeans",
    "NaiveKhatriRao",
    "decompose_centroids",
    "GMeans",
    "anderson_darling_rejects_gaussian",
    "balanced_factor_pair",
    "balanced_factorization",
    "optimal_num_sets",
    "max_centroids_for_budget",
    "sets_bounds_for_k",
    "suggest_aggregator",
    "XMeans",
    "KhatriRaoXMeans",
    "bic_score",
]
