"""Linear-algebra substrate for Khatri-Rao clustering.

This subpackage implements the two operator families the paper builds on:

* **Khatri-Rao operators** (Section 3): given ``p`` sets of vectors, produce
  every elementwise ``sum`` or ``product`` combination with one vector from
  each set — the mechanism by which protocentroids generate centroids.
  Aggregators additionally expose a *factored-assignment capability*
  (``supports_factored_assignment`` plus the ``cross_gram`` /
  ``self_interaction`` / ``factored_shift`` / ``factored_drift`` hooks)
  that lets the clustering layer compute distances to all combinations —
  and bound every combination's movement between iterations — without
  materializing them.
* **Hadamard decomposition** (Section 4.2, Eq. 6): reparameterize a weight
  matrix as the Hadamard product of low-rank factors, the mechanism by which
  autoencoder parameters are compressed in Khatri-Rao deep clustering.
"""

from .aggregators import (
    Aggregator,
    ProductAggregator,
    SumAggregator,
    get_aggregator,
    resolve_working_dtype,
)
from .hadamard import (
    HadamardDecomposition,
    hadamard_parameter_count,
    hadamard_reconstruct,
    init_hadamard_factors,
)
from .khatri_rao import (
    flat_to_set_labels,
    flat_to_tuple,
    khatri_rao_combine,
    khatri_rao_product,
    khatri_rao_rows,
    num_combinations,
    tuple_to_flat,
)

__all__ = [
    "Aggregator",
    "SumAggregator",
    "ProductAggregator",
    "get_aggregator",
    "resolve_working_dtype",
    "khatri_rao_combine",
    "khatri_rao_product",
    "khatri_rao_rows",
    "num_combinations",
    "tuple_to_flat",
    "flat_to_tuple",
    "flat_to_set_labels",
    "HadamardDecomposition",
    "hadamard_reconstruct",
    "hadamard_parameter_count",
    "init_hadamard_factors",
]
