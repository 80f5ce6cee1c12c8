"""Parameter accounting for data summaries (the "Params" columns).

The paper quantifies compression by the number of scalars a method stores to
summarize a dataset:

* ``k-Means`` with ``k`` centroids over ``m`` features stores ``k·m``;
* Khatri-Rao k-Means with sets of cardinalities ``(h_1, ..., h_p)`` stores
  ``(h_1 + ... + h_p)·m`` while representing ``h_1·...·h_p`` centroids;
* deep clustering additionally stores autoencoder weights, compressed in the
  Khatri-Rao variants via the Hadamard decomposition of Eq. 6 (see
  :class:`repro.nn.HadamardLinear`, whose ``parameter_count`` is
  ``Σ r_i (in + out) [+ out]``, and
  :meth:`repro.nn.Sequential.parameter_count`).
"""

from __future__ import annotations

from typing import Sequence

from .._validation import check_cardinalities, check_positive_int
from ..exceptions import ValidationError

__all__ = ["summary_parameter_count", "parameter_ratio"]


def summary_parameter_count(
    n_features: int,
    *,
    n_centroids: int = 0,
    cardinalities: Sequence[int] = (),
    extra: int = 0,
) -> int:
    """Scalars stored by a centroid / protocentroid data summary.

    Exactly one of ``n_centroids`` (plain centroid summary) or
    ``cardinalities`` (Khatri-Rao protocentroid summary) must be provided.

    Examples
    --------
    >>> summary_parameter_count(64, n_centroids=36)
    2304
    >>> summary_parameter_count(64, cardinalities=(6, 6))
    768
    """
    m = check_positive_int(n_features, "n_features")
    if bool(n_centroids) == bool(cardinalities):
        raise ValidationError(
            "provide exactly one of n_centroids or cardinalities"
        )
    if n_centroids:
        vectors = check_positive_int(n_centroids, "n_centroids")
    else:
        vectors = sum(check_cardinalities(cardinalities))
    if extra < 0:
        raise ValidationError("extra must be non-negative")
    return vectors * m + int(extra)


def parameter_ratio(compressed: int, baseline: int) -> float:
    """Ratio of parameters used by a compressed summary over a baseline.

    Examples
    --------
    >>> parameter_ratio(768, 2304)
    0.3333333333333333
    """
    compressed = check_positive_int(compressed, "compressed", minimum=0)
    baseline = check_positive_int(baseline, "baseline")
    return compressed / baseline
