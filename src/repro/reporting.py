"""Evaluation reports in the paper's format (used by the benchmark harness
and the CLI).

:func:`evaluate_summary` computes the Section 9.1 metric panel (ARI / ACC /
NMI / inertia) for one labeling; :func:`compare_methods` runs the Table 2
protocol — KR-k-Means (both aggregators) against k-Means at equal parameters
and at equal clusters — on any ``(X, y, k)`` and renders the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ._validation import (
    check_array,
    check_cardinalities,
    check_positive_int,
    int_prod,
)
from .core import KhatriRaoKMeans, KMeans, balanced_factor_pair
from .metrics import (
    adjusted_rand_index,
    inertia,
    normalized_mutual_information,
    unsupervised_clustering_accuracy,
)

__all__ = ["MethodResult", "evaluate_summary", "compare_methods", "render_comparison"]


@dataclass
class MethodResult:
    """Metric panel of one method on one dataset."""

    method: str
    ari: float
    acc: float
    nmi: float
    inertia: float
    parameters: int

    def row(self, baseline_inertia: float, baseline_parameters: int) -> str:
        return (
            f"{self.method:<28}{self.ari:>7.3f}{self.acc:>7.3f}{self.nmi:>7.3f}"
            f"{self.inertia / max(baseline_inertia, 1e-12):>10.2f}"
            f"{self.parameters / baseline_parameters:>9.2f}"
        )


def evaluate_summary(X, labels_true, labels_pred, centroids) -> Dict[str, float]:
    """The paper's metric panel for one clustering result."""
    return {
        "ari": adjusted_rand_index(labels_true, labels_pred),
        "acc": unsupervised_clustering_accuracy(labels_true, labels_pred),
        "nmi": normalized_mutual_information(labels_true, labels_pred),
        "inertia": inertia(X, labels_pred, centroids),
    }


def compare_methods(
    X,
    y,
    k: int,
    *,
    cardinalities: Optional[Sequence[int]] = None,
    n_init: int = 10,
    random_state=None,
) -> List[MethodResult]:
    """Run the Table 2 protocol on ``(X, y)`` with ``k`` target clusters.

    Returns results for KR-k-Means(+), KR-k-Means(x), k-Means(h1+h2) and
    k-Means(h1·h2), in that order.
    """
    X = check_array(X)
    k = check_positive_int(k, "k")
    if cardinalities is None:
        h1, h2 = balanced_factor_pair(k)
        if h2 == 1:
            h1, h2 = balanced_factor_pair(k + 1)
        cardinalities = (h1, h2)
    cards = check_cardinalities(cardinalities)

    results: List[MethodResult] = []
    for aggregator, tag in (("sum", "+"), ("product", "x")):
        model = KhatriRaoKMeans(cards, aggregator=aggregator, n_init=n_init,
                                random_state=random_state).fit(X)
        panel = evaluate_summary(X, y, model.labels_, model.centroids())
        results.append(MethodResult(
            f"Khatri-Rao-k-Means-{tag}{cards}", panel["ari"], panel["acc"],
            panel["nmi"], panel["inertia"], model.parameter_count(),
        ))
    small = KMeans(sum(cards), n_init=n_init, random_state=random_state).fit(X)
    panel = evaluate_summary(X, y, small.labels_, small.cluster_centers_)
    results.append(MethodResult(
        f"k-Means({sum(cards)})", panel["ari"], panel["acc"], panel["nmi"],
        panel["inertia"], small.parameter_count(),
    ))
    full = KMeans(int_prod(cards), n_init=n_init,
                  random_state=random_state).fit(X)
    panel = evaluate_summary(X, y, full.labels_, full.cluster_centers_)
    results.append(MethodResult(
        f"k-Means({int_prod(cards)})", panel["ari"], panel["acc"],
        panel["nmi"], panel["inertia"], full.parameter_count(),
    ))
    return results


def render_comparison(results: Sequence[MethodResult]) -> str:
    """Render :func:`compare_methods` output as a Table 2-style block.

    Inertia and parameters are normalized by the last entry (the
    ``k-Means(h1·h2)`` optimistic bound).
    """
    baseline = results[-1]
    header = (f"{'method':<28}{'ARI':>7}{'ACC':>7}{'NMI':>7}"
              f"{'inertia*':>10}{'params*':>9}")
    lines = [header, "-" * len(header)]
    for result in results:
        lines.append(result.row(baseline.inertia, baseline.parameters))
    lines.append("(* relative to the k-Means(h1*h2) baseline)")
    return "\n".join(lines)
