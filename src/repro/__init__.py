"""repro — Khatri-Rao Clustering for Data Summarization (EDBT 2026).

A from-scratch reproduction of the Khatri-Rao clustering paradigm
[Ciaperoni, Leiber, Gionis, Mannila — EDBT 2026]: centroid-based data
summaries whose centroids arise from the interaction of small sets of
*protocentroids* through elementwise Khatri-Rao operators.

Quickstart
----------
>>> from repro import KhatriRaoKMeans
>>> from repro.datasets import load_dataset
>>> ds = load_dataset("stickfigures", random_state=0)
>>> model = KhatriRaoKMeans((3, 3), aggregator="sum", random_state=0).fit(ds.data)
>>> model.centroids().shape                         # 9 centroids ...
(9, 400)
>>> model.parameter_count() < 9 * ds.n_features     # ... from 6 stored vectors
True

Public surface
--------------
* :class:`~repro.core.KMeans`, :class:`~repro.core.KhatriRaoKMeans`,
  :class:`~repro.core.NaiveKhatriRao` — k-means-family algorithms;
* :mod:`repro.deep` — DKM/IDEC and their Khatri-Rao variants;
* :mod:`repro.federated` — FkM and Khatri-Rao-FkM;
* :mod:`repro.serving` — the batched model server (registry,
  micro-batcher, HTTP front end, metrics) over fitted summaries;
* :mod:`repro.monitoring` — streaming drift monitoring over online
  ``partial_fit`` (typed alerts, intervention policies, the
  golden-dataset regression harness);
* :mod:`repro.runtime` — fault-tolerant training runtime
  (checkpoint/resume, supervised parallel restarts), with the shared
  fault-injection vocabulary in :mod:`repro.faults`;
* :mod:`repro.applications` — color quantization;
* :mod:`repro.datasets`, :mod:`repro.metrics`, :mod:`repro.linalg`,
  :mod:`repro.core.design` — data, evaluation and design-choice utilities.
"""

from . import applications, core, datasets, deep, federated, linalg, metrics, viz
from .core import KhatriRaoKMeans, KMeans, MiniBatchKhatriRaoKMeans, NaiveKhatriRao
from .deep import DEC, DKM, IDEC, KhatriRaoDEC, KhatriRaoDKM, KhatriRaoIDEC
from .summary import DataSummary, summarize
from . import faults, monitoring, runtime, serving
from .exceptions import (
    BatcherStoppedError,
    CheckpointError,
    ConvergenceWarning,
    DatasetError,
    DtypeFallbackWarning,
    GoldenMismatchError,
    ModelNotFoundError,
    MonitoringError,
    NotFittedError,
    QuorumError,
    RateLimitError,
    ReproError,
    ServingError,
    SummaryFormatError,
    ValidationError,
)
from .federated import FederatedKMeans, KhatriRaoFederatedKMeans
from .linalg import khatri_rao_combine

__version__ = "1.0.0"

__all__ = [
    "KMeans",
    "KhatriRaoKMeans",
    "MiniBatchKhatriRaoKMeans",
    "NaiveKhatriRao",
    "DKM",
    "KhatriRaoDKM",
    "IDEC",
    "KhatriRaoIDEC",
    "DEC",
    "KhatriRaoDEC",
    "DataSummary",
    "summarize",
    "FederatedKMeans",
    "KhatriRaoFederatedKMeans",
    "khatri_rao_combine",
    "ReproError",
    "ValidationError",
    "SummaryFormatError",
    "CheckpointError",
    "QuorumError",
    "NotFittedError",
    "MonitoringError",
    "GoldenMismatchError",
    "DatasetError",
    "ServingError",
    "ModelNotFoundError",
    "RateLimitError",
    "BatcherStoppedError",
    "ConvergenceWarning",
    "DtypeFallbackWarning",
    "core",
    "deep",
    "datasets",
    "federated",
    "faults",
    "applications",
    "linalg",
    "metrics",
    "monitoring",
    "runtime",
    "serving",
    "viz",
    "__version__",
]
