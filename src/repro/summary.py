"""Portable data summaries — the artifact Khatri-Rao clustering produces.

Data summarization is about *shipping a small object instead of the data*.
:class:`DataSummary` is that object: protocentroid sets (or plain
centroids), the aggregator and metadata, with save/load to ``.npz``
through the envelope training checkpoints use
(:mod:`repro.runtime.checkpoint`), centroid reconstruction, assignment of
new data and a compression report.
Any fitted model from :mod:`repro.core` exports one through
:func:`summarize`.

Examples
--------
>>> import numpy as np
>>> from repro import KhatriRaoKMeans
>>> from repro.datasets import make_blobs
>>> from repro.summary import summarize
>>> X, _ = make_blobs(400, n_clusters=9, random_state=0)
>>> model = KhatriRaoKMeans((3, 3), n_init=5, random_state=0).fit(X)
>>> summary = summarize(model)
>>> summary.n_clusters, summary.stored_vectors
(9, 6)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ._validation import (
    SUPPORTED_DTYPES,
    as_float_array,
    check_array,
    check_dtype,
    check_positive_int,
    check_random_state,
    check_sample_weight,
    int_prod,
)
from .core._factored import assign_khatri_rao
from .core._update import resolve_update, update_protocentroids
from .exceptions import SummaryFormatError, ValidationError
from .linalg import flat_to_set_labels, get_aggregator, khatri_rao_combine
from .runtime.checkpoint import read_checkpoint, write_checkpoint

__all__ = ["DataSummary", "summarize"]


@dataclass
class DataSummary:
    """A self-contained centroid-based summary of a dataset.

    Attributes
    ----------
    protocentroids : list of arrays
        One ``(h_q, m)`` array per set; a single-set list is a plain
        centroid summary.  A float32/float64 dtype is preserved (a float32
        summary is half the bytes on the wire — the serving configuration);
        other dtypes widen to float64.  All sets must share one dtype.
    aggregator_name : str
        ``"sum"`` or ``"product"``.
    metadata : dict
        Free-form, JSON-serializable provenance (dataset name, algorithm,
        inertia at fit time, ...).
    """

    protocentroids: List[np.ndarray]
    aggregator_name: str = "sum"
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.protocentroids:
            raise ValidationError("a summary needs at least one protocentroid set")
        self.protocentroids = [
            as_float_array(theta) for theta in self.protocentroids
        ]
        for q, theta in enumerate(self.protocentroids):
            _check_set(q, theta)
            if theta.shape[1] != self.n_features:
                raise ValidationError(
                    f"protocentroid set {q} has shape {theta.shape}, "
                    f"expected (*, {self.n_features})"
                )
            if theta.dtype != self.dtype:
                raise ValidationError(
                    f"protocentroid set {q} has dtype {theta.dtype}, but set 0 "
                    f"has {self.dtype}; cast the sets consistently (see astype)"
                )
        get_aggregator(self.aggregator_name)  # validate eagerly

    # ------------------------------------------------------------ properties
    @property
    def cardinalities(self) -> tuple:
        return tuple(theta.shape[0] for theta in self.protocentroids)

    @property
    def n_features(self) -> int:
        return int(self.protocentroids[0].shape[1])

    @property
    def n_clusters(self) -> int:
        # int_prod, not np.prod: the implicit grid size overflows int64
        # for large configurations and np.prod silently wraps.
        return int_prod(self.cardinalities)

    @property
    def stored_vectors(self) -> int:
        return int(sum(self.cardinalities))

    @property
    def dtype(self) -> np.dtype:
        """Working dtype of the stored protocentroids."""
        return self.protocentroids[0].dtype

    @property
    def parameter_count(self) -> int:
        return self.stored_vectors * self.n_features

    def compression_ratio(self) -> float:
        """Parameters stored relative to an explicit centroid summary."""
        return self.parameter_count / (self.n_clusters * self.n_features)

    def astype(self, dtype) -> "DataSummary":
        """Return a copy of this summary cast to another working dtype.

        The serving-shaped export: ``summary.astype("float32")`` halves the
        payload and makes :meth:`assign`/:meth:`inertia` score new data in
        float32 (see ``docs/numerics.md`` for the error envelope).  Metadata
        is shallow-copied; ``astype(self.dtype)`` still returns a fresh
        copy.
        """
        dtype = check_dtype(dtype)
        return DataSummary(
            [theta.astype(dtype) for theta in self.protocentroids],
            aggregator_name=self.aggregator_name,
            metadata=dict(self.metadata),
        )

    # -------------------------------------------------------------- behavior
    def centroids(self) -> np.ndarray:
        """Reconstruct the full centroid matrix."""
        return khatri_rao_combine(self.protocentroids, self.aggregator_name)

    def _nearest(self, X: np.ndarray):
        """Labels and squared distances to the nearest centroid.

        One :func:`~repro.core._factored.assign_khatri_rao` call: the
        factored kernel when the aggregator decomposes (sum), so
        out-of-sample assignment never materializes the ``(∏ h_q, m)``
        centroid grid; the materialized grid otherwise.
        """
        return assign_khatri_rao(X, self.protocentroids, self.aggregator_name)

    def _check_features(self, X) -> np.ndarray:
        # New data is scored in the summary's own working dtype.
        X = check_array(X, dtype=self.dtype)
        if X.shape[1] != self.n_features:
            raise ValidationError(
                f"X has {X.shape[1]} features, summary has {self.n_features}"
            )
        return X

    def assign(self, X) -> np.ndarray:
        """Assign each row of ``X`` to its nearest reconstructed centroid."""
        X = self._check_features(X)
        labels, _ = self._nearest(X)
        return labels

    def score(self, X):
        """Labels *and* squared distances to the nearest centroid.

        One kernel call serving both :meth:`assign` and :meth:`inertia`
        shapes — the entry point the micro-batcher uses so a coalesced
        batch pays for exactly one factored sweep.

        Returns
        -------
        labels : (n,) int array
        distances : (n,) array of squared distances
        """
        X = self._check_features(X)
        return self._nearest(X)

    def inertia(self, X) -> float:
        """Squared reconstruction error of ``X`` under this summary."""
        X = self._check_features(X)
        _, distances = self._nearest(X)
        return float(distances.sum(dtype=np.float64))

    def refine(
        self,
        X,
        *,
        n_steps: int = 1,
        update: str = "auto",
        sample_weight=None,
        random_state=None,
    ) -> "DataSummary":
        """Run ``n_steps`` closed-form Lloyd refinements on ``X``, in place.

        Summary maintenance without refitting from scratch: each step
        assigns ``X`` (through the factored kernel when the aggregator
        decomposes) and applies the closed-form protocentroid update of
        Proposition 6.1 through :mod:`repro.core._update` — the ``update``
        knob picks the contingency-table or gather arithmetic exactly as on
        the estimators.  Protocentroids that receive no mass are reseeded
        from ``random_state``.  Everything runs in the summary's own
        working :attr:`dtype` (``X`` is cast on entry; grouped accumulation
        stays float64 as documented in ``docs/numerics.md``).  Returns
        ``self``.

        Parameters
        ----------
        X : array of shape (n, m)
            Data to refine against; must match :attr:`n_features`.
        n_steps : int
            Number of assign-update sweeps.
        update : {"auto", "factored", "gather"}
            Update-kernel knob, as on the estimators.
        sample_weight : array of shape (n,), optional
            Per-point weights of the weighted Proposition 6.1.
        random_state : None, int or Generator
            Source of empty-protocentroid reseed draws.
        """
        n_steps = check_positive_int(n_steps, "n_steps")
        X = self._check_features(X)
        aggregator = get_aggregator(self.aggregator_name)
        factored = resolve_update(update, aggregator)
        rng = check_random_state(random_state)
        if sample_weight is not None:
            sample_weight = check_sample_weight(
                sample_weight, X.shape[0], dtype=X.dtype
            )
        for _ in range(n_steps):
            labels, _ = self._nearest(X)
            set_labels = flat_to_set_labels(labels, self.cardinalities)
            self.protocentroids = update_protocentroids(
                X, self.protocentroids, set_labels, aggregator, rng,
                weights=sample_weight, factored=factored,
            )
        return self

    def report(self) -> str:
        """Human-readable compression report."""
        lines = [
            f"DataSummary: {self.n_clusters} clusters over "
            f"{self.n_features} features",
            f"  sets          : {self.cardinalities} (aggregator "
            f"{self.aggregator_name!r})",
            f"  stored vectors: {self.stored_vectors} "
            f"({self.parameter_count} parameters, {self.dtype})",
            f"  compression   : {self.compression_ratio():.2f}x of an "
            f"explicit {self.n_clusters}-centroid summary",
        ]
        if self.metadata:
            lines.append(f"  metadata      : {json.dumps(self.metadata, sort_keys=True)}")
        return "\n".join(lines)

    # ---------------------------------------------------------- persistence
    def save(self, path: Union[str, Path], *, fault_hook=None) -> Path:
        """Serialize to a ``.npz`` archive atomically; returns the written path.

        The archive goes through the checkpoint envelope
        (:func:`~repro.runtime.checkpoint.write_checkpoint`): it is written
        to a ``.tmp`` sibling and renamed into place, so a crash mid-save
        never leaves a torn archive at ``path``, and the header carries a
        content digest of every protocentroid set, which :meth:`load`
        verifies.  A ``.npz`` suffix is appended to ``path`` when missing.

        ``fault_hook``, if given, is called with a stage name (``"write"``
        before the bytes go out, ``"replace"`` before the atomic rename)
        and may raise to simulate a crash at that point — the seam the
        artifact-integrity chaos tests drive.
        """
        path = Path(path)
        final = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
        # cardinalities/n_features/dtype are redundant with the arrays on
        # purpose: load() cross-checks them so a corrupted or hand-edited
        # archive fails with the offending field named instead of producing
        # a summary whose shape silently disagrees with what was saved.
        header = {
            "aggregator": self.aggregator_name,
            "num_sets": len(self.protocentroids),
            "cardinalities": list(self.cardinalities),
            "n_features": self.n_features,
            "dtype": self.dtype.name,
            "metadata": self.metadata,
        }
        arrays = {
            f"protocentroids_{q}": theta
            for q, theta in enumerate(self.protocentroids)
        }
        return write_checkpoint(final, header, arrays, fault_hook=fault_hook)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DataSummary":
        """Load a summary written by :meth:`save`.

        The checkpoint envelope
        (:func:`~repro.runtime.checkpoint.read_checkpoint`) checks the
        archive, its header and format version, and every content digest
        the header names; archives written before digests existed load
        unverified.  This method then checks the summary schema.  Any
        malformed archive — truncated file, missing keys, wrong dtypes,
        cardinalities that contradict the header — raises
        :class:`~repro.exceptions.SummaryFormatError` with the offending
        field named, never a bare ``KeyError``/``ValueError`` out of the
        ``.npz`` machinery.  This is the loader the serving registry trusts
        with operator-supplied files.
        """
        header, arrays = read_checkpoint(
            path, error=SummaryFormatError, require_digests=False
        )
        num_sets = header.get("num_sets")
        # Exact type: bool is an int subclass, and JSON ``true`` must not
        # read as one set.
        if type(num_sets) is not int or num_sets < 1:
            raise SummaryFormatError(
                f"num_sets must be a positive integer, got {num_sets!r}",
                field="num_sets",
            )
        aggregator = header.get("aggregator")
        if not isinstance(aggregator, str):
            raise SummaryFormatError(
                f"aggregator must be a string, got {aggregator!r}",
                field="aggregator",
            )
        metadata = header.get("metadata", {})
        if not isinstance(metadata, dict):
            raise SummaryFormatError(
                f"metadata must be a JSON object, got "
                f"{type(metadata).__name__}", field="metadata",
            )

        protocentroids = []
        for q in range(num_sets):
            key = f"protocentroids_{q}"
            if key not in arrays:
                raise SummaryFormatError(
                    f"{path} is missing protocentroid set {q} "
                    f"(header says num_sets={num_sets})", field=key,
                )
            _check_set(q, arrays[key], SummaryFormatError)
            protocentroids.append(arrays[key])

        # Cross-check the redundant header fields (absent in older
        # archives, which skip this).
        stored = {
            "cardinalities": [theta.shape[0] for theta in protocentroids],
            "n_features": protocentroids[0].shape[1],
            "dtype": protocentroids[0].dtype.name,
        }
        for name, value in stored.items():
            if name in header and header[name] != value:
                raise SummaryFormatError(
                    f"{path} header declares {name} {header[name]!r} but "
                    f"the stored sets have {value!r}", field=name,
                )

        try:
            return cls(
                protocentroids=protocentroids,
                aggregator_name=aggregator,
                metadata=metadata,
            )
        except ValidationError as exc:
            # e.g. sets disagreeing on n_features / dtype, or an
            # unknown aggregator: re-raise typed, pointing at the file.
            raise SummaryFormatError(f"{path}: {exc}") from exc


def _check_set(q: int, theta: np.ndarray, error=ValidationError) -> None:
    """Raise ``error`` naming ``protocentroids_<q>`` unless ``theta`` is a
    non-empty 2-D float32/float64 array."""
    key = f"protocentroids_{q}"
    if theta.dtype not in SUPPORTED_DTYPES:
        raise error(
            f"protocentroid set {q} has dtype {theta.dtype}, "
            "expected float32 or float64", field=key,
        )
    if theta.ndim != 2 or 0 in theta.shape:
        raise error(
            f"protocentroid set {q} has shape {theta.shape}, "
            "expected a non-empty 2-D array", field=key,
        )


def summarize(model, *, metadata: Optional[Dict] = None) -> DataSummary:
    """Export a fitted clustering model as a :class:`DataSummary`.

    Supports any object exposing either ``protocentroids_`` plus an
    ``aggregator`` (KR-family estimators) or ``cluster_centers_``
    (k-Means-family estimators).
    """
    meta = dict(metadata or {})
    meta.setdefault("algorithm", type(model).__name__)
    if getattr(model, "protocentroids_", None) is not None:
        aggregator = getattr(model, "aggregator", None)
        name = aggregator.name if aggregator is not None else "sum"
        if hasattr(model, "inertia_") and np.isfinite(model.inertia_):
            meta.setdefault("inertia", float(model.inertia_))
        return DataSummary(
            [theta.copy() for theta in model.protocentroids_],
            aggregator_name=name,
            metadata=meta,
        )
    if getattr(model, "cluster_centers_", None) is not None:
        if hasattr(model, "inertia_") and np.isfinite(model.inertia_):
            meta.setdefault("inertia", float(model.inertia_))
        return DataSummary(
            [model.cluster_centers_.copy()],
            aggregator_name="sum",
            metadata=meta,
        )
    raise ValidationError(
        f"cannot summarize {type(model).__name__}: fit it first, or pass a model "
        "with protocentroids_ or cluster_centers_"
    )
