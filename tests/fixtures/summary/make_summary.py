"""Regenerate the committed :class:`~repro.summary.DataSummary` archives.

Each case in :data:`CASES` is a small summary — float64 and float32, one
to three protocentroid sets, the sum and product aggregators, flat and
nested metadata — written with :meth:`DataSummary.save` to
``<name>.npz`` in this directory.  :data:`LEGACY` names one more archive
in the oldest format :meth:`DataSummary.load` still accepts: a header
with no ``checksums`` and no ``cardinalities``/``n_features``/``dtype``
keys.  It stores the summary of :data:`LEGACY_OF`, so re-saving it must
write exactly that case's archive.

The values are drawn from the legacy ``np.random.RandomState`` stream,
whose output numpy keeps fixed across releases, and every case carries a
negative zero so a writer that loses the sign bit fails.
``tests/test_summary_fixtures.py`` loads every archive, requires the
summaries below bit for bit, and requires re-saving to write the same
members, header and array bytes.

Regenerate only when the summary format changes on purpose::

    PYTHONPATH=src python tests/fixtures/summary/make_summary.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# name -> (cardinalities, n_features, dtype, aggregator, metadata)
CASES = {
    "f64_p1_sum": ((5,), 3, "float64", "sum", {"algorithm": "KMeans"}),
    "f64_p2_sum_nested": (
        (3, 2), 4, "float64", "sum",
        {
            "algorithm": "KhatriRaoKMeans",
            "dataset": "blobs",
            "fit": {"inertia": 12.5, "n_init": 3,
                    "params": {"cardinalities": [3, 2], "tags": ["a", "b"]}},
            "note": None,
        },
    ),
    "f32_p2_sum": ((2, 4), 5, "float32", "sum", {"dataset": "unit"}),
    "f64_p3_product": ((2, 3, 2), 3, "float64", "product", {}),
    "f32_p3_sum": ((3, 2, 2), 2, "float32", "sum",
                   {"source": {"rows": 400, "seed": [0, 1]}}),
}
LEGACY = "legacy_f64_p2_sum"
LEGACY_OF = "f64_p2_sum_nested"


def make_summary(name):
    """The :class:`~repro.summary.DataSummary` stored as ``<name>.npz``."""
    from repro.summary import DataSummary

    cards, m, dtype, aggregator, metadata = CASES[name]
    rng = np.random.RandomState(sorted(CASES).index(name))
    sets = [rng.standard_normal((h, m)).astype(dtype) for h in cards]
    sets[-1][0, 0] = -0.0
    return DataSummary(sets, aggregator_name=aggregator,
                       metadata=json.loads(json.dumps(metadata)))


def write_legacy(path):
    """Write :data:`LEGACY_OF`'s summary in the oldest accepted format."""
    summary = make_summary(LEGACY_OF)
    header = {
        "format_version": 1,
        "aggregator": summary.aggregator_name,
        "num_sets": len(summary.protocentroids),
        "metadata": summary.metadata,
    }
    arrays = {f"protocentroids_{q}": theta
              for q, theta in enumerate(summary.protocentroids)}
    np.savez(path, header=np.frombuffer(json.dumps(header).encode("utf-8"),
                                        dtype=np.uint8), **arrays)
    return path


def main() -> None:
    for name in CASES:
        print("wrote", make_summary(name).save(HERE / f"{name}.npz"))
    print("wrote", write_legacy(HERE / f"{LEGACY}.npz"))


if __name__ == "__main__":
    main()
