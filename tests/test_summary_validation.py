"""Inputs a DataSummary rejects up front: empty sets and bad ``n_steps``.

The constructor rejects every protocentroid set :meth:`DataSummary.load`
rejects, so no summary can be built that saves an archive its own loader
refuses; both name the offending set.  :meth:`DataSummary.refine` takes
only a positive integer step count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataSummary
from repro.exceptions import SummaryFormatError, ValidationError


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
@pytest.mark.parametrize("q", [0, 1])
def test_constructor_rejects_empty_sets(shape, q):
    sets = [np.ones((2, 3)), np.ones((2, 3))]
    sets[q] = np.zeros(shape)
    with pytest.raises(ValidationError, match="non-empty") as excinfo:
        DataSummary(sets)
    assert excinfo.value.field == f"protocentroids_{q}"
    assert not isinstance(excinfo.value, SummaryFormatError)


def test_constructor_rejects_one_dimensional_set():
    with pytest.raises(ValidationError) as excinfo:
        DataSummary([np.ones(3)])
    assert excinfo.value.field == "protocentroids_0"


@pytest.mark.parametrize("n_steps", [0, -1, 1.5, True])
def test_refine_rejects_bad_n_steps(n_steps):
    rng = np.random.default_rng(0)
    summary = DataSummary([rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])
    before = [theta.copy() for theta in summary.protocentroids]
    with pytest.raises(ValidationError, match="n_steps"):
        summary.refine(rng.normal(size=(20, 3)), n_steps=n_steps)
    for got, want in zip(summary.protocentroids, before):
        assert got.tobytes() == want.tobytes()


def test_refine_accepts_numpy_integer_steps():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3))
    a = DataSummary([X[:2].copy(), X[2:4].copy()])
    b = DataSummary([X[:2].copy(), X[2:4].copy()])
    a.refine(X, n_steps=2, random_state=0)
    b.refine(X, n_steps=np.int64(2), random_state=0)
    for got, want in zip(a.protocentroids, b.protocentroids):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("num_sets", [True, False])
def test_load_rejects_boolean_num_sets(tmp_path, num_sets):
    # JSON ``true`` is a Python bool, and bool is an int subclass: without
    # an explicit check the header below would load as a one-set summary.
    from repro.runtime.checkpoint import write_checkpoint

    theta = np.ones((2, 3))
    header = {
        "aggregator": "sum",
        "num_sets": num_sets,
        "cardinalities": [2],
        "n_features": 3,
        "dtype": "float64",
        "metadata": {},
    }
    path = write_checkpoint(
        tmp_path / "bool.npz", header, {"protocentroids_0": theta}
    )
    with pytest.raises(SummaryFormatError, match="num_sets") as excinfo:
        DataSummary.load(path)
    assert excinfo.value.field == "num_sets"
