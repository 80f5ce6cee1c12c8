"""Committed checkpoint fixtures still resume bit-identically.

``tests/fixtures/checkpoints/`` holds small mid-fit checkpoints (and one
``save_stream`` snapshot) written by ``make_checkpoints.py`` in the same
directory.  Every fixture must resume to exactly the model of the
uninterrupted run, and a freshly interrupted run must write the same
header and arrays again: together these pin the on-disk checkpoint format
of all three estimators.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import read_checkpoint

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "checkpoints"
_spec = importlib.util.spec_from_file_location(
    "make_checkpoints", FIXTURES / "make_checkpoints.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def X():
    return gen.load_data()


def _model_arrays(model):
    if hasattr(model, "cluster_centers_"):
        return [model.cluster_centers_]
    return list(model.protocentroids_)


def _assert_same_checkpoint(written, committed):
    new_header, new_arrays = read_checkpoint(written)
    old_header, old_arrays = read_checkpoint(committed)
    assert new_header == old_header
    assert sorted(new_arrays) == sorted(old_arrays)
    for key, value in old_arrays.items():
        assert new_arrays[key].dtype == value.dtype, key
        assert new_arrays[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("name", sorted(gen.FIT_CASES))
def test_fit_fixture_resumes_bit_identically(X, name):
    factory, _ = gen.FIT_CASES[name]
    reference = factory().fit(X)
    resumed = factory()
    resumed.resume_from = FIXTURES / name
    resumed.fit(X)
    assert resumed.converged_
    assert np.array_equal(resumed.labels_, reference.labels_)
    assert resumed.inertia_ == reference.inertia_
    assert getattr(resumed, "n_iter_", None) == getattr(reference, "n_iter_", None)
    assert getattr(resumed, "n_steps_", None) == getattr(reference, "n_steps_", None)
    for got, want in zip(_model_arrays(resumed), _model_arrays(reference)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(gen.FIT_CASES))
def test_interrupted_fit_rewrites_the_fixture(X, name, tmp_path):
    written = gen.write_interrupted(name, X, tmp_path / name)
    _assert_same_checkpoint(written, FIXTURES / name)


def test_stream_fixture_continues_bit_identically(X):
    batches = gen.stream_batches(X)
    straight = gen.stream_model()
    for batch, idx in batches:
        straight.partial_fit(batch, index=idx)
    resumed = gen.stream_model().load_stream(FIXTURES / gen.STREAM_CASE)
    for batch, idx in batches[gen.STREAM_SAVE_AFTER:]:
        resumed.partial_fit(batch, index=idx)
    assert resumed.n_steps_ == straight.n_steps_
    assert resumed.reassignment_fractions_ == straight.reassignment_fractions_
    assert resumed.last_batch_stats_.to_dict() == straight.last_batch_stats_.to_dict()
    assert np.array_equal(
        resumed.last_batch_stats_.labels, straight.last_batch_stats_.labels
    )
    for got, want in zip(resumed.protocentroids_, straight.protocentroids_):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(resumed._counts, straight._counts):
        assert got.tobytes() == want.tobytes()
    got_state = resumed._stream_state.state_arrays()
    for key, value in straight._stream_state.state_arrays().items():
        assert got_state[key].tobytes() == value.tobytes(), key


def test_stream_snapshot_rewrites_the_fixture(X, tmp_path):
    written = gen.write_stream(X, tmp_path / gen.STREAM_CASE)
    _assert_same_checkpoint(written, FIXTURES / gen.STREAM_CASE)
