"""Committed summary archives still load, and re-save, bit for bit.

``tests/fixtures/summary/`` holds small :class:`~repro.summary.DataSummary`
archives written by ``make_summary.py`` in the same directory (float64 and
float32, one to three sets, sum and product, nested metadata) plus one
legacy archive without digests or the redundant header fields.  Loading
must return the generator's summary exactly, and saving the loaded summary
must write the same members, a JSON-equal header and byte-equal arrays:
together these pin the on-disk summary format.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.summary import DataSummary

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "summary"
_spec = importlib.util.spec_from_file_location(
    "make_summary", FIXTURES / "make_summary.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

ALL = sorted(gen.CASES) + [gen.LEGACY]


def _members(path):
    with np.load(path) as archive:
        members = {key: archive[key] for key in archive.files}
    header = json.loads(bytes(members.pop("header")).decode("utf-8"))
    return header, members


def _source(name):
    return gen.LEGACY_OF if name == gen.LEGACY else name


@pytest.mark.parametrize("name", ALL)
def test_load_returns_the_generated_summary(name):
    loaded = DataSummary.load(FIXTURES / f"{name}.npz")
    want = gen.make_summary(_source(name))
    assert loaded.aggregator_name == want.aggregator_name
    assert loaded.metadata == want.metadata
    assert len(loaded.protocentroids) == len(want.protocentroids)
    for got, expected in zip(loaded.protocentroids, want.protocentroids):
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ALL)
def test_resave_writes_the_same_archive(name, tmp_path):
    written = DataSummary.load(FIXTURES / f"{name}.npz").save(tmp_path / name)
    new_header, new_arrays = _members(written)
    old_header, old_arrays = _members(FIXTURES / f"{_source(name)}.npz")
    assert new_header == old_header
    assert sorted(new_arrays) == sorted(old_arrays)
    for key, value in old_arrays.items():
        assert new_arrays[key].dtype == value.dtype, key
        assert new_arrays[key].shape == value.shape, key
        assert new_arrays[key].tobytes() == value.tobytes(), key
