"""Fault-free ``n_jobs`` fits still equal the committed restart fixture.

``tests/fixtures/restarts/restarts.npz`` (written by ``make_restarts.py``
in the same directory) holds the labels, inertia, ``n_iter_`` and model
arrays of ``KMeans`` and both ``KhatriRaoKMeans`` aggregators fitted with
``n_jobs`` in {1, 2, 4} on data spanning two row blocks.  Every refit must
match bit for bit, signs of zero included.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "restarts"
_spec = importlib.util.spec_from_file_location(
    "make_restarts", FIXTURES / "make_restarts.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def committed():
    with np.load(gen.FIXTURE) as archive:
        return dict(archive)


def _assert_bit_identical(got, want, key):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, key
    assert np.array_equal(got, want), key
    if want.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want)), key


def test_fixture_data_spans_two_row_blocks(committed):
    from repro.runtime import DEFAULT_BLOCK_ROWS

    assert committed["data"].shape[0] > DEFAULT_BLOCK_ROWS


@pytest.mark.parametrize("n_jobs", gen.WIDTHS)
@pytest.mark.parametrize("name", sorted(gen.CASES))
def test_n_jobs_fit_equals_fixture(committed, name, n_jobs):
    arrays = gen.fit_arrays(name, n_jobs, committed["data"])
    expected = [k for k in committed if k.startswith(f"{name}_jobs{n_jobs}_")]
    assert sorted(arrays) == sorted(expected)
    for key, value in arrays.items():
        _assert_bit_identical(value, committed[key], key)
