"""Factored assignment and fits still equal the committed assignment fixture.

``tests/fixtures/assignment/assignment.npz`` (written by
``make_assignment.py`` in the same directory) holds the labels and top-2
distances of :func:`repro.core.assign_factored` on two- and three-set
problems in float32 and float64, continuous and tie-heavy, plus the
labels, inertia, ``n_iter_`` and protocentroids of pruned, unpruned and
weighted :class:`repro.KhatriRaoKMeans` fits.  Every recomputation must
match bit for bit, signs of zero included.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "assignment"
_spec = importlib.util.spec_from_file_location(
    "make_assignment", FIXTURES / "make_assignment.py"
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


def test_generated_inputs_match_digest(committed):
    _assert_bit_identical(gen.data_digest(), committed["data_digest"], "digest")


def test_tie_data_has_tied_top_two(committed):
    # The tie cases must actually exercise the tie-break.
    for name, (_, _, ties) in gen.KERNEL_CASES.items():
        if ties:
            best = committed[f"kernel_{name}__best"]
            second = committed[f"kernel_{name}__second"]
            assert np.mean(best == second) > 0.1, name


@pytest.mark.parametrize("rows", gen.ROWS)
@pytest.mark.parametrize("name", sorted(gen.KERNEL_CASES))
def test_assign_factored_equals_fixture(committed, name, rows):
    arrays = gen.kernel_arrays(name, rows)
    assert sorted(arrays) == sorted(
        k for k in committed if k.startswith(f"kernel_{name}__")
    )
    for key, value in arrays.items():
        _assert_bit_identical(value, committed[key][:rows], key)


@pytest.mark.parametrize("name", sorted(gen.FIT_CASES))
def test_fit_equals_fixture(committed, name):
    arrays = gen.fit_arrays(name)
    assert sorted(arrays) == sorted(
        k for k in committed if k.startswith(f"fit_{name}__")
    )
    for key, value in arrays.items():
        _assert_bit_identical(value, committed[key], key)
