"""Khatri-Rao scoring paths still equal the committed kr_paths fixture.

``tests/fixtures/kr_paths/kr_paths.npz`` (written by ``make_kr_paths.py``
in the same directory) pins memory-mode ``KhatriRaoKMeans`` fits on the
materialized chunked sweep (product aggregator, and the sum aggregator
forced materialized), ``DataSummary.score``/``refine``, and
``KhatriRaoFederatedKMeans`` fits with sum and product aggregators.  Every
recomputation must match bit for bit, signs of zero included.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "kr_paths"
_spec = importlib.util.spec_from_file_location(
    "make_kr_paths", FIXTURES / "make_kr_paths.py"
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
    assert got.shape == want.shape, key
    assert np.array_equal(got, want), key
    if want.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want)), key


def _assert_case(committed, arrays, prefix):
    assert sorted(arrays) == sorted(k for k in committed if k.startswith(prefix))
    for key, value in arrays.items():
        _assert_bit_identical(value, committed[key], key)


def test_generated_inputs_match_digest(committed):
    _assert_bit_identical(gen.data_digest(), committed["data_digest"], "digest")


def test_memory_cases_cover_both_chunk_regimes():
    # One chunk below the grid size and one at least the grid size per
    # configuration, so both the multi-chunk sweep and its single-chunk
    # edge stay pinned.
    chunks = {
        (cards, chunk >= int(np.prod(cards)))
        for cards, *_, chunk in gen.MEMORY_CASES.values()
    }
    assert len(chunks) == 2 * len({cards for cards, *_ in gen.MEMORY_CASES.values()})


@pytest.mark.parametrize("name", sorted(gen.MEMORY_CASES))
def test_memory_fit_equals_fixture(committed, name):
    _assert_case(committed, gen.memory_arrays(name), f"memory_{name}__")


@pytest.mark.parametrize("name", sorted(gen.SUMMARY_CASES))
def test_summary_score_refine_equals_fixture(committed, name):
    _assert_case(committed, gen.summary_arrays(name), f"summary_{name}__")


@pytest.mark.parametrize("name", sorted(gen.FEDERATED_CASES))
def test_federated_fit_equals_fixture(committed, name):
    _assert_case(committed, gen.federated_arrays(name), f"federated_{name}__")
