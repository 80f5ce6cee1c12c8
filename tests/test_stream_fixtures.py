"""Mini-batch streams and pruned fits still equal the committed stream fixture.

``tests/fixtures/stream/stream.npz`` (written by ``make_stream.py`` in the
same directory) holds every step's :class:`~repro.core.minibatch.BatchStats`
and the final protocentroids, learning-rate masses and streaming bounds of
:class:`repro.core.MiniBatchKhatriRaoKMeans` streams (one to three sets,
float32 and float64, weighted, gather update, mixed indexed/anonymous,
product aggregator, pruned ``fit``), plus pruned
:class:`repro.KhatriRaoKMeans` fits on both sides of the assigned-centroid
gather's grid rule.  Every recomputation must match bit for bit, signs of
zero included.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "stream"
_spec = importlib.util.spec_from_file_location(
    "make_stream", FIXTURES / "make_stream.py"
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


def _assert_case(arrays, committed, prefix):
    assert sorted(arrays) == sorted(k for k in committed if k.startswith(prefix))
    for key, value in arrays.items():
        _assert_bit_identical(value, committed[key], key)


def test_generated_inputs_match_digest(committed):
    _assert_bit_identical(gen.data_digest(), committed["data_digest"], "digest")


def test_streams_prune_and_gather_fires(committed):
    # The pinned streams must exercise what they claim to: indexed streams
    # skip some rows, and the product streams hit zero denominators.
    for name, case in gen.STREAM_CASES.items():
        fractions = committed[f"stream_{name}__reassignment_fraction"]
        if case["mode"] in ("indexed", "fit"):
            assert fractions.min() < 1.0, name
        if case.get("aggregator") == "product":
            assert np.all(committed[f"stream_{name}__theta0"][:, -1] == 0), name


@pytest.mark.parametrize("name", sorted(gen.STREAM_CASES))
def test_stream_equals_fixture(committed, name):
    _assert_case(gen.stream_arrays(name), committed, f"stream_{name}__")


@pytest.mark.parametrize("name", sorted(gen.FIT_CASES))
def test_pruned_fit_equals_fixture(committed, name):
    _assert_case(gen.fit_arrays(name), committed, f"fit_{name}__")
