"""Deep fits and an ADAM trajectory still equal the committed fixture.

``tests/fixtures/deep/deep.npz`` (written by ``make_deep.py`` in the same
directory) holds small ``KhatriRaoDKM``, ``DKM`` and ``IDEC`` fits on
stickfigures and a 30-step ADAM trajectory over mixed-shape parameters.
Every recomputed array must match bit for bit, signs of zero included, so
the autodiff tape, the layers and the optimizer keep every operation's
order.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "deep"
_spec = importlib.util.spec_from_file_location("make_deep", FIXTURES / "make_deep.py")
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


def _assert_matches(arrays, committed, prefix):
    expected = [k for k in committed if k.startswith(prefix)]
    assert sorted(arrays) == sorted(expected)
    for key, value in arrays.items():
        _assert_bit_identical(value, committed[key], key)


@pytest.mark.parametrize("name", sorted(gen.CASES))
def test_deep_fit_equals_fixture(committed, name):
    arrays = gen.fit_arrays(name, committed["data"])
    _assert_matches(arrays, committed, f"{name}_")


def test_adam_trajectory_equals_fixture(committed):
    _assert_matches(gen.adam_trajectory(), committed, "adam_")
