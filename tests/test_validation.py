"""Unit tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    check_array,
    check_cardinalities,
    check_in,
    check_positive_int,
    check_random_state,
)
from repro.exceptions import ValidationError


class TestCheckArray:
    def test_converts_lists(self):
        result = check_array([[1, 2], [3, 4]])
        assert result.dtype == np.float64
        assert result.shape == (2, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            check_array([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            check_array([[np.nan, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            check_array([[np.inf, 1.0]])

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValidationError, match="at least 3"):
            check_array([[1.0], [2.0]], min_samples=3)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_array([["a", "b"]])

    def test_returns_contiguous(self):
        X = np.asfortranarray(np.ones((3, 4)))
        assert check_array(X).flags["C_CONTIGUOUS"]

    def test_allow_empty(self):
        result = check_array(np.empty((0, 3)), allow_empty=True)
        assert result.shape == (0, 3)


class TestCheckPositiveInt:
    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.0, "x")

    def test_rejects_below_minimum(self):
        with pytest.raises(ValidationError, match=">= 2"):
            check_positive_int(1, "x", minimum=2)


class TestCheckIn:
    def test_accepts_member(self):
        assert check_in("a", "x", ("a", "b")) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValidationError):
            check_in("c", "x", ("a", "b"))


class TestCheckCardinalities:
    def test_accepts_tuple(self):
        assert check_cardinalities((3, 4)) == (3, 4)

    def test_accepts_list_of_numpy_ints(self):
        assert check_cardinalities([np.int64(2), np.int64(5)]) == (2, 5)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            check_cardinalities(())

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_cardinalities((3, 0))

    @pytest.mark.parametrize(
        "cardinalities", ["ab", (2.9, 3), (True, 3), ("3", "2")]
    )
    def test_rejects_non_integers(self, cardinalities):
        with pytest.raises(ValidationError):
            check_cardinalities(cardinalities)

    @pytest.mark.parametrize("cardinalities", [(2.9, 3), (True, 3)])
    @pytest.mark.parametrize(
        "consumer", ["compare_summaries", "compare_methods", "KhatriRaoXMeans"]
    )
    def test_consumers_reject_non_integers(self, consumer, cardinalities):
        # int() would run (2.9, 3) as (2, 3) and (True, 3) as (1, 3).
        from repro.applications import compare_summaries
        from repro.core import KhatriRaoXMeans
        from repro.reporting import compare_methods

        X = np.random.default_rng(0).normal(size=(40, 2))
        y = np.zeros(40, dtype=np.int64)
        calls = {
            "compare_summaries": lambda: compare_summaries(X, cardinalities),
            "compare_methods": lambda: compare_methods(
                X, y, 6, cardinalities=cardinalities
            ),
            "KhatriRaoXMeans": lambda: KhatriRaoXMeans(
                initial_cardinalities=cardinalities
            ),
        }
        with pytest.raises(ValidationError):
            calls[consumer]()


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_is_reproducible(self):
        a = check_random_state(42).random(3)
        b = check_random_state(42).random(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_legacy_random_state(self):
        legacy = np.random.RandomState(0)
        assert isinstance(check_random_state(legacy), np.random.Generator)

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            check_random_state("seed")
