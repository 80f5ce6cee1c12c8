"""The update's shape is an aggregator capability, never its name.

Every update kernel asks ``Aggregator.update_terms`` whether ``⊕`` gives a
mass-normalized numerator (sum) or an elementwise quotient (product), so a
``ProductAggregator`` subclass registered under another name trains
exactly like ``"product"``.  A source scan keeps name comparisons from
coming back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import KhatriRaoKMeans, MiniBatchKhatriRaoKMeans
from repro.autodiff import Tensor
from repro.core.naive import decompose_centroids
from repro.datasets import make_blobs
from repro.deep.losses import materialize_centroid_tensor
from repro.exceptions import ValidationError
from repro.federated import KhatriRaoFederatedKMeans
from repro.linalg.aggregators import (
    Aggregator,
    ProductAggregator,
    SumAggregator,
)


class Hadamard(ProductAggregator):
    """The product aggregator under a different registered name."""

    name = "hadamard"


@pytest.fixture(scope="module")
def X():
    data, _ = make_blobs(300, n_features=3, n_clusters=9, cluster_std=0.4,
                         random_state=4)
    return data - data.min() + 0.5


def _same_thetas(a, b):
    assert len(a) == len(b)
    for theta_a, theta_b in zip(a, b):
        assert theta_a.tobytes() == theta_b.tobytes()


class TestUpdateTermsHook:
    def test_sum_and_product_terms(self):
        x = np.array([[2.0, 3.0]])
        rest = np.array([[0.5, 4.0]])
        num, den = SumAggregator().update_terms(x, rest)
        assert np.array_equal(num, x - rest) and den is None
        num, den = ProductAggregator().update_terms(x, rest)
        assert np.array_equal(num, x * rest)
        assert np.array_equal(den, rest * rest)

    def test_base_class_raises_typed_error(self):
        class Bare(Aggregator):
            name = "bare"

            def combine(self, parts):
                return parts[0]

            def identity(self, shape, dtype=np.float64):
                return np.zeros(shape, dtype=dtype)

            def split(self, vector, num_parts):
                return [vector] * num_parts

        with pytest.raises(ValidationError, match="update_terms"):
            Bare().update_terms(np.ones((1, 2)), np.ones((1, 2)))


class TestRenamedProductIsProduct:
    def test_kr_kmeans(self, X):
        kwargs = dict(n_init=2, max_iter=30, random_state=0)
        ref = KhatriRaoKMeans((3, 3), aggregator="product", **kwargs).fit(X)
        got = KhatriRaoKMeans((3, 3), aggregator=Hadamard(), **kwargs).fit(X)
        _same_thetas(got.protocentroids_, ref.protocentroids_)
        assert np.array_equal(got.labels_, ref.labels_)
        assert got.inertia_ == ref.inertia_

    def test_minibatch(self, X):
        kwargs = dict(batch_size=64, max_steps=25, random_state=0)
        ref = MiniBatchKhatriRaoKMeans((3, 3), aggregator="product",
                                       **kwargs).fit(X)
        got = MiniBatchKhatriRaoKMeans((3, 3), aggregator=Hadamard(),
                                       **kwargs).fit(X)
        _same_thetas(got.protocentroids_, ref.protocentroids_)
        assert np.array_equal(got.labels_, ref.labels_)
        assert got.inertia_ == ref.inertia_

    def test_federated(self, X):
        shards = [(X[i::3], None) for i in range(3)]
        kwargs = dict(n_rounds=4, random_state=0)
        ref = KhatriRaoFederatedKMeans((3, 3), aggregator="product",
                                       **kwargs).fit(shards)
        got = KhatriRaoFederatedKMeans((3, 3), aggregator=Hadamard(),
                                       **kwargs).fit(shards)
        _same_thetas(got.protocentroids_, ref.protocentroids_)
        assert got.history_.inertia == ref.history_.inertia

    def test_naive_decomposition(self, X):
        centroids = X[:9]
        ref, ref_error = decompose_centroids(
            centroids, (3, 3), aggregator="product", max_iter=20,
            random_state=0,
        )
        got, got_error = decompose_centroids(
            centroids, (3, 3), aggregator=Hadamard(), max_iter=20,
            random_state=0,
        )
        _same_thetas(got, ref)
        assert got_error == ref_error

    def test_centroid_tensor(self, X):
        thetas = [Tensor(X[:3]), Tensor(X[3:5])]
        ref = materialize_centroid_tensor(thetas, "product").numpy()
        got = materialize_centroid_tensor(thetas, Hadamard()).numpy()
        assert got.tobytes() == ref.tobytes()


# ----------------------------------------------------------- tooling guard
_COMPARISONS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def aggregator_name_comparisons(source: str):
    """Line numbers where ``source`` compares an aggregator's ``.name``
    (``==``, ``!=``, ``in``, ``not in``, either side)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, _COMPARISONS) for op in node.ops):
            continue
        for operand in (node.left, *node.comparators):
            if (
                isinstance(operand, ast.Attribute)
                and operand.attr == "name"
                and "agg" in ast.unparse(operand.value).lower()
            ):
                hits.append(node.lineno)
    return hits


@pytest.mark.parametrize("snippet", [
    "if self.aggregator.name == 'product': pass",
    "flag = 'product' != agg.name",
    "ok = get_aggregator(a).name in ('product', 'x')",
    "ok = aggregator.name not in {'sum'}",
])
def test_guard_flags_name_comparisons(snippet):
    assert aggregator_name_comparisons(snippet) == [1]


def test_guard_ignores_name_reads():
    assert aggregator_name_comparisons(
        "header = {'aggregator': self.aggregator.name}\n"
        "same = dtype.name == 'float32'\n"
    ) == []


def test_no_source_file_branches_on_an_aggregator_name():
    package = Path(repro.__file__).resolve().parent
    offenders = {
        str(path.relative_to(package)): hits
        for path in sorted(package.rglob("*.py"))
        if (hits := aggregator_name_comparisons(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}, (
        "decide by aggregator capability (supports_* flags, update_terms), "
        f"not by name: {offenders}"
    )
