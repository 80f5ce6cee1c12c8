"""Run the doctest examples embedded in the public-API docstrings.

Every ``Examples`` block in a docstring is executable documentation; this
module keeps them honest.  The README quickstart and the docs/ links get
the same treatment (mirroring the CI docs-lint step) so stale docs fail
the tier-1 suite locally, not just on CI.
"""

import doctest
import re
from pathlib import Path

import pytest

import repro
import repro.applications.color_quantization
import repro.applications.summarization
import repro.autodiff.tensor
import repro.core.design
import repro.core.kmeans
import repro.core.kr_kmeans
import repro.core.minibatch
import repro.datasets.federated
import repro.datasets.registry
import repro.deep.dec
import repro.deep.dkm
import repro.deep.idec
import repro.linalg.khatri_rao
import repro.metrics.clustering
import repro.metrics.compression
import repro.nn.autoencoder
import repro.serving
import repro.summary
import repro.utils.memory
import repro.utils.timing
import repro.viz.images

MODULES = [
    repro.linalg.khatri_rao,
    repro.metrics.clustering,
    repro.metrics.compression,
    repro.core.design,
    repro.core.minibatch,
    repro.autodiff.tensor,
    repro.datasets.federated,
    repro.summary,
    repro.utils.timing,
    repro.utils.memory,
    repro,
    repro.applications.summarization,
    repro.core.kmeans,
    repro.core.kr_kmeans,
    repro.datasets.registry,
    repro.deep.dec,
    repro.deep.dkm,
    repro.deep.idec,
    repro.nn.autoencoder,
    repro.serving,
    repro.viz.images,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests collected from {module.__name__}"


_REPO_ROOT = Path(__file__).resolve().parents[1]


def test_readme_quickstart_doctests():
    results = doctest.testfile(
        str(_REPO_ROOT / "README.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert results.failed == 0, f"{results.failed} README doctest failures"
    assert results.attempted > 0, "no doctests collected from README.md"


def test_docs_relative_links_resolve():
    docs = [_REPO_ROOT / "README.md", *sorted((_REPO_ROOT / "docs").glob("*.md"))]
    assert len(docs) >= 3, "expected README.md plus the docs/ site"
    broken = []
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        for target in re.findall(r"\]\(([^)#]+)(?:#[^)]*)?\)", text):
            if "://" in target or target.startswith("mailto:"):
                continue
            if not (doc.parent / target).exists():
                broken.append(f"{doc.name}: {target}")
    assert not broken, f"broken relative links: {broken}"
