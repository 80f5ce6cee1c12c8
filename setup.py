"""Setup shim enabling editable installs in offline environments.

The sandboxed environment ships setuptools without the ``wheel`` package, so
PEP 517 editable installs (which build a wheel) fail.  This shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` — and plain
``pip install -e .`` on modern toolchains — work everywhere.

The ``test`` extra pins what the CI unit-test step installs: ``pytest``
collects the suites, ``hypothesis`` powers the property-based
equivalence grids (factored assignment, bounds pruning, contingency-table
updates, dtype envelopes) and ``pytest-benchmark`` provides the
``benchmark`` fixture every paper-figure module in ``benchmarks/`` takes.  The serving suites and load-generator
benchmark deliberately fit inside the same extra — the server and its
clients are stdlib-only (http.server, urllib, json, threading), so
testing them adds no dependency.  Supported Python versions are declared
both as ``python_requires`` and as trove classifiers so the two can never
drift apart silently.
"""

from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).resolve().parent

# PyPI-facing description sourced from the README so the docs entry points
# (docs/architecture.md, docs/numerics.md, docs/serving.md, the knob table
# and the `repro.cli serve` quickstart) are advertised wherever the package
# metadata is rendered.
_README = _HERE / "README.md"
LONG_DESCRIPTION = (
    _README.read_text(encoding="utf-8") if _README.exists() else ""
)

# One source of truth for the version floor; mirrored into classifiers.
PYTHON_REQUIRES = ">=3.9"
SUPPORTED_PYTHONS = ("3.9", "3.10", "3.11", "3.12")

setup(
    name="repro",
    version="1.0.0",
    description="Khatri-Rao clustering for data summarization (EDBT 2026 reproduction)",
    package_dir={"": "src"},
    # Picks up every subpackage with an __init__.py — including
    # repro.serving, the stdlib-only batched model server (http.server +
    # json; no additions to install_requires, and the serving load
    # generator in benchmarks/ needs nothing beyond the `test` extra).
    # tests/test_packaging.py pins this resolution.
    packages=find_packages("src"),
    # `import repro` reaches scipy unconditionally (metrics.clustering's
    # Hungarian matching, core.gmeans's Anderson-Darling test), so both are
    # hard requirements, matching what CI installs.
    install_requires=["numpy", "scipy"],
    python_requires=PYTHON_REQUIRES,
    long_description=LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    classifiers=[
        "Programming Language :: Python :: 3",
        *(
            f"Programming Language :: Python :: {version}"
            for version in SUPPORTED_PYTHONS
        ),
        "Operating System :: OS Independent",
        "Intended Audience :: Science/Research",
        "Topic :: Scientific/Engineering",
    ],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
