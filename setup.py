"""Packaging metadata for the PacTrain reproduction.

The project uses a ``src/`` layout; ``pip install -e .`` exposes the
``repro`` package.  Benchmarks and examples are run from the repository
checkout and are intentionally not installed.
"""

import os
import re

from setuptools import find_packages, setup


HERE = os.path.dirname(os.path.abspath(__file__))


def _read(*parts: str) -> str:
    with open(os.path.join(HERE, *parts), encoding="utf-8") as handle:
        return handle.read()


def _read_version() -> str:
    """``repro.__version__`` — the one version number, also hashed into every
    result-store key — read from the source without importing the package."""
    return re.search(r'^__version__ = "([^"]+)"', _read("src", "repro", "__init__.py"), re.M).group(1)


setup(
    name="pactrain-repro",
    version=_read_version(),
    description=(
        "Reproduction of PacTrain: pruning-aware gradient compression for "
        "bandwidth-limited data-parallel training, with a composable "
        "encode/reduce/decode codec pipeline and measured wire-byte accounting"
    ),
    long_description=_read("README.md"),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
    ],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
        "Topic :: System :: Distributed Computing",
    ],
    keywords="gradient-compression distributed-training pruning simulation reproduction",
)
