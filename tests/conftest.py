"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import synthetic_cifar10, train_test_split, DataLoader
from repro.nn.models import mlp_tiny
from repro.simulation import ClusterSpec


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_dataset():
    """A small deterministic 10-class dataset (96 samples of 3x8x8 images)."""
    return synthetic_cifar10(num_samples=96, image_size=8, seed=7)


@pytest.fixture
def tiny_split(tiny_dataset):
    return train_test_split(tiny_dataset, test_fraction=0.25, seed=7)


@pytest.fixture
def tiny_loader(tiny_dataset):
    return DataLoader(tiny_dataset, batch_size=16, shuffle=True, seed=3)


@pytest.fixture
def tiny_model():
    return mlp_tiny(num_classes=10, seed=11)


@pytest.fixture
def small_cluster():
    return ClusterSpec(world_size=4, bandwidth="100Mbps")


@pytest.fixture
def sample_batch(tiny_dataset):
    images = tiny_dataset.images[:8].copy()
    labels = tiny_dataset.labels[:8].copy()
    return images, labels
