"""Dataset substrate.

The paper trains on CIFAR-10 and CIFAR-100.  Those datasets cannot be
downloaded in this offline environment, so :mod:`repro.data` provides a
deterministic synthetic class-conditional stand-in for CIFAR-10 (images and
labels held as arrays, which loaders slice in batches), plus the
``DataLoader`` / ``DistributedSampler`` machinery that the distributed
data-parallel simulator uses to shard data across ranks.
"""

from repro.data.synthetic import (
    SyntheticImageClassification,
    synthetic_cifar10,
    make_dataset,
    registered_dataset,
)
from repro.data.loader import DataLoader, DistributedSampler, train_test_split

__all__ = [
    "SyntheticImageClassification",
    "synthetic_cifar10",
    "make_dataset",
    "registered_dataset",
    "DataLoader",
    "DistributedSampler",
    "train_test_split",
]
