"""Synthetic datasets, loaders, distributed sharding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    DistributedSampler,
    SyntheticImageClassification,
    make_dataset,
    registered_dataset,
    synthetic_cifar10,
    train_test_split,
)
from repro.data.synthetic import DatasetSpec


class TestSyntheticDataset:
    def test_shapes_and_labels(self):
        dataset = synthetic_cifar10(num_samples=64, image_size=8, seed=0)
        image, label = dataset.images[0], dataset.labels[0]
        assert image.shape == (3, 8, 8)
        assert 0 <= label < 10
        assert len(dataset) == 64
        assert dataset.num_classes == 10
        assert dataset.input_shape == (3, 8, 8)

    def test_labels_cover_exactly_the_declared_classes(self):
        dataset = synthetic_cifar10(num_samples=256, seed=0)
        assert set(np.unique(dataset.labels)) == set(range(dataset.num_classes))
        assert dataset.labels.shape == (256,)
        assert dataset.images.shape == (256, *dataset.input_shape)

    def test_deterministic_given_seed(self):
        a = synthetic_cifar10(num_samples=32, seed=3)
        b = synthetic_cifar10(num_samples=32, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = synthetic_cifar10(num_samples=32, seed=3)
        b = synthetic_cifar10(num_samples=32, seed=4)
        assert not np.array_equal(a.images, b.images)

    def test_classes_are_separable(self):
        """Samples are closer (on average) to their own class prototype than to others —
        the property that makes the task learnable."""
        dataset = synthetic_cifar10(num_samples=200, seed=0, noise_std=0.5)
        own, other = [], []
        for i in range(len(dataset)):
            image, label = dataset.images[i], dataset.labels[i]
            distances = np.sum((dataset.prototypes - image) ** 2, axis=(1, 2, 3))
            own.append(distances[label])
            other.append(np.delete(distances, label).mean())
        assert np.mean(own) < np.mean(other)

    def test_subset(self):
        dataset = synthetic_cifar10(num_samples=50, seed=0)
        sub = dataset.subset(np.array([0, 5, 10]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.images[1], dataset.images[5])

    def test_make_dataset_by_name(self):
        assert make_dataset("cifar10", num_samples=16).num_classes == 10
        assert make_dataset("CIFAR-10", num_samples=16).num_classes == 10
        with pytest.raises(KeyError, match=r"unknown dataset 'imagenet'; available: \['cifar10'\]"):
            make_dataset("imagenet")

    def test_registered_dataset_ignores_case_and_hyphens(self):
        for spelling in ("cifar10", "CIFAR10", "CIFAR-10", "Cifar-10"):
            assert registered_dataset(spelling) == "cifar10"

    @pytest.mark.parametrize("name", ["imagenet", "cifar100", "cifar_10", "mnist"])
    def test_an_unregistered_dataset_is_a_key_error_naming_the_registered_ones(self, name):
        with pytest.raises(KeyError, match=rf"unknown dataset '{name}'; available: \['cifar10'\]"):
            registered_dataset(name)

    @pytest.mark.parametrize("spelling", ["CIFAR10", "CIFAR-10", "Cifar-10", "cifar-10"])
    def test_make_dataset_under_another_spelling_builds_the_same_data(self, spelling):
        named = make_dataset(spelling, num_samples=16, image_size=4, seed=2)
        plain = make_dataset("cifar10", num_samples=16, image_size=4, seed=2)
        np.testing.assert_array_equal(named.images, plain.images)
        np.testing.assert_array_equal(named.labels, plain.labels)

    def test_make_dataset_forwards_its_keywords(self):
        named = make_dataset("cifar10", num_samples=24, image_size=4, seed=5)
        direct = synthetic_cifar10(num_samples=24, image_size=4, seed=5)
        np.testing.assert_array_equal(named.images, direct.images)
        np.testing.assert_array_equal(named.labels, direct.labels)

    def test_spec_roundtrip(self):
        spec = DatasetSpec(num_classes=5, num_samples=20, image_size=4, seed=9)
        dataset = SyntheticImageClassification(spec)
        assert dataset.spec.num_classes == 5
        assert dataset.images[0].shape == (3, 4, 4)


class TestTrainTestSplit:
    def test_sizes(self):
        dataset = synthetic_cifar10(num_samples=100, seed=0)
        train, test = train_test_split(dataset, test_fraction=0.2, seed=0)
        assert len(train) == 80
        assert len(test) == 20

    def test_disjoint(self):
        dataset = synthetic_cifar10(num_samples=40, seed=0)
        train, test = train_test_split(dataset, test_fraction=0.5, seed=1)
        train_rows = {tuple(img.reshape(-1)[:5]) for img in train.images}
        test_rows = {tuple(img.reshape(-1)[:5]) for img in test.images}
        assert not train_rows & test_rows

    def test_invalid_fraction(self):
        dataset = synthetic_cifar10(num_samples=10, seed=0)
        with pytest.raises(ValueError):
            train_test_split(dataset, test_fraction=1.5)


class TestDistributedSampler:
    def test_shards_are_disjoint_and_cover_dataset(self):
        world_size = 4
        samplers = [
            DistributedSampler(100, world_size, rank, shuffle=True, seed=0)
            for rank in range(world_size)
        ]
        shards = [set(s.indices().tolist()) for s in samplers]
        union = set().union(*shards)
        assert len(union) == 100
        for i in range(world_size):
            for j in range(i + 1, world_size):
                assert not shards[i] & shards[j]

    def test_equal_shard_sizes_with_drop_last(self):
        samplers = [DistributedSampler(103, 4, rank) for rank in range(4)]
        sizes = {len(s.indices()) for s in samplers}
        assert sizes == {25}

    def test_epoch_changes_order(self):
        sampler = DistributedSampler(64, 2, 0, shuffle=True, seed=0)
        first = sampler.indices().copy()
        sampler.set_epoch(1)
        second = sampler.indices()
        assert not np.array_equal(first, second)

    def test_no_shuffle_is_strided(self):
        sampler = DistributedSampler(8, 2, 1, shuffle=False)
        np.testing.assert_array_equal(sampler.indices(), [1, 3, 5, 7])

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            DistributedSampler(10, 2, 5)


class TestDataLoader:
    def test_batch_shapes(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=16)
        images, labels = next(iter(loader))
        assert images.shape == (16, 3, 8, 8)
        assert labels.shape == (16,)
        assert labels.dtype == np.int64

    def test_len_and_iteration_count(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=40)
        batches = list(loader)
        assert len(batches) == len(loader) == 3  # 96 samples -> 40+40+16

    def test_shuffle_changes_with_epoch(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=96, shuffle=True, seed=0)
        first = next(iter(loader))[1].copy()
        loader.set_epoch(1)
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)

    def test_with_distributed_sampler(self, tiny_dataset):
        sampler = DistributedSampler(len(tiny_dataset), 4, 2, seed=0)
        loader = DataLoader(tiny_dataset, batch_size=8, sampler=sampler)
        total = sum(len(labels) for _, labels in loader)
        assert total == len(tiny_dataset) // 4

    def test_invalid_batch_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            DataLoader(tiny_dataset, batch_size=0)
