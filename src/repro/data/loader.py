"""Mini-batch loading and per-rank data sharding.

``DistributedSampler`` reproduces the behaviour of
``torch.utils.data.DistributedSampler``: each of the ``world_size`` ranks sees
a disjoint, equally sized shard of the dataset per epoch, with shuffling driven
by an epoch-dependent seed that is identical across ranks so shards never
overlap.  This is the data-parallel substrate the paper's Eq. (1) assumes
(``D_i^t`` partitions).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np


class DistributedSampler:
    """Deterministic per-rank sampler over dataset indices."""

    def __init__(
        self,
        dataset_size: int,
        world_size: int,
        rank: int,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world_size {world_size}")
        self.dataset_size = dataset_size
        self.world_size = world_size
        self.rank = rank
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Change the shuffling seed; call once per epoch on every rank."""
        self.epoch = epoch

    def indices(self) -> np.ndarray:
        order = np.arange(self.dataset_size)
        if self.shuffle:
            rng = np.random.default_rng(self.seed + self.epoch)
            rng.shuffle(order)
        if self.drop_last:
            usable = (self.dataset_size // self.world_size) * self.world_size
            order = order[:usable]
        else:
            # Pad by wrapping so every rank gets the same number of samples.
            target = int(np.ceil(self.dataset_size / self.world_size)) * self.world_size
            if target > len(order):
                order = np.concatenate([order, order[: target - len(order)]])
        return order[self.rank :: self.world_size]

    def __len__(self) -> int:
        if self.drop_last:
            return self.dataset_size // self.world_size
        return int(np.ceil(self.dataset_size / self.world_size))


class DataLoader:
    """Iterate over a dataset in mini-batches of stacked numpy arrays.

    ``dataset`` holds its samples as two aligned arrays, ``images`` and
    ``labels`` (:class:`~repro.data.synthetic.SyntheticImageClassification`
    and its subsets do).  A mini-batch is one fancy-indexed copy of each, so
    the yielded arrays are fresh and writeable and never alias the dataset —
    which may therefore be shared read-only between runs.
    """

    def __init__(
        self,
        dataset,
        batch_size: int = 32,
        shuffle: bool = False,
        sampler: Optional[DistributedSampler] = None,
        seed: int = 0,
        drop_last: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.sampler = sampler
        self.seed = seed
        self.drop_last = drop_last
        self._epoch = 0

    def set_epoch(self, epoch: int) -> None:
        self._epoch = epoch
        if self.sampler is not None:
            self.sampler.set_epoch(epoch)

    def _indices(self) -> np.ndarray:
        if self.sampler is not None:
            return self.sampler.indices()
        order = np.arange(len(self.dataset))
        if self.shuffle:
            rng = np.random.default_rng(self.seed + self._epoch)
            rng.shuffle(order)
        return order

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        indices = self._indices()
        limit = len(indices)
        if self.drop_last:
            limit = (limit // self.batch_size) * self.batch_size
        images, labels = self.dataset.images, self.dataset.labels
        for start in range(0, limit, self.batch_size):
            batch_idx = indices[start : start + self.batch_size]
            yield images[batch_idx], labels[batch_idx]

    def __len__(self) -> int:
        count = len(self.sampler) if self.sampler is not None else len(self.dataset)
        if self.drop_last:
            return count // self.batch_size
        return int(np.ceil(count / self.batch_size))


def train_test_split(dataset, test_fraction: float = 0.2, seed: int = 0):
    """Split a dataset into train / test subsets deterministically."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    split = int(len(dataset) * (1.0 - test_fraction))
    return dataset.subset(order[:split]), dataset.subset(order[split:])
