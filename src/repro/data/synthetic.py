"""Synthetic class-conditional image datasets standing in for CIFAR-10.

Design goals:

* **Learnable but not trivial.**  Each class has a random spatial "prototype"
  image; samples are the prototype plus per-sample Gaussian noise and a random
  global intensity shift.  Linear models reach moderate accuracy, deeper models
  reach higher accuracy, and accuracy improves over epochs — which is all the
  TTA experiments need.
* **Deterministic.**  The full dataset is generated from a seed, so every
  simulated rank (and every rerun of a benchmark) sees the same data.
* **Cheap.**  Images default to 8×8×3 so that an epoch over a few hundred
  samples takes well under a second on one CPU core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.tensorlib.dtypes import get_default_dtype


@dataclass
class DatasetSpec:
    """Configuration of a synthetic classification dataset."""

    num_classes: int
    num_samples: int
    image_size: int = 8
    channels: int = 3
    noise_std: float = 0.6
    seed: int = 0
    name: str = "synthetic"


class SyntheticImageClassification:
    """An in-memory, deterministic image classification dataset.

    Samples are ``(image, label)`` pairs where ``image`` is a
    ``(C, H, W)`` float array (roughly zero-mean, unit-ish variance) and
    ``label`` is an integer in ``[0, num_classes)``.
    """

    def __init__(self, spec: DatasetSpec) -> None:
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        shape = (spec.channels, spec.image_size, spec.image_size)

        # Class prototypes: smooth random patterns, distinct per class.
        prototypes = rng.standard_normal((spec.num_classes, *shape))
        # Low-pass the prototypes slightly so that convolutional models have
        # spatial structure to exploit.
        kernel = np.array([0.25, 0.5, 0.25])
        for axis in (1, 2):
            prototypes = _smooth_along_axis(prototypes, kernel, axis + 1)
        self.prototypes = prototypes * 1.5

        labels = rng.integers(0, spec.num_classes, size=spec.num_samples)
        noise = rng.standard_normal((spec.num_samples, *shape)) * spec.noise_std
        shift = rng.normal(0.0, 0.1, size=(spec.num_samples, 1, 1, 1))
        # Sample in float64 (deterministic across compute dtypes), store in the
        # process compute dtype so training batches need no per-step casts.
        self.images = (self.prototypes[labels] + noise + shift).astype(get_default_dtype())
        self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return self.spec.num_samples

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (self.spec.channels, self.spec.image_size, self.spec.image_size)

    def subset(self, indices: np.ndarray) -> "SyntheticImageClassification":
        """Return a view-like dataset restricted to ``indices`` (copies data)."""
        indices = np.asarray(indices, dtype=np.int64)
        new = object.__new__(SyntheticImageClassification)
        new.spec = DatasetSpec(
            num_classes=self.spec.num_classes,
            num_samples=len(indices),
            image_size=self.spec.image_size,
            channels=self.spec.channels,
            noise_std=self.spec.noise_std,
            seed=self.spec.seed,
            name=f"{self.spec.name}-subset",
        )
        new.prototypes = self.prototypes
        new.images = self.images[indices]
        new.labels = self.labels[indices]
        return new


def _smooth_along_axis(array: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Apply a small 1-D smoothing kernel along ``axis`` with edge padding."""
    pad = len(kernel) // 2
    pad_width = [(0, 0)] * array.ndim
    pad_width[axis] = (pad, pad)
    padded = np.pad(array, pad_width, mode="edge")
    out = np.zeros_like(array)
    for offset, weight in enumerate(kernel):
        slicer = [slice(None)] * array.ndim
        slicer[axis] = slice(offset, offset + array.shape[axis])
        out += weight * padded[tuple(slicer)]
    return out


def synthetic_cifar10(
    num_samples: int = 512,
    image_size: int = 8,
    noise_std: float = 0.6,
    seed: int = 0,
) -> SyntheticImageClassification:
    """10-class synthetic dataset standing in for CIFAR-10."""
    return SyntheticImageClassification(
        DatasetSpec(
            num_classes=10,
            num_samples=num_samples,
            image_size=image_size,
            noise_std=noise_std,
            seed=seed,
            name="synthetic-cifar10",
        )
    )


_DATASET_FACTORIES: Dict[str, Callable[..., SyntheticImageClassification]] = {
    "cifar10": synthetic_cifar10,
}


def registered_dataset(name: str) -> str:
    """The registered name ``name`` spells (case- and hyphen-insensitive).

    Raises
    ------
    KeyError
        If ``name`` is not registered.
    """
    key = name.lower().replace("-", "")
    if key not in _DATASET_FACTORIES:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(_DATASET_FACTORIES)}")
    return key


def make_dataset(name: str, **kwargs) -> SyntheticImageClassification:
    """Build a dataset by paper workload name (``cifar10``)."""
    return _DATASET_FACTORIES[registered_dataset(name)](**kwargs)
