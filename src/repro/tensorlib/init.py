"""Weight initialisation schemes used by the model zoo.

All initialisers take an explicit :class:`numpy.random.Generator` so that model
construction is deterministic given a seed — a requirement for the distributed
data-parallel simulator, where every rank must start from bit-identical
replicas (as DDP guarantees by broadcasting rank-0 weights).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.tensorlib.dtypes import get_default_dtype


def _in_compute_dtype(values: np.ndarray) -> np.ndarray:
    """Cast freshly drawn float64 samples into the process compute dtype.

    A no-op under the default float64 (so historical initial weights are
    bit-identical); under float32 the cast happens once at construction time,
    which keeps every forward/backward afterwards in float32.
    """
    return np.asarray(values, dtype=get_default_dtype())


def _fan_in_fan_out(shape: Sequence[int]) -> Tuple[int, int]:
    """Compute fan-in / fan-out for dense and convolutional weight shapes."""
    if len(shape) < 1:
        raise ValueError("initialisation requires at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    receptive_field = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive_field
    fan_out = shape[0] * receptive_field
    return fan_in, fan_out


def kaiming_normal(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """He-normal initialisation, appropriate for ReLU networks (VGG/ResNet)."""
    fan_in, _ = _fan_in_fan_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return _in_compute_dtype(rng.normal(0.0, std, size=tuple(shape)))


def kaiming_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """He-uniform initialisation."""
    fan_in, _ = _fan_in_fan_out(shape)
    bound = np.sqrt(6.0 / fan_in)
    return _in_compute_dtype(rng.uniform(-bound, bound, size=tuple(shape)))


def zeros(shape: Sequence[int]) -> np.ndarray:
    """All-zero initialisation (biases, batch-norm shifts)."""
    return np.zeros(tuple(shape), dtype=get_default_dtype())


def ones(shape: Sequence[int]) -> np.ndarray:
    """All-one initialisation (batch-norm / layer-norm scales)."""
    return np.ones(tuple(shape), dtype=get_default_dtype())


def truncated_normal(shape: Sequence[int], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Truncated normal initialisation at ±2 std, as used for ViT embeddings."""
    values = rng.normal(0.0, std, size=tuple(shape))
    return _in_compute_dtype(np.clip(values, -2 * std, 2 * std))
