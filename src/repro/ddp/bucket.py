"""Gradient buckets.

PyTorch DDP coalesces per-parameter gradients into fixed-capacity buckets and
hands communication hooks a *flat 1-D tensor per bucket*, with parameters
packed in (approximately) reverse registration order so that communication of
late-layer gradients can overlap with early-layer backward computation.  The
paper highlights that this reformatting discards parameter names and ordering,
which is precisely the obstacle its Mask Tracker works around.

This module reproduces that abstraction:

* :class:`BucketSlice` — where one parameter lives inside a bucket;
* :class:`Bucket` — the static layout (slices, total element count);
* :class:`GradBucket` — one iteration's ``(world, numel)`` gradient matrix for
  a bucket, the only view of the gradients that the communication hook —
  :meth:`repro.compression.CodecCompressor.aggregate` — receives;
* :func:`build_buckets` — split a model's parameters (reversed) into buckets by
  byte capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.nn.module import Module
from repro.tensorlib.dtypes import get_default_dtype

#: Default bucket capacity, matching PyTorch DDP's 25 MiB default.
DEFAULT_BUCKET_CAP_BYTES = 25 * 1024 * 1024
FLOAT32_BYTES = 4


@dataclass(frozen=True)
class BucketSlice:
    """Placement of one parameter's gradient inside a flat bucket."""

    param_name: str
    offset: int
    numel: int
    shape: Tuple[int, ...]

    @property
    def end(self) -> int:
        return self.offset + self.numel


@dataclass
class Bucket:
    """Static layout of one gradient bucket."""

    index: int
    slices: List[BucketSlice] = field(default_factory=list)

    @property
    def numel(self) -> int:
        return sum(s.numel for s in self.slices)

    def flatten(self, grads_by_name: Dict[str, np.ndarray]) -> np.ndarray:
        """Pack named gradients into this bucket's flat layout.

        Missing gradients (parameters that did not receive a gradient this
        iteration) are filled with zeros, matching DDP's behaviour for unused
        parameters.
        """
        flat = np.zeros(self.numel, dtype=get_default_dtype())
        for piece in self.slices:
            grad = grads_by_name.get(piece.param_name)
            if grad is None:
                continue
            if grad.size != piece.numel:
                raise ValueError(
                    f"gradient for {piece.param_name!r} has {grad.size} elements, "
                    f"bucket slice expects {piece.numel}"
                )
            flat[piece.offset : piece.end] = grad.reshape(-1)
        return flat

    def unflatten(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Split a flat bucket back into named, shaped gradients."""
        if flat.size != self.numel:
            raise ValueError(f"flat buffer has {flat.size} elements, bucket expects {self.numel}")
        out: Dict[str, np.ndarray] = {}
        for piece in self.slices:
            out[piece.param_name] = flat[piece.offset : piece.end].reshape(piece.shape)
        return out


class GradBucket:
    """One iteration's gradients for one bucket, as ``CodecCompressor.aggregate`` sees them.

    The compressor receives the bucket :attr:`index` (0 is the *last* bucket
    to be ready in real DDP; here simply the first bucket in reverse parameter
    order) and :attr:`matrix`, the ``(world_size, numel)`` gradient matrix —
    one row per rank, zero-copy when it is a
    :class:`~repro.ddp.arena.GradientArena` view.  A single worker's push is
    world 1: ``GradBucket(bucket, flat[None])``.

    It deliberately does **not** expose parameter names or shapes.
    """

    def __init__(self, bucket: Bucket, matrix: np.ndarray) -> None:
        if matrix.ndim != 2 or matrix.shape[1] != bucket.numel:
            raise ValueError("matrix must be (world_size, bucket.numel)")
        self._bucket = bucket
        self.matrix = matrix

    @property
    def index(self) -> int:
        return self._bucket.index

    @property
    def world_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def numel(self) -> int:
        return self._bucket.numel


def build_buckets(
    model: Module,
    bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES,
) -> List[Bucket]:
    """Partition a model's parameters into gradient buckets.

    Parameters are taken in **reverse registration order** (so the classifier
    head lands in bucket 0), mirroring PyTorch DDP's bucketing strategy, and
    greedily packed until the byte capacity is exceeded.
    """
    if bucket_cap_bytes <= 0:
        raise ValueError("bucket_cap_bytes must be positive")

    named = list(model.named_parameters())
    named.reverse()

    buckets: List[Bucket] = []
    current = Bucket(index=0)
    used_bytes = 0
    for name, param in named:
        numel = int(param.size)
        nbytes = numel * FLOAT32_BYTES
        if current.slices and used_bytes + nbytes > bucket_cap_bytes:
            buckets.append(current)
            current = Bucket(index=len(buckets))
            used_bytes = 0
        current.slices.append(
            BucketSlice(param_name=name, offset=current.numel, numel=numel, shape=tuple(param.shape))
        )
        used_bytes += nbytes
    if current.slices:
        buckets.append(current)
    return buckets
