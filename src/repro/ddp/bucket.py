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
* :class:`GradBucket` — one iteration's per-rank flat gradients for a bucket,
  the only view of the gradients that the communication hook —
  :meth:`repro.compression.Compressor.aggregate` — receives;
* :func:`build_buckets` — split a model's parameters (reversed) into buckets by
  byte capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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

    @property
    def nbytes(self) -> int:
        return self.numel * FLOAT32_BYTES

    @property
    def param_names(self) -> List[str]:
        return [s.param_name for s in self.slices]

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
    """One iteration's gradients for one bucket, as ``Compressor.aggregate`` sees them.

    The compressor receives:

    * :attr:`index` — the bucket index (0 is the *last* bucket to be ready in
      real DDP; here simply the first bucket in reverse parameter order);
    * :meth:`buffer` / :attr:`buffers` — the flat 1-D per-rank gradients;
    * :attr:`is_last` — whether this is the final bucket of the iteration;
    * :attr:`matrix` — the stacked ``(world_size, numel)`` gradient matrix
      (zero-copy when the bucket is backed by a
      :class:`~repro.ddp.arena.GradientArena`, stacked lazily otherwise).

    It deliberately does **not** expose parameter names or shapes.
    """

    def __init__(
        self,
        bucket: Bucket,
        per_rank_flat: Optional[Sequence[np.ndarray]] = None,
        is_last: bool = False,
        matrix: Optional[np.ndarray] = None,
    ) -> None:
        if (per_rank_flat is None) == (matrix is None):
            raise ValueError("provide exactly one of per_rank_flat or matrix")
        self._bucket = bucket
        self.is_last = is_last
        if matrix is not None:
            if matrix.ndim != 2 or matrix.shape[1] != bucket.numel:
                raise ValueError("matrix must be (world_size, bucket.numel)")
            self._matrix: Optional[np.ndarray] = matrix
            self._buffers = list(matrix)
            return
        dtype = get_default_dtype()
        for flat in per_rank_flat:
            if flat.size != bucket.numel:
                raise ValueError("per-rank flat gradient does not match bucket layout")
        self._matrix = None
        self._buffers = [np.asarray(f, dtype=dtype) for f in per_rank_flat]

    @property
    def index(self) -> int:
        return self._bucket.index

    @property
    def world_size(self) -> int:
        return len(self._buffers)

    @property
    def numel(self) -> int:
        return self._bucket.numel

    @property
    def nbytes(self) -> int:
        return self._bucket.nbytes

    @property
    def buffers(self) -> List[np.ndarray]:
        """Flat gradient of every rank (list indexed by rank)."""
        return self._buffers

    @property
    def matrix(self) -> np.ndarray:
        """The ``(world_size, numel)`` gradient matrix, stacked at most once."""
        if self._matrix is None:
            self._matrix = np.stack(self._buffers)
        return self._matrix

    @property
    def materialized_matrix(self) -> Optional[np.ndarray]:
        """The matrix if one already exists (arena-backed buckets), else None.

        Lets consumers offer the zero-copy matrix to stages that want it
        without forcing a stack on list-backed buckets whose pipeline may
        never read it.
        """
        return self._matrix

    def buffer(self, rank: int = 0) -> np.ndarray:
        """Flat gradient of one rank."""
        return self._buffers[rank]


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
