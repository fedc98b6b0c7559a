"""Preallocated per-bucket gradient arenas.

The seed synchronisation path re-flattened every rank's gradients into fresh
arrays each step (``bucket.flatten`` allocated a ``numel``-sized buffer per
rank per bucket per iteration) and the codec stages then *stacked* those lists
back into ``(world, numel)`` matrices.  A :class:`GradientArena` removes both
copies: it owns one ``(world_size, numel)`` matrix per bucket, allocated once
for the lifetime of the DDP wrapper.  Ranks write their gradients directly
into their row's slices, communication hooks see the rows as their flat
buffers, and matrix-shaped consumers (batched top-k, DGC) read the 2-D array
without re-stacking.

Aliasing contract: every slice of every row is either written or explicitly
zeroed on each staging pass, so one iteration's gradients can never leak into
the next through buffer reuse (covered by the aliasing-safety tests); a
gradient born in its :attr:`GradientArena.slots` view counts as written.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.ddp.bucket import Bucket


class GradientArena:
    """One reusable ``(world_size, numel)`` gradient matrix per bucket."""

    def __init__(self, buckets: Sequence[Bucket], world_size: int, dtype=np.float64) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.dtype = np.dtype(dtype)
        self._buckets = list(buckets)
        self._matrices: List[np.ndarray] = [
            np.zeros((world_size, bucket.numel), dtype=self.dtype) for bucket in self._buckets
        ]
        #: ``{param_name: (world_size, *shape) view of its bucket slice}``: a
        #: stack computed into its slot is staged already (see write_world).
        self.slots: Dict[str, np.ndarray] = {
            piece.param_name: matrix[:, piece.offset : piece.end].reshape((world_size,) + piece.shape)
            for bucket, matrix in zip(self._buckets, self._matrices) for piece in bucket.slices
        }

    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena (allocated once, reused every step)."""
        return int(sum(matrix.nbytes for matrix in self._matrices))

    def matrix(self, bucket_index: int) -> np.ndarray:
        """The full ``(world_size, numel)`` matrix of one bucket."""
        return self._matrices[bucket_index]

    def row(self, bucket_index: int, rank: int) -> np.ndarray:
        """One rank's flat gradient view for one bucket."""
        return self._matrices[bucket_index][rank]

    # ------------------------------------------------------------------ #
    def write_rank(self, rank: int, grads_by_name: Dict[str, np.ndarray]) -> None:
        """Stage one rank's named gradients into its row of every bucket.

        Slices whose parameter has no gradient this iteration are zeroed (the
        DDP convention for unused parameters), which together with the
        write-everything rule keeps rows free of stale data from prior steps.
        """
        for bucket, matrix in zip(self._buckets, self._matrices):
            row = matrix[rank]
            for piece in bucket.slices:
                grad = grads_by_name.get(piece.param_name)
                target = row[piece.offset : piece.end]
                if grad is None:
                    target[:] = 0.0
                    continue
                if grad.size != piece.numel:
                    raise ValueError(
                        f"gradient for {piece.param_name!r} has {grad.size} elements, "
                        f"bucket slice expects {piece.numel}"
                    )
                # One fused cast-and-copy into the arena row; no intermediate
                # flatten buffer is allocated.
                np.copyto(target, grad.reshape(-1), casting="unsafe")

    def write_world(self, grads_by_name: Dict[str, np.ndarray]) -> None:
        """Stage every rank at once from ``(world_size, *shape)`` gradient stacks.

        The world-batched execution path produces one stacked array per
        parameter (the replica views' ``.grad``); each lands in its bucket
        slice with a single vectorised copy instead of one copy per
        ``(rank, parameter)`` pair; a stack that *is* its :attr:`slots` entry
        is skipped.  Missing parameters zero their slices in every row,
        preserving the write-everything aliasing contract.
        """
        world = self.world_size
        for bucket in self._buckets:
            for piece in bucket.slices:
                grad = grads_by_name.get(piece.param_name)
                slot = self.slots[piece.param_name]
                if grad is slot:
                    continue
                if grad is None:
                    slot[...] = 0.0
                    continue
                if grad.shape[0] != world or grad.size != world * piece.numel:
                    raise ValueError(
                        f"stacked gradient for {piece.param_name!r} has shape {grad.shape}, "
                        f"expected ({world}, ...) with {piece.numel} elements per rank"
                    )
                # Copied in the stack's own layout: a transposed stack (a Linear
                # weight's) is not first flattened into a temporary.
                np.copyto(slot, grad.reshape(slot.shape), casting="unsafe")

    def zero(self) -> None:
        """Clear every bucket matrix (mainly for tests)."""
        for matrix in self._matrices:
            matrix.fill(0.0)

    def shares_memory_with(self, array: np.ndarray) -> bool:
        """Whether ``array`` aliases any arena matrix (aliasing guard)."""
        return any(np.shares_memory(array, matrix) for matrix in self._matrices)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GradientArena(buckets={len(self._buckets)}, world_size={self.world_size}, "
            f"dtype={self.dtype.name}, nbytes={self.nbytes})"
        )
