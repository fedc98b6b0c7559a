"""Per-bucket gradient staging matrices.

The seed synchronisation path re-flattened every rank's gradients into fresh
arrays each step (``bucket.flatten`` allocated a ``numel``-sized buffer per
rank per bucket per iteration) and the codec stages then *stacked* those lists
back into ``(world, numel)`` matrices.  A :class:`GradientArena` removes both
copies: it keeps one ``(world_size, numel)`` matrix per bucket.  Ranks write
their gradients directly into their row's slices, communication hooks see the
rows as their flat buffers, and matrix-shaped consumers (batched top-k, DGC)
read the 2-D array without re-stacking.

An arena either owns its matrices or is *lent* them.  An owned matrix is
allocated on its bucket's first write (or first handed-out slot) and reused by
every staging pass after it, which overwrites it.  Lent matrices are a
compressor's error-feedback residuals
(:meth:`~repro.compression.base.CodecCompressor.lend_residual`): staging adds
each gradient into them, ``residual += grad`` — the compensation the
compressor would otherwise apply to an owned copy — so a step that stages into
them never allocates the owned matrix at all.

Aliasing contract: every slice of every row is either written (or added to)
or explicitly zeroed (or added zero) on each staging pass, so one iteration's
gradients can never leak into the next through buffer reuse (covered by the
aliasing-safety tests); a gradient born in its :attr:`GradientArena.slots`
view counts as staged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ddp.bucket import Bucket


class GradientArena:
    """One ``(world_size, numel)`` staging matrix per bucket: owned, or lent to add into."""

    def __init__(
        self,
        buckets: Sequence[Bucket],
        world_size: int,
        dtype=np.float64,
        lent: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.dtype = np.dtype(dtype)
        self._buckets = list(buckets)
        #: Whether staging adds into the matrices (lent residuals) instead of
        #: overwriting them (owned storage).
        self.accumulates = lent is not None
        self._matrices: List[Optional[np.ndarray]] = [None] * len(self._buckets)
        self._slots: Dict[str, np.ndarray] = {}
        for index, matrix in enumerate(lent or ()):
            self._install(index, matrix)

    # ------------------------------------------------------------------ #
    @property
    def slots(self) -> Dict[str, np.ndarray]:
        """``{param_name: (world_size, *shape) view of its bucket slice}``.

        A stack computed into its slot is staged already (see
        :meth:`write_world`); handing the slots out allocates every bucket.
        """
        for bucket in self._buckets:
            self.matrix(bucket.index)
        return self._slots

    def matrix(self, bucket_index: int) -> np.ndarray:
        """The full ``(world_size, numel)`` matrix of one bucket (allocated on first use)."""
        matrix = self._matrices[bucket_index]
        if matrix is None:
            matrix = np.zeros((self.world_size, self._buckets[bucket_index].numel), dtype=self.dtype)
            self._install(bucket_index, matrix)
        return matrix

    def _install(self, bucket_index: int, matrix: np.ndarray) -> None:
        """Make ``matrix`` bucket ``bucket_index``'s storage and carve its slots."""
        self._matrices[bucket_index] = matrix
        for piece in self._buckets[bucket_index].slices:
            self._slots[piece.param_name] = matrix[:, piece.offset : piece.end].reshape(
                (self.world_size,) + piece.shape
            )

    # ------------------------------------------------------------------ #
    def _put(self, target: np.ndarray, grad) -> None:
        """Stage ``grad`` (an array, or ``0.0`` for a missing gradient) into ``target``.

        A lent matrix adds it (a zero too: ``-0.0 + 0.0`` is ``+0.0``, as the
        copy-then-compensate order computes); an owned one is overwritten by
        one fused cast-and-copy, with no intermediate flatten buffer.
        """
        if self.accumulates:
            np.add(target, grad, out=target, casting="unsafe")
        else:
            np.copyto(target, grad, casting="unsafe")

    def write_rank(self, rank: int, grads_by_name: Dict[str, np.ndarray]) -> None:
        """Stage one rank's named gradients into its row of every bucket.

        Slices whose parameter has no gradient this iteration are zeroed (the
        DDP convention for unused parameters), which together with the
        write-everything rule keeps rows free of stale data from prior steps.
        """
        for bucket in self._buckets:
            row = self.matrix(bucket.index)[rank]
            for piece in bucket.slices:
                grad = grads_by_name.get(piece.param_name)
                target = row[piece.offset : piece.end]
                if grad is None:
                    self._put(target, 0.0)
                    continue
                if grad.size != piece.numel:
                    raise ValueError(
                        f"gradient for {piece.param_name!r} has {grad.size} elements, "
                        f"bucket slice expects {piece.numel}"
                    )
                self._put(target, grad.reshape(-1))

    def write_world(self, grads_by_name: Dict[str, np.ndarray]) -> None:
        """Stage every rank at once from ``(world_size, *shape)`` gradient stacks.

        The world-batched execution path produces one stacked array per
        parameter (the replica views' ``.grad``); each lands in its bucket
        slice with a single vectorised copy (or add) instead of one per
        ``(rank, parameter)`` pair; a stack that *is* its :attr:`slots` entry
        is skipped.  Missing parameters zero their slices in every row,
        preserving the write-everything aliasing contract.
        """
        world = self.world_size
        slots = self.slots
        for bucket in self._buckets:
            for piece in bucket.slices:
                grad = grads_by_name.get(piece.param_name)
                slot = slots[piece.param_name]
                if grad is slot:
                    continue
                if grad is None:
                    self._put(slot, 0.0)
                    continue
                if grad.shape[0] != world or grad.size != world * piece.numel:
                    raise ValueError(
                        f"stacked gradient for {piece.param_name!r} has shape {grad.shape}, "
                        f"expected ({world}, ...) with {piece.numel} elements per rank"
                    )
                # Staged in the stack's own layout: a transposed stack (a Linear
                # weight's) is not first flattened into a temporary.
                self._put(slot, grad.reshape(slot.shape))

    def shares_memory_with(self, array: np.ndarray) -> bool:
        """Whether ``array`` aliases any allocated arena matrix (aliasing guard)."""
        return any(
            np.shares_memory(array, matrix) for matrix in self._matrices if matrix is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GradientArena(buckets={len(self._buckets)}, world_size={self.world_size}, "
            f"dtype={self.dtype.name}, accumulates={self.accumulates})"
        )
