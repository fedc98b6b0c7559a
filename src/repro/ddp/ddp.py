"""The distributed data-parallel wrapper.

:class:`DistributedDataParallel` simulates synchronous data-parallel training
of ``world_size`` replicas on a single process:

1. every live rank runs a real forward/backward pass on its own mini-batch —
   all of them in one world-batched pass (the replicas share one set of
   weights, which is mathematically identical to real DDP because every rank
   applies the same aggregated gradient) — with Gradient Sparsity Enforcement
   applied when the step is given a mask;
2. per-rank gradients are staged into a
   :class:`~repro.ddp.arena.GradientArena` — one reusable ``(world_size,
   numel)`` matrix per bucket (reverse parameter order, names erased — see
   :mod:`repro.ddp.bucket`) — with no per-step flatten buffers.  When the
   compressor keeps error-feedback residuals and the step stages the full
   world with no GSE mask, the arena it stages into is the residuals, lent
   by the compressor, and staging adds into them (the compensation itself);
   otherwise it is the wrapper's own, allocated on first write;
3. the wrapper's :class:`~repro.compression.base.CodecCompressor` — the
   communication hook — aggregates each bucket through the process group,
   which records the bytes each collective moved; the events each bucket's
   aggregation issued are drained from the group's log per step, so the log
   cannot grow with run length.
   Stateful compressors (error-feedback residuals, DGC momentum, PacTrain
   masks) own their per-bucket buffers — never views into the wrapper's
   arena, whose rows are rewritten by every staging pass — so their state
   survives arena staging and bucket reuse across iterations;
4. the aggregated gradients are unpacked back into ``param.grad`` as views of
   the reduced buffer (no copies on the float64 or float32 path) so a single
   optimiser step updates the shared weights.

:meth:`DistributedDataParallel.train_step` is that iteration, and the
experiment driver runs it.  Its result reports the per-rank losses and each
bucket's collective events: the bytes each worker placed on the wire.  The
wrapper moves bytes and keeps no clock; the driver prices the events
(:mod:`repro.simulation.pricing`) into the modeled communication time — the
raw material for every TTA figure in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.collectives import CollectiveEvent
from repro.comm.process_group import ProcessGroup
from repro.compression.base import CodecCompressor
from repro.compression.registry import build_compressor
from repro.ddp.arena import GradientArena
from repro.ddp.bucket import Bucket, GradBucket, build_buckets, DEFAULT_BUCKET_CAP_BYTES
from repro.obs.tracer import TRACER
from repro.nn.batched import replica_views
from repro.nn.module import Module
from repro.pruning import PruningMask, apply_gse
from repro.tensorlib import Tensor
from repro.tensorlib.dtypes import get_default_dtype


@dataclass
class StepResult:
    """Outcome of one training step: per-rank losses and the collectives it issued."""

    per_rank_loss: List[float]
    #: The collective events of each bucket's aggregation, in bucket order (one
    #: — or, for adaptive compressors, several — per bucket): what the
    #: event-driven engine schedules against backward compute.  ``None`` for a
    #: step that communicated nothing (a local-SGD step inside its window).
    bucket_events: Optional[List[List[CollectiveEvent]]] = None

    @property
    def loss(self) -> float:
        return float(np.mean(self.per_rank_loss))

    @property
    def events(self) -> List[CollectiveEvent]:
        """Every collective event, in issue order."""
        return [event for per_bucket in self.bucket_events or () for event in per_bucket]

    @property
    def comm_bytes_per_worker(self) -> float:
        return float(sum(event.bytes_per_worker for event in self.events))


class DistributedDataParallel:
    """Synchronous data-parallel training of one model across simulated ranks.

    Parameters
    ----------
    model:
        The shared model replica (identical across ranks by construction).
    world_size:
        Number of simulated workers.
    process_group:
        Communication substrate; defaults to a group of ``world_size`` ranks.
    bucket_cap_bytes:
        Gradient bucket capacity; PyTorch's 25 MiB default keeps small models
        in a single bucket, which matches how DDP behaves for them.
    comm_hook:
        The :class:`~repro.compression.base.CodecCompressor` whose
        ``aggregate(bucket, group, iteration)`` synchronises each bucket;
        ``None`` is the native fp32 all-reduce (``build_compressor("all-reduce")``).
    """

    def __init__(
        self,
        model: Module,
        world_size: int,
        process_group: Optional[ProcessGroup] = None,
        bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES,
        comm_hook: Optional[CodecCompressor] = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.model = model
        self.world_size = world_size
        self.process_group = process_group or ProcessGroup(world_size)
        if self.process_group.world_size != world_size:
            raise ValueError("process_group world_size does not match DDP world_size")
        self.buckets: List[Bucket] = build_buckets(model, bucket_cap_bytes)
        self.register_comm_hook(comm_hook)
        #: Training iteration counter handed to the compressor (warm-up logic,
        #: per-iteration seeds); the driver of the step increments it.
        self.iteration = 0
        self._param_map = dict(model.named_parameters())
        parameters = list(self._param_map.values())
        #: Compute dtype of the gradient plumbing (the model's parameter dtype).
        self.dtype = parameters[0].data.dtype if parameters else get_default_dtype()
        #: The wrapper's own per-bucket (world_size, numel) gradient matrices,
        #: each allocated on its first write and reused every iteration.
        self.arena = GradientArena(self.buckets, world_size, dtype=self.dtype)
        #: The arena gradients are staged into: :attr:`arena`, except during
        #: a :meth:`train_step` that stages into the compressor's residuals.
        self.staging = self.arena
        #: Surviving membership under a fault scenario; ``None`` (default)
        #: means the full world and takes exactly the historical
        #: synchronisation path.
        self._active_ranks: Optional[List[int]] = None
        #: The group collectives currently run over: ``process_group`` when
        #: healthy, a group of the survivors under :meth:`set_active_ranks`.
        self.active_group = self.process_group

    # ------------------------------------------------------------------ #
    # Hook management
    # ------------------------------------------------------------------ #
    def register_comm_hook(self, compressor: Optional[CodecCompressor]) -> None:
        """Replace the compressor (mirrors DDP's ``register_comm_hook``)."""
        if compressor is None:
            compressor = build_compressor("all-reduce")
        if not isinstance(compressor, CodecCompressor):
            raise TypeError(
                "comm_hook must be None or a repro.compression.CodecCompressor (the hook is its "
                f"aggregate(bucket, group, iteration) method), got {type(compressor).__name__}"
            )
        self.compressor = compressor

    # ------------------------------------------------------------------ #
    # Elastic membership
    # ------------------------------------------------------------------ #
    @property
    def active_ranks(self) -> List[int]:
        """Global ids of the ranks currently participating in the reduce."""
        if self._active_ranks is None:
            return list(range(self.world_size))
        return list(self._active_ranks)

    def set_active_ranks(self, ranks: Optional[Sequence[int]]) -> None:
        """Restrict gradient synchronisation to a surviving subset of ranks.

        ``ranks`` is the sorted global membership collectives should run
        over, through a group of ``len(ranks)``; dead ranks keep their arena
        rows (the buffers are preallocated for the full world) but are
        excluded from staging and from every reduce.  Passing ``None`` or
        the full membership restores the healthy fast path, whose
        synchronisation is bit-identical to a wrapper that was never
        degraded.  What the collectives cost over a degraded world or a
        slowed link is the driver's to price.
        """
        if ranks is None:
            self._active_ranks = None
            self.active_group = self.process_group
            return
        active = sorted(dict.fromkeys(int(r) for r in ranks))
        if not active:
            raise ValueError("active membership cannot be empty")
        if active[0] < 0 or active[-1] >= self.world_size:
            raise ValueError(
                f"active ranks {active} outside world_size={self.world_size}"
            )
        if len(active) == self.world_size:
            self.set_active_ranks(None)
            return
        self._active_ranks = active
        self.active_group = ProcessGroup(len(active))

    # ------------------------------------------------------------------ #
    # Training step
    # ------------------------------------------------------------------ #
    def compute_local_gradients(
        self,
        batch: Tuple[np.ndarray, np.ndarray],
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """One worker's loss and ``{name: (*shape)}`` gradients: world 1 of
        :meth:`compute_batched_gradients`, whose gradients the caller owns."""
        losses, grads = self.compute_batched_gradients([batch] * self.world_size, loss_fn, [0])
        return losses[0], {name: grad[0] for name, grad in grads.items()}

    def compute_batched_gradients(
        self,
        per_rank_batches: Sequence[Tuple[np.ndarray, np.ndarray]],
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
        ranks: Optional[Sequence[int]] = None,
        stacks: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[List[float], Dict[str, np.ndarray]]:
        """Run the forward/backward of ``ranks`` (default: all) as one world-batched pass.

        ``per_rank_batches`` holds one ``(images, labels)`` batch per rank of
        the world; only the batches of ``ranks`` (sorted global ids) are
        stacked, and they must share one shape (``ValueError`` otherwise).
        Parameters are temporarily swapped for ``(len(ranks), *shape)`` views
        (see :mod:`repro.nn.batched`): broadcasts of the shared weights, or
        the per-rank ``stacks`` when given.  The loss function returns a
        per-world loss vector whose backward is seeded with unit gradients —
        one per rank, exactly like the per-rank loop's scalar backward seeds.
        Returns the per-rank losses and ``{name: (len(ranks), *shape)}``
        gradient stacks, whose float64 values are bit-identical per rank to a
        per-rank loop.  When the full world of several ranks runs, conv weight
        stacks are born in their :attr:`staging` slots: written into the
        wrapper's arena (valid until the next staging pass), or, inside a
        :meth:`train_step` that stages into the compressor's residuals, added
        into them as each GEMM lands (the returned stack is then the
        compensated residual slice).  Any other pass — one worker's, world 1
        — hands back arrays of its own.
        """
        if len(per_rank_batches) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank batches, got {len(per_rank_batches)}"
            )
        ranks = range(self.world_size) if ranks is None else ranks
        # np.stack raises ValueError on ragged batches.
        images = np.stack([per_rank_batches[rank][0] for rank in ranks])
        labels = np.stack([np.asarray(per_rank_batches[rank][1]) for rank in ranks])
        world = len(ranks)
        staging = self.staging
        slots = staging.slots if 1 < world == self.world_size else None
        self.model.zero_grad()
        with replica_views(self.model, world, slots, stacks, staging.accumulates) as views:
            logits = self.model(Tensor(images))
            loss = loss_fn(logits, labels)
            loss.backward(np.ones(world, dtype=loss.data.dtype))
            grads = {
                name: view.grad for name, view in views.items() if view.grad is not None
            }
        losses = [float(value) for value in np.asarray(loss.data).reshape(-1)]
        return losses, grads

    def train_step(
        self,
        per_rank_batches: Sequence[Tuple[np.ndarray, np.ndarray]],
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
        gse_mask: Optional[PruningMask] = None,
    ) -> StepResult:
        """One synchronous iteration: backward on every active rank, GSE, sync.

        ``per_rank_batches`` holds exactly ``world_size`` equally shaped
        batches, one per rank (as a :class:`repro.data.DistributedSampler`
        produces them); a rank outside :attr:`active_ranks` has its batch
        consumed, so data order stays deterministic, but contributes no
        gradient or loss.

        The active ranks are evaluated in one world-batched forward/backward
        (:meth:`compute_batched_gradients`), healthy or degraded.  Float64
        results are bit-identical to a per-rank loop, and the collectives
        issued are unaffected — the simulation clock measures the *simulated*
        cluster, not how the host runs the passes.

        ``gse_mask`` applies Gradient Sparsity Enforcement (the paper's
        Eq. (2)) to every rank's gradients before they are staged.  The
        aggregated gradients are written back into ``param.grad``; the
        optimiser step and advancing :attr:`iteration` are the caller's.

        A step over the full world with no GSE mask whose compressor keeps
        error-feedback residuals stages into those residuals by addition
        (:meth:`~repro.compression.base.CodecCompressor.lend_residual`), so it
        holds one ``(world_size, numel)`` matrix per bucket, not two.  Masking
        must precede compensation, and a degraded world's residuals are the
        survivors' rows only, so every other step stages into :attr:`arena`.
        """
        ranks = self._active_ranks
        if ranks is None and gse_mask is None:
            self.staging = self._lent_staging()
        try:
            with TRACER.span("train/backward", cat="train", iteration=self.iteration):
                per_rank_losses, grads = self.compute_batched_gradients(
                    per_rank_batches, loss_fn, ranks
                )
                if gse_mask is not None:
                    # The (*shape) masks broadcast over the leading world axis,
                    # multiplying each rank's slice exactly as the loop does.
                    apply_gse(gse_mask, grads)
                self.stage_world_gradients(grads, ranks)
            with TRACER.span("train/sync", cat="train", iteration=self.iteration):
                aggregated, bucket_events = self.synchronize_staged()
                self.apply_aggregated_gradients(aggregated)
        finally:
            self.staging = self.arena
        return StepResult(per_rank_losses, bucket_events)

    def _lent_staging(self) -> GradientArena:
        """The compressor's residuals as an arena that adds, or :attr:`arena` without them."""
        if not self.compressor.error_feedback:
            return self.arena
        lent = [
            self.compressor.lend_residual(bucket.index, (self.world_size, bucket.numel), self.dtype)
            for bucket in self.buckets
        ]
        return GradientArena(self.buckets, self.world_size, dtype=self.dtype, lent=lent)

    # ------------------------------------------------------------------ #
    # Gradient synchronisation
    # ------------------------------------------------------------------ #
    def stage_rank_gradients(self, rank: int, grads_by_name: Dict[str, np.ndarray]) -> None:
        """Write one rank's named gradients into its :attr:`staging` rows."""
        self.staging.write_rank(rank, grads_by_name)

    def stage_world_gradients(
        self, grads_by_name: Dict[str, np.ndarray], ranks: Optional[Sequence[int]] = None
    ) -> None:
        """Write ``(len(ranks), *shape)`` gradient stacks into the :attr:`staging` rows of ``ranks``.

        ``ranks`` (sorted global ids) defaults to the whole world, which is
        staged in one vectorised copy (or add) per parameter; a subset is
        staged row by row and leaves the other ranks' rows untouched.
        """
        if ranks is None or len(ranks) == self.world_size:
            self.staging.write_world(grads_by_name)
            return
        for index, rank in enumerate(ranks):
            self.stage_rank_gradients(
                rank, {name: grad[index] for name, grad in grads_by_name.items()}
            )

    def synchronize_staged(
        self, compressor: Optional[CodecCompressor] = None
    ) -> Tuple[Dict[str, np.ndarray], List[List[CollectiveEvent]]]:
        """Aggregate the gradients currently staged in :attr:`staging`.

        Returns the unflattened aggregate and the collective events grouped by
        the bucket whose aggregation issued them.  The events are *drained*
        from the process group's per-step log, so a long run's log stays
        bounded.

        ``compressor`` stands in for the wrapper's own for this one call
        (local SGD's dense parameter averaging passes a lossless one).

        Under a degraded membership (:meth:`set_active_ranks`) each bucket's
        collective runs over the survivors only: the compressor sees a
        ``(len(active), numel)`` matrix of the surviving ranks' arena rows
        and the survivors' process group, so dead ranks contribute nothing to
        the average and each event records a ``len(active)``-way collective.
        """
        if compressor is None:
            compressor = self.compressor
        active = self._active_ranks
        group = self.active_group
        aggregated: Dict[str, np.ndarray] = {}
        bucket_events: List[List[CollectiveEvent]] = []
        for bucket in self.buckets:
            matrix = self.staging.matrix(bucket.index)
            if active is not None:
                # Fancy indexing copies the surviving rows out of the arena, so
                # compressors never see (or alias) dead ranks' stale gradients.
                matrix = matrix[active]
            grad_bucket = GradBucket(bucket, matrix)
            events_before = len(group.events)
            with TRACER.span(
                "ddp/bucket_sync", cat="ddp",
                bucket=bucket.index, numel=bucket.numel,
            ):
                reduced = compressor.aggregate(grad_bucket, group, iteration=self.iteration)
            bucket_events.append(group.events[events_before:])
            del group.events[events_before:]
            aggregated.update(bucket.unflatten(self._ensure_flat(reduced, bucket)))
        return aggregated, bucket_events

    def _ensure_flat(self, reduced, bucket: Bucket) -> np.ndarray:
        """Coerce an aggregate to a flat compute-dtype array without copying.

        Already-flat arrays of the right dtype pass through untouched (the
        aggregated gradients then alias the compressor's result, which is
        fresh per step).  A result aliasing the arena itself *is* copied —
        otherwise the next step's staging would silently corrupt ``param.grad``.
        """
        array = np.asarray(reduced)
        if array.dtype != self.dtype:
            array = array.astype(self.dtype)
        array = array.reshape(-1)
        if array.size != bucket.numel:
            raise ValueError(
                f"compressor returned {array.size} elements for bucket {bucket.index}, "
                f"expected {bucket.numel}"
            )
        if self.arena.shares_memory_with(array):
            array = array.copy()
        return array

    def apply_aggregated_gradients(self, aggregated: Dict[str, np.ndarray]) -> None:
        """Write aggregated gradients back into ``param.grad``."""
        dtype = self.dtype
        for name, grad in aggregated.items():
            param = self._param_map.get(name)
            if param is None:
                raise KeyError(f"aggregated gradient for unknown parameter {name!r}")
            # No-copy in the common case: unflatten returns correctly-shaped
            # views in the compute dtype already.
            grad = np.asarray(grad)
            param.grad = grad if grad.dtype == dtype else grad.astype(dtype)

    # ------------------------------------------------------------------ #
    # Parameter state (regime replicas)
    # ------------------------------------------------------------------ #
    def snapshot_parameters(self) -> Dict[str, np.ndarray]:
        """Copies of the model parameters, keyed like aggregated gradients."""
        return {name: param.data.copy() for name, param in self._param_map.items()}
