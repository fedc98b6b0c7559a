"""Compressor interface, the shared codec aggregation driver and bookkeeping.

A :class:`Compressor` turns one gradient bucket (per-rank flat tensors) into
the aggregated average gradient, issuing all communication through the process
group so the network cost model sees it.  Since the codec refactor every
built-in compressor is a :class:`CodecCompressor`: a thin wrapper binding a
:class:`~repro.compression.codec.pipeline.Pipeline` of encode/decode stages to
the shared **encode → reduce/gather → decode** driver below.  Wire bytes are
derived from the encoded :class:`~repro.compression.codec.payloads.WirePayload`
at the collective layer — compressors no longer self-report byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.compression.codec.payloads import FP32_BYTES, WirePayload
from repro.compression.codec.pipeline import Pipeline, as_pipeline
from repro.compression.codec.stages import Codec, EncodeContext, remap_rank_rows
from repro.obs.tracer import NULL_SPAN, TRACER
from repro.tensorlib.dtypes import float_dtype_of

if TYPE_CHECKING:  # repro.ddp imports this package; the bucket is only an annotation here
    from repro.ddp.bucket import GradBucket

#: With tracing enabled, lossy pipelines sample an exact-average NMSE every
#: this many iterations per bucket (full exact averages every step would
#: double the aggregation cost of the observed run).
NMSE_SAMPLE_EVERY = 16

__all__ = [
    "CompressionStats",
    "Compressor",
    "CodecCompressor",
    "exact_average",
]


@dataclass
class CompressionStats:
    """Per-compressor running statistics (across all buckets and iterations).

    ``wire_bytes`` accumulates one *per-worker* payload size per aggregation —
    the largest ``WirePayload.nbytes`` handed to the collective layer that
    iteration (ranks send symmetric payloads, so this is each worker's upload).
    Coordination traffic (scaler agreement, bitmask sync) is charged in the
    process group's event log but not counted against the payload ratio.
    """

    iterations: int = 0
    raw_bytes: float = 0.0
    wire_bytes: float = 0.0
    allreduce_calls: int = 0
    allgather_calls: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """Raw fp32 bytes divided by bytes actually sent (>= 1 means savings)."""
        if self.wire_bytes == 0:
            return float("inf") if self.raw_bytes > 0 else 1.0
        return self.raw_bytes / self.wire_bytes


class Compressor:
    """Base class for gradient compressors.

    Subclasses implement :meth:`aggregate`, which receives the per-rank flat
    gradients of one bucket and must return the aggregated *average* gradient
    of the same length, issuing all communication through ``group`` so that the
    network cost model sees it.  This call is the paper's "communication hook":
    :class:`repro.ddp.DistributedDataParallel` makes it once per bucket, and it
    sees only the flat bucket — no parameter names or shapes.

    Attributes
    ----------
    name:
        Short identifier used by the registry and in benchmark tables.
    allreduce_compatible:
        Whether aggregation uses the all-reduce primitive (Table 1's
        "Compatibility" column).  All-gather-based schemes pay the
        ``(n-1) x payload`` exchange cost instead of ``2 (n-1)/n``.
    lossless:
        Whether the aggregated result equals the exact average of the inputs.
    """

    name: str = "base"
    allreduce_compatible: bool = True
    lossless: bool = False

    def __init__(self) -> None:
        self.stats = CompressionStats()

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def aggregate(
        self,
        bucket: GradBucket,
        group: ProcessGroup,
        iteration: int = 0,
    ) -> np.ndarray:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear statistics and any per-bucket state (error feedback, masks)."""
        self.stats = CompressionStats()

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        """Adapt per-rank state to an elastic membership change.

        ``old_ranks``/``new_ranks`` are the global rank ids active before and
        after the change, in the order their rows occupied the per-bucket
        state matrices.  The base compressor keeps no per-rank state, so the
        default is a no-op; :class:`CodecCompressor` remaps its
        error-feedback residuals and forwards to every pipeline stage.
        ``policy`` is ``"carry"`` (survivors keep their rows, newcomers start
        from zero) or ``"zero"`` (everyone restarts).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class CodecCompressor(Compressor):
    """Aggregate gradients through a codec pipeline (the shared driver).

    Per bucket and iteration the driver

    1. **encodes** every rank's flat gradient through the pipeline into a
       :class:`WirePayload` (stages coordinate shared scalers/selections and
       charge those collectives themselves);
    2. **reduces** the payloads with an all-reduce when they are element-wise
       summable, otherwise **gathers** them — the collective layer charges the
       network model from ``payload.nbytes``;
    3. **decodes** back to the dense average gradient, accumulating each
       gathered payload's decoded form into one result vector — only the
       carried coordinates of a selection, which is never densified (peak
       memory O(numel), work O(k) per rank).

    With ``error_feedback=True`` the driver additionally keeps one residual
    matrix per bucket — the ``(world_size, numel)`` gradient mass each rank's
    *own* encoding failed to represent — and compensates **in place**: the
    step's gradients are added into the residual (``residual += grad``), the
    residual rows *are* the encode inputs, and after the collective each row
    has its own decoded payload subtracted, so it again holds
    ``input - decode(own payload)`` and every coordinate a lossy compressor
    drops is retransmitted once the accumulated error grows large enough
    (EF-SGD, Karimireddy et al., 2019).  For a selection that subtraction
    touches only the transmitted coordinates.

    **Aliasing contract.**  The residual buffers are owned by the compressor:
    allocated here, never adopted from a caller (not the DDP gradient arena,
    not a degraded membership's fancy copy, not a list-backed bucket's rows),
    so they survive arena staging and bucket reuse across iterations.  During
    one ``aggregate`` call the pipeline's stages *read* them — as
    ``EncodeContext.matrix`` and as the ``DensePayload`` values of the first
    stage — and must not write them or keep a reference past the call; a
    pass-through stage may return them as its payload, which is why the
    residual is rewritten only after the collective (which never mutates its
    inputs) has consumed the payloads.  ``residual(bucket)`` hands out the live
    buffer: copy it to keep a snapshot.

    Subclasses may override :meth:`_pipeline_for` to pick the pipeline
    adaptively per bucket/iteration (PacTrain's stable/fallback switch).
    """

    def __init__(
        self,
        pipeline: Union[Codec, Sequence[Codec], Pipeline],
        name: Optional[str] = None,
        error_feedback: bool = False,
    ) -> None:
        super().__init__()
        self.pipeline = as_pipeline(pipeline)
        self.error_feedback = bool(error_feedback)
        if name is None:
            name = self.pipeline.spec()
            if self.error_feedback:
                name = f"ef+{name}"
        self.name = name
        # Per-bucket (world_size, numel) error-feedback residuals.
        self._residuals: Dict[int, np.ndarray] = {}
        if self.error_feedback:
            self._adopt_driver_error_feedback()
        self.allreduce_compatible = self.pipeline.allreduce_compatible
        self.lossless = self.pipeline.lossless

    # ------------------------------------------------------------------ #
    def _check_driver_ef_composable(self) -> None:
        """Refuse EF toggling around stages that compensate by construction.

        Momentum-corrected DGC accumulates unsent gradient mass in its own
        (momentum, accumulation) buffers as an inseparable part of the
        algorithm: layering the driver residual on top would double-count
        every dropped coordinate, and "stripping" the compensation would not
        leave DGC behind.  Either request fails loudly instead.
        """
        for stage in self.pipeline.stages:
            if getattr(stage, "self_compensating", False):
                raise ValueError(
                    f"stage {stage.spec()!r} accumulates unsent gradient mass "
                    "internally (momentum-corrected DGC); driver-level error "
                    "feedback cannot be layered around or stripped from it"
                )

    def _adopt_driver_error_feedback(self) -> None:
        """Make the pipeline safe to run under the driver residual.

        Stage-internal error feedback (TopK's residuals) is disabled so the
        unsent gradient mass is not accumulated twice, and unbiased rescaling
        (random-k's ``numel/k`` decode factor) is switched off — against a
        rescaled decode, ``input - decode`` is an *expansion* of the error,
        not a contraction, and EF training would diverge.  With EF the raw
        selection is the correct transmit; the residual resends what was
        dropped.
        """
        self._check_driver_ef_composable()
        for stage in self.pipeline.stages:
            if getattr(stage, "error_feedback", False):
                stage.error_feedback = False
                stage.reset()
            if getattr(stage, "rescale", False):
                stage.rescale = False
                # Remembered so disable_error_feedback can restore the
                # unbiased estimator when EF is later switched off again.
                stage._rescale_disabled_by_driver = True

    def enable_error_feedback(self) -> None:
        """Switch on driver-level error feedback after construction.

        Used when a :class:`~repro.simulation.spec.MethodSpec` requests
        ``error_feedback=True`` for a registry-built compressor.  Stage-internal
        compensation and unbiased rescaling are disabled at the same time (see
        :meth:`_adopt_driver_error_feedback`).
        """
        self._adopt_driver_error_feedback()
        self.error_feedback = True
        if not self.name.startswith("ef+"):
            self.name = f"ef+{self.name}"

    def disable_error_feedback(self) -> None:
        """Switch off *all* error feedback — driver-level and stage-internal.

        The explicit no-EF arm of an error-feedback study
        (``MethodSpec(error_feedback=False)``): even compressors that carry
        compensation by default in their paper form (top-k) run genuinely
        uncompensated.  Unbiased rescaling is an estimator correction, not
        compensation: it is left on, and restored if the driver had disabled
        it (an ``"ef+..."``-built compressor later forced off must not stay
        both uncompensated *and* biased low by ``k/n``).
        """
        self._check_driver_ef_composable()
        self.error_feedback = False
        self._residuals.clear()
        for stage in self.pipeline.stages:
            if getattr(stage, "error_feedback", False):
                stage.error_feedback = False
                stage.reset()
            if getattr(stage, "_rescale_disabled_by_driver", False):
                stage.rescale = True
                stage._rescale_disabled_by_driver = False
        if self.name.startswith("ef+"):
            self.name = self.name[len("ef+"):]

    def residual(self, bucket_index: int) -> Optional[np.ndarray]:
        """The current error-feedback residual of one bucket (None before use)."""
        return self._residuals.get(bucket_index)

    def _pipeline_for(self, bucket: GradBucket, group: ProcessGroup, iteration: int) -> Pipeline:
        """Pipeline used for this bucket synchronisation (static by default)."""
        return self.pipeline

    def _compensate(self, bucket: GradBucket) -> np.ndarray:
        """``residual += grad`` in place; returns the bucket's residual matrix.

        The first call, or a bucket that changed world size, length or dtype,
        starts from zeros — allocated here, so the residual never aliases the
        caller's rows.  Rows are added one by one: list-backed buckets are
        never stacked.
        """
        buffers = bucket.buffers
        shape = (bucket.world_size, bucket.numel)
        dtype = np.asarray(buffers[0]).dtype
        residual = self._residuals.get(bucket.index)
        if residual is None or residual.shape != shape or residual.dtype != dtype:
            residual = self._residuals[bucket.index] = np.zeros(shape, dtype=dtype)
        for row, grad in zip(residual, buffers):
            np.add(grad, row, out=row)
        return residual

    def aggregate(self, bucket: GradBucket, group: ProcessGroup, iteration: int = 0) -> np.ndarray:
        pipeline = self._pipeline_for(bucket, group, iteration)
        # Arena-backed buckets hand first-stage matrix consumers (batched
        # top-k, DGC) the (world, numel) gradients without re-stacking;
        # list-backed buckets pass None so pipelines that never read the
        # matrix don't pay for a stack.
        matrix = bucket.materialized_matrix
        buffers: List[np.ndarray] = bucket.buffers

        residual: Optional[np.ndarray] = None
        if self.error_feedback:
            # The compensated gradients live in the residual itself: its rows
            # are the encode inputs until they are rewritten below.
            matrix = residual = self._compensate(bucket)
            buffers = list(residual)

        ctx = EncodeContext(
            world_size=bucket.world_size,
            bucket_index=bucket.index,
            iteration=iteration,
            group=group,
            matrix=matrix,
        )
        # One guard read for the whole aggregation: when disabled, every span
        # below is the shared NULL_SPAN and no span arguments are built.
        traced = TRACER.enabled
        with TRACER.span(
            "codec/encode", cat="codec", bucket=bucket.index, spec=self.name
        ) if traced else NULL_SPAN:
            payloads = pipeline.encode_all(buffers, ctx)
        wire_nbytes = max(payload.nbytes for payload in payloads) if traced else 0
        # The NMSE reference must be taken while ``buffers`` still hold this
        # step's inputs — under error feedback they are residual rows.
        exact: Optional[np.ndarray] = None
        if traced and not self.lossless and iteration % NMSE_SAMPLE_EVERY == 0:
            exact = exact_average(buffers)

        # Route on the pipeline's static property; the collective layer still
        # validates per-payload reducibility, so a stage that wrongly claims
        # compatibility fails loudly rather than silently gathering.
        reducible = pipeline.allreduce_compatible
        if reducible:
            with TRACER.span(
                "codec/reduce", cat="codec", bucket=bucket.index, bytes=int(wire_nbytes)
            ) if traced else NULL_SPAN:
                reduced = group.all_reduce(payloads, average=True)
            with TRACER.span(
                "codec/decode", cat="codec", bucket=bucket.index
            ) if traced else NULL_SPAN:
                result = pipeline.decode(reduced)
            if residual is not None:
                # residual_r = input_r - decode(rank r's own payload): exactly
                # the gradient mass rank r's encoding dropped this step.  Only
                # now: a pass-through payload's values *are* the residual row,
                # and the all-reduce above had to read them first.
                for rank, payload in enumerate(payloads):
                    pipeline.decode_payload(payload).subtract_from(residual[rank])
        else:
            with TRACER.span(
                "codec/gather", cat="codec", bucket=bucket.index, bytes=int(wire_nbytes)
            ) if traced else NULL_SPAN:
                gathered = group.all_gather(payloads)
            with TRACER.span(
                "codec/decode", cat="codec", bucket=bucket.index
            ) if traced else NULL_SPAN:
                result = None
                for rank, payload in enumerate(gathered):
                    # A selection stays sparse: O(k) per rank, nothing densified.
                    decoded = pipeline.decode_payload(payload)
                    if residual is not None:
                        # The gathered payloads are per-rank copies of the
                        # local ones, so the same decode serves both the
                        # average and the residual update.
                        decoded.subtract_from(residual[rank])
                    if result is None:
                        result = np.zeros(bucket.numel, dtype=float_dtype_of(decoded.values))
                    decoded.add_to(result)
                result /= bucket.world_size

        self._record(bucket, payloads, used_allgather=not reducible)
        if traced and TRACER.enabled:
            self._observe(bucket, exact, result, wire_nbytes, iteration)
        return result

    def _observe(
        self,
        bucket: GradBucket,
        exact: Optional[np.ndarray],
        result: np.ndarray,
        wire_nbytes: float,
        iteration: int,
    ) -> None:
        """Publish per-aggregation metrics (only called while tracing).

        Everything here is read-only over the aggregation's output, so an
        observed run stays bit-identical to an unobserved one.  ``exact`` is
        the exact average of the encode inputs, sampled by the caller every
        :data:`NMSE_SAMPLE_EVERY` iterations because it costs a full lossless
        aggregation (``None`` otherwise).
        """
        metrics = TRACER.metrics
        metrics.inc("codec.aggregations")
        metrics.inc("codec.wire_bytes", float(wire_nbytes))
        metrics.inc("codec.raw_bytes", float(bucket.numel * FP32_BYTES))
        metrics.observe("codec.payload_bytes", float(wire_nbytes))
        if exact is not None:
            from repro.metrics.nmse import nmse  # noqa: PLC0415

            value = float(nmse(exact, result))
            metrics.observe("codec.nmse", value)
            TRACER.instant(
                "codec/nmse", cat="codec",
                bucket=bucket.index, iteration=iteration, nmse=value, spec=self.name,
            )

    def reset(self) -> None:
        super().reset()
        self.pipeline.reset()
        self._residuals.clear()

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        """Remap driver EF residuals and stage state to a new membership.

        Row *i* of every per-bucket buffer belongs to global rank
        ``old_ranks[i]``; after the resize it belongs to ``new_ranks[i]``.
        ``"carry"`` preserves each surviving rank's accumulated residual
        across the shrink/grow (a re-joining rank starts from zero — its
        pre-crash residual described gradients of a model that has since
        moved on); ``"zero"`` clears all compensation state.
        """
        remap_rank_rows(self._residuals, old_ranks, new_ranks, policy)
        for stage in self.pipeline.stages:
            stage.resize_world(old_ranks, new_ranks, policy)

    # ------------------------------------------------------------------ #
    def _record(
        self,
        bucket: GradBucket,
        payloads: Sequence[WirePayload],
        used_allgather: bool,
    ) -> None:
        self.stats.iterations += 1
        self.stats.raw_bytes += bucket.numel * FP32_BYTES
        self.stats.wire_bytes += max(payload.nbytes for payload in payloads)
        if used_allgather:
            self.stats.allgather_calls += 1
        else:
            self.stats.allreduce_calls += 1


def exact_average(buffers: List[np.ndarray]) -> np.ndarray:
    """Reference (lossless) average used by tests and error computations.

    Shares the collective layer's rank-by-rank accumulation, so peak memory is
    O(numel) rather than the O(world x numel) of a stack-then-mean — and the
    reference stays numerically identical to what the collectives compute.
    """
    from repro.comm.collectives import accumulate_sum  # noqa: PLC0415

    return accumulate_sum(buffers) / len(buffers)
