"""The compressor: the shared codec aggregation driver and its bookkeeping.

A :class:`CodecCompressor` turns one gradient bucket (a ``(world, numel)`` matrix)
into the aggregated average gradient, issuing all communication through the
process group, whose collectives move the bytes and log them;
:mod:`repro.simulation.pricing` prices them.  It binds a
:class:`~repro.compression.codec.pipeline.Pipeline` of encode/decode stages to
the shared **encode → reduce/gather → decode** driver below; it is the one
compressor type (PacTrain subclasses it to pick the pipeline per bucket).
Wire bytes are derived from the encoded
:class:`~repro.compression.codec.payloads.WirePayload` at the collective
layer — compressors never self-report byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

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

    raw_bytes: float = 0.0
    wire_bytes: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """Raw fp32 bytes divided by bytes actually sent (>= 1 means savings)."""
        if self.wire_bytes == 0:
            return float("inf") if self.raw_bytes > 0 else 1.0
        return self.raw_bytes / self.wire_bytes


class CodecCompressor:
    """Aggregate gradients through a codec pipeline (the shared driver).

    :meth:`aggregate` receives one bucket's ``(world, numel)`` gradients and
    returns their aggregated *average*, issuing all communication through
    ``group`` so that its event log records every byte.  This call is the
    paper's "communication hook": :class:`repro.ddp.DistributedDataParallel`
    makes it once per bucket, and it sees only the flat bucket — no parameter
    names or shapes.  ``name`` labels the compressor in tables and traces;
    ``allreduce_compatible`` (Table 1's "Compatibility" column) and
    ``lossless`` are the pipeline's.

    Per bucket and iteration the driver

    1. **encodes** every rank's flat gradient through the pipeline into a
       :class:`WirePayload` (stages coordinate shared scalers/selections and
       issue those collectives themselves);
    2. **reduces** the payloads with an all-reduce when they are element-wise
       summable, otherwise **gathers** them — the collective layer records
       the bytes from ``payload.nbytes``;
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
    not a degraded membership's fancy copy, not a pushed worker's row).  The
    compensation ``residual += grad`` happens in one of two places:

    * a caller that stages gradients may *borrow* a residual with
      :meth:`lend_residual` and add them into it itself, then pass that very
      array as the bucket's matrix — ``aggregate`` sees a matrix that *is*
      its residual and adds nothing (the synchronous DDP step does this when
      it stages the full world with no GSE mask, so it never holds a second
      ``(world_size, numel)`` copy).  Between the loan and the ``aggregate``
      call the borrower may only add gradients into it;
    * any other matrix — the DDP arena, a degraded membership's copy, a
      pushed worker's row, a direct call's array — is read only and added
      into the residual by ``aggregate`` itself.

    Either way each element gets one IEEE addition of gradient and residual,
    which commutes, so both places give the same bits.  During one ``aggregate`` call the pipeline's
    stages *read* the residual — as ``EncodeContext.matrix`` and as the
    ``DensePayload`` values of the first stage — and must not write it or keep
    a reference past the call; a pass-through stage may return it as its
    payload, which is why the residual is rewritten only after the collective
    (which never mutates its inputs) has consumed the payloads.
    :meth:`_pipeline_for` runs before compensation; on a lent bucket the
    matrix it sees is already compensated.

    Subclasses may override :meth:`_pipeline_for` to pick the pipeline
    adaptively per bucket/iteration (PacTrain's stable/fallback switch).
    """

    def __init__(
        self,
        pipeline: Union[Codec, Sequence[Codec], Pipeline],
        name: Optional[str] = None,
        error_feedback: bool = False,
    ) -> None:
        self.stats = CompressionStats()
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
            self._drop_stage_error_feedback()
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

    def _drop_stage_error_feedback(self) -> None:
        """Switch stage-internal error feedback (TopK's residuals) off.

        Under the driver residual it would feed the unsent gradient mass back
        twice; in the explicit no-EF arm it would leave the run compensated.
        """
        self._check_driver_ef_composable()
        for stage in self.pipeline.stages:
            if getattr(stage, "error_feedback", False):
                stage.error_feedback = False

    def set_error_feedback(self, on: bool) -> None:
        """Switch driver-level error feedback on or off after construction.

        Used when a :class:`~repro.simulation.spec.MethodSpec` sets
        ``error_feedback`` for a registry-built compressor, which is built per
        run and so holds no residual yet.  Either way stage-internal
        compensation goes off: ``on`` so the mass is not fed back twice, off
        because the explicit no-EF arm of an error-feedback study runs
        genuinely uncompensated, even for a compressor that compensates in its
        paper form (top-k).  The name carries the ``ef+`` prefix exactly when
        ``on``.
        """
        self._drop_stage_error_feedback()
        self.error_feedback = bool(on)
        self._residuals.clear()
        name = self.name[len("ef+"):] if self.name.startswith("ef+") else self.name
        self.name = f"ef+{name}" if on else name

    def lend_residual(self, bucket_index: int, shape: Tuple[int, int], dtype) -> np.ndarray:
        """The residual a caller may stage one bucket's gradients into by addition.

        The bucket's ``shape`` / ``dtype`` residual, started from zeros like a
        first compensation (:meth:`_compensate`).  A caller that adds the
        step's ``(world_size, numel)`` gradients into it and passes it as the
        bucket's matrix has compensated already (see the aliasing contract).
        Only a compressor with driver error feedback has one to lend.
        """
        if not self.error_feedback:
            raise ValueError(f"{self.name!r} keeps no error-feedback residual to lend")
        return self._residual_for(bucket_index, shape, np.dtype(dtype))

    def _residual_for(self, bucket_index: int, shape, dtype: np.dtype) -> np.ndarray:
        """One bucket's residual, zeros if absent or of another shape or dtype."""
        residual = self._residuals.get(bucket_index)
        if residual is None or residual.shape != shape or residual.dtype != dtype:
            residual = self._residuals[bucket_index] = np.zeros(shape, dtype=dtype)
        return residual

    def _pipeline_for(self, bucket: GradBucket, group: ProcessGroup, iteration: int) -> Pipeline:
        """Pipeline used for this bucket synchronisation (static by default)."""
        return self.pipeline

    def _compensate(self, bucket: GradBucket) -> np.ndarray:
        """``residual += grad`` in place; returns the bucket's residual matrix.

        The first call, or a bucket that changed world size, length or dtype,
        starts from zeros — allocated here, so the residual never aliases the
        caller's matrix.  A bucket whose matrix *is* the residual
        (:meth:`lend_residual`) was compensated as it was staged.
        """
        matrix = bucket.matrix
        residual = self._residual_for(bucket.index, matrix.shape, matrix.dtype)
        if matrix is not residual:
            np.add(matrix, residual, out=residual)
        return residual

    def aggregate(self, bucket: GradBucket, group: ProcessGroup, iteration: int = 0) -> np.ndarray:
        pipeline = self._pipeline_for(bucket, group, iteration)
        # Under error feedback the compensated gradients live in the residual
        # itself: its rows are the encode inputs until they are rewritten below.
        residual = self._compensate(bucket) if self.error_feedback else None
        matrix = bucket.matrix if residual is None else residual
        buffers = list(matrix)

        ctx = EncodeContext(
            world_size=bucket.world_size,
            bucket_index=bucket.index,
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

        self._record(bucket, payloads)
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

    def result_extra(self) -> Dict[str, float]:
        """The compressor's own entries for ``ExperimentResult.extra`` (none here)."""
        return {}

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
    def _record(self, bucket: GradBucket, payloads: Sequence[WirePayload]) -> None:
        self.stats.raw_bytes += bucket.numel * FP32_BYTES
        self.stats.wire_bytes += max(payload.nbytes for payload in payloads)


def exact_average(buffers: List[np.ndarray]) -> np.ndarray:
    """Reference (lossless) average used by tests and error computations.

    Shares the collective layer's rank-by-rank accumulation, so peak memory is
    O(numel) rather than the O(world x numel) of a stack-then-mean — and the
    reference stays numerically identical to what the collectives compute.
    """
    from repro.comm.collectives import accumulate_sum  # noqa: PLC0415

    return accumulate_sum(buffers) / len(buffers)
