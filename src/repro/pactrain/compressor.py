"""The PacTrain adaptive sparse gradient compressor (Algorithm 1, lines 6–12).

Per gradient bucket and iteration:

1. the Mask Tracker ingests the union of the ranks' non-zero patterns;
2. **unstable pattern** → fall back to a full fp32 all-reduce (correctness
   first, exactly as Algorithm 1 line 12 prescribes);
3. **stable pattern** → the :class:`~repro.compression.codec.stages.MaskCompact`
   stage packs the non-masked coordinates of every rank into a short dense
   tensor (Fig. 2's "masked assignment"), optionally composed with a
   :class:`~repro.compression.codec.stages.Ternarize` stage (§III.D), and the
   codec driver all-reduces the compact payloads.

Since the codec refactor PacTrain is no longer a hand-rolled special case: it
is a :class:`~repro.compression.base.CodecCompressor` that *selects a
pipeline per bucket* — ``Identity`` while unstable, ``MaskCompact`` (or
``MaskCompact + Ternarize``) once stable.  Because the packing order is
derived from the shared mask, the compact payloads are element-wise summable —
this is what keeps the scheme compatible with the all-reduce primitive while
sending only ``density × numel`` values.  With quantisation disabled the
scheme is lossless with respect to the masked gradient.

A small one-time cost is charged whenever a bucket's mask changes: the bitmask
itself (a packed :class:`~repro.compression.codec.payloads.BitmaskPayload`,
one bit per coordinate) is broadcast so all workers provably agree on the
packing order before compact mode is used.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.compression.base import CodecCompressor
from repro.compression.codec import (
    BitmaskPayload,
    Identity,
    MaskCompact,
    Pipeline,
    Ternarize,
)
from repro.ddp.bucket import GradBucket
from repro.pactrain.mask_tracker import MaskTracker


class PacTrainCompressor(CodecCompressor):
    """Adaptive mask-aware sparse compression, all-reduce compatible."""

    def __init__(self, stability_threshold: int = 3, quantize: bool = False, seed: int = 0) -> None:
        self.tracker = MaskTracker(stability_threshold=stability_threshold)
        self.quantize = quantize

        self._compact = MaskCompact()
        compact_stages = [self._compact]
        if quantize:
            compact_stages.append(Ternarize(seed=seed))
        self._compact_pipeline = Pipeline(compact_stages)
        self._full_pipeline = Pipeline([Identity()])
        super().__init__(
            self._compact_pipeline,
            name="pactrain-terngrad" if quantize else "pactrain",
        )

        # Per-bucket record of the last mask for which the bitmask sync cost
        # was charged, so the cost is only paid when the mask actually changes.
        self._synced_masks: Dict[int, np.ndarray] = {}
        # Counters surfaced in benchmark output.
        self.compact_iterations = 0
        self.full_iterations = 0

    # ------------------------------------------------------------------ #
    def _check_driver_ef_composable(self) -> None:
        raise ValueError(
            "driver-level error feedback is not supported for PacTrain: its "
            "compacted aggregation is already lossless w.r.t. the masked "
            "gradient, so there is no dropped mass to feed back (and nothing "
            "to strip); leave MethodSpec.error_feedback at None"
        )

    # ------------------------------------------------------------------ #
    def _pipeline_for(self, bucket: GradBucket, group: ProcessGroup, iteration: int) -> Pipeline:
        """Algorithm 1's switch: full sync while unstable, compact once stable."""
        state = self.tracker.update_from_rank_gradients(bucket.index, bucket.matrix)

        if not state.stable:
            self.full_iterations += 1
            return self._full_pipeline

        mask = state.mask
        self._maybe_sync_bitmask(bucket, group, mask)
        self._compact.set_mask(bucket.index, mask)
        self.compact_iterations += 1
        return self._compact_pipeline

    # ------------------------------------------------------------------ #
    def _maybe_sync_bitmask(self, bucket: GradBucket, group: ProcessGroup, mask: np.ndarray) -> None:
        """Charge the bitmask broadcast whenever a bucket's stable mask changes."""
        previous = self._synced_masks.get(bucket.index)
        if previous is not None and previous.shape == mask.shape and np.array_equal(previous, mask):
            return
        group.broadcast(BitmaskPayload.from_mask(mask))
        self._synced_masks[bucket.index] = mask.copy()
        self.stats.extra["bitmask_syncs"] = self.stats.extra.get("bitmask_syncs", 0.0) + 1.0

    # ------------------------------------------------------------------ #
    @property
    def compact_fraction(self) -> float:
        """Fraction of bucket synchronisations that used the compact path."""
        total = self.compact_iterations + self.full_iterations
        return self.compact_iterations / total if total else 0.0

    def result_extra(self) -> Dict[str, float]:
        """Algorithm 1's split: the compact fraction and both counts."""
        return {
            "compact_fraction": self.compact_fraction,
            "full_iterations": float(self.full_iterations),
            "compact_iterations": float(self.compact_iterations),
        }
