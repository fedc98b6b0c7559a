"""Top-k gradient sparsification (Aji & Heafield, 2017).

Each rank keeps only its ``ratio`` largest-magnitude gradient coordinates.
Because every rank selects a *different* coordinate set, the payloads cannot be
summed element-wise — the codec driver falls back to an all-gather of
(index, value) :class:`~repro.compression.codec.payloads.SparsePayload`\\ s,
which is exactly the incompatibility with all-reduce that the paper's Table 1
flags and that causes TopK-0.1 to congest the bottleneck link in Fig. 3.

By default the compressor keeps an error-feedback residual per bucket (the
unsent coordinates are added back into the next iteration's gradient), the
standard trick for making aggressive sparsification converge.  This is the
shared :class:`~repro.compression.base.CodecCompressor` residual state, and it
costs O(k) per rank beyond the selection itself: the driver adds the step's
gradients into the residual in place, top-k reads the residual rows, the
gathered (index, value) payloads are accumulated into the average without
being densified, and ``input - decode(own payload)`` rewrites exactly the
transmitted coordinates of each row to ``x - x`` — the historical
stage-internal residual (every sent coordinate zeroed), bit for bit (the
golden traces pin this).  The selection itself is
:func:`repro.compression.codec.stages.batched_top_k_indices` over the
(world, numel) matrix: exact, sampled-threshold selection per row above a
size floor, one batched ``argpartition`` below it.  It picks the same
coordinate set as the :func:`top_k_indices` oracle re-exported here.
"""

from __future__ import annotations

from repro.compression.base import CodecCompressor
from repro.compression.codec import Pipeline, TopK

# Re-exported: the production selector and the reference oracle tests compare it to.
from repro.compression.codec.stages import batched_top_k_indices, top_k_indices  # noqa: F401


class TopKCompressor(CodecCompressor):
    """Per-rank top-k sparsification with all-gather aggregation."""

    def __init__(self, ratio: float = 0.1, error_feedback: bool = True) -> None:
        # Stage-internal error feedback stays off: the driver owns the
        # residual state (one mechanism, not two).
        self._stage = TopK(ratio=ratio, error_feedback=False)
        super().__init__(
            Pipeline([self._stage]),
            name=f"topk-{ratio:g}",
            error_feedback=error_feedback,
        )

    @property
    def ratio(self) -> float:
        return self._stage.ratio
