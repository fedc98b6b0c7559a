"""Gradient compressors and the encode/reduce/decode codec subsystem.

The repository's one gradient-synchronisation seam — the paper's
"communication hook" — is :meth:`CodecCompressor.aggregate(bucket, group, iteration)
<repro.compression.base.CodecCompressor.aggregate>`: given one gradient bucket
(its ``(world, numel)`` matrix) and a process group, produce the aggregated average
gradient while issuing the collectives it actually needs.  The DDP wrapper
calls it per bucket; local-SGD rounds and parameter-server pushes reach the
wire through the same call.

Every compressor is a :class:`~repro.compression.base.CodecCompressor` — a
codec :class:`~repro.compression.codec.Pipeline` bound to the shared
encode → reduce/gather → decode driver — *named by a spec string*: ``"fp32"``,
``"fp16"``, ``"ef+topk0.01"``, ``"terngrad"``, ``"dgc0.01"``,
``"topk0.01+terngrad"``.  The paper's
figure names (``"all-reduce"``, ``"topk-0.01"``, ``"dgc"``, ...) are a table
of such strings in :mod:`repro.compression.registry`; there is no class per
method.  What a spec cannot spell is a constructor argument of the stage:
``CodecCompressor(DGCSelect(ratio=0.5, clip_norm=1.0))``.

Encoded :class:`~repro.compression.codec.WirePayload` objects go straight to
the collective layer, which records the bytes from ``payload.nbytes``;
:mod:`repro.simulation.pricing` prices them into modeled time — how Table 1's
"compatibility" column turns into Fig. 3's TTA differences.  The PacTrain compressor lives in :mod:`repro.pactrain` and
is registered for :func:`build_compressor` under ``"pactrain"``,
``"pactrain-terngrad"`` and ``"pactrain-fp32"``.
"""

from repro.compression.base import (
    CodecCompressor,
    CompressionStats,
    exact_average,
)
from repro.compression.codec import (
    BitmaskPayload,
    Codec,
    DensePayload,
    EncodeContext,
    HalfPayload,
    Pipeline,
    SparsePayload,
    TernaryPayload,
    WirePayload,
    as_payload,
    parse_codec_spec,
    parse_compressor_spec,
)
from repro.compression.registry import COMPRESSOR_REGISTRY, build_compressor, register_compressor

__all__ = [
    "CodecCompressor",
    "CompressionStats",
    "exact_average",
    "WirePayload",
    "DensePayload",
    "HalfPayload",
    "SparsePayload",
    "TernaryPayload",
    "BitmaskPayload",
    "as_payload",
    "Codec",
    "EncodeContext",
    "Pipeline",
    "parse_codec_spec",
    "parse_compressor_spec",
    "COMPRESSOR_REGISTRY",
    "build_compressor",
    "register_compressor",
]
