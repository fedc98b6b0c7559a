"""Encode/Reduce/Decode codec subsystem.

Gradient compression is factored into three orthogonal pieces:

* **payloads** (:mod:`repro.compression.codec.payloads`) — first-class wire
  representations (:class:`DensePayload`, :class:`HalfPayload`,
  :class:`SparsePayload`, :class:`TernaryPayload`, :class:`BitmaskPayload`),
  each knowing its own wire size and whether it can be reduced element-wise;
* **stages** (:mod:`repro.compression.codec.stages`) — composable
  encode/decode operators (:class:`TopK`, :class:`DGCSelect`,
  :class:`Ternarize`, :class:`Half`, :class:`MaskCompact`, ...);
* **pipelines** (:mod:`repro.compression.codec.pipeline`) — ordered stage
  composition plus the ``"topk0.01+terngrad"`` spec-string syntax used by
  experiment configurations.

The collective layer (:mod:`repro.comm.collectives`) accepts payloads directly
and moves ``payload.nbytes`` of them, so reported communication volumes are
measured from the encoded representation rather than asserted by each
compressor; :mod:`repro.simulation.pricing` prices those bytes into time.
"""

from repro.compression.codec.payloads import (
    BITMASK_BYTES,
    BitmaskPayload,
    DensePayload,
    FP16_BYTES,
    FP32_BYTES,
    HalfPayload,
    INDEX_BYTES,
    SparsePayload,
    TERNARY_BYTES,
    TernaryPayload,
    WirePayload,
    as_payload,
    pack_ternary,
    unpack_ternary,
)
from repro.compression.codec.stages import (
    Codec,
    DGCSelect,
    EncodeContext,
    Half,
    Identity,
    MaskCompact,
    Ternarize,
    TopK,
    batched_top_k_indices,
    ternarize,
    top_k_indices,
)
from repro.compression.codec.pipeline import (
    EF_TOKENS,
    Pipeline,
    as_pipeline,
    parse_codec_spec,
    parse_codec_token,
    parse_compressor_spec,
)

__all__ = [
    "WirePayload",
    "DensePayload",
    "HalfPayload",
    "SparsePayload",
    "TernaryPayload",
    "BitmaskPayload",
    "as_payload",
    "pack_ternary",
    "unpack_ternary",
    "FP32_BYTES",
    "FP16_BYTES",
    "INDEX_BYTES",
    "TERNARY_BYTES",
    "BITMASK_BYTES",
    "Codec",
    "EncodeContext",
    "Identity",
    "Half",
    "TopK",
    "MaskCompact",
    "Ternarize",
    "DGCSelect",
    "top_k_indices",
    "batched_top_k_indices",
    "ternarize",
    "Pipeline",
    "as_pipeline",
    "parse_codec_spec",
    "parse_codec_token",
    "parse_compressor_spec",
    "EF_TOKENS",
]
