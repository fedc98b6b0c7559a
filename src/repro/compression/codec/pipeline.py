"""Codec pipelines: ordered stage composition plus spec-string parsing.

``Pipeline([TopK(0.01), Ternarize()])`` encodes every rank's flat gradient
through every stage left-to-right and decodes the (reduced or gathered)
payload right-to-left back into a dense tensor.
``parse_compressor_spec("topk0.01+terngrad")`` builds the same pipeline (and
the driver's error-feedback flag, set by a leading ``"ef"``) from the
``+``-separated spec strings used by :class:`repro.simulation.spec.MethodSpec`
and the compressor registry.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.compression.codec.payloads import (
    DensePayload,
    SparsePayload,
    WirePayload,
    as_payload,
)
from repro.compression.codec.stages import (
    Codec,
    DGCSelect,
    EncodeContext,
    Half,
    Identity,
    Ternarize,
    TopK,
)


class Pipeline:
    """A left-to-right composition of one or more codec stages.

    ``encode_all`` starts from the raw flat gradients (wrapped into
    :class:`DensePayload` objects); ``decode`` returns the dense
    ``np.ndarray`` the training loop applies.

    A stage that reads the dense gradient (``dense_input``: the selections)
    may only follow stages that hand the :class:`DensePayload` on unchanged
    (``dense_output``: ``Identity``); any other order, and an empty stage
    list, is rejected here, when the pipeline is built, rather than inside the
    first aggregation.
    """

    def __init__(self, stages: Sequence[Codec]) -> None:
        self.stages: List[Codec] = list(stages)
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage ('fp32' passes gradients through)")
        #: The spec string ``parse_compressor_spec`` parses back into these stages.
        self.name = "+".join(stage.name for stage in self.stages)
        transformed_by: Optional[Codec] = None
        for position, stage in enumerate(self.stages, start=1):
            if stage.dense_input and transformed_by is not None:
                raise ValueError(
                    f"pipeline {self.name!r}: stage {stage.name!r} at position "
                    f"{position} reads the dense gradient, which "
                    f"{transformed_by.name!r} before it has already "
                    "transformed; only pass-through stages (fp32) may precede it"
                )
            if transformed_by is None and not stage.dense_output:
                transformed_by = stage

    # ------------------------------------------------------------------ #
    # Aggregate properties
    # ------------------------------------------------------------------ #
    @property
    def allreduce_compatible(self) -> bool:
        return all(stage.allreduce_compatible for stage in self.stages)

    @property
    def lossless(self) -> bool:
        return all(stage.lossless for stage in self.stages)

    # ------------------------------------------------------------------ #
    # Encode / decode
    # ------------------------------------------------------------------ #
    def encode_all(
        self,
        flats: Sequence[Union[np.ndarray, WirePayload]],
        ctx: Optional[EncodeContext] = None,
    ) -> List[WirePayload]:
        """Encode every rank's flat gradient into its wire payload.

        Stages run strictly in order; each stage first sees all ranks' inputs
        (:meth:`Codec.prepare`, for shared scalers/selections), then encodes
        rank by rank.
        """
        if ctx is None:
            ctx = EncodeContext(world_size=len(flats))
        payloads = [as_payload(flat) for flat in flats]
        for stage in self.stages:
            stage.prepare(payloads, ctx)
            payloads = [stage.encode(p, ctx, rank=rank) for rank, p in enumerate(payloads)]
            # The raw bucket matrix describes the *first* stage's inputs only;
            # later stages see transformed payloads and must not reuse it.
            ctx.matrix = None
        return payloads

    def decode_payload(self, payload: WirePayload) -> WirePayload:
        """Undo every stage, leaving a selection sparse.

        Returns one of the two decoded forms — a :class:`DensePayload` or a
        :class:`SparsePayload` — whose ``densify`` / ``subtract_from`` (and a
        selection's ``add_to``) let the caller apply the decoded gradient in
        O(carried coordinates).
        """
        for stage in reversed(self.stages):
            payload = stage.decode(payload)
        if not isinstance(payload, (DensePayload, SparsePayload)):
            raise TypeError(
                f"pipeline {self.name!r} decoded to {type(payload).__name__}, "
                "expected a DensePayload or SparsePayload — a stage is missing "
                "its decode"
            )
        return payload

    def decode(self, payload: WirePayload) -> np.ndarray:
        """Map a payload back to the dense flat gradient it encodes."""
        return self.decode_payload(payload).densify()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Pipeline({self.name!r})"


def as_pipeline(codec: Union[Codec, Sequence[Codec]]) -> Pipeline:
    """Normalise a stage, stage list or pipeline into a :class:`Pipeline`."""
    if isinstance(codec, Pipeline):
        return codec
    if isinstance(codec, Codec):
        return Pipeline([codec])
    return Pipeline(list(codec))


# --------------------------------------------------------------------------- #
# Spec-string parsing
# --------------------------------------------------------------------------- #
#: token -> stage factory; a trailing number (``topk0.01``, ``dgc-0.01``) is
#: parsed as the stage's ratio.  ``seed`` reaches the stochastic stage
#: (ternary rounding); deterministic stages ignore it, so a multi-seed sweep
#: varies exactly the randomness that exists.
_STAGE_FACTORIES: Dict[str, Callable[..., Codec]] = {
    "fp32": lambda ratio=None, seed=0: Identity(),
    "none": lambda ratio=None, seed=0: Identity(),
    "identity": lambda ratio=None, seed=0: Identity(),
    "allreduce": lambda ratio=None, seed=0: Identity(),
    "all-reduce": lambda ratio=None, seed=0: Identity(),
    "fp16": lambda ratio=None, seed=0: Half(),
    "half": lambda ratio=None, seed=0: Half(),
    "topk": lambda ratio=None, seed=0: TopK(ratio if ratio is not None else 0.1),
    "dgc": lambda ratio=None, seed=0: DGCSelect(ratio if ratio is not None else 0.01),
    "terngrad": lambda ratio=None, seed=0: Ternarize(seed=seed),
    "ternary": lambda ratio=None, seed=0: Ternarize(seed=seed),
}

#: Parameterised tokens: a stage name followed by a ratio (``topk0.01``,
#: ``dgc-0.01``).
_PARAM_TOKEN = re.compile(r"^(?P<stage>topk|dgc)-?(?P<ratio>\d*\.?\d+)$")

#: The error-feedback modifier is a property of the aggregation *driver*
#: (:class:`repro.compression.base.CodecCompressor`), not a stage, so it is
#: only legal as the leading token of a spec (``"ef+topk0.01"``).
EF_TOKENS = frozenset({"ef", "error-feedback"})


def _parse_codec_token(token: str, seed: int = 0) -> Codec:
    """Parse one stage token (``"topk0.01"``, ``"fp16"``) into a stage."""
    token = token.strip().lower()
    if token in EF_TOKENS:
        raise KeyError(
            f"{token!r} is the error-feedback modifier, not a codec stage; it must "
            "lead the spec (e.g. 'ef+topk0.01') and is consumed by the compressor "
            "driver"
        )
    factory = _STAGE_FACTORIES.get(token)
    if factory is not None:
        return factory(seed=seed)
    match = _PARAM_TOKEN.match(token)
    if match is None:
        raise KeyError(
            f"unknown codec token {token!r}; expected one of {sorted(_STAGE_FACTORIES)} "
            "optionally suffixed with a ratio (e.g. 'topk0.01')"
        )
    return _STAGE_FACTORIES[match.group("stage")](float(match.group("ratio")), seed=seed)


def _spec_tokens(spec: str) -> List[str]:
    """The ``+``-separated tokens of a spec; an empty one is a grammar error.

    A blank spec stays a ``KeyError`` (it names nothing); ``"topk0.1+"`` or
    ``"topk0.1++fp16"`` name something and then stop making sense, and must
    not silently alias the spec without the stray ``+``.
    """
    if not spec.strip():
        raise KeyError(f"empty codec spec {spec!r}")
    tokens = [token.strip() for token in spec.split("+")]
    for position, token in enumerate(tokens, start=1):
        if not token:
            raise ValueError(
                f"codec spec {spec!r} has an empty token at position {position} "
                "(a leading, trailing or doubled '+')"
            )
    return tokens


def parse_compressor_spec(spec: str, seed: int = 0) -> "tuple[Pipeline, bool]":
    """Parse a ``+``-separated compressor spec into ``(pipeline, error_feedback)``.

    Examples: ``"allreduce"``, ``"fp16"``, ``"topk0.01"``, ``"dgc-0.01"``,
    ``"topk0.01+terngrad"``, ``"ef+topk0.01"``.  One optional leading ``"ef"``
    modifier selects driver-level error feedback around the rest.  ``seed``
    reaches every stochastic stage.  The pipeline is returned unmodified — the
    :class:`~repro.compression.base.CodecCompressor` constructor adapts its
    stages when the flag is set (stage-internal error feedback off,
    self-compensating stages rejected).

    Raises ``KeyError`` for an unknown token or a spec that names no stage,
    and ``ValueError`` for a spec the grammar cannot mean: an empty token, a
    repeated ``"ef"``, or a stage order the :class:`Pipeline` constructor
    rejects.
    """
    tokens = _spec_tokens(spec)
    error_feedback = tokens[0].lower() in EF_TOKENS
    if error_feedback:
        tokens.pop(0)
        if tokens and tokens[0].lower() in EF_TOKENS:
            raise ValueError(
                f"codec spec {spec!r} has a repeated 'ef' modifier at position 2; "
                "error feedback is one property of the driver, not a stage"
            )
    if not tokens:
        raise KeyError(f"codec spec {spec!r} has no stages after the 'ef' modifier")
    return Pipeline([_parse_codec_token(token, seed=seed) for token in tokens]), error_feedback
