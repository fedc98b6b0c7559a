"""Compressor names: a name is a codec spec string.

Benchmark configurations refer to compression schemes by the names used in the
paper's figures ("all-reduce", "fp16", "topk-0.1", "topk-0.01", "pactrain").
The built-in names are **data**: :data:`BUILTIN_SPECS` maps each to the spec
string it abbreviates, and :func:`build_compressor` returns the
:class:`~repro.compression.base.CodecCompressor` that spec builds, under the
figure's label.  A name that is not registered is parsed as a spec itself
(``"topk0.01+terngrad"``, ``"ef+topk0.05"``; grammar in
:func:`repro.compression.codec.parse_compressor_spec`).

:func:`register_compressor` is the extension point for what a spec cannot say:
a user's own :class:`~repro.compression.codec.Codec` stage
(``examples/custom_compressor.py``), and PacTrain, whose pipeline the Mask
Tracker picks per bucket — registered here under its three names and imported
lazily, because :mod:`repro.pactrain` builds on this package.
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.compression.base import CodecCompressor
from repro.compression.codec import parse_compressor_spec

CompressorFactory = Callable[..., CodecCompressor]

#: Built-in name -> (the spec string it abbreviates, the compressor's ``.name``
#: in tables and traces).  Top-k carries error feedback in its paper form,
#: hence ``"ef+"``; the identity codec is also registered as ``"none"`` /
#: ``"identity"`` so that ``localsgd:1:delta`` with a lossless codec reads as a
#: first-class method in the regime-parity tests.
BUILTIN_SPECS: Dict[str, Tuple[str, str]] = {
    "allreduce": ("fp32", "allreduce"),
    "all-reduce": ("fp32", "allreduce"),
    "none": ("fp32", "none"),
    "identity": ("fp32", "identity"),
    "fp16": ("fp16", "fp16"),
    "topk": ("ef+topk0.1", "topk-0.1"),
    "topk-0.1": ("ef+topk0.1", "topk-0.1"),
    "topk-0.01": ("ef+topk0.01", "topk-0.01"),
    "terngrad": ("terngrad", "terngrad"),
    "dgc": ("dgc0.01", "dgc-0.01"),
    "dgc-0.01": ("dgc0.01", "dgc-0.01"),
}

#: PacTrain's three names and what each says about ternary quantisation
#: (``None``: the caller's ``quantize`` decides).
PACTRAIN_QUANTIZE: Dict[str, Optional[bool]] = {
    "pactrain": None,
    "pactrain-terngrad": True,
    "pactrain-fp32": False,
}


def _from_spec(spec: str, name: str, seed: Optional[int] = None) -> CodecCompressor:
    """The compressor ``spec`` describes, labelled ``name`` (lower-cased, like a registry key)."""
    try:
        pipeline, error_feedback = parse_compressor_spec(spec, seed=0 if seed is None else seed)
    except KeyError:
        raise KeyError(
            f"unknown compressor {name!r}: not a registered name "
            f"({sorted(COMPRESSOR_REGISTRY)}) and not a codec pipeline spec"
        ) from None
    except ValueError as error:
        raise ValueError(f"invalid codec spec {name!r}: {error}") from error
    return CodecCompressor(pipeline, name=name.lower(), error_feedback=error_feedback)


def _pactrain(name: str, quantize: bool = False, **tracker) -> CodecCompressor:
    """PacTrain under one of its names; the name's suffix and ``quantize`` must agree."""
    from repro.pactrain.compressor import PacTrainCompressor  # noqa: PLC0415

    named = PACTRAIN_QUANTIZE[name]
    if quantize and named is False:
        raise ValueError(
            f"compressor {name!r} names PacTrain without ternary quantisation, "
            "but quantize=True was requested; use 'pactrain-terngrad', or "
            "'pactrain' with quantize=True"
        )
    return PacTrainCompressor(quantize=quantize or bool(named), **tracker)


COMPRESSOR_REGISTRY: Dict[str, CompressorFactory] = {
    **{name: partial(_from_spec, *entry) for name, entry in BUILTIN_SPECS.items()},
    **{name: partial(_pactrain, name) for name in PACTRAIN_QUANTIZE},
}


def register_compressor(name: str, factory: CompressorFactory) -> None:
    """Register a compressor factory under ``name`` (case-insensitive).

    The factory must build a :class:`CodecCompressor` (a subclass may pick its
    pipeline per bucket); :func:`build_compressor` rejects anything else.
    Factories that accept a ``seed`` keyword (or ``**kwargs``) receive the
    per-run seed from :func:`build_compressor`; seedless factories still work
    (their compressors are treated as deterministic).
    """
    COMPRESSOR_REGISTRY[name.lower()] = factory


def check_compressor_name(name: str) -> None:
    """Raise what :func:`build_compressor` would for a name that is neither
    registered nor a codec pipeline spec.

    A dictionary lookup for registered names (a stored campaign checks one per
    cell); only an unregistered name is parsed as a spec.
    """
    key = name.lower()
    if key not in COMPRESSOR_REGISTRY:
        _from_spec(key, name)


def _accepts_seed(factory: CompressorFactory) -> bool:
    """Whether ``factory`` can receive a ``seed`` keyword argument."""
    try:
        parameters = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):  # pragma: no cover - non-introspectable callable
        return False
    return any(
        p.name == "seed" or p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters
    )


def build_compressor(name: str, seed: Optional[int] = None, **kwargs) -> CodecCompressor:
    """Instantiate a compressor by registry name or codec pipeline spec.

    Resolution order: registered names first (so the paper's figure names and
    user registrations win), then ``+``-separated codec specs such as
    ``"topk0.01+terngrad"`` or ``"topk0.05+fp16"``.

    ``seed`` is threaded to whatever randomness the method actually has: it is
    passed to registry factories that accept a ``seed`` keyword and to the
    stochastic stage of codec pipeline specs (ternary rounding);
    deterministic stages ignore it.  ``None`` keeps every factory default
    (seed 0 for the built-in ternary codec).  Other
    keywords go to the factory: PacTrain takes ``quantize`` and its Mask
    Tracker settings, a spec string takes none.

    Raises
    ------
    KeyError
        If the name is neither registered nor a parseable codec spec.
    ValueError
        If the name parses as a codec spec but a stage parameter is invalid
        (e.g. ``"topk2"`` — ratio outside ``(0, 1]``); the error names the
        offending spec.  Also when ``quantize=True`` contradicts
        ``"pactrain-fp32"``.
    TypeError
        If a registered factory builds anything but a :class:`CodecCompressor`.
    """
    key = name.lower()
    factory = COMPRESSOR_REGISTRY.get(key)
    if factory is not None:
        if seed is not None and "seed" not in kwargs and _accepts_seed(factory):
            kwargs["seed"] = seed
        compressor = factory(**kwargs)
        if not isinstance(compressor, CodecCompressor):
            raise TypeError(
                f"the factory registered as {key!r} built a {type(compressor).__name__}, "
                "not a repro.compression.CodecCompressor"
            )
        return compressor
    if kwargs:
        raise TypeError(
            f"codec spec {name!r} does not accept keyword arguments "
            f"({sorted(kwargs)}); encode parameters in the spec itself "
            "(e.g. 'topk0.05') or register a factory under a name"
        )
    return _from_spec(key, name, seed)
