"""Collective communication operations over simulated ranks.

Each collective takes one :class:`~repro.compression.codec.payloads.WirePayload`
per rank (a list indexed by rank), computes the mathematically exact result
and returns it together with a :class:`CollectiveEvent` describing what moved:
which algorithm ran, the per-worker payload it was charged for and how many
bytes each worker put on the wire.  Collectives move bytes; the seconds those
bytes cost are priced in one place, :mod:`repro.simulation.pricing`, against
a :class:`repro.comm.network.CostModel`.

The wire size is **derived from the encoded representation**
(``payload.nbytes``): a sparse payload is charged for its (index, value)
pairs, a ternary payload for two bits per element, and so on.  A raw array is
refused — wrap it as ``DensePayload(values, element_bytes=...)``, which says
what each element costs on the wire — so byte accounting is measured rather
than asserted.

The numerical results are exact (no simulation of per-step partial sums is
needed for correctness), while the byte counts follow the standard ring-based
algorithms — this mirrors how NCCL behaves from the training loop's point of
view: the right answer arrives after a bandwidth/latency dependent delay.
Reductions accumulate rank by rank into one preallocated buffer, so peak
memory stays O(numel) instead of the O(world × numel) of a stack-then-sum.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compression.codec.payloads import WirePayload


@dataclass
class CollectiveEvent:
    """Record of one collective operation for the timeline and statistics."""

    op: str
    bytes_per_worker: float
    #: The per-worker payload the cost model charges ``op`` for (the largest
    #: rank's ``nbytes``; the root's for a broadcast).
    payload_bytes: float
    world_size: int
    payload_elements: int = 0
    metadata: dict = field(default_factory=dict)


def _check_payloads(payloads: Sequence[WirePayload]) -> None:
    """Refuse anything but a non-empty sequence of payloads (raw arrays above all)."""
    if isinstance(payloads, np.ndarray) or not all(hasattr(p, "reducible_with") for p in payloads):
        raise TypeError(
            "collectives carry one WirePayload per rank; wrap a raw array as "
            "DensePayload(values, element_bytes=...)"
        )
    if len(payloads) == 0:
        raise ValueError("collective called with no buffers")


def _copy_payload(payload: WirePayload) -> WirePayload:
    """An independent copy of a payload: its ndarray fields copied, the rest
    (immutable scalars) shared.  What ``copy.deepcopy`` would give, without
    walking every field through the deep-copy machinery."""
    clone = copy.copy(payload)
    for name, value in vars(payload).items():
        if isinstance(value, np.ndarray):
            object.__setattr__(clone, name, value.copy(order="K"))
    return clone


def _reduce(payloads: Sequence[WirePayload], average: bool) -> np.ndarray:
    """Sum (or average) element-wise reducible payloads into one dense buffer."""
    _check_payloads(payloads)
    head = payloads[0]
    for index, payload in enumerate(payloads[1:], start=1):
        if not head.reducible_with(payload):
            raise ValueError(
                f"rank {index} payload ({type(payload).__name__}) is not element-wise "
                f"reducible with rank 0 ({type(head).__name__}); aggregate per-rank "
                "selections with all_gather instead"
            )
    # Lazy generator: only one decoded buffer is live at a time.
    total = accumulate_sum(payload.reduce_values() for payload in payloads)
    if average:
        total /= len(payloads)
    return total


def accumulate_sum(arrays) -> np.ndarray:
    """Sum an iterable of equal-shaped arrays into one compute-dtype buffer.

    Accumulates item by item (accepts a lazy generator), so peak memory stays
    O(numel) regardless of how many ranks contribute.  The accumulator dtype
    follows the first array's floating dtype (float64 for non-float inputs),
    so float32 gradients reduce in float32 while the historical float64 path
    is untouched.  Shared by the reducing collectives and by
    :func:`repro.compression.base.exact_average`.
    """
    from repro.tensorlib.dtypes import float_dtype_of  # noqa: PLC0415

    total: Optional[np.ndarray] = None
    for array in arrays:
        if total is None:
            array = np.asarray(array)
            total = np.zeros(array.shape, dtype=float_dtype_of(array))
        np.add(total, array, out=total, casting="unsafe")
    if total is None:
        raise ValueError("accumulate_sum called with no arrays")
    return total


def _event(op, head, world_size, num_bytes, bytes_per_worker, elements) -> CollectiveEvent:
    """One ``op``'s record, labelled by ``head``'s payload type; a lone rank sends nothing."""
    return CollectiveEvent(
        op=op,
        bytes_per_worker=bytes_per_worker if world_size > 1 else 0.0,
        payload_bytes=num_bytes,
        world_size=world_size,
        payload_elements=int(elements),
        metadata={"payload": type(head).__name__},
    )


def all_reduce(buffers: Sequence[WirePayload], average: bool = True) -> tuple:
    """Sum (or average) element-wise reducible payloads via a modeled ring all-reduce.

    ``average`` divides by the world size (the DDP convention for gradients).
    Returns ``(result, event)``, where ``result`` is a payload of rank 0's
    structure carrying the reduced values.
    """
    total = _reduce(buffers, average)
    world_size = len(buffers)
    num_bytes = max(payload.nbytes for payload in buffers)
    wire = 2.0 * (world_size - 1) / world_size * num_bytes
    event = _event("all_reduce", buffers[0], world_size, num_bytes, wire, buffers[0].transmitted_elements)
    return buffers[0].with_reduced(total), event


def all_gather(buffers: Sequence[WirePayload]) -> tuple:
    """Gather every rank's payload onto every rank.

    Unlike :func:`all_reduce`, payloads may have *different lengths* (as
    happens with per-rank top-k selections); the event charges the
    maximum per-rank payload, matching the padded all-gather used in practice.
    """
    _check_payloads(buffers)
    world_size = len(buffers)
    num_bytes = max(payload.nbytes for payload in buffers)
    elements = max(int(p.transmitted_elements) for p in buffers)
    event = _event("all_gather", buffers[0], world_size, num_bytes, (world_size - 1) * num_bytes, elements)
    # Independent copies: the inputs may hold views into a stage's internal state.
    return [_copy_payload(payload) for payload in buffers], event


def broadcast(buffer: WirePayload, world_size: int) -> tuple:
    """Broadcast a root payload to all ranks (weight/mask sync)."""
    _check_payloads([buffer])
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    num_bytes = buffer.nbytes
    event = _event("broadcast", buffer, world_size, num_bytes, num_bytes, buffer.num_elements)
    # Independent replicas: payload dataclasses are frozen but their ndarray
    # fields are not.
    return [_copy_payload(buffer) for _ in range(world_size)], event


def reduce_scatter(buffers: Sequence[WirePayload], average: bool = False) -> tuple:
    """Reduce payloads across ranks and scatter equal dense chunks back to each rank."""
    total = _reduce(buffers, average)
    world_size = len(buffers)
    chunks: List[np.ndarray] = np.array_split(total.reshape(-1), world_size)
    num_bytes = max(payload.nbytes for payload in buffers)
    wire = (world_size - 1) / world_size * num_bytes
    event = _event("reduce_scatter", buffers[0], world_size, num_bytes, wire, buffers[0].transmitted_elements)
    return chunks, event
