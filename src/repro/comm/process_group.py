"""Simulated process group.

A :class:`ProcessGroup` is a world size and a log of every collective issued
through it.  The DDP simulator and the compressors call collectives through
the group so that the experiment driver can later ask "how many bytes went
over the wire, in which collectives?".  The group moves bytes and prices
nothing: :mod:`repro.simulation.pricing` turns the logged events into
simulated seconds.  Bytes and seconds are the two quantities behind every
figure in the paper.

Collectives carry :class:`~repro.compression.codec.payloads.WirePayload`
objects only, whose wire size is derived from the encoded representation
(``payload.nbytes``), so the byte log is measured, not asserted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.comm.collectives import (
    CollectiveEvent,
    _check_payloads,
    all_gather,
    all_reduce,
    broadcast,
    reduce_scatter,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compression.codec.payloads import WirePayload


class ProcessGroup:
    """A fixed set of ranks sharing an event log.

    ``events`` is a *per-step* buffer: the DDP wrapper drains the events each
    bucket's hook issued as part of every synchronisation, so the list stays
    bounded by one iteration's collectives no matter how long the run is.
    Whole-run accounting is the run's record, ``TrainingTimeline.log``.
    """

    def __init__(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.events: List[CollectiveEvent] = []

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def all_reduce(self, buffers: Sequence[WirePayload], average: bool = True) -> WirePayload:
        """Reduce per-rank payloads into a payload of the same structure."""
        self._check_world(buffers)
        result, event = all_reduce(buffers, average=average)
        self.events.append(event)
        return result

    def all_gather(self, buffers: Sequence[WirePayload]) -> List[WirePayload]:
        self._check_world(buffers)
        gathered, event = all_gather(buffers)
        self.events.append(event)
        return gathered

    def broadcast(self, buffer: WirePayload) -> List[WirePayload]:
        replicas, event = broadcast(buffer, self.world_size)
        self.events.append(event)
        return replicas

    def reduce_scatter(self, buffers: Sequence[WirePayload], average: bool = False) -> List[np.ndarray]:
        self._check_world(buffers)
        chunks, event = reduce_scatter(buffers, average=average)
        self.events.append(event)
        return chunks

    def _check_world(self, buffers: Sequence[WirePayload]) -> None:
        if len(buffers) != self.world_size:
            # The collective checks payloads itself; a raw array must be named
            # as such before it is counted as the wrong number of ranks.
            _check_payloads(buffers)
            raise ValueError(
                f"expected one buffer per rank ({self.world_size}), got {len(buffers)}"
            )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def total_bytes_per_worker(self) -> float:
        """Total bytes each worker put on the wire across all logged collectives."""
        return float(sum(event.bytes_per_worker for event in self.events))

    def pop_events(self) -> List[CollectiveEvent]:
        """Return and clear the event log (one DDP iteration's worth)."""
        events = list(self.events)
        self.events.clear()
        return events
