"""Simulated process group.

A :class:`ProcessGroup` binds a world size to a network model and keeps a log
of every collective issued through it.  The DDP simulator and the compressors
call collectives through the group so that the experiment driver can later ask
"how many bytes went over the wire?" and "how much simulated time did gradient
synchronisation take?" — the two quantities behind every figure in the paper.

Collectives accept either raw numpy arrays (charged per ``element_bytes``) or
:class:`~repro.compression.codec.payloads.WirePayload` objects, whose wire
size is derived from the encoded representation (``payload.nbytes``) — the
path every compressor uses, so the byte log is measured, not asserted.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.comm.collectives import (
    Buffers,
    CollectiveEvent,
    all_gather,
    all_reduce,
    broadcast,
    reduce_scatter,
)
from repro.comm.network import NetworkModel


class ProcessGroup:
    """A fixed set of ranks sharing a network model and an event log.

    ``events`` is a *per-step* buffer: the DDP wrapper drains the events each
    bucket's hook issued as part of every synchronisation, so the list stays
    bounded by one iteration's collectives no matter how long the run is.
    Whole-run accounting lives in the ``lifetime_*`` counters, which are
    updated on every append and survive draining.
    """

    def __init__(self, world_size: int, network: Optional[NetworkModel] = None) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.network = network
        self.events: List[CollectiveEvent] = []
        #: Whole-run aggregates (never reset by draining the per-step buffer).
        self.lifetime_events: int = 0
        self.lifetime_time_seconds: float = 0.0
        self.lifetime_bytes_per_worker: float = 0.0

    def _log(self, event: CollectiveEvent) -> None:
        self.events.append(event)
        self.lifetime_events += 1
        self.lifetime_time_seconds += event.time_seconds
        self.lifetime_bytes_per_worker += event.bytes_per_worker

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def all_reduce(
        self,
        buffers: Buffers,
        average: bool = True,
        element_bytes: Optional[float] = None,
    ):
        """Reduce per-rank buffers/payloads; returns the reduced value.

        Raw arrays reduce to a dense array; payloads reduce to a payload of
        the same structure carrying the reduced values.
        """
        self._check_world(buffers)
        result, event = all_reduce(buffers, self.network, average=average, element_bytes=element_bytes)
        self._log(event)
        return result

    def all_gather(
        self,
        buffers: Buffers,
        element_bytes: Optional[float] = None,
    ) -> List:
        self._check_world(buffers)
        gathered, event = all_gather(buffers, self.network, element_bytes=element_bytes)
        self._log(event)
        return gathered

    def broadcast(self, buffer, element_bytes: Optional[float] = None) -> List:
        replicas, event = broadcast(buffer, self.world_size, self.network, element_bytes=element_bytes)
        self._log(event)
        return replicas

    def reduce_scatter(
        self,
        buffers: Sequence[np.ndarray],
        average: bool = False,
        element_bytes: Optional[float] = None,
    ) -> List[np.ndarray]:
        self._check_world(buffers)
        chunks, event = reduce_scatter(buffers, self.network, average=average, element_bytes=element_bytes)
        self._log(event)
        return chunks

    def _check_world(self, buffers: Sequence) -> None:
        if len(buffers) != self.world_size:
            raise ValueError(
                f"expected one buffer per rank ({self.world_size}), got {len(buffers)}"
            )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def total_time(self) -> float:
        """Total modeled communication time across all logged collectives."""
        return float(sum(event.time_seconds for event in self.events))

    @property
    def total_bytes_per_worker(self) -> float:
        """Total bytes each worker put on the wire across all logged collectives."""
        return float(sum(event.bytes_per_worker for event in self.events))

    def pop_events(self) -> List[CollectiveEvent]:
        """Return and clear the event log (one DDP iteration's worth)."""
        events = list(self.events)
        self.events.clear()
        return events
