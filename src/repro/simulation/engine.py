"""Simulation engine: the schedule of one training iteration.

The seed time model summed two scalars per iteration (``compute + comm``),
which cannot express the two effects the paper's testbed is built around:

* DDP's reverse-order gradient bucketing exists precisely so that the
  collective for a *late* bucket (early in reverse order — the classifier
  head) overlaps with the backward computation of *early* layers;
* heterogeneous (straggler) workers make the iteration finish at the slowest
  rank, not at an average.

This module replaces the scalar sum with a schedule:

* per-rank clocks — every rank finishes its backward pass at its own time,
  and a bucket's collective becomes *ready* only when the slowest rank has
  produced that bucket's gradients;
* :class:`LinkChannel` — occupancy of the shared communication channel (one
  in-flight collective at a time, matching NCCL's single comm stream);
* :class:`SimulationEngine` — launches the buckets through the channel in
  index order and emits an :class:`IterationTrace` with the
  compute/comm/overlap/straggler breakdown;
* :class:`EventHeap` — a deterministic min-heap of :class:`SimEvent` objects
  (ties broken by insertion order, so runs are reproducible), the clock of
  the asynchronous parameter server, whose workers share no barrier.

Equivalence guarantee: with ``overlap=False`` the engine reports
``wall_time = compute_span + comm_busy`` where ``comm_busy`` is the flat sum
of the collective times in issue order — bit-identical to the seed model, so
all pre-refactor figures remain valid.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


# --------------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SimEvent:
    """One timestamped occurrence of an event loop (the kinds are the loop's)."""

    time: float
    kind: str
    rank: int = -1


class EventHeap:
    """Min-heap of :class:`SimEvent` with deterministic tie-breaking.

    Events at equal times pop in insertion order (a monotone sequence number
    is part of the heap key), so the schedule — and therefore every reported
    time — is reproducible run to run.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, SimEvent]] = []
        self._seq = 0

    def push(self, event: SimEvent) -> None:
        if event.time < 0:
            raise ValueError("event time must be non-negative")
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._seq += 1

    def pop(self) -> SimEvent:
        if not self._heap:
            raise IndexError("pop from empty event heap")
        return heapq.heappop(self._heap)[2]

    def __bool__(self) -> bool:
        return bool(self._heap)


class LinkChannel:
    """Occupancy of the shared communication channel.

    Collectives serialise: a transfer admitted while the channel is busy
    starts when the channel frees up.  ``acquire`` returns the actual
    ``(start, end)`` interval and advances the channel clock.
    """

    def __init__(self) -> None:
        self.available_at = 0.0
        self.busy_seconds = 0.0

    def acquire(self, ready_time: float, duration: float) -> Tuple[float, float]:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(ready_time, self.available_at)
        end = start + duration
        self.available_at = end
        self.busy_seconds += duration
        return start, end


# --------------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BucketTrace:
    """Timeline of one gradient bucket's collective within an iteration."""

    index: int
    ready_time: float     # slowest rank produced this bucket's gradients
    start_time: float     # collective admitted onto the channel
    end_time: float       # collective completed
    comm_seconds: float   # channel busy time of the bucket's collective(s)

    @property
    def queue_delay(self) -> float:
        """Time the ready bucket waited for the channel."""
        return self.start_time - self.ready_time


@dataclass
class IterationTrace:
    """Compute/comm/overlap/straggler breakdown of one training iteration."""

    per_rank_compute: List[float]
    compute_span: float       # slowest rank's compute (the compute critical path)
    comm_busy: float          # sum of collective busy times (issue order)
    wall_time: float          # iteration end = last event on the critical path
    overlap_saved: float      # (compute_span + comm_busy) - wall_time, >= 0
    straggler_slack: float    # compute_span - fastest rank's compute
    buckets: List[BucketTrace] = field(default_factory=list)

# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
class SimulationEngine:
    """Scheduler for one iteration's compute and collectives.

    Parameters
    ----------
    overlap:
        When ``True``, each bucket's collective is admitted the moment the
        slowest rank has produced that bucket's gradients (real DDP overlap).
        When ``False``, every bucket waits for the full backward pass of
        every rank — reproducing the seed ``compute + comm`` model
        bit-identically.
    """

    def __init__(self, overlap: bool = True) -> None:
        self.overlap = overlap

    def run_local_iteration(self, per_rank_compute: Sequence[float]) -> IterationTrace:
        """Schedule one communication-free iteration (local-SGD inner step).

        Zero buckets is a valid schedule — the wall time is just the slowest
        rank's backward pass — so local steps flow through the same trace
        bookkeeping (straggler slack, per-rank clocks) as synchronised ones.
        """
        return self.run_iteration(per_rank_compute, [], [])

    def run_iteration(
        self,
        per_rank_compute: Sequence[float],
        bucket_fractions: Sequence[float],
        bucket_comm_times: Sequence[float],
    ) -> IterationTrace:
        """Schedule one iteration and return its trace.

        Parameters
        ----------
        per_rank_compute:
            Seconds of forward+backward compute per rank (heterogeneous ranks
            pass different values).
        bucket_fractions:
            Cumulative completion fraction of the pass at which each bucket's
            gradients are ready, in bucket (reverse-parameter) order; the last
            entry must be ``1.0``.  Rank ``r``'s bucket ``b`` is ready at
            ``per_rank_compute[r] * bucket_fractions[b]``.
        bucket_comm_times:
            Channel busy seconds of each bucket's collective(s), same order.
        """
        if len(bucket_fractions) != len(bucket_comm_times):
            raise ValueError("need one completion fraction per bucket")
        if not per_rank_compute:
            raise ValueError("need at least one rank")
        for value in per_rank_compute:
            if value < 0:
                raise ValueError("compute times must be non-negative")
        for value in bucket_comm_times:
            if value < 0:
                raise ValueError("comm times must be non-negative")
        previous = 0.0
        for fraction in bucket_fractions:
            if not previous <= fraction <= 1.0:
                raise ValueError("bucket fractions must be non-decreasing and <= 1.0")
            previous = fraction

        compute = list(per_rank_compute)
        compute_span = max(compute)
        straggler_slack = compute_span - min(compute)
        # Flat float sum in bucket order: with one collective per bucket,
        # bit-identical to the seed's sum over the iteration's events.
        comm_busy = float(sum(bucket_comm_times))

        # Bucket b is ready when the slowest rank has produced it, at
        # max_r fl(c_r * f_b) = fl(compute_span * f_b): rounding is monotone.
        # Fractions are non-decreasing, so buckets become ready in index
        # order and launch through the one channel in that order.  Without
        # overlap every bucket waits for the full backward pass.
        channel = LinkChannel()
        traces: List[BucketTrace] = []
        last_end = compute_span
        for index, (fraction, duration) in enumerate(zip(bucket_fractions, bucket_comm_times)):
            ready = compute_span * fraction if self.overlap else compute_span
            start, last_end = channel.acquire(ready, duration)
            traces.append(
                BucketTrace(
                    index=index,
                    ready_time=ready,
                    start_time=start,
                    end_time=last_end,
                    comm_seconds=duration,
                )
            )
        # The seed model's wall is compute + the flat sum; with overlap the
        # iteration ends when the last collective does (ends are monotone).
        wall_time = max(compute_span, last_end) if self.overlap else compute_span + comm_busy
        return IterationTrace(
            per_rank_compute=compute,
            compute_span=compute_span,
            comm_busy=comm_busy,
            wall_time=wall_time,
            overlap_saved=max(0.0, compute_span + comm_busy - wall_time),
            straggler_slack=straggler_slack,
            buckets=traces,
        )
