"""Simulation engine: heap, channel, schedules, bucket fractions.

The iteration schedule is a scan over the buckets; :func:`heap_walk_schedule`
keeps the event-heap walk it replaced as the oracle, and every trace field of
the two must be equal (hypothesis over ranks, buckets, fractions and overlap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.ddp import DistributedDataParallel
from repro.ddp.bucket import build_buckets
from repro.nn.models import mlp_tiny, resnet18_mini, vgg19_mini
from repro.simulation import estimate_parameter_flops
from repro.simulation.compute import BACKWARD_FACTOR, bucket_completion_fractions
from repro.simulation.engine import (
    BucketTrace,
    EventHeap,
    IterationTrace,
    LinkChannel,
    SimEvent,
    SimulationEngine,
)

READY = "ready"


class TestEventHeap:
    def test_pops_in_time_order(self):
        heap = EventHeap()
        heap.push(SimEvent(time=2.0, kind=READY, rank=1))
        heap.push(SimEvent(time=1.0, kind=READY, rank=0))
        heap.push(SimEvent(time=3.0, kind=READY, rank=2))
        assert [heap.pop().rank for _ in range(3)] == [0, 1, 2]

    def test_ties_break_by_insertion_order(self):
        heap = EventHeap()
        for rank in range(5):
            heap.push(SimEvent(time=1.0, kind=READY, rank=rank))
        assert [heap.pop().rank for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_len_and_bool(self):
        heap = EventHeap()
        assert not heap and len(heap._heap) == 0
        heap.push(SimEvent(time=0.0, kind=READY, rank=0))
        assert heap and len(heap._heap) == 1

    def test_rejects_negative_time_and_empty_pop(self):
        heap = EventHeap()
        with pytest.raises(ValueError):
            heap.push(SimEvent(time=-1.0, kind=READY, rank=0))
        with pytest.raises(IndexError):
            heap.pop()


class TestLinkChannel:
    def test_serialises_transfers(self):
        channel = LinkChannel()
        assert channel.acquire(0.0, 1.0) == (0.0, 1.0)
        # Ready at 0.5 but the channel is busy until 1.0.
        assert channel.acquire(0.5, 2.0) == (1.0, 3.0)
        # Ready after the channel freed up: starts immediately.
        assert channel.acquire(5.0, 1.0) == (5.0, 6.0)
        assert channel.busy_seconds == pytest.approx(4.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            LinkChannel().acquire(0.0, -1.0)


class TestIterationSchedule:
    def test_no_overlap_equals_serial_sum_exactly(self):
        engine = SimulationEngine(overlap=False)
        trace = engine.run_iteration([0.25, 0.25], [0.4, 0.8, 1.0], [0.1, 0.2, 0.3])
        assert trace.wall_time == 0.25 + (0.1 + 0.2 + 0.3)
        assert trace.overlap_saved == 0.0

    def test_overlap_hides_early_bucket_comm(self):
        engine = SimulationEngine(overlap=True)
        trace = engine.run_iteration([0.1, 0.1], [0.3, 0.7, 1.0], [0.05, 0.02, 0.03])
        # bucket 0 ready at 0.03, done 0.08; bucket 1 ready 0.07 queued to
        # 0.08, done 0.10; bucket 2 ready at 0.10 (backward end), done 0.13.
        assert trace.wall_time == pytest.approx(0.13)
        assert trace.wall_time < trace.compute_span + trace.comm_busy
        assert trace.overlap_saved == pytest.approx(0.07)
        assert trace.comm_busy - trace.overlap_saved == pytest.approx(0.03)
        assert trace.buckets[1].queue_delay == pytest.approx(0.01)

    def test_single_bucket_cannot_overlap(self):
        trace = SimulationEngine(overlap=True).run_iteration([0.1], [1.0], [0.5])
        assert trace.wall_time == pytest.approx(0.6)
        assert trace.overlap_saved == 0.0

    def test_zero_comm_wall_is_compute(self):
        trace = SimulationEngine(overlap=True).run_iteration([0.4, 0.2], [0.5, 1.0], [0.0, 0.0])
        assert trace.wall_time == pytest.approx(0.4)
        assert trace.comm_busy == 0.0

    def test_straggler_gates_bucket_readiness(self):
        trace = SimulationEngine(overlap=True).run_iteration([0.1, 0.3], [0.5, 1.0], [0.05, 0.05])
        assert trace.compute_span == pytest.approx(0.3)
        assert trace.straggler_slack == pytest.approx(0.2)
        # Bucket 0 waits for the straggler's half-done backward: 0.3 * 0.5.
        assert trace.buckets[0].ready_time == pytest.approx(0.15)

    def test_the_slowest_rank_is_the_critical_path(self):
        serial = SimulationEngine(overlap=False).run_iteration([0.1, 0.4, 0.2], [0.5, 1.0], [0.1, 0.2])
        assert serial.compute_span == 0.4
        assert serial.straggler_slack == pytest.approx(0.3)
        assert serial.wall_time == pytest.approx(0.7)
        assert [bucket.ready_time for bucket in serial.buckets] == [0.4, 0.4]
        local = SimulationEngine().run_local_iteration([0.3, 0.1])
        assert (local.compute_span, local.wall_time) == (0.3, 0.3)
        assert local.straggler_slack == pytest.approx(0.2)

    def test_collectives_launch_in_bucket_order(self):
        trace = SimulationEngine(overlap=True).run_iteration(
            [1.0], [0.2, 0.4, 0.6, 1.0], [0.5, 0.1, 0.1, 0.1]
        )
        starts = [bucket.start_time for bucket in trace.buckets]
        assert starts == sorted(starts)
        assert [bucket.index for bucket in trace.buckets] == [0, 1, 2, 3]

    def test_wall_never_below_compute_or_exposed_comm(self):
        trace = SimulationEngine(overlap=True).run_iteration(
            [0.2, 0.25], [0.1, 0.5, 1.0], [0.3, 0.2, 0.1]
        )
        assert trace.wall_time >= trace.compute_span
        assert trace.wall_time >= trace.comm_busy
        assert 0.0 <= trace.overlap_saved <= trace.comm_busy

    def test_validation(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.run_iteration([], [1.0], [0.1])
        with pytest.raises(ValueError):
            engine.run_iteration([0.1], [1.0], [0.1, 0.2])
        with pytest.raises(ValueError):
            engine.run_iteration([-0.1], [1.0], [0.1])
        with pytest.raises(ValueError):
            engine.run_iteration([0.1], [1.0], [-0.1])
        with pytest.raises(ValueError):
            engine.run_iteration([0.1], [0.8, 0.4], [0.1, 0.1])  # not monotone
        with pytest.raises(ValueError):
            engine.run_iteration([0.1], [0.5, 1.5], [0.1, 0.1])  # above 1.0


class TestBucketFractions:
    def test_cumulative_monotone_ending_at_one(self):
        model = resnet18_mini(seed=0)
        buckets = build_buckets(model, bucket_cap_bytes=8 * 1024)
        assert len(buckets) > 1
        fractions = bucket_completion_fractions(model, (3, 8, 8), buckets)
        assert len(fractions) == len(buckets)
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0
        # The first bucket must leave room for overlap: ready strictly before
        # the end of the pass, but no earlier than the forward pass.
        assert 1.0 / BACKWARD_FACTOR <= fractions[0] < 1.0

    def test_single_bucket_is_ready_at_the_end(self):
        model = mlp_tiny(seed=0)
        buckets = build_buckets(model)  # default 25 MiB cap: one bucket
        assert len(buckets) == 1
        fractions = bucket_completion_fractions(model, (3, 8, 8), buckets)
        assert fractions == [1.0]

    def test_empty_bucket_list(self):
        assert bucket_completion_fractions(mlp_tiny(seed=0), (3, 8, 8), []) == []

    def test_parameter_flops_cover_model(self):
        model = vgg19_mini(seed=0)
        shares = estimate_parameter_flops(model, (3, 8, 8))
        names = {name for name, _ in model.named_parameters()}
        assert set(shares) == names
        assert sum(shares.values()) > 0
        assert all(value >= 0 for value in shares.values())

    def test_fractions_align_with_ddp_buckets(self):
        model = vgg19_mini(seed=0)
        ddp = DistributedDataParallel(model, world_size=2, bucket_cap_bytes=16 * 1024)
        fractions = bucket_completion_fractions(model, (3, 8, 8), ddp.buckets)
        assert len(fractions) == len(ddp.buckets)
        assert fractions[-1] == 1.0


@dataclass(frozen=True)
class _Event:
    time: float
    kind: str
    rank: int = -1
    bucket: int = -1


def heap_walk_schedule(compute, fractions, comm_times, overlap):
    """The oracle: the event-heap walk (and serial path) the scan replaced."""
    compute = list(compute)
    compute_span = max(compute)
    straggler_slack = compute_span - min(compute)
    comm_busy = float(sum(comm_times))
    if not overlap:
        traces, clock = [], compute_span
        for index, duration in enumerate(comm_times):
            traces.append(BucketTrace(index, compute_span, clock, clock + duration, duration))
            clock += duration
        return IterationTrace(
            compute, compute_span, comm_busy, compute_span + comm_busy, 0.0, straggler_slack, traces
        )
    heap, channel = EventHeap(), LinkChannel()
    for rank, total in enumerate(compute):
        for index, fraction in enumerate(fractions):
            heap.push(_Event(time=total * fraction, kind="rank_done", rank=rank, bucket=index))
    pending: Dict[int, int] = {index: len(compute) for index in range(len(comm_times))}
    ready_times: Dict[int, float] = {}
    traces: List[BucketTrace] = []
    next_to_launch, wall = 0, compute_span
    while heap:
        event = heap.pop()
        if event.kind == "rank_done":
            pending[event.bucket] -= 1
            if pending[event.bucket] == 0:
                ready_times[event.bucket] = event.time
                heap.push(_Event(time=event.time, kind="bucket_ready", bucket=event.bucket))
        elif event.kind == "bucket_ready":
            while next_to_launch < len(comm_times) and next_to_launch in ready_times:
                index = next_to_launch
                start, end = channel.acquire(ready_times[index], comm_times[index])
                traces.append(BucketTrace(index, ready_times[index], start, end, comm_times[index]))
                heap.push(_Event(time=end, kind="comm_end", bucket=index))
                next_to_launch += 1
        else:
            wall = max(wall, event.time)
    overlap_saved = max(0.0, compute_span + comm_busy - wall)
    return IterationTrace(
        compute, compute_span, comm_busy, wall, overlap_saved, straggler_slack, traces
    )


_times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


class TestScanEqualsTheHeapWalk:
    @given(
        compute=st.lists(_times, min_size=1, max_size=6),
        buckets=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1.0), _times), max_size=6
        ),
        overlap=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_trace_field_is_equal(self, compute, buckets, overlap):
        fractions = sorted(fraction for fraction, _ in buckets)
        if fractions:
            fractions[-1] = 1.0
        comm_times = [duration for _, duration in buckets]
        got = SimulationEngine(overlap=overlap).run_iteration(compute, fractions, comm_times)
        want = heap_walk_schedule(compute, fractions, comm_times, overlap)
        assert got == want
        assert got.buckets == want.buckets
