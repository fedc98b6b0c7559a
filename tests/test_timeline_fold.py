"""The timeline's fold ≡ the accumulators it replaced, bit for bit.

``TrainingTimeline`` keeps only an append-only log of work and its epoch
records, and every number a run reports is one fold over them that prices
each entry.  The oracle is the accumulator timeline the fold replaced
(:class:`AccumulatorTimeline`, kept here verbatim apart from its epoch
record): each real run's log is replayed through its mutators with each
entry's priced values from the fold's one pricing pass
(:meth:`TrainingTimeline.priced`), and at *every* prefix of the log every
accumulator-backed quantity must equal the fold's — same type, same bits.
The epoch records are replayed at the log positions where the run took them,
which are the positions they record.

Cells: the eleven golden cells (``localsgd-h4`` flushes a partial window every
epoch, ``async-ps`` is ``ps:2``), crash/re-join, link-degradation and churn
fault plans and a local-SGD run under a crash plan.

An AST guard keeps it that way: no module under ``src/repro`` but
``timeline.py`` assigns to an attribute of a timeline.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro import golden
from repro.simulation import MethodSpec, TrainingTimeline
from repro.simulation.engine import IterationTrace
from repro.simulation.experiment import train_distributed
from repro.simulation.timeline import ITERATION_KINDS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
TOPK = MethodSpec(name="topk-0.01", compressor="topk-0.01")


# --------------------------------------------------------------------------- #
# The oracle: the accumulator timeline, as it was
# --------------------------------------------------------------------------- #
@dataclass
class AccumulatorEpochRecord:
    epoch: int
    simulated_time: float
    train_loss: float
    test_accuracy: float
    comm_time: float
    compute_time: float
    comm_bytes_per_worker: float
    overlap_saved: float = 0.0
    straggler_time: float = 0.0


class AccumulatorTimeline:
    def __init__(self) -> None:
        self.compute_time = 0.0
        self.comm_time = 0.0
        self.comm_bytes_per_worker = 0.0
        self.overlap_saved = 0.0
        self.straggler_time = 0.0
        self.iterations = 0
        self.epochs: List[AccumulatorEpochRecord] = []
        self.traces: List[IterationTrace] = []
        self.rejoin_cost_time = 0.0
        self.downtime_rank_seconds = 0.0
        self.degraded_iterations = 0
        self.fault_events = 0
        self.sync_rounds = 0
        self.local_steps = 0
        self.ps_updates = 0
        self.staleness_sum = 0.0
        self.staleness_max = 0
        self.async_wait_time = 0.0

    @property
    def total_time(self) -> float:
        return (
            self.compute_time
            + self.comm_time
            - self.overlap_saved
            + self.rejoin_cost_time
            + self.async_wait_time
        )

    def goodput_fraction(self, world_size: int) -> float:
        total = self.total_time
        if total <= 0.0 or world_size <= 0:
            return 1.0
        capacity = total * world_size
        lost = self.downtime_rank_seconds + self.rejoin_cost_time * world_size
        return max(0.0, 1.0 - lost / capacity)

    def add_rejoin_cost(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("rejoin cost must be non-negative")
        self.rejoin_cost_time += seconds

    @property
    def overlap_fraction(self) -> float:
        return self.overlap_saved / self.comm_time if self.comm_time > 0 else 0.0

    def critical_path_time(self) -> float:
        if not self.traces:
            return self.total_time
        return float(sum(trace.wall_time for trace in self.traces))

    def add_iteration(
        self,
        compute_seconds: float,
        comm_seconds: float,
        comm_bytes: float = 0.0,
        trace: Optional[IterationTrace] = None,
    ) -> None:
        if compute_seconds < 0 or comm_seconds < 0:
            raise ValueError("iteration times must be non-negative")
        self.compute_time += compute_seconds
        self.comm_time += comm_seconds
        self.comm_bytes_per_worker += comm_bytes
        if trace is not None:
            self.overlap_saved += trace.overlap_saved
            self.straggler_time += trace.straggler_slack
            self.traces.append(trace)
        self.iterations += 1

    def add_sync_round(self, comm_seconds: float, comm_bytes: float = 0.0) -> None:
        if comm_seconds < 0 or comm_bytes < 0:
            raise ValueError("sync round cost must be non-negative")
        self.comm_time += comm_seconds
        self.comm_bytes_per_worker += comm_bytes
        self.sync_rounds += 1

    def record_staleness(self, staleness: int) -> None:
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        self.ps_updates += 1
        self.staleness_sum += staleness
        if staleness > self.staleness_max:
            self.staleness_max = staleness

    @property
    def mean_staleness(self) -> float:
        return self.staleness_sum / self.ps_updates if self.ps_updates else 0.0

    def reconcile_async_total(self, final_time: float) -> None:
        if final_time < 0:
            raise ValueError("final time must be non-negative")
        busy = self.compute_time + self.comm_time + self.rejoin_cost_time
        self.overlap_saved = max(0.0, busy - final_time)
        self.async_wait_time = max(0.0, final_time - busy)

    def note_degraded_iteration(self, dead_ranks: int, wall_seconds: float) -> None:
        if dead_ranks > 0:
            self.degraded_iterations += 1
            self.downtime_rank_seconds += dead_ranks * wall_seconds

    def snapshot_epoch(
        self, epoch: int, train_loss: float, test_accuracy: float
    ) -> AccumulatorEpochRecord:
        record = AccumulatorEpochRecord(
            epoch=epoch,
            simulated_time=self.total_time,
            train_loss=train_loss,
            test_accuracy=test_accuracy,
            comm_time=self.comm_time,
            compute_time=self.compute_time,
            comm_bytes_per_worker=self.comm_bytes_per_worker,
            overlap_saved=self.overlap_saved,
            straggler_time=self.straggler_time,
        )
        self.epochs.append(record)
        return record

    def accuracy_trace(self) -> List[tuple]:
        return [(record.simulated_time, record.test_accuracy) for record in self.epochs]

    def time_to_accuracy(self, target_accuracy: float) -> Optional[float]:
        for record in self.epochs:
            if record.test_accuracy >= target_accuracy:
                return record.simulated_time
        return None

    def best_accuracy(self) -> float:
        return max((record.test_accuracy for record in self.epochs), default=0.0)

    def final_accuracy(self) -> float:
        return self.epochs[-1].test_accuracy if self.epochs else 0.0


def _replay(entry, price, world_size: int, old: AccumulatorTimeline) -> None:
    """Drive the oracle's mutators (and the driver's former direct writes) for
    one entry and its price."""
    kind = entry.kind
    if kind in ITERATION_KINDS:
        if kind == "ps":
            old.record_staleness(entry.staleness)
        old.add_iteration(price.compute, price.comm, entry.comm_bytes, trace=price.trace)
        if price.trace is not None:
            dead = 0 if entry.ranks is None else world_size - len(entry.ranks)
            old.note_degraded_iteration(dead, price.trace.wall_time)
        if kind == "local":
            old.local_steps += 1
        elif kind == "average":
            old.sync_rounds += 1
    elif kind == "flush":
        old.add_sync_round(price.comm, entry.comm_bytes)
    elif kind == "fault":
        old.fault_events += 1
    elif kind == "rejoin":
        old.add_rejoin_cost(price.comm)
    else:
        assert kind == "clock", kind
        old.reconcile_async_total(entry.value)


def _accumulated(old: AccumulatorTimeline, world_size: int, target: Optional[float]) -> dict:
    """The oracle's numbers under the fold's (``ExperimentResult``) names."""
    tta = old.time_to_accuracy(target) if target is not None else None
    return {
        "epochs_run": len(old.epochs),
        "iterations_run": old.iterations,
        "simulated_time": old.total_time,
        "compute_time": old.compute_time,
        "comm_time": old.comm_time,
        "comm_bytes_per_worker": old.comm_bytes_per_worker,
        "final_accuracy": old.final_accuracy(),
        "best_accuracy": old.best_accuracy(),
        "tta": tta,
        "accuracy_trace": old.accuracy_trace(),
        "loss_trace": [record.train_loss for record in old.epochs],
        "reached_target": tta is not None,
        "overlap_fraction": old.overlap_fraction,
        "critical_path_time": old.critical_path_time(),
        "straggler_time": old.straggler_time,
        "fault_events": old.fault_events,
        "degraded_iterations": old.degraded_iterations,
        "downtime_rank_seconds": old.downtime_rank_seconds,
        "rejoin_cost_time": old.rejoin_cost_time,
        "goodput_fraction": old.goodput_fraction(world_size),
        "sync_rounds": old.sync_rounds,
        "local_steps": old.local_steps,
        "ps_updates": old.ps_updates,
        "staleness_mean": old.mean_staleness,
        "staleness_max": old.staleness_max,
    }


def _assert_bitwise(got: dict, want: dict, where: str) -> None:
    assert set(got) == set(want), where
    for key, value in want.items():
        # repr tells 3 from 3.0 and -0.0 from 0.0; the type check, int from bool.
        assert type(got[key]) is type(value), f"{where}: {key}"
        assert repr(got[key]) == repr(value), f"{where}: {key}"


# --------------------------------------------------------------------------- #
# Running a cell with its epoch positions
# --------------------------------------------------------------------------- #
def _train(config, method, monkeypatch, **kwargs):
    """Train one cell; returns the run and the log length at each epoch snapshot."""
    marks: List[int] = []
    original = TrainingTimeline.snapshot_epoch

    def snapshot(self, epoch, train_loss, test_accuracy):
        marks.append(len(self.log))
        return original(self, epoch, train_loss, test_accuracy)

    with monkeypatch.context() as patch:
        patch.setattr(TrainingTimeline, "snapshot_epoch", snapshot)
        run = train_distributed(config, method, **kwargs)
    return run, marks


def _assert_fold_replays(run, marks: List[int]) -> None:
    timeline = run.timeline
    world_size, target = timeline.world_size, timeline.target_accuracy
    assert marks == [record.position for record in timeline.epochs]
    priced = timeline.priced()
    assert len(priced) == len(timeline.log)
    old = AccumulatorTimeline()
    prefix = TrainingTimeline(
        timeline.cluster, timeline.iteration_flops, timeline.weight_sparsity,
        timeline.bucket_fractions, target,
    )
    snapshots = 0
    for position in range(len(timeline.log) + 1):
        while snapshots < len(marks) and marks[snapshots] == position:
            record = timeline.epochs[snapshots]
            old.snapshot_epoch(record.epoch, record.train_loss, record.test_accuracy)
            prefix.epochs.append(record)
            snapshots += 1
        _assert_bitwise(
            prefix.fold(), _accumulated(old, world_size, target), f"log[:{position}]"
        )
        if position < len(timeline.log):
            entry = timeline.log[position]
            _replay(entry, priced[position], world_size, old)
            prefix.log.append(entry)
    assert snapshots == len(marks)
    result = run.result()
    _assert_bitwise(
        {key: getattr(result, key) for key in prefix.fold()},
        _accumulated(old, world_size, target),
        "result",
    )


# --------------------------------------------------------------------------- #
# Cells
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", list(golden.GOLDEN_METHODS))
def test_golden_cell_fold_equals_the_accumulators(name, monkeypatch):
    method = golden.GOLDEN_METHODS[name]
    run, marks = _train(golden.golden_config_for(name), method, monkeypatch)
    _assert_fold_replays(run, marks)
    kinds = {entry.kind for entry in run.timeline.log}
    if name == "localsgd-h4":
        # Two iterations per epoch never fill a window of four: every epoch flushes.
        assert kinds == {"local", "flush"}
    elif name == "async-ps":
        assert kinds == {"ps", "clock"}
    else:
        assert kinds == {"sync"}


def _faulted(faults: str, **overrides):
    cluster = dataclasses.replace(golden.GOLDEN_CONFIG.cluster, faults=faults)
    return dataclasses.replace(golden.GOLDEN_CONFIG, cluster=cluster, **overrides)


FAULT_PLANS = {
    "crash-rejoin": "crash:1@0.0005,rejoin:1@0.003",
    "link": "link:0.5@0.001-0.004",
    "churn": "churn:0.5:3.0:7",
}


@pytest.mark.parametrize("plan", list(FAULT_PLANS))
def test_fault_plan_fold_equals_the_accumulators(plan, monkeypatch):
    run, marks = _train(_faulted(FAULT_PLANS[plan]), TOPK, monkeypatch)
    _assert_fold_replays(run, marks)
    result = run.result()
    if plan == "crash-rejoin":
        assert result.fault_events == 2
        assert result.degraded_iterations > 0
        assert result.rejoin_cost_time > 0.0
    elif plan == "link":
        assert result.fault_events == 1
    else:
        assert result.straggler_time > 0.0


def test_local_sgd_under_a_crash_plan_fold_equals_the_accumulators(monkeypatch):
    # Three iterations per epoch under a window of two: a local step, an
    # averaging round and a flushed local step per epoch.
    method = dataclasses.replace(TOPK, sync_schedule="localsgd:2:delta")
    config = _faulted(FAULT_PLANS["crash-rejoin"], dataset_samples=100)
    run, marks = _train(config, method, monkeypatch)
    _assert_fold_replays(run, marks)
    assert {entry.kind for entry in run.timeline.log} == {
        "local", "average", "flush", "fault", "rejoin"
    }
    assert run.result().degraded_iterations > 0


def test_a_target_is_read_off_the_replayed_epochs(monkeypatch):
    baseline = train_distributed(golden.GOLDEN_CONFIG, TOPK).result()
    config = dataclasses.replace(golden.GOLDEN_CONFIG, target_accuracy=baseline.best_accuracy)
    run, marks = _train(config, TOPK, monkeypatch)
    _assert_fold_replays(run, marks)
    assert run.result().reached_target


class _CountingList(list):
    """A list that counts the items read out of it by slicing or iterating."""

    reads = 0

    def __getitem__(self, index):
        items = super().__getitem__(index)
        if isinstance(index, slice):
            self.reads += len(items)
        return items

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_a_faulty_run_aggregates_each_log_entry_once(monkeypatch):
    # The fault cursor reads the simulated clock before every iteration, and
    # the tracer around it; each read runs the fold's pass, which resumes
    # where the last one stopped.
    timelines, folds = [], []
    init, aggregate = TrainingTimeline.__init__, TrainingTimeline._aggregate

    def counting_init(self, *args):
        init(self, *args)
        self._priced = _CountingList()
        timelines.append(self)

    def counting_aggregate(self):
        folds.append(len(self.log))
        return aggregate(self)

    monkeypatch.setattr(TrainingTimeline, "__init__", counting_init)
    monkeypatch.setattr(TrainingTimeline, "_aggregate", counting_aggregate)
    plan = f"{FAULT_PLANS['crash-rejoin']},{FAULT_PLANS['churn']}"
    run = train_distributed(_faulted(plan, dataset_samples=100, epochs=6), TOPK)
    (timeline,) = timelines
    assert {"sync", "fault", "rejoin"} <= {entry.kind for entry in timeline.log}
    # Folding from the start every time would read the log at each length
    # a fold saw, several times over.
    assert sum(folds) > 5 * len(timeline.log)
    result = run.result()
    assert timeline._priced.reads == len(timeline.log)
    # Folding again reads nothing and reports the same numbers.
    assert run.result() == result
    assert timeline._priced.reads == len(timeline.log)


# --------------------------------------------------------------------------- #
# Guard: the log is written only by the timeline's own methods
# --------------------------------------------------------------------------- #
def _names_a_timeline(node: ast.AST) -> bool:
    """``timeline`` or ``<anything>.timeline``."""
    return (isinstance(node, ast.Name) and node.id == "timeline") or (
        isinstance(node, ast.Attribute) and node.attr == "timeline"
    )


def _timeline_attribute_writes(tree: ast.AST) -> List[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and _names_a_timeline(sub.value):
                    lines.append(node.lineno)
    return lines


def test_the_guard_sees_a_direct_write():
    tree = ast.parse("run.timeline.local_steps += 1\ntimeline.fault_events += 2\nrun.timeline = t\n")
    assert _timeline_attribute_writes(tree) == [1, 2]


def test_no_module_but_the_timeline_writes_a_timeline_attribute():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "timeline.py":
            continue
        for line in _timeline_attribute_writes(ast.parse(path.read_text(encoding="utf-8"))):
            offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert offenders == []
