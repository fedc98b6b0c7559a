"""Training timeline: a run's append-only log and the one fold over it.

The driver appends one :class:`LogEntry` per iteration, local-SGD flush,
fault that fired, re-join charged and parameter-server clock reading;
:meth:`TrainingTimeline.snapshot_epoch` adds the epoch records.  Every number
a run reports is :meth:`TrainingTimeline.fold` over the two, keyed by
``ExperimentResult`` field name.  The simulated total is ``compute_time +
comm_time - overlap_saved + rejoin_cost_time + async_wait_time``; with overlap
off, no faults and a barrier regime it reduces bit-identically to the seed
``compute + comm`` model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional

from repro.simulation.engine import IterationTrace

#: Log kinds of an iteration: a synchronous step, a communication-free
#: local-SGD step, a local-SGD step that ended in an averaging round, and one
#: parameter-server update.
ITERATION_KINDS = frozenset({"sync", "local", "average", "ps"})

#: Log kinds :meth:`TrainingTimeline.add_event` appends, each with one value:
#: a fault event that fired (its scheduled time), the broadcast charged to a
#: re-joining rank (seconds) and a parameter-server event-clock reading.
EVENT_KINDS = frozenset({"fault", "rejoin", "clock"})


class LogEntry(NamedTuple):
    """One record of a run's log; ``kind`` says which fields are set.

    An iteration (:data:`ITERATION_KINDS`) sets ``compute`` (the slowest
    rank's: ranks compute in parallel), ``comm``, ``comm_bytes``, ``trace``
    (``None`` on the parameter-server path), ``dead``
    (ranks down during it) and ``staleness`` (parameter-server updates only).
    A ``"flush"`` — an averaging round outside any iteration — sets ``comm``
    and ``comm_bytes``.  An :data:`EVENT_KINDS` entry sets ``value``.
    """

    kind: str
    compute: float = 0.0
    comm: float = 0.0
    comm_bytes: float = 0.0
    trace: Optional[IterationTrace] = None
    dead: int = 0
    staleness: int = 0
    value: float = 0.0


@dataclass
class EpochRecord:
    """Snapshot taken at the end of one training epoch."""

    epoch: int
    simulated_time: float
    train_loss: float
    test_accuracy: float


class TrainingTimeline:
    """The ordered log of one training run, plus its epoch records.

    ``world_size`` prices the goodput fraction and ``target_accuracy`` the
    TTA.  A checkpoint's timeline is a prefix of the uninterrupted run's.
    """

    def __init__(self, world_size: int, target_accuracy: Optional[float] = None) -> None:
        self.world_size = world_size
        self.target_accuracy = target_accuracy
        self.log: List[LogEntry] = []
        self.epochs: List[EpochRecord] = []

    # ------------------------------------------------------------------ #
    def add_iteration(
        self,
        compute_seconds: float,
        comm_seconds: float,
        comm_bytes: float = 0.0,
        trace: Optional[IterationTrace] = None,
        *,
        kind: str = "sync",
        dead: int = 0,
        staleness: int = 0,
    ) -> None:
        """Append one iteration of ``kind`` with ``dead`` ranks down."""
        if compute_seconds < 0 or comm_seconds < 0:
            raise ValueError("iteration times must be non-negative")
        if dead < 0 or staleness < 0:
            raise ValueError("dead ranks and staleness must be non-negative")
        if kind not in ITERATION_KINDS:
            raise ValueError(f"unknown iteration kind {kind!r}")
        self.log.append(
            LogEntry(kind, compute_seconds, comm_seconds, comm_bytes, trace, dead, staleness)
        )

    def add_sync_round(self, comm_seconds: float, comm_bytes: float = 0.0) -> None:
        """Append one averaging collective that is not tied to an iteration.

        Local SGD flushes a partially filled window at the epoch boundary so
        evaluation sees the averaged model; that collective costs time and
        bytes but does not advance the iteration count.
        """
        if comm_seconds < 0 or comm_bytes < 0:
            raise ValueError("sync round cost must be non-negative")
        self.log.append(LogEntry("flush", comm=comm_seconds, comm_bytes=comm_bytes))

    def add_event(self, kind: str, value: float) -> None:
        """Append one :data:`EVENT_KINDS` entry with its non-negative value."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if value < 0:
            raise ValueError(f"{kind} value must be non-negative")
        self.log.append(LogEntry(kind, value=value))

    def snapshot_epoch(self, epoch: int, train_loss: float, test_accuracy: float) -> EpochRecord:
        record = EpochRecord(epoch, self.total_time, train_loss, test_accuracy)
        self.epochs.append(record)
        return record

    # ------------------------------------------------------------------ #
    def fold(self) -> Dict[str, Any]:
        """Every number the run reports, keyed by ``ExperimentResult`` field.

        One pass over the log in append order.  Floats are added with ``+=``
        in the order they were produced, never with ``sum()``, which
        compensates float sums from Python 3.12 on.  A ``"clock"`` entry pins
        the total to the parameter-server event clock: overlapping updates make
        the clock shorter than the busy sum so far, staleness blocking makes
        it longer, and the difference becomes ``overlap_saved`` or
        ``async_wait_time``.  Without a trace on the log the critical path is
        the total.
        """
        compute = comm = comm_bytes = overlap = straggler = wall = 0.0
        rejoin = downtime = async_wait = staleness_sum = 0.0
        iterations = degraded = fault_events = sync_rounds = local_steps = 0
        ps_updates = staleness_max = 0
        traced = False
        for entry in self.log:
            kind = entry.kind
            if kind in ITERATION_KINDS:
                compute += entry.compute
                comm += entry.comm
                comm_bytes += entry.comm_bytes
                trace = entry.trace
                if trace is not None:
                    traced = True
                    overlap += trace.overlap_saved
                    straggler += trace.straggler_slack
                    wall += trace.wall_time
                    if entry.dead > 0:
                        degraded += 1
                        downtime += entry.dead * trace.wall_time
                iterations += 1
                if kind == "local":
                    local_steps += 1
                elif kind == "average":
                    sync_rounds += 1
                elif kind == "ps":
                    ps_updates += 1
                    staleness_sum += entry.staleness
                    if entry.staleness > staleness_max:
                        staleness_max = entry.staleness
            elif kind == "flush":
                comm += entry.comm
                comm_bytes += entry.comm_bytes
                sync_rounds += 1
            elif kind == "fault":
                fault_events += 1
            elif kind == "rejoin":
                rejoin += entry.value
            else:  # "clock"
                busy = compute + comm + rejoin
                overlap = max(0.0, busy - entry.value)
                async_wait = max(0.0, entry.value - busy)
        total = compute + comm - overlap + rejoin + async_wait

        # Goodput: the fraction of the cluster's rank-seconds that went into
        # training rather than being lost to dead ranks or re-join syncs.
        world_size = self.world_size
        goodput = 1.0
        if total > 0.0 and world_size > 0:
            capacity = total * world_size
            goodput = max(0.0, 1.0 - (downtime + rejoin * world_size) / capacity)

        epochs = self.epochs
        target = self.target_accuracy
        tta = None
        if target is not None:
            tta = next((r.simulated_time for r in epochs if r.test_accuracy >= target), None)
        return {
            "epochs_run": len(epochs),
            "iterations_run": iterations,
            "simulated_time": total,
            "compute_time": compute,
            "comm_time": comm,
            "comm_bytes_per_worker": comm_bytes,
            "final_accuracy": epochs[-1].test_accuracy if epochs else 0.0,
            "best_accuracy": max((r.test_accuracy for r in epochs), default=0.0),
            "tta": tta,
            "accuracy_trace": [(r.simulated_time, r.test_accuracy) for r in epochs],
            "loss_trace": [r.train_loss for r in epochs],
            "reached_target": tta is not None,
            "overlap_fraction": overlap / comm if comm > 0 else 0.0,
            # Wall times are np.float64 on local steps and under fault plans.
            "critical_path_time": float(wall) if traced else total,
            "straggler_time": straggler,
            "fault_events": fault_events,
            "degraded_iterations": degraded,
            "downtime_rank_seconds": downtime,
            "rejoin_cost_time": rejoin,
            "goodput_fraction": goodput,
            "sync_rounds": sync_rounds,
            "local_steps": local_steps,
            "ps_updates": ps_updates,
            "staleness_mean": staleness_sum / ps_updates if ps_updates else 0.0,
            "staleness_max": staleness_max,
        }

    # Views of the fold under the names the driver and callers read.
    @property
    def total_time(self) -> float:
        return self.fold()["simulated_time"]

    @property
    def iterations(self) -> int:
        return self.fold()["iterations_run"]

    @property
    def comm_bytes_per_worker(self) -> float:
        return self.fold()["comm_bytes_per_worker"]

    @property
    def fault_events(self) -> int:
        return self.fold()["fault_events"]
