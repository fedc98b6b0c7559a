"""Training timeline: a run's append-only log of work and the one fold that prices it.

The driver appends one :class:`LogEntry` of work per iteration, local-SGD
flush, fault that fired, re-join and parameter-server clock reading, and
:meth:`TrainingTimeline.snapshot_epoch` the epoch records.  Every number a run
reports is :meth:`TrainingTimeline.fold`: one pass that prices each entry on
the run's pricing inputs through :mod:`repro.simulation.pricing` and the
:class:`~repro.simulation.engine.SimulationEngine`.  The simulated total is
``compute_time + comm_time - overlap_saved + rejoin_cost_time +
async_wait_time``; with overlap off, no faults and a barrier regime it reduces
bit-identically to the seed ``compute + comm`` model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.simulation import pricing
from repro.simulation.engine import IterationTrace, SimulationEngine
from repro.simulation.pricing import Transfer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.cluster import ClusterSpec

#: Log kinds of an iteration: a synchronous step, a communication-free
#: local-SGD step, a local-SGD step that ended in an averaging round, and one
#: parameter-server update.
ITERATION_KINDS = frozenset({"sync", "local", "average", "ps"})

#: Log kinds :meth:`TrainingTimeline.add_event` appends, each with one value:
#: a fault event that fired (its scheduled time), a re-joining rank's model
#: broadcast (its bytes) and a parameter-server event-clock reading.
EVENT_KINDS = frozenset({"fault", "rejoin", "clock"})


class LogEntry(NamedTuple):
    """One record of a run's log: work, never seconds.

    An iteration (:data:`ITERATION_KINDS`) or a ``"flush"`` (an averaging
    round outside any iteration) sets each bucket's transfers — a
    parameter-server update's are its pull and its push — and ``comm_bytes``.
    Under a fault plan ``ranks`` (the survivors), ``churn`` (per-rank compute
    multipliers) and ``link`` say what it ran over.  A parameter-server update
    sets its worker ``rank`` and ``staleness``; an :data:`EVENT_KINDS` entry
    ``value``.
    """

    kind: str
    buckets: Tuple[Tuple[Transfer, ...], ...] = ()
    comm_bytes: float = 0.0
    ranks: Optional[Tuple[int, ...]] = None
    churn: Optional[Tuple[float, ...]] = None
    link: float = 1.0
    rank: int = -1
    staleness: int = 0
    value: float = 0.0


class Priced(NamedTuple):
    """An entry's slowest-rank compute, transfer seconds and engine trace."""

    compute: float = 0.0
    comm: float = 0.0
    trace: Optional[IterationTrace] = None


@dataclass
class EpochRecord:
    """Snapshot taken at the end of one training epoch, ``position`` log entries in."""

    epoch: int
    position: int
    train_loss: float
    test_accuracy: float


class TrainingTimeline:
    """The ordered log of one training run, its epoch records and its pricing inputs.

    The run's work is its log plus ``iteration_flops`` (one rank's
    forward+backward FLOPs) and ``bucket_fractions`` (when each bucket's
    gradients are ready, as a fraction of the pass); ``cluster`` prices all
    of it — ``per_rank_compute`` is its
    :meth:`~repro.simulation.cluster.ClusterSpec.per_rank_iteration_times`
    of the FLOPs, derived once here — and ``target_accuracy`` prices the
    TTA.  ``weight_sparsity`` is the model's sparsity right after pruning,
    which a pruned run reports.
    """

    def __init__(self, cluster: ClusterSpec, iteration_flops: float, weight_sparsity: float,
                 bucket_fractions: Sequence[float], target_accuracy: Optional[float] = None) -> None:
        self.cluster = cluster
        self.world_size = cluster.world_size
        self.iteration_flops = iteration_flops
        self.weight_sparsity = weight_sparsity
        self.bucket_fractions = bucket_fractions
        self.target_accuracy = target_accuracy
        self.per_rank_compute = cluster.per_rank_iteration_times(iteration_flops)
        self.log: List[LogEntry] = []
        self.epochs: List[EpochRecord] = []
        self._engine = SimulationEngine(overlap=cluster.overlap)
        self._priced: List[Priced] = []
        self._cost_models: Dict[Tuple[Optional[Tuple[int, ...]], float], Any] = {}
        # Where the fold stopped: the entries it aggregated, its running sums
        # after them and the time of each epoch record it passed.
        self._folded = 0
        self._sums: Tuple = (0.0,) * 10 + (0,) * 7 + (False,)
        self._times: List[float] = []

    # ------------------------------------------------------------------ #
    def add_iteration(self, buckets=(), comm_bytes: float = 0.0, *, kind: str = "sync", **work) -> None:
        """Append one iteration of ``kind`` that moved ``buckets`` (each
        bucket's events: anything with ``op`` and ``payload_bytes``)."""
        if kind not in ITERATION_KINDS:
            raise ValueError(f"unknown iteration kind {kind!r}")
        self._append(kind, buckets, comm_bytes, **work)

    def add_sync_round(self, buckets, comm_bytes: float = 0.0, **work) -> None:
        """Append one averaging collective that is not tied to an iteration.

        Local SGD flushes a partially filled window at the epoch boundary so
        evaluation sees the averaged model; that collective costs time and
        bytes but does not advance the iteration count.
        """
        self._append("flush", buckets, comm_bytes, **work)

    def add_event(self, kind: str, value: float, **work) -> None:
        """Append one :data:`EVENT_KINDS` entry with its value."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self._append(kind, value=value, **work)

    def _append(self, kind, buckets=(), comm_bytes=0.0, *, ranks=None, churn=None, link=1.0,
                rank=-1, staleness=0, value=0.0) -> None:
        """The one place an entry is built: each bucket's events kept as
        :class:`Transfer` records and every count non-negative."""
        if comm_bytes < 0 or staleness < 0 or value < 0:
            raise ValueError(f"{kind}: bytes, staleness and values must be non-negative")
        buckets = tuple(tuple(Transfer(e.op, e.payload_bytes) for e in bucket) for bucket in buckets)
        ranks = None if ranks is None else tuple(ranks)
        churn = None if churn is None else tuple(churn)
        self.log.append(LogEntry(kind, buckets, comm_bytes, ranks, churn, link, rank, staleness, value))

    def snapshot_epoch(self, epoch: int, train_loss: float, test_accuracy: float) -> EpochRecord:
        record = EpochRecord(epoch, len(self.log), train_loss, test_accuracy)
        self.epochs.append(record)
        return record

    # ------------------------------------------------------------------ #
    def priced(self) -> List[Priced]:
        """Each log entry's :class:`Priced`: the fold's pricing pass.  The log
        only grows, so a call prices only the entries appended since the last."""
        priced = self._priced
        for entry in self.log[len(priced):]:
            priced.append(self._price(entry))
        return priced

    def _price(self, entry: LogEntry) -> Priced:
        kind = entry.kind
        if kind == "fault" or kind == "clock":
            return Priced()
        key = (entry.ranks, entry.link)
        if key not in self._cost_models:  # one model per membership and link factor
            self._cost_models[key] = self.cluster.cost_model_for(*key)
        cost_model = self._cost_models[key]
        if kind == "rejoin":
            return Priced(comm=pricing.op_time(cost_model, "broadcast", entry.value))
        comm, per_bucket = pricing.bucket_times(cost_model, entry.buckets)
        if kind == "flush":
            return Priced(comm=comm)
        if kind == "ps":
            return Priced(self.per_rank_compute[entry.rank], comm)
        compute = self.per_rank_compute
        if entry.churn is not None:
            compute = [compute[rank] * entry.churn[rank] for rank in entry.ranks]
        if entry.buckets:
            trace = self._engine.run_iteration(compute, self.bucket_fractions, per_bucket)
        else:
            trace = self._engine.run_local_iteration(compute)
        return Priced(trace.compute_span, comm, trace)

    def _aggregate(self) -> float:
        """The fold's one pass: add the entries appended since the last call,
        with their prices, to the running sums; returns the simulated total.

        The log only grows, so each entry is aggregated once, in append order.
        Floats are added with ``+=`` in the order they were produced, never
        with ``sum()``, which compensates float sums from Python 3.12 on.  An
        epoch record's time is the total after the entries before its
        position; records are taken at the log's end, so the pass reaches
        each record's position after it was taken.  A ``"clock"`` entry pins the total to the parameter-server
        event clock: overlapping updates make the clock shorter than the busy
        sum so far, staleness blocking makes it longer, and the difference
        becomes ``overlap_saved`` or ``async_wait_time``.
        """
        (compute, comm, comm_bytes, overlap, straggler, wall, rejoin, downtime, async_wait,
         staleness_sum, iterations, degraded, fault_events, sync_rounds, local_steps,
         ps_updates, staleness_max, traced) = self._sums
        world_size = self.world_size
        epochs, times = self.epochs, self._times
        start = self._folded
        priced = self.priced()
        for position, (entry, price) in enumerate(zip(self.log[start:], priced[start:]), start):
            while len(times) < len(epochs) and epochs[len(times)].position == position:
                times.append(compute + comm - overlap + rejoin + async_wait)
            kind = entry.kind
            if kind in ITERATION_KINDS:
                compute += price.compute
                comm += price.comm
                comm_bytes += entry.comm_bytes
                trace = price.trace
                if trace is not None:
                    traced = True
                    overlap += trace.overlap_saved
                    straggler += trace.straggler_slack
                    wall += trace.wall_time
                    if entry.ranks is not None and len(entry.ranks) < world_size:
                        degraded += 1
                        downtime += (world_size - len(entry.ranks)) * trace.wall_time
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
                comm += price.comm
                comm_bytes += entry.comm_bytes
                sync_rounds += 1
            elif kind == "fault":
                fault_events += 1
            elif kind == "rejoin":
                rejoin += price.comm
            else:  # "clock"
                busy = compute + comm + rejoin
                overlap = max(0.0, busy - entry.value)
                async_wait = max(0.0, entry.value - busy)
        self._folded = len(priced)
        self._sums = (compute, comm, comm_bytes, overlap, straggler, wall, rejoin, downtime,
                      async_wait, staleness_sum, iterations, degraded, fault_events, sync_rounds,
                      local_steps, ps_updates, staleness_max, traced)
        return compute + comm - overlap + rejoin + async_wait

    def fold(self) -> Dict[str, Any]:
        """Every number the run reports, keyed by ``ExperimentResult`` field:
        :meth:`_aggregate`'s sums.  Without a trace on the log the critical
        path is the total."""
        total = self._aggregate()
        (compute, comm, comm_bytes, overlap, straggler, wall, rejoin, downtime, async_wait,
         staleness_sum, iterations, degraded, fault_events, sync_rounds, local_steps,
         ps_updates, staleness_max, traced) = self._sums
        world_size = self.world_size
        epochs = self.epochs

        # Goodput: the fraction of the cluster's rank-seconds that went into
        # training rather than being lost to dead ranks or re-join syncs.
        goodput = 1.0
        if total > 0.0 and world_size > 0:
            capacity = total * world_size
            goodput = max(0.0, 1.0 - (downtime + rejoin * world_size) / capacity)

        # Records after the last entry are at the total.
        times = self._times + [total] * (len(epochs) - len(self._times))
        accuracy_trace = [(time, r.test_accuracy) for time, r in zip(times, epochs)]
        target = self.target_accuracy
        tta = None
        if target is not None:
            tta = next((time for time, accuracy in accuracy_trace if accuracy >= target), None)
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
            "accuracy_trace": accuracy_trace,
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

    @property
    def total_time(self) -> float:
        """The simulated clock now: what the fault cursor and the tracer read."""
        return self._aggregate()
