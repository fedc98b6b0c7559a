"""Configuration-driven experiment driver.

Every benchmark in this repository is a thin wrapper around
:func:`run_experiment`: it builds the dataset, model, cluster and compression
method described by an :class:`ExperimentConfig` / :class:`MethodSpec` pair,
runs real distributed (simulated-time) training and returns an
:class:`ExperimentResult` containing the accuracy-versus-time trace, the TTA
and the communication accounting — the quantities plotted in Figs. 3, 5 and 6
and tabulated in Table 1.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.compression.base import CodecCompressor, Compressor
from repro.compression.registry import build_compressor
from repro.data import (
    DataLoader,
    DistributedSampler,
    SyntheticImageClassification,
    make_dataset,
    train_test_split,
)
from repro.ddp import DistributedDataParallel
from repro.ddp.bucket import DEFAULT_BUCKET_CAP_BYTES, GradBucket
from repro.nn import SGD
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.obs.instrument import emit_ps_update, emit_simulated_iteration
from repro.obs.tracer import SIM_SCHEDULE_TID, TRACER
from repro.pruning import PruningMask, apply_gse, grasp_prune, magnitude_prune
from repro.simulation.cluster import ClusterSpec
from repro.simulation.engine import EventHeap, LinkChannel, SimEvent, SimulationEngine
from repro.simulation.regimes import (
    ReplicaSet,
    SyncSchedule,
    TrainingCheckpoint,
    parse_sync_schedule,
)
from repro.simulation.spec import (
    PAPER_METHODS,
    ExperimentConfig,
    ExperimentResult,
    MethodSpec,
)
from repro.simulation.timeline import TrainingTimeline
from repro.tensorlib import (
    Tensor,
    default_dtype,
    functional as F,
    get_default_dtype,
    no_grad,
)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def evaluate_accuracy(model: Module, loader: DataLoader) -> float:
    """Top-1 accuracy of ``model`` over a data loader, in eval mode; the caller's mode is restored."""
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(images))
            predictions = logits.data.argmax(axis=-1)
            correct += int((predictions == labels).sum())
            total += len(labels)
    model.train(was_training)
    return correct / total if total else 0.0


def _pretrain(model: Module, loader: DataLoader, iterations: int, lr: float) -> None:
    """Brief single-worker warm-up so magnitude/GraSP scores are informative.

    Mirrors the paper's setup of starting from a (pre-)trained model before
    pruning (Fig. 1): a handful of SGD steps on the generic data is enough to
    differentiate weight magnitudes for the mini models.
    """
    if iterations <= 0:
        return
    if len(loader) == 0:
        raise ValueError(
            f"cannot pre-train for {iterations} iterations: the loader yields no batches "
            f"({len(loader.dataset)} samples, batch_size={loader.batch_size}, "
            f"drop_last={loader.drop_last})"
        )
    optimizer = SGD(model.parameters(), lr=lr)
    done = 0
    while done < iterations:
        for images, labels in loader:
            model.zero_grad()
            loss = F.cross_entropy(model(Tensor(images)), labels)
            loss.backward()
            optimizer.step()
            done += 1
            if done >= iterations:
                break


def _prune_model(
    model: Module,
    method: MethodSpec,
    sample_batch: Tuple[np.ndarray, np.ndarray],
) -> Optional[PruningMask]:
    """Apply the method's pruning step and return the mask (None if dense)."""
    if method.pruning_ratio <= 0.0:
        return None
    if method.pruning_method == "grasp":
        return grasp_prune(model, sample_batch, F.cross_entropy, method.pruning_ratio)
    return magnitude_prune(model, method.pruning_ratio)


def _weight_sparsity(model: Module) -> float:
    total = sum(p.size for p in model.parameters())
    zeros = sum(int(np.sum(p.data == 0.0)) for p in model.parameters())
    return zeros / total if total else 0.0


class _WeightSparsityCache:
    """Memoised :func:`_weight_sparsity`, invalidated by the mask version.

    With a pruning mask in force the zero pattern of the weights is pinned —
    GSE masks every gradient and ``apply_to_weights`` re-zeroes after every
    optimiser step — so the O(parameters) sparsity scan only needs to re-run
    when the mask itself changes (:attr:`PruningMask.version`).  Without a
    mask the weights drift freely and every query scans, exactly as before.
    """

    def __init__(self) -> None:
        self._version: Optional[int] = None
        self._value: Optional[float] = None

    def value(self, model: Module, mask: Optional[PruningMask]) -> float:
        if mask is None:
            return _weight_sparsity(model)
        version = mask.version
        if self._value is None or version != self._version:
            self._version = version
            self._value = _weight_sparsity(model)
        return self._value


# --------------------------------------------------------------------------- #
# Core training loop
# --------------------------------------------------------------------------- #
@dataclass
class _Run:
    """What every regime shares: the run's objects and its epoch end.

    Built once by :func:`train_distributed`.  The timeline is always read
    through the run, so restoring a checkpoint swaps it in one place.
    """

    model: Module
    test_loader: DataLoader
    method: MethodSpec
    cluster: ClusterSpec
    epochs: int
    mask: Optional[PruningMask]
    target_accuracy: Optional[float]
    stop_at_target: bool
    max_iterations_per_epoch: Optional[int]
    compressor: Compressor
    ddp: DistributedDataParallel
    optimizer: SGD
    timeline: TrainingTimeline
    per_rank_compute: List[float]
    rank_loaders: List[DataLoader]
    reached_target: bool = False

    @property
    def world_size(self) -> int:
        return self.cluster.world_size

    @property
    def model_wire_bytes(self) -> float:
        """Bytes of one full parameter transfer (fp32 wire format)."""
        return float(sum(p.size for p in self.model.parameters()) * 4)

    def end_epoch(self, epoch: int, losses: List[float]) -> bool:
        """Evaluate, record the epoch and test the target; True means stop."""
        accuracy = evaluate_accuracy(self.model, self.test_loader)
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        self.timeline.snapshot_epoch(epoch, mean_loss, accuracy)
        if self.target_accuracy is not None and accuracy >= self.target_accuracy:
            self.reached_target = True
            return self.stop_at_target
        return False

    def outcome(self) -> Tuple[TrainingTimeline, DistributedDataParallel, Compressor, bool]:
        """What :func:`train_distributed` returns."""
        return self.timeline, self.ddp, self.compressor, self.reached_target


def _collective_cost(bucket_events) -> Tuple[float, float, List[float]]:
    """``(seconds, bytes per worker, per-bucket seconds)`` of one collective.

    Flat sums over the events in issue order — the same accumulation order
    (and therefore the same floats) as the drained group log.
    """
    comm_seconds = float(sum(e.time_seconds for per_bucket in bucket_events for e in per_bucket))
    comm_bytes = float(sum(e.bytes_per_worker for per_bucket in bucket_events for e in per_bucket))
    per_bucket_seconds = [
        float(sum(e.time_seconds for e in per_bucket)) for per_bucket in bucket_events
    ]
    return comm_seconds, comm_bytes, per_bucket_seconds


class _FaultState:
    """Per-run fault-plan interpreter of the stepped loop (sync and local SGD).

    An empty plan keeps :attr:`faulty` False and :meth:`advance` is a no-op
    returning ``(None, None)``, so healthy runs take exactly the historical
    code path (golden traces stay bit-identical).
    """

    def __init__(self, run: _Run) -> None:
        self.run = run
        self.plan = run.cluster.fault_plan()
        self.world_size = run.world_size
        self.faulty = not self.plan.is_empty
        self.cursor = -1.0
        self.active = list(range(self.world_size))
        self.link = 1.0

    def _set_membership(self, active: List[int], link: float) -> None:
        """Point the DDP wrapper at ``active`` over a link scaled by ``link``."""
        ddp = self.run.ddp
        if len(active) == self.world_size and link == 1.0:
            ddp.set_active_ranks(None)
        else:
            degraded_model = self.run.cluster.cost_model_for(len(active), link)
            ddp.set_active_ranks(active, ProcessGroup(len(active), degraded_model))
        self.active, self.link = active, link

    def restore(self, cursor: float, active: List[int], link: float) -> None:
        """Resume onto a checkpoint's cursor and membership.

        The elastic seam is re-applied, not replayed: the restored compressor
        already carries the resized residuals.
        """
        self.cursor = cursor
        self._set_membership(active, link)

    def advance(self, now: float, global_iteration: int, on_rejoin=None):
        """Interpret the plan up to simulated time ``now``.

        Events scheduled up to "now" have fired, so the next iteration runs
        over the surviving membership with the current link factor.  Returns
        ``(active_set, churn)`` for the iteration — ``(None, None)`` when the
        plan is empty.  ``on_rejoin`` (if given) is called with the list of
        ranks that re-joined, after their broadcast cost has been charged —
        the local-SGD step uses it to refresh the returning replica.
        """
        if not self.faulty:
            return None, None
        plan = self.plan
        timeline = self.run.timeline
        fired = plan.events_between(self.cursor, now)
        self.cursor = now
        active = plan.active_ranks(self.world_size, now)
        link = plan.link_factor(now)
        if fired:
            timeline.fault_events += len(fired)
            if TRACER.enabled:
                for event in fired:
                    TRACER.instant(
                        f"fault/{event.kind}", cat="fault", clock="sim",
                        ts=event.at, tid=SIM_SCHEDULE_TID,
                        rank=event.rank, factor=event.factor,
                    )
        if active != self.active or link != self.link:
            if active != self.active:
                self.run.compressor.resize_world(self.active, active, plan.residual_policy)
            self._set_membership(active, link)
            # A re-joining rank pulls the current model state (fp32 wire
            # format) before it can participate: charge one broadcast over the
            # new membership per re-join and advance the simulated clock.
            model_wire_bytes = self.run.model_wire_bytes
            rejoined = []
            for event in fired:
                if event.kind != "rejoin" or event.rank not in active:
                    continue
                cost = self.run.cluster.cost_model_for(len(active), link).broadcast_time(
                    model_wire_bytes
                )
                timeline.add_rejoin_cost(cost)
                rejoined.append(event.rank)
                if TRACER.enabled:
                    TRACER.sim_span(
                        "fault/rejoin-sync", "fault", ts=now, dur=cost,
                        tid=SIM_SCHEDULE_TID, rank=event.rank,
                        bytes=model_wire_bytes,
                    )
            if rejoined and on_rejoin is not None:
                on_rejoin(rejoined)
        return set(self.active), plan.churn_multipliers(self.world_size, global_iteration)


def train_distributed(
    model: Module,
    train_dataset,
    test_loader: DataLoader,
    method: MethodSpec,
    cluster: ClusterSpec,
    epochs: int,
    batch_size: int,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
    mask: Optional[PruningMask] = None,
    target_accuracy: Optional[float] = None,
    stop_at_target: bool = False,
    max_iterations_per_epoch: Optional[int] = None,
    seed: int = 0,
    bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES,
    sparsity_cache: Optional["_WeightSparsityCache"] = None,
    checkpoint_at: Optional[int] = None,
    checkpoint_box: Optional[List[TrainingCheckpoint]] = None,
    resume_from: Optional[TrainingCheckpoint] = None,
) -> Tuple[TrainingTimeline, DistributedDataParallel, Compressor, bool]:
    """Run distributed training with modeled time under the method's regime.

    The method's ``sync_schedule`` selects the regime: synchronous
    data-parallel (the default — every iteration is scheduled by the
    event-driven :class:`~repro.simulation.engine.SimulationEngine`, and with
    ``cluster.overlap`` off the schedule degenerates to the seed
    ``compute + comm`` sum bit-identically), local SGD with periodic
    (optionally delta-compressed) averaging — both one barrier-per-iteration
    loop (:func:`_train_stepped`) driving a regime step — or the
    stale-gradient async parameter server, an event loop of its own.
    ``localsgd:1`` takes the synchronous step — averaging after every step
    *is* synchronous training — which the regime-parity tests pin
    bit-identically.

    On the host the synchronous step evaluates all ranks in one world-batched
    forward/backward whenever the per-rank batches stack and the world is not
    degraded, and rank by rank otherwise (ragged tail batches, dead ranks);
    float64 losses, gradients and traces are bit-identical either way, and
    modeled time — which measures the *simulated* cluster — never depends on
    it.  Local-SGD windows always loop (diverged replicas cannot share one
    world-batched pass).

    ``checkpoint_at``/``checkpoint_box`` capture a
    :class:`~repro.simulation.regimes.TrainingCheckpoint` just before global
    iteration ``checkpoint_at`` executes (appended to the box; the run then
    continues normally); ``resume_from`` restores one and continues
    bit-identically to the uninterrupted run.  Synchronous schedules only.

    Returns the timeline (accuracy/time trace), the DDP wrapper, the
    compressor (whose statistics record bytes on the wire) and whether the
    target accuracy was reached at any epoch.
    """
    schedule = parse_sync_schedule(method.sync_schedule)
    world_size = cluster.world_size
    cluster.fault_plan().validate_for_regime(schedule.regime)
    if (checkpoint_at is not None or resume_from is not None) and not schedule.is_synchronous:
        raise ValueError(
            "checkpoint/restore is only supported on the synchronous path "
            f"(sync or localsgd:1 schedules), got {method.sync_schedule!r}"
        )
    if schedule.regime == "ps" and (mask is not None or method.gse):
        raise ValueError(
            "async parameter-server mode does not support pruning/GSE methods: "
            "the mask lifecycle assumes a synchronous view of the parameters"
        )
    process_group = cluster.process_group()
    compressor = method.build_compressor(seed=seed)
    if resume_from is not None:
        # The compressor's residual/momentum state is part of the checkpoint;
        # hand the DDP wrapper the restored instance from the start.  Deep-
        # copied so one checkpoint can seed several resumes.
        compressor = copy.deepcopy(resume_from.compressor)
    encodes_per_rank = schedule.regime == "ps" or (schedule.delta and not schedule.is_synchronous)
    if encodes_per_rank and not isinstance(compressor, CodecCompressor):
        raise ValueError(
            "async parameter-server pushes (sized from the codec driver's wire-byte record) "
            "and localsgd delta mode are only defined for a codec-pipeline compressor; got "
            f"{type(compressor).__name__} for {method.compressor!r} under schedule "
            f"{method.sync_schedule!r}"
        )
    ddp = DistributedDataParallel(
        model,
        world_size=world_size,
        process_group=process_group,
        bucket_cap_bytes=bucket_cap_bytes,
        comm_hook=compressor,
    )
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    compute_model = cluster.compute_model()
    engine = SimulationEngine(overlap=cluster.overlap)
    if TRACER.enabled:
        # One simulated-cluster track group per training run, so sweeps
        # never overlay two schedules on the same Perfetto tracks.
        TRACER.new_sim_process(f"{method.name} world={world_size}")

    input_shape = train_dataset.input_shape
    sparsity_cache = sparsity_cache or _WeightSparsityCache()
    weight_sparsity = sparsity_cache.value(model, mask)
    per_rank_compute = cluster.per_rank_iteration_times(
        model, input_shape, batch_size, weight_sparsity=weight_sparsity
    )
    bucket_fractions = compute_model.bucket_completion_fractions(
        model, input_shape, ddp.buckets
    )

    # One loader per rank over disjoint shards.
    rank_loaders = [
        DataLoader(
            train_dataset,
            batch_size=batch_size,
            sampler=DistributedSampler(len(train_dataset), world_size, rank, seed=seed),
        )
        for rank in range(world_size)
    ]

    run = _Run(
        model=model,
        test_loader=test_loader,
        method=method,
        cluster=cluster,
        epochs=epochs,
        mask=mask,
        target_accuracy=target_accuracy,
        stop_at_target=stop_at_target,
        max_iterations_per_epoch=max_iterations_per_epoch,
        compressor=compressor,
        ddp=ddp,
        optimizer=optimizer,
        timeline=TrainingTimeline(),
        per_rank_compute=per_rank_compute,
        rank_loaders=rank_loaders,
    )
    if schedule.regime == "ps":
        return _train_async_ps(run, schedule, seed)
    if schedule.is_synchronous:
        step = _SyncStep(run)
    else:
        step = _LocalSGDStep(run, schedule, lr, momentum, weight_decay)
    return _train_stepped(
        run, step, engine, bucket_fractions, checkpoint_at, checkpoint_box, resume_from
    )


def _train_stepped(
    run: _Run,
    step,
    engine: SimulationEngine,
    bucket_fractions: List[float],
    checkpoint_at: Optional[int],
    checkpoint_box: Optional[List[TrainingCheckpoint]],
    resume_from: Optional[TrainingCheckpoint],
) -> Tuple[TrainingTimeline, DistributedDataParallel, Compressor, bool]:
    """The barrier-per-iteration loop shared by the sync and local-SGD regimes.

    Owns what the regimes have in common — epochs and loaders, checkpoint
    capture/resume, the fault cursor, engine scheduling, timeline booking,
    tracer emission and the epoch end.  What an iteration *does* is the
    regime ``step``'s business (:class:`_SyncStep`, :class:`_LocalSGDStep`):
    ``step(batches, active_set, epoch, iteration)`` trains one iteration and
    returns ``(per_rank_losses, bucket_events)`` — ``None`` events mean a
    communication-free local step; ``flush(epoch, active)`` runs before the
    epoch-end evaluation; ``on_rejoin`` (or ``None``) hears of re-joined ranks.
    """
    ddp = run.ddp
    world_size = run.world_size
    max_iterations_per_epoch = run.max_iterations_per_epoch
    faults = _FaultState(run)
    global_iteration = 0
    start_epoch = 0
    if resume_from is not None:
        ck = resume_from
        ddp.restore_parameters(ck.params)
        run.optimizer.load_state_arrays(ck.velocities)
        run.timeline = copy.deepcopy(ck.timeline)
        faults.restore(ck.fault_cursor, list(ck.active_ranks), ck.link_factor)
        ddp.iteration = ck.hook_iteration
        global_iteration = ck.global_iteration
        run.reached_target = ck.reached_target
        start_epoch = ck.epoch
        # The modeled per-rank times were computed from the *initial* weights
        # (weight sparsity drifts during training on unmasked models); replay
        # the captured values so resumed timing is bit-identical.
        run.per_rank_compute = list(ck.per_rank_compute)
        bucket_fractions = list(ck.bucket_fractions)
    timeline = run.timeline
    per_rank_compute = run.per_rank_compute
    captured = checkpoint_at is None or checkpoint_box is None
    for epoch in range(start_epoch, run.epochs):
        for loader in run.rank_loaders:
            loader.set_epoch(epoch)
        iterators = [iter(loader) for loader in run.rank_loaders]
        epoch_losses: List[float] = []
        iteration = 0
        if resume_from is not None and epoch == start_epoch:
            # Fast-forward the deterministic samplers to the captured
            # position; the consumed batches were already trained on.
            for _ in range(resume_from.iteration_in_epoch):
                for it in iterators:
                    next(it)
            iteration = resume_from.iteration_in_epoch
            epoch_losses = list(resume_from.epoch_losses)
        while True:
            if max_iterations_per_epoch is not None and iteration >= max_iterations_per_epoch:
                break
            if not captured and global_iteration == checkpoint_at:
                checkpoint_box.append(
                    TrainingCheckpoint(
                        params=ddp.snapshot_parameters(),
                        velocities=run.optimizer.state_arrays(),
                        compressor=copy.deepcopy(run.compressor),
                        timeline=copy.deepcopy(timeline),
                        epoch=epoch,
                        iteration_in_epoch=iteration,
                        global_iteration=global_iteration,
                        epoch_losses=list(epoch_losses),
                        fault_cursor=faults.cursor,
                        active_ranks=list(faults.active),
                        link_factor=faults.link,
                        reached_target=run.reached_target,
                        hook_iteration=ddp.iteration,
                        per_rank_compute=list(per_rank_compute),
                        bucket_fractions=list(bucket_fractions),
                    )
                )
                captured = True
            try:
                batches = [next(it) for it in iterators]
            except StopIteration:
                break

            active_set, churn = faults.advance(
                timeline.total_time, global_iteration, on_rejoin=step.on_rejoin
            )
            per_rank_losses, bucket_events = step.step(batches, active_set, epoch, iteration)

            iteration_compute = per_rank_compute
            if faults.faulty:
                # Survivors only, each scaled by this iteration's churn draw
                # (counter-based, so the draw depends only on the iteration
                # index — never on how the run got here).
                iteration_compute = [
                    per_rank_compute[rank] * churn[rank] for rank in faults.active
                ]
            if bucket_events is None:
                comm_seconds, comm_bytes = 0.0, 0.0
                trace = engine.run_local_iteration(iteration_compute)
            else:
                comm_seconds, comm_bytes, per_bucket_seconds = _collective_cost(bucket_events)
                trace = engine.run_iteration(iteration_compute, bucket_fractions, per_bucket_seconds)
            sim_base = timeline.total_time
            timeline.add_iteration(trace.compute_span, comm_seconds, comm_bytes, trace=trace)
            if faults.faulty:
                timeline.note_degraded_iteration(world_size - len(faults.active), trace.wall_time)
                if TRACER.enabled and len(faults.active) < world_size:
                    TRACER.sim_span(
                        "fault/degraded-world", "fault", ts=sim_base,
                        dur=trace.wall_time, tid=SIM_SCHEDULE_TID,
                        alive=len(faults.active),
                        dead=world_size - len(faults.active),
                    )
            if TRACER.enabled:
                # Simulated-clock tracks: per-rank backward segments, the
                # link channel's per-bucket reduce windows, the iteration
                # critical path.  The increment of the timeline total is
                # exactly trace.wall_time, so iterations tile the sim axis.
                emit_simulated_iteration(
                    TRACER, sim_base, trace,
                    [] if bucket_events is None else bucket_fractions,
                    timeline.iterations - 1,
                )
                TRACER.sim_now = timeline.total_time
            ddp.iteration += 1
            global_iteration += 1
            epoch_losses.append(float(np.mean(per_rank_losses)))
            iteration += 1

        step.flush(epoch, faults.active)
        if run.end_epoch(epoch, epoch_losses):
            break
    return run.outcome()


class _SyncStep:
    """One synchronous data-parallel iteration (the historical code path)."""

    #: Every rank applies the same aggregated gradient to the one shared
    #: model, so a returning rank has nothing of its own to refresh.
    on_rejoin = None

    def __init__(self, run: _Run) -> None:
        self.run = run
        self.use_gse = run.method.gse and run.mask is not None

    def step(self, batches, active_set, epoch: int, iteration: int):
        run = self.run
        ddp, model, mask = run.ddp, run.model, run.mask
        with TRACER.span("train/backward", cat="train", epoch=epoch, iteration=iteration):
            if not ddp.is_degraded and DistributedDataParallel._stackable(batches):
                images = np.stack([batch[0] for batch in batches])
                labels = np.stack([np.asarray(batch[1]) for batch in batches])
                per_rank_losses, grads = ddp.compute_batched_gradients(
                    (images, labels), F.cross_entropy
                )
                if self.use_gse:
                    # keep masks broadcast over the leading world axis:
                    # (world, *shape) * (*shape) multiplies each rank's
                    # slice exactly as the looped path does (arena slots in place).
                    apply_gse(model, mask, grads=grads)
                ddp.stage_world_gradients(grads)
            else:
                per_rank_losses = []
                for rank, batch in enumerate(batches):
                    if active_set is not None and rank not in active_set:
                        # Dead rank: its shard's batch is consumed (data
                        # order stays deterministic) but contributes no
                        # gradient, loss or compute this iteration.
                        continue
                    # copy=False is safe because each rank's gradients are
                    # staged into the arena before the next rank's backward
                    # pass runs (GSE, when active, masks them in the same
                    # window).
                    loss_value, grads = ddp.compute_local_gradients(
                        batch, F.cross_entropy, copy=False
                    )
                    if self.use_gse:
                        apply_gse(model, mask, grads=grads)
                    ddp.stage_rank_gradients(rank, grads)
                    per_rank_losses.append(loss_value)

        with TRACER.span("train/sync", cat="train", epoch=epoch, iteration=iteration):
            aggregated, bucket_events = ddp.synchronize_staged()
        with TRACER.span("train/apply", cat="train", epoch=epoch, iteration=iteration):
            ddp.apply_aggregated_gradients(aggregated)
            run.optimizer.step()
            if mask is not None:
                # Guard against regrowth through momentum / weight decay.
                mask.apply_to_weights(model)
        return per_rank_losses, bucket_events

    def flush(self, epoch: int, active: List[int]) -> None:
        """Nothing to flush: every iteration ends synchronised."""


class _LocalSGDStep:
    """Local SGD: H local optimiser steps per rank between averaging rounds.

    Each rank trains on its own diverged parameter/velocity replica
    (:class:`~repro.simulation.regimes.ReplicaSet`); every ``schedule.period``
    iterations the replicas are reconciled through one collective.  In delta
    mode each rank stages its *model delta* (parameters minus the last synced
    anchor) through the method's codec pipeline — error feedback then carries
    the delta mass the encoding dropped, and fault-driven membership changes
    remap residuals through the same elastic seam as gradients.  Dense mode
    all-reduces the raw fp32 parameters through the step's own lossless
    compressor (the method's is not consulted — FedAvg-style exact averaging).

    The run's shared-model optimiser is unused: local steps go through the
    per-rank replicas' optimisers.  ``timeline.sync_rounds``/``local_steps``
    are booked here, not by the loop: they stay zero on the synchronous path.
    """

    def __init__(
        self, run: _Run, schedule: SyncSchedule, lr: float, momentum: float, weight_decay: float
    ) -> None:
        self.run = run
        self.schedule = schedule
        self.replicas = ReplicaSet(
            run.model, run.world_size, lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        self.anchor = run.ddp.snapshot_parameters()
        self.dense_average = build_compressor("all-reduce")
        self.use_gse = run.method.gse and run.mask is not None
        self.window = 0  # local steps since the last averaging round

    def on_rejoin(self, ranks: List[int]) -> None:
        # A returning rank starts from the last synced state with fresh
        # momentum (its broadcast cost was already charged by the fault
        # interpreter).
        for rank in ranks:
            self.replicas.assign(rank, self.anchor)
            self.replicas.reset_velocity(rank)

    def _sync_round(self, active):
        """Average the active replicas; returns the collective's bucket events."""
        run, replicas, anchor = self.run, self.replicas, self.anchor
        ddp = run.ddp
        if self.schedule.delta:
            for rank in active:
                ddp.stage_rank_gradients(rank, replicas.delta(rank, anchor))
            aggregated, bucket_events = ddp.synchronize_staged()
            new_params = {name: anchor[name] + aggregated[name] for name in anchor}
        else:
            for rank in active:
                ddp.stage_rank_gradients(rank, replicas.params_dict(rank))
            # Dense parameter averaging: the raw fp32 parameters go on the wire.
            new_params, bucket_events = ddp.synchronize_staged(self.dense_average)
        for name, param in run.model.named_parameters():
            param.data = new_params[name]
        if run.mask is not None:
            run.mask.apply_to_weights(run.model)
        self.anchor = ddp.snapshot_parameters()
        replicas.reset_all(self.anchor, active)
        return bucket_events

    def step(self, batches, active_set, epoch: int, iteration: int):
        run, replicas = self.run, self.replicas
        ddp, model, mask = run.ddp, run.model, run.mask
        per_rank_losses: List[float] = []
        with TRACER.span("train/backward", cat="train", epoch=epoch, iteration=iteration):
            for rank, batch in enumerate(batches):
                if active_set is not None and rank not in active_set:
                    # Dead rank: its shard's batch is consumed (data
                    # order stays deterministic) but it takes no step.
                    continue
                replicas.load(rank)
                loss_value, grads = ddp.compute_local_gradients(
                    batch, F.cross_entropy, copy=False
                )
                if self.use_gse:
                    apply_gse(model, mask, grads=grads)
                    ddp.apply_aggregated_gradients(grads)
                replicas.step(rank)
                if mask is not None:
                    mask.apply_to_weights(model)
                replicas.save(rank)
                per_rank_losses.append(loss_value)

        self.window += 1
        if self.window < self.schedule.period:
            run.timeline.local_steps += 1
            return per_rank_losses, None
        # Stage in rank order (the fault interpreter's membership order).
        active = range(run.world_size) if active_set is None else sorted(active_set)
        with TRACER.span(
            "regime/localsgd-sync", cat="regime",
            epoch=epoch, iteration=iteration, window=self.window,
        ):
            bucket_events = self._sync_round(active)
        run.timeline.sync_rounds += 1
        self.window = 0
        return per_rank_losses, bucket_events

    def flush(self, epoch: int, active: List[int]) -> None:
        """Average a partially filled window, so evaluation (and the final
        model) sees the averaged parameters, not one rank's replica."""
        if self.window == 0:
            return
        with TRACER.span(
            "regime/localsgd-flush", cat="regime", epoch=epoch, window=self.window
        ):
            comm_seconds, comm_bytes, _ = _collective_cost(self._sync_round(active))
        self.run.timeline.add_sync_round(comm_seconds, comm_bytes)
        self.window = 0


def _train_async_ps(
    run: _Run, schedule: SyncSchedule, seed: int
) -> Tuple[TrainingTimeline, DistributedDataParallel, Compressor, bool]:
    """Stale-gradient asynchronous parameter server on the event engine.

    A logical PS rank holds the parameters; workers cycle pull → compute →
    push with no barrier, serialised FCFS on the server's access link
    (:class:`~repro.simulation.engine.LinkChannel`).  Gradients are computed
    against the parameters as of the worker's pull and applied whenever the
    push lands — the measured staleness (server updates applied in between)
    is recorded per update.  ``schedule.staleness`` bounds the progress skew:
    a worker may start update ``k`` only while ``k - min_progress <= S``
    (stale synchronous parallel); blocked workers re-enter in rank order as
    laggards apply.

    Each worker pushes through its own compressor instance (independent stage
    state, per-worker error-feedback residuals): one ``aggregate`` call per
    bucket over a one-rank bucket and group, the same driver every other
    regime uses.  Pulls carry the dense fp32 parameters.  Busy compute/comm
    time accumulates per update, and the timeline total is reconciled to the
    event clock at every epoch snapshot (see
    ``TrainingTimeline.reconcile_async_total``).

    With no iteration barrier this is an event loop of its own, not a step of
    :func:`_train_stepped`; it shares the run and :meth:`_Run.end_epoch`.
    """
    compressor, ddp, timeline = run.compressor, run.ddp, run.timeline
    epochs, world_size = run.epochs, run.world_size
    rank_loaders, per_rank_compute = run.rank_loaders, run.per_rank_compute
    staleness_bound = schedule.staleness
    cost_model = run.cluster.cost_model_for(world_size)
    model_wire_bytes = run.model_wire_bytes
    pull_seconds = cost_model.p2p_time(model_wire_bytes)

    iters_per_epoch = min(len(loader) for loader in rank_loaders)
    if run.max_iterations_per_epoch is not None:
        iters_per_epoch = min(iters_per_epoch, run.max_iterations_per_epoch)
    if iters_per_epoch == 0:
        for epoch in range(epochs):
            if run.end_epoch(epoch, []):
                break
        return run.outcome()
    total_per_worker = epochs * iters_per_epoch

    # Per-worker compressors: stage state (low-rank warm starts, stage seeds)
    # and error-feedback residuals must not be shared across workers pushing
    # at different versions.  Worker 0 reuses the dispatcher's instance, and
    # every worker records into its stats: the run's one stats carrier.
    worker_codecs: List[Compressor] = [compressor]
    for _ in range(1, world_size):
        clone = run.method.build_compressor(seed=seed)
        clone.stats = compressor.stats
        worker_codecs.append(clone)
    # A push is a one-rank aggregation.  Its wire time is the p2p transfer
    # booked on the server link below, so the group carries no cost model and
    # its event log is dropped after every push.
    push_group = ProcessGroup(1)

    heap = EventHeap()
    channel = LinkChannel()
    completed = [0] * world_size  # applied updates per worker
    version_at_pull = [0] * world_size
    pending: List[Optional[Dict]] = [None] * world_size
    blocked: set = set()
    applies = 0
    epoch_loss_buckets: List[List[float]] = [[] for _ in range(epochs)]
    worker_epoch = [-1] * world_size
    worker_iters: List[Optional[object]] = [None] * world_size
    snapshots_done = 0
    stop = False

    def batch_for(rank: int, update_index: int):
        epoch = update_index // iters_per_epoch
        if worker_epoch[rank] != epoch:
            rank_loaders[rank].set_epoch(epoch)
            worker_iters[rank] = iter(rank_loaders[rank])
            worker_epoch[rank] = epoch
        return next(worker_iters[rank])

    def admissible(rank: int) -> bool:
        if staleness_bound is None:
            return True
        return completed[rank] - min(completed) <= staleness_bound

    for rank in range(world_size):
        heap.push(SimEvent(time=0.0, kind="ps-request", rank=rank))

    while heap and not stop:
        event = heap.pop()
        now = event.time
        rank = event.rank
        if event.kind == "ps-request":
            if admissible(rank):
                start, end = channel.acquire(now, pull_seconds)
                pending[rank] = {"pull": (start, end)}
                heap.push(SimEvent(time=end, kind="ps-pulled", rank=rank))
            else:
                blocked.add(rank)
        elif event.kind == "ps-pulled":
            # Events are processed in time order, so every apply scheduled
            # before this pull's completion has already landed — the shared
            # model holds exactly the parameters this worker pulls.
            state = pending[rank]
            version_at_pull[rank] = applies
            update_index = completed[rank]
            batch = batch_for(rank, update_index)
            loss_value, grads = ddp.compute_local_gradients(
                batch, F.cross_entropy, copy=False
            )
            wire_before = compressor.stats.wire_bytes
            aggregated: Dict[str, np.ndarray] = {}
            for bucket in ddp.buckets:
                pushed = worker_codecs[rank].aggregate(
                    GradBucket(bucket, [bucket.flatten(grads)]), push_group, iteration=update_index
                )
                aggregated.update(bucket.unflatten(pushed))
            push_group.events.clear()
            # What the driver recorded for this push (wire sizes are multiples
            # of 1/8 byte, so the running sum and this difference are exact).
            payload_bytes = compressor.stats.wire_bytes - wire_before
            compute_seconds = per_rank_compute[rank]
            state.update(
                aggregated=aggregated,
                payload_bytes=payload_bytes,
                loss=loss_value,
                compute=compute_seconds,
                epoch=update_index // iters_per_epoch,
            )
            heap.push(SimEvent(time=now + compute_seconds, kind="ps-push", rank=rank))
        elif event.kind == "ps-push":
            state = pending[rank]
            push_seconds = cost_model.p2p_time(state["payload_bytes"])
            start, end = channel.acquire(now, push_seconds)
            state["push"] = (start, end)
            state["push_seconds"] = push_seconds
            heap.push(SimEvent(time=end, kind="ps-apply", rank=rank))
        elif event.kind == "ps-apply":
            state = pending[rank]
            ddp.apply_aggregated_gradients(state["aggregated"])
            run.optimizer.step()
            staleness = applies - version_at_pull[rank]
            applies += 1
            completed[rank] += 1
            timeline.record_staleness(staleness)
            timeline.add_iteration(
                state["compute"],
                pull_seconds + state["push_seconds"],
                (model_wire_bytes + state["payload_bytes"]) / world_size,
            )
            epoch_loss_buckets[state["epoch"]].append(state["loss"])
            if TRACER.enabled:
                emit_ps_update(
                    TRACER,
                    rank=rank,
                    pull=state["pull"],
                    compute_seconds=state["compute"],
                    push=state["push"],
                    staleness=staleness,
                    update_index=completed[rank] - 1,
                    payload_bytes=state["payload_bytes"],
                    pull_bytes=model_wire_bytes,
                )
                TRACER.sim_now = now
            ddp.iteration += 1
            while (
                snapshots_done < epochs
                and min(completed) >= (snapshots_done + 1) * iters_per_epoch
            ):
                timeline.reconcile_async_total(now)
                # On a stop the in-flight work is discarded.
                stop = run.end_epoch(snapshots_done, epoch_loss_buckets[snapshots_done]) or stop
                snapshots_done += 1
            if not stop and completed[rank] < total_per_worker:
                heap.push(SimEvent(time=now, kind="ps-request", rank=rank))
            # This apply raised min-progress (or freed the channel): re-admit
            # blocked workers in rank order for determinism.
            for other in sorted(blocked):
                if admissible(other):
                    blocked.discard(other)
                    heap.push(SimEvent(time=now, kind="ps-request", rank=other))
        else:  # pragma: no cover - no other kinds are scheduled
            raise RuntimeError(f"unexpected event kind {event.kind!r}")

    return run.outcome()


# --------------------------------------------------------------------------- #
# Config-driven wrapper
# --------------------------------------------------------------------------- #
def run_experiment(
    config: ExperimentConfig, method: MethodSpec, *, _share: Optional[_WorkloadShare] = None
) -> ExperimentResult:
    """Build the workload described by ``config``, train it with ``method``.

    The entire run — dataset materialisation, model construction, training,
    evaluation — executes under ``config.dtype`` (see
    :func:`repro.tensorlib.dtypes.default_dtype`), which is restored on exit
    even when the run raises.

    A call prepares its own dataset, split and pre-trained model and keeps
    nothing afterwards.  ``_share`` belongs to the campaign runner: the cells
    of one :func:`~repro.campaign.runner.run_campaign` hand in one
    :class:`_WorkloadShare`, so cells that agree on every argument of
    :func:`_pretrained_workload` prepare once (see :func:`_prepare_workload`).
    """
    # Reject an unsupported regime x fault-plan cell before any work is done
    # (the method's own regime x pruning check and compressor-name check ran
    # at spec construction), and with one throwaway build the field
    # combinations only the factory rejects (``error_feedback`` on a
    # non-codec compressor, ``quantize`` against ``pactrain-fp32``).
    config.cluster.fault_plan().validate_for_regime(method.schedule().regime)
    method.build_compressor(config.seed)
    with default_dtype(config.dtype):
        with TRACER.span(
            "experiment", cat="experiment",
            model=config.model, method=method.name, world=config.cluster.world_size,
        ):
            return _run_experiment(config, method, _share)


@dataclass(frozen=True)
class _PretrainedWorkload:
    """What :func:`_pretrained_workload` returns: the part of a cell's
    preparation that no :class:`MethodSpec` field and no cluster field reaches."""

    train_set: SyntheticImageClassification
    test_set: SyntheticImageClassification
    #: The batch GraSP scores its pruning on (the pre-training loader's first).
    sample_batch: Tuple[np.ndarray, np.ndarray]
    #: Pre-trained and still dense; carries what :func:`_pretrain` leaves
    #: behind (stale ``.grad``s, BatchNorm running statistics, the advanced
    #: ``Dropout`` generator).
    model: Module

    def arrays(self) -> Iterator[np.ndarray]:
        """Every array the workload holds (what a share sizes and freezes)."""
        yield self.train_set.prototypes  # one array, shared by both subsets
        for dataset in (self.train_set, self.test_set):
            yield dataset.images
            yield dataset.labels
        yield from self.sample_batch
        for param in self.model.parameters():
            yield param.data
            if param.grad is not None:
                yield param.grad
        for _, buffer in self.model.named_buffers():
            yield buffer


def _pretrained_workload(
    dataset: str,
    dataset_samples: int,
    image_size: int,
    noise_std: float,
    seed: int,
    test_fraction: float,
    batch_size: int,
    model: str,
    pretrain_iterations: int,
    lr: float,
    dtype: np.dtype,
) -> _PretrainedWorkload:
    """Materialise the dataset, split it, build the model and pre-train it.

    A function of its eleven arguments and nothing else: the ten
    :class:`ExperimentConfig` fields preparation reads plus the compute dtype
    the run resolved to, re-entered here so no ambient state leaks in.  That
    makes the argument tuple the complete identity of the result — it *is*
    the key a :class:`_WorkloadShare` stores under — so a field that starts to
    influence preparation has to become an argument and cannot go stale in a
    hand-kept key list.  The brief single-worker pre-training is the stand-in
    for the paper's "start from a pre-trained model" (Fig. 1: pretrain, prune,
    then train distributed).
    """
    with default_dtype(dtype):
        full = make_dataset(
            dataset,
            num_samples=dataset_samples,
            image_size=image_size,
            noise_std=noise_std,
            seed=seed,
        )
        train_set, test_set = train_test_split(full, test_fraction=test_fraction, seed=seed)
        network = build_model(model, num_classes=full.num_classes, seed=seed)
        pretrain_loader = DataLoader(train_set, batch_size=batch_size, shuffle=True, seed=seed)
        _pretrain(network, pretrain_loader, pretrain_iterations, lr)
        sample_batch = next(iter(pretrain_loader))
    return _PretrainedWorkload(train_set, test_set, sample_batch, network)


#: Bound on the bytes of pre-trained workloads one :class:`_WorkloadShare`
#: keeps.  A workload is its dataset plus the model's parameters, stale
#: gradients and buffers (0.34 MB for the golden-sized MLP cell; 5.5 / 3.3 /
#: 4.7 / 1.7 MB for the four models of ``examples/campaigns/fig3.json``), so
#: the bound counts bytes, not entries; 128 MB holds the distinct workloads of
#: that grid eight seeds over.
_WORKLOAD_SHARE_MAX_BYTES = 128 << 20


class _WorkloadShare:
    """The pre-trained workloads the cells of one campaign have in common.

    Created by :func:`~repro.campaign.runner.run_campaign` — one for
    in-process execution, one per pool worker — and dropped when the campaign
    returns; nothing is process-global.  Keyed by the argument tuple of
    :func:`_pretrained_workload`.  *Every* distinct workload is kept, not the
    last one (the Fig. 3 grid iterates its zipped ``model`` axis fastest),
    up to :data:`_WORKLOAD_SHARE_MAX_BYTES`: oldest out, and a single workload
    larger than the bound is handed to its cell without being kept.  Kept
    arrays are read-only; a cell trains a copy of the model.
    """

    def __init__(self) -> None:
        #: argument tuple -> (workload, its bytes), oldest first.
        self._kept: Dict[tuple, Tuple[_PretrainedWorkload, int]] = {}

    def workload(self, args: tuple) -> _PretrainedWorkload:
        """``_pretrained_workload(*args)``, computed at most once while kept."""
        kept = self._kept.get(args)
        if kept is not None:
            return kept[0]
        workload = _pretrained_workload(*args)
        nbytes = 0
        for array in workload.arrays():
            array.flags.writeable = False  # shared by every cell that hits
            nbytes += array.nbytes
        if nbytes <= _WORKLOAD_SHARE_MAX_BYTES:
            kept_bytes = sum(size for _, size in self._kept.values())
            while kept_bytes + nbytes > _WORKLOAD_SHARE_MAX_BYTES:
                _, evicted = self._kept.pop(next(iter(self._kept)))
                kept_bytes -= evicted
            self._kept[args] = (workload, nbytes)
        return workload


def _prepare_workload(
    config: ExperimentConfig, method: MethodSpec, share: Optional[_WorkloadShare] = None
) -> Tuple[Module, SyntheticImageClassification, DataLoader, Optional[PruningMask]]:
    """``(model, train_set, test_loader, mask)`` for one cell, deterministically.

    The method-independent part comes from :func:`_pretrained_workload`;
    the cell's own remainder is the method's pruning step and the test
    loader.  Without a ``share`` the workload is built for this cell alone,
    which prunes and trains its model directly.  With one, the workload is
    looked up under (or built and kept for) its argument tuple and the cell
    prunes and trains a deep copy of the shared model — parameters, stale
    gradients, buffers and ``Dropout`` generators included — so a hit is
    bit-identical to building it again.
    """
    args = (
        config.dataset,
        config.dataset_samples,
        config.image_size,
        config.noise_std,
        config.seed,
        config.test_fraction,
        config.batch_size,
        config.model,
        config.pretrain_iterations,
        config.lr,
        get_default_dtype(),
    )
    if share is None:
        workload = _pretrained_workload(*args)
        model = workload.model
    else:
        workload = share.workload(args)
        model = copy.deepcopy(workload.model)
    mask = _prune_model(model, method, workload.sample_batch)
    test_loader = DataLoader(workload.test_set, batch_size=config.batch_size)
    return model, workload.train_set, test_loader, mask


def _run_experiment(
    config: ExperimentConfig, method: MethodSpec, share: Optional[_WorkloadShare]
) -> ExperimentResult:
    model, train_set, test_loader, mask = _prepare_workload(config, method, share)
    sparsity_cache = _WeightSparsityCache()

    timeline, ddp, compressor, reached_target = train_distributed(
        model=model,
        train_dataset=train_set,
        test_loader=test_loader,
        method=method,
        cluster=config.cluster,
        epochs=config.epochs,
        batch_size=config.batch_size,
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        mask=mask,
        target_accuracy=config.target_accuracy,
        stop_at_target=config.stop_at_target,
        max_iterations_per_epoch=config.max_iterations_per_epoch,
        seed=config.seed,
        bucket_cap_bytes=config.bucket_cap_bytes,
        sparsity_cache=sparsity_cache,
    )

    gradient_density = 1.0
    if mask is not None:
        gradient_density = mask.density

    from repro.pactrain.compressor import PacTrainCompressor  # noqa: PLC0415

    extra: Dict[str, float] = {}
    if isinstance(compressor, PacTrainCompressor):
        extra["compact_fraction"] = compressor.compact_fraction
        extra["full_iterations"] = float(compressor.full_iterations)
        extra["compact_iterations"] = float(compressor.compact_iterations)

    return ExperimentResult(
        method=method.name,
        model=config.model,
        dataset=config.dataset,
        bandwidth_mbps=config.cluster.bandwidth_bytes_per_second() * 8 / 1e6,
        world_size=config.cluster.world_size,
        epochs_run=len(timeline.epochs),
        iterations_run=timeline.iterations,
        simulated_time=timeline.total_time,
        compute_time=timeline.compute_time,
        comm_time=timeline.comm_time,
        comm_bytes_per_worker=timeline.comm_bytes_per_worker,
        final_accuracy=timeline.final_accuracy(),
        best_accuracy=timeline.best_accuracy(),
        tta=(
            timeline.time_to_accuracy(config.target_accuracy)
            if config.target_accuracy is not None
            else None
        ),
        target_accuracy=config.target_accuracy,
        accuracy_trace=timeline.accuracy_trace(),
        loss_trace=[record.train_loss for record in timeline.epochs],
        compression_ratio=compressor.stats.compression_ratio,
        weight_sparsity=sparsity_cache.value(model, mask),
        gradient_density=gradient_density,
        reached_target=reached_target,
        overlap_fraction=timeline.overlap_fraction,
        critical_path_time=timeline.critical_path_time(),
        straggler_time=timeline.straggler_time,
        fault_events=timeline.fault_events,
        degraded_iterations=timeline.degraded_iterations,
        downtime_rank_seconds=timeline.downtime_rank_seconds,
        rejoin_cost_time=timeline.rejoin_cost_time,
        goodput_fraction=timeline.goodput_fraction(config.cluster.world_size),
        sync_rounds=timeline.sync_rounds,
        local_steps=timeline.local_steps,
        ps_updates=timeline.ps_updates,
        staleness_mean=timeline.mean_staleness,
        staleness_max=timeline.staleness_max,
        extra=extra,
    )


def run_method_comparison(
    config: ExperimentConfig,
    methods: Optional[Sequence[MethodSpec]] = None,
    jobs: int = 1,
    store=None,
) -> Dict[str, ExperimentResult]:
    """Run the same workload under several methods (defaults to the paper's five).

    The comparison is one campaign over the method axis, executed by the
    :mod:`repro.campaign` runner: ``jobs > 1`` trains the methods in parallel
    worker processes, and an optional :class:`~repro.campaign.store.ResultStore`
    serves unchanged cells from cache.  A failing cell re-raises its error (the
    pre-campaign behaviour of the plain loop this used to be).
    """
    # Imported lazily: repro.campaign builds on this module.
    from repro.campaign import CampaignCell, run_campaign  # noqa: PLC0415

    methods = list(methods) if methods is not None else list(PAPER_METHODS.values())
    cells = [CampaignCell(config=config, method=method) for method in methods]
    report = run_campaign(cells, store=store, jobs=jobs)
    report.raise_failures()
    return {outcome.result.method: outcome.result for outcome in report.outcomes}
