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
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.compression.base import CodecCompressor
from repro.compression.registry import build_compressor
from repro.data import (
    DataLoader,
    DistributedSampler,
    SyntheticImageClassification,
    make_dataset,
    train_test_split,
)
from repro.ddp import DistributedDataParallel, StepResult
from repro.ddp.bucket import GradBucket
from repro.nn import SGD
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.obs.instrument import emit_ps_update, emit_simulated_iteration
from repro.obs.tracer import SIM_SCHEDULE_TID, TRACER
from repro.pruning import PruningMask, apply_gse, grasp_prune, magnitude_prune
from repro.simulation import pricing
from repro.simulation.compute import BACKWARD_FACTOR, bucket_completion_fractions, estimate_model_flops
from repro.simulation.engine import EventHeap, LinkChannel, SimEvent
from repro.simulation.pricing import Transfer
from repro.simulation.regimes import ReplicaSet
from repro.simulation.spec import (
    SGD_LR,
    SGD_MOMENTUM,
    TEST_FRACTION,
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
    return correct / total


def _pretrain(model: Module, loader: DataLoader, iterations: int) -> None:
    """Brief single-worker warm-up so magnitude/GraSP scores are informative.

    Mirrors the paper's setup of starting from a (pre-)trained model before
    pruning (Fig. 1): a handful of SGD steps on the generic data is enough to
    differentiate weight magnitudes for the mini models.
    """
    if iterations <= 0:
        return
    optimizer = SGD(model.parameters(), lr=SGD_LR)
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


# --------------------------------------------------------------------------- #
# Core training loop
# --------------------------------------------------------------------------- #
@dataclass
class _Run:
    """One run: its two specs, the objects built from them and its epoch end.

    Built by :func:`train_distributed`, which returns it.  Everything a spec
    already says is read from ``config`` / ``method``; what the run adds is
    state.  The compressor and the timeline are always read through the run,
    so restoring a checkpoint swaps them in one place; ``checkpoint`` holds
    the one ``checkpoint_at`` captured (``None`` until then).
    """

    config: ExperimentConfig
    method: MethodSpec
    model: Module
    test_loader: DataLoader
    mask: Optional[PruningMask]
    compressor: CodecCompressor
    ddp: DistributedDataParallel
    optimizer: SGD
    timeline: TrainingTimeline
    rank_loaders: List[DataLoader]
    checkpoint: Optional[TrainingCheckpoint] = None

    @property
    def world_size(self) -> int:
        return self.config.cluster.world_size

    @property
    def model_wire_bytes(self) -> float:
        """Bytes of one full parameter transfer (fp32 wire format)."""
        return float(sum(p.size for p in self.model.parameters()) * 4)

    def end_epoch(self, epoch: int, losses: List[float]) -> None:
        """Evaluate and record the epoch (every epoch runs at least one iteration)."""
        accuracy = evaluate_accuracy(self.model, self.test_loader)
        self.timeline.snapshot_epoch(epoch, float(np.mean(losses)), accuracy)

    def result(self) -> ExperimentResult:
        """The :class:`ExperimentResult` this run reports.

        Every number the run recorded is the timeline's fold — whether the
        target was reached included, read off the same epoch records ``tta``
        comes from, so a resumed run reports it from the history its
        checkpoint carried; the rest comes from the specs and the model.
        """
        config = self.config
        return ExperimentResult(
            method=self.method.name,
            model=config.model,
            dataset=config.dataset,
            bandwidth_mbps=config.cluster.bandwidth_bytes_per_second() * 8 / 1e6,
            world_size=config.cluster.world_size,
            target_accuracy=config.target_accuracy,
            compression_ratio=self.compressor.stats.compression_ratio,
            # The timeline's sparsity was measured right after pruning.  A
            # mask pins the zero pattern for the whole run (GSE masks every
            # gradient, ``apply_to_weights`` re-zeroes after every optimiser
            # step), so for a pruned run it is also the final sparsity.
            weight_sparsity=(
                self.timeline.weight_sparsity if self.mask is not None else _weight_sparsity(self.model)
            ),
            gradient_density=1.0 if self.mask is None else self.mask.density,
            extra=self.compressor.result_extra(),
            **self.timeline.fold(),
        )


class _FaultState:
    """Per-run fault-plan interpreter of the stepped loop (sync and local SGD).

    An empty plan keeps :attr:`faulty` False and :meth:`advance` is a no-op
    returning ``None`` that does not read the simulated clock, so healthy
    runs take exactly the historical code path (golden traces stay
    bit-identical).  :attr:`active` and :attr:`link` are the membership and
    link factor the run's work goes over; the timeline prices them.
    """

    def __init__(self, run: _Run) -> None:
        self.run = run
        self.plan = run.config.cluster.fault_plan()
        self.world_size = run.world_size
        self.faulty = not self.plan.is_empty
        self.cursor = -1.0
        self.active = list(range(self.world_size))
        self.link = 1.0

    def set_membership(self, active: List[int], link: float) -> None:
        """Point the DDP wrapper at ``active``, over a link scaled by ``link``."""
        self.run.ddp.set_active_ranks(active)
        self.active, self.link = active, link

    def advance(self, global_iteration: int, on_rejoin=None):
        """Interpret the plan up to the run's simulated time now.

        Events scheduled up to "now" have fired, so the next iteration runs
        over the surviving membership (:attr:`active`, also installed on the
        DDP wrapper) with the current link factor.  Returns the iteration's
        per-rank churn multipliers — ``None`` when the plan is empty.
        ``on_rejoin`` (if given) is called with the list of ranks that
        re-joined, after their broadcast has been logged — the local-SGD step
        uses it to refresh the returning replica.
        """
        if not self.faulty:
            return None
        plan = self.plan
        timeline = self.run.timeline
        now = timeline.total_time
        fired = plan.events_between(self.cursor, now)
        self.cursor = now
        active = plan.active_ranks(self.world_size, now)
        link = plan.link_factor(now)
        for event in fired:
            timeline.add_event("fault", event.at)
            if TRACER.enabled:
                TRACER.instant(
                    f"fault/{event.kind}", cat="fault", clock="sim",
                    ts=event.at, tid=SIM_SCHEDULE_TID,
                    rank=event.rank, factor=event.factor,
                )
        if active != self.active or link != self.link:
            if active != self.active:
                self.run.compressor.resize_world(self.active, active, plan.residual_policy)
            self.set_membership(active, link)
            # A re-joining rank pulls the current model state (fp32 wire
            # format) before it can participate: one broadcast over the new
            # membership per re-join, which advances the simulated clock.
            model_wire_bytes = self.run.model_wire_bytes
            rejoined = []
            for event in fired:
                if event.kind != "rejoin" or event.rank not in active:
                    continue
                timeline.add_event("rejoin", model_wire_bytes, ranks=active, link=link)
                rejoined.append(event.rank)
                if TRACER.enabled:
                    TRACER.sim_span(
                        "fault/rejoin-sync", "fault", ts=now, dur=timeline.priced()[-1].comm,
                        tid=SIM_SCHEDULE_TID, rank=event.rank,
                        bytes=model_wire_bytes,
                    )
            if rejoined and on_rejoin is not None:
                on_rejoin(rejoined)
        return plan.churn_multipliers(self.world_size, global_iteration)


def train_distributed(
    config: ExperimentConfig,
    method: MethodSpec,
    *,
    share: Optional[_WorkloadShare] = None,
    checkpoint_at: Optional[int] = None,
    resume_from: Optional[TrainingCheckpoint] = None,
) -> _Run:
    """Prepare, prune and train the run ``(config, method)`` describes.

    The two specs determine the run: the workload comes from
    :func:`_prepare_workload` (through ``share`` when a campaign hands one in)
    and everything runs under ``config.dtype``.

    The method's ``sync_schedule`` selects the regime: synchronous
    data-parallel (the default — every iteration is scheduled by the
    event-driven :class:`~repro.simulation.engine.SimulationEngine`, and with
    ``cluster.overlap`` off the schedule degenerates to the seed
    ``compute + comm`` sum bit-identically), local SGD with periodic
    (optionally delta-compressed) averaging — both one barrier-per-iteration
    loop (:func:`_train_stepped`) driving a regime step — or the
    stale-gradient async parameter server, an event loop of its own
    (:class:`_ParameterServer`).
    ``localsgd:1`` takes the synchronous step — averaging after every step
    *is* synchronous training — which the regime-parity tests pin
    bit-identically.

    Every gradient is one world-batched forward/backward
    (:meth:`DistributedDataParallel.compute_batched_gradients`): the
    synchronous step, :meth:`DistributedDataParallel.train_step`, runs it over
    the live ranks on broadcast views of the shared weights, healthy or
    degraded, a local-SGD step on the replicas' per-rank stacks, and a
    parameter-server worker as world 1.  Float64 losses, gradients and traces
    are bit-identical to a per-rank loop, and modeled time — which measures
    the *simulated* cluster — never depends on it.

    ``checkpoint_at`` captures the loop's state as a
    :class:`TrainingCheckpoint` just before global iteration ``checkpoint_at``
    (under ``ps``: apply ``checkpoint_at``) executes (``run.checkpoint``; the
    run then continues normally); ``resume_from`` restores one into a run
    built from the same two specs (checked first) and continues
    bit-identically to the uninterrupted run.  Every regime checkpoints.

    Returns the run: its ``timeline`` (accuracy/time trace), ``ddp``
    wrapper, ``compressor`` (whose statistics record bytes on the wire),
    ``model`` and ``mask``; :meth:`_Run.result` is what
    :func:`run_experiment` reports.
    """
    schedule = method.schedule()
    cluster = config.cluster
    # Reject a cell before any work is done: an unsupported regime x fault
    # plan, a resume under other specs, and (by building the compressor first)
    # what only the registry rejects — ``error_feedback`` on PacTrain,
    # ``quantize`` against ``pactrain-fp32``, a registered factory that builds
    # no CodecCompressor.  The method's own regime x pruning check and
    # compressor-name check ran at spec construction.
    cluster.fault_plan().validate_for_regime(schedule.regime)
    if resume_from is not None:
        resume_from.check_specs(config, method)
    world_size = cluster.world_size
    with default_dtype(config.dtype):
        compressor = method.build_compressor(seed=config.seed)
        model, train_set, test_loader, mask = _prepare_workload(config, method, share)
        ddp = DistributedDataParallel(
            model,
            world_size=world_size,
            process_group=cluster.process_group(),
            bucket_cap_bytes=config.bucket_cap_bytes,
            comm_hook=compressor,
        )
        optimizer = SGD(model.parameters(), lr=SGD_LR, momentum=SGD_MOMENTUM)
        if TRACER.enabled:
            # One simulated-cluster track group per training run, so sweeps
            # never overlay two schedules on the same Perfetto tracks.
            TRACER.new_sim_process(f"{method.name} world={world_size}")

        shape = train_set.input_shape
        run = _Run(
            config=config,
            method=method,
            model=model,
            test_loader=test_loader,
            mask=mask,
            compressor=compressor,
            ddp=ddp,
            optimizer=optimizer,
            # The run's compute work (one rank's iteration FLOPs and bucket
            # readiness) and its sparsity after pruning.
            timeline=TrainingTimeline(
                cluster,
                estimate_model_flops(model, shape, config.batch_size) * BACKWARD_FACTOR,
                _weight_sparsity(model),
                bucket_completion_fractions(model, shape, ddp.buckets),
                config.target_accuracy,
            ),
            # One loader per rank over disjoint shards.
            rank_loaders=[
                DataLoader(
                    train_set,
                    batch_size=config.batch_size,
                    sampler=DistributedSampler(len(train_set), world_size, rank, seed=config.seed),
                )
                for rank in range(world_size)
            ],
        )
        if schedule.regime == "ps":
            _ParameterServer(run).train(checkpoint_at, resume_from)
        else:
            step = _SyncStep(run) if schedule.is_synchronous else _LocalSGDStep(run)
            _train_stepped(run, step, checkpoint_at, resume_from)
    return run


def _train_stepped(
    run: _Run,
    step,
    checkpoint_at: Optional[int],
    resume_from: Optional[TrainingCheckpoint],
) -> None:
    """The barrier-per-iteration loop shared by the sync and local-SGD regimes.

    Owns what the regimes have in common — epochs and loaders, checkpoint
    capture/resume, the fault cursor, logging each round's work, tracer
    emission and the epoch end.  What an iteration *does* is the
    regime ``step``'s business (:class:`_SyncStep`, :class:`_LocalSGDStep`):
    ``step(batches, epoch, iteration)`` trains one iteration over the DDP
    wrapper's live membership (the fault cursor keeps it current) and
    returns its :class:`~repro.ddp.StepResult` — ``None`` bucket events mean a
    communication-free local step; ``flush(epoch, active)`` runs before the
    epoch-end evaluation and returns the round it synchronised (or ``None``);
    the loop logs every round's bucket events with the membership, link and
    churn they ran under, and the timeline's fold prices them;
    ``on_rejoin`` (or ``None``) hears of re-joined ranks;
    ``state()`` / ``load_state(state)`` hand what the step mutates to
    :func:`_capture` / :func:`_restore`.

    ``ddp.iteration`` — the number the hook sees — is the global iteration
    counter: it starts at 0 and the loop advances it once per iteration.
    """
    ddp = run.ddp
    max_iterations_per_epoch = run.config.max_iterations_per_epoch
    faults = _FaultState(run)
    start_epoch, start_iteration, start_losses = 0, 0, []
    if resume_from is not None:
        start_epoch, start_iteration, start_losses = _restore(run, step, faults, resume_from)
    timeline = run.timeline
    for epoch in range(start_epoch, run.config.epochs):
        for loader in run.rank_loaders:
            loader.set_epoch(epoch)
        iterators = [iter(loader) for loader in run.rank_loaders]
        iteration, epoch_losses = (start_iteration, start_losses) if epoch == start_epoch else (0, [])
        # Fast-forward the deterministic samplers to a resumed position; the
        # consumed batches were already trained on.
        for _ in range(iteration):
            for it in iterators:
                next(it)
        while True:
            if max_iterations_per_epoch is not None and iteration >= max_iterations_per_epoch:
                break
            if ddp.iteration == checkpoint_at and run.checkpoint is None:
                run.checkpoint = _capture(run, step, faults, epoch, iteration, epoch_losses)
            try:
                batches = [next(it) for it in iterators]
            except StopIteration:
                break

            churn = faults.advance(ddp.iteration, on_rejoin=step.on_rejoin)
            result = step.step(batches, epoch, iteration)
            traced = TRACER.enabled
            if traced:
                sim_base = timeline.total_time
            # On a faulty run the survivors and the iteration's churn draw
            # (counter-based, so it depends only on the iteration index —
            # never on how the run got here).
            timeline.add_iteration(
                result.bucket_events or (), result.comm_bytes_per_worker,
                kind="local" if result.bucket_events is None else step.kind,
                ranks=faults.active if faults.faulty else None, churn=churn, link=faults.link,
            )
            if traced:
                # Simulated-clock tracks: per-rank backward segments, the
                # link channel's per-bucket reduce windows, the iteration
                # critical path.  The increment of the timeline total is
                # exactly the iteration's wall time, so iterations tile the
                # sim axis.
                emit_simulated_iteration(TRACER, timeline, sim_base, ddp.iteration)
            ddp.iteration += 1
            epoch_losses.append(result.loss)
            iteration += 1

        synced = step.flush(epoch, faults.active)
        if synced is not None:
            timeline.add_sync_round(
                synced.bucket_events, synced.comm_bytes_per_worker,
                ranks=faults.active if faults.faulty else None, link=faults.link,
            )
        run.end_epoch(epoch, epoch_losses)


# --------------------------------------------------------------------------- #
# Checkpoint: the stepped loop's state
# --------------------------------------------------------------------------- #
@dataclass
class TrainingCheckpoint:
    """A training loop's state just before one global iteration runs.

    ``train_distributed(config, method, checkpoint_at=i)`` captures it as
    ``run.checkpoint``; ``train_distributed(config, method, resume_from=ck)``
    checks that its specs are the recorded ones, rebuilds what they determine
    (the bucket layout) and installs the rest: the model's
    ``state_dict()`` (BatchNorm running statistics included), the optimiser's
    velocity, the compressor (Mask Tracker streaks, error-feedback residuals),
    the timeline with its pricing inputs, the fault cursor and membership, the loop position and what
    the loop's regime mutates (``step.state()``: local SGD's replicas, anchor
    and window; the parameter server's event heap, link, in-flight pushes,
    per-worker progress and losses, and worker codecs).  One capture and one
    restore, each a deep copy, so one checkpoint seeds several resumes; a
    degraded membership is re-applied through the elastic seam, not replayed.
    """

    config: ExperimentConfig
    method: MethodSpec
    model_state: Dict[str, np.ndarray]
    velocity: List[Optional[np.ndarray]]
    compressor: CodecCompressor
    timeline: TrainingTimeline
    step_state: Dict[str, object]
    fault_cursor: float
    active_ranks: List[int]
    link_factor: float
    epoch: int
    iteration_in_epoch: int
    #: Iterations run so far: the restored ``ddp.iteration`` (what the hook sees).
    global_iteration: int
    epoch_losses: List[float]

    def check_specs(self, config: ExperimentConfig, method: MethodSpec) -> None:
        """Raise ``ValueError`` naming the first field ``(config, method)`` changes."""
        captured = {"config": self.config.to_dict(), "method": self.method.to_dict()}
        given = {"config": config.to_dict(), "method": method.to_dict()}
        for changed in _differences(captured, given):
            raise ValueError(
                f"cannot resume: {changed} differs from the checkpoint's specs "
                "(a checkpoint resumes only the run it was captured from)"
            )


def _differences(captured: object, given: object, name: str = ""):
    """Dotted names of the entries in which two ``to_dict()`` trees differ, in order."""
    if isinstance(captured, dict) and isinstance(given, dict):
        for key in {**captured, **given}:
            yield from _differences(captured.get(key), given.get(key), f"{name}.{key}" if name else key)
    elif captured != given:
        yield name


def _capture(
    run: _Run, step, faults: _FaultState, epoch: int, iteration: int, epoch_losses: List[float]
) -> TrainingCheckpoint:
    """A deep copy of the loop's state just before ``ddp.iteration`` runs."""
    return copy.deepcopy(
        TrainingCheckpoint(
            config=run.config, method=run.method, model_state=run.model.state_dict(),
            velocity=run.optimizer.velocity, compressor=run.compressor, timeline=run.timeline,
            step_state=step.state(), fault_cursor=faults.cursor, active_ranks=faults.active,
            link_factor=faults.link, epoch=epoch, iteration_in_epoch=iteration,
            global_iteration=run.ddp.iteration, epoch_losses=epoch_losses,
        )
    )


def _restore(
    run: _Run, step, faults: _FaultState, checkpoint: TrainingCheckpoint
) -> Tuple[int, int, List[float]]:
    """Install a deep copy of ``checkpoint``; returns its loop position."""
    ck = copy.deepcopy(checkpoint)
    run.model.load_state_dict(ck.model_state)
    run.optimizer.velocity = ck.velocity
    run.compressor = ck.compressor  # it already carries the resized residuals
    run.ddp.register_comm_hook(ck.compressor)
    run.timeline = ck.timeline
    step.load_state(ck.step_state)
    faults.cursor = ck.fault_cursor
    faults.set_membership(ck.active_ranks, ck.link_factor)
    run.ddp.iteration = ck.global_iteration
    return ck.epoch, ck.iteration_in_epoch, ck.epoch_losses


class _SyncStep:
    """One synchronous data-parallel iteration: DDP's train step, then the optimiser."""

    #: The log kind of an iteration that ran a collective.
    kind = "sync"

    #: Every rank applies the same aggregated gradient to the one shared
    #: model, so a returning rank has nothing of its own to refresh.
    on_rejoin = None

    def __init__(self, run: _Run) -> None:
        self.run = run
        self.gse_mask = run.mask if run.method.gse else None

    def step(self, batches, epoch: int, iteration: int) -> StepResult:
        # The wrapper already runs over the fault interpreter's membership.
        run = self.run
        result = run.ddp.train_step(batches, F.cross_entropy, gse_mask=self.gse_mask)
        with TRACER.span("train/apply", cat="train", epoch=epoch, iteration=iteration):
            run.optimizer.step()
            if run.mask is not None:
                # Guard against regrowth through momentum.
                run.mask.apply_to_weights(run.model)
        return result

    def flush(self, epoch: int, active: List[int]) -> Optional[StepResult]:
        """Nothing to flush: every iteration ends synchronised."""

    def state(self) -> Dict[str, object]:
        """Nothing of its own: an iteration leaves its state on the run."""
        return {}

    def load_state(self, state: Dict[str, object]) -> None:
        """Nothing to install (see :meth:`state`)."""


class _LocalSGDStep:
    """Local SGD: H local optimiser steps per rank between averaging rounds.

    Each rank trains on its own diverged parameter/velocity replica
    (:class:`~repro.simulation.regimes.ReplicaSet`), all live ranks in one
    world-batched pass per iteration; every ``schedule.period``
    iterations the replicas are reconciled through one collective.  In delta
    mode each rank stages its *model delta* (parameters minus the last synced
    anchor) through the method's codec pipeline — error feedback then carries
    the delta mass the encoding dropped, and fault-driven membership changes
    remap residuals through the same elastic seam as gradients.  Dense mode
    all-reduces the raw fp32 parameters through the step's own lossless
    compressor (the method's is not consulted — FedAvg-style exact averaging).

    The run's shared-model optimiser is unused: local steps go through the
    replica stacks' optimiser.  The loop logs an iteration without a
    collective as a ``"local"`` step and one with a collective as
    :attr:`kind`, an averaging round.
    """

    kind = "average"

    def __init__(self, run: _Run) -> None:
        self.run = run
        self.schedule = run.method.schedule()
        self.replicas = ReplicaSet(run.model, run.world_size, lr=SGD_LR, momentum=SGD_MOMENTUM)
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
            ddp.stage_world_gradients(replicas.delta(active, anchor), active)
            aggregated, bucket_events = ddp.synchronize_staged()
            new_params = {name: anchor[name] + aggregated[name] for name in anchor}
        else:
            ddp.stage_world_gradients(replicas.params_dict(active), active)
            # Dense parameter averaging: the raw fp32 parameters go on the wire.
            new_params, bucket_events = ddp.synchronize_staged(self.dense_average)
        for name, param in run.model.named_parameters():
            param.data = new_params[name]
        if run.mask is not None:
            run.mask.apply_to_weights(run.model)
        self.anchor = ddp.snapshot_parameters()
        replicas.reset_all(self.anchor, active)
        return bucket_events

    def step(self, batches, epoch: int, iteration: int) -> StepResult:
        run, replicas = self.run, self.replicas
        # The fault interpreter's membership, in rank order; a dead rank's
        # batch is consumed (data order stays deterministic) but it takes no step.
        active = run.ddp.active_ranks
        with TRACER.span("train/backward", cat="train", epoch=epoch, iteration=iteration):
            per_rank_losses, grads = run.ddp.compute_batched_gradients(
                batches, F.cross_entropy, active, replicas.load(active)
            )
            if self.use_gse:
                apply_gse(run.mask, grads)
            replicas.step(grads, run.mask)
            replicas.save(active)

        self.window += 1
        if self.window < self.schedule.period:
            return StepResult(per_rank_losses)
        with TRACER.span(
            "regime/localsgd-sync", cat="regime",
            epoch=epoch, iteration=iteration, window=self.window,
        ):
            bucket_events = self._sync_round(active)
        self.window = 0
        return StepResult(per_rank_losses, bucket_events)

    def flush(self, epoch: int, active: List[int]) -> Optional[StepResult]:
        """Average a partially filled window, so evaluation (and the final
        model) sees the averaged parameters, not one rank's replica; returns
        that round (``None`` when the window is empty)."""
        if self.window == 0:
            return None
        with TRACER.span(
            "regime/localsgd-flush", cat="regime", epoch=epoch, window=self.window
        ):
            synced = StepResult([], self._sync_round(active))
        self.window = 0
        return synced

    def state(self) -> Dict[str, object]:
        """The replicas, the last synced anchor and the open window's length."""
        return {"replicas": self.replicas, "anchor": self.anchor, "window": self.window}

    def load_state(self, state: Dict[str, object]) -> None:
        self.replicas, self.anchor, self.window = state["replicas"], state["anchor"], state["window"]


class _ParameterServer:
    """Stale-gradient asynchronous parameter server on the event engine.

    A logical PS rank holds the parameters; workers cycle pull → compute →
    push with no barrier, serialised FCFS on the server's access link
    (:class:`~repro.simulation.engine.LinkChannel`).  Gradients are computed
    against the parameters as of the worker's pull and applied whenever the
    push lands — the measured staleness (server updates applied in between)
    is recorded per update.  The schedule's ``staleness`` bounds the progress skew:
    a worker may start update ``k`` only while ``k - min_progress <= S``
    (stale synchronous parallel); blocked workers re-enter in rank order as
    laggards apply.

    A worker's gradient is world 1 of the batched pass, pushed through the
    worker's own compressor instance (independent stage state, per-worker
    error-feedback residuals): one ``aggregate`` call per bucket over a
    one-rank bucket and group, the same driver every other regime uses.
    Pulls carry the dense fp32 parameters.  Each update's worker and its pull
    and push bytes are logged, and the event clock once per epoch snapshot:
    the timeline's fold pins the total to it (see :meth:`TrainingTimeline.fold`).

    With no iteration barrier this is an event loop of its own, not a step of
    :func:`_train_stepped`, but it keeps its state as a step does: the
    attributes :attr:`STATE` names, which :meth:`state` / :meth:`load_state`
    hand to :func:`_capture` / :func:`_restore`, at the apply count
    ``ddp.iteration``.  A worker's loader position is its ``completed`` count:
    :meth:`batch_for` opens an epoch's iterator when first needed and skips
    the batches already trained on (none, in an uninterrupted run).
    """

    STATE = (
        "heap", "channel", "completed", "version_at_pull", "pending", "blocked",
        "epoch_losses", "snapshots_done", "codecs",
    )

    def __init__(self, run: _Run) -> None:
        config, world_size = run.config, run.world_size
        self.run = run
        iters_per_epoch = min(len(loader) for loader in run.rank_loaders)
        if config.max_iterations_per_epoch is not None:
            iters_per_epoch = min(iters_per_epoch, config.max_iterations_per_epoch)
        self.iters_per_epoch = iters_per_epoch
        self.open_loaders: Dict[int, Tuple[int, Iterator]] = {}  # rank -> (epoch, iterator)
        self.heap = EventHeap()
        for rank in range(world_size):
            self.heap.push(SimEvent(time=0.0, kind="ps-request", rank=rank))
        self.channel = LinkChannel()
        self.completed = [0] * world_size  # applied updates per worker
        self.version_at_pull = [0] * world_size
        self.pending: List[Optional[Dict]] = [None] * world_size  # from pull to apply
        self.blocked: set = set()
        self.epoch_losses: List[List[float]] = [[] for _ in range(config.epochs)]
        self.snapshots_done = 0
        # Stage state (top-k and DGC buffers, stage RNGs) and error-feedback
        # residuals must not be shared across workers pushing at different
        # versions.  Worker 0 reuses the dispatcher's instance, and every
        # worker records into its stats: the run's one stats carrier.
        self.codecs: List[CodecCompressor] = [run.compressor]
        for _ in range(1, world_size):
            clone = run.method.build_compressor(seed=config.seed)
            clone.stats = run.compressor.stats
            self.codecs.append(clone)

    def state(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.STATE}

    def load_state(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.open_loaders = {}

    def batch_for(self, rank: int, update_index: int):
        """Worker ``rank``'s batch for its ``update_index``-th update."""
        epoch = update_index // self.iters_per_epoch
        opened = self.open_loaders.get(rank)
        if opened is None or opened[0] != epoch:
            loader = self.run.rank_loaders[rank]
            loader.set_epoch(epoch)
            opened = self.open_loaders[rank] = (epoch, iter(loader))
            for _ in range(update_index % self.iters_per_epoch):
                next(opened[1])
        return next(opened[1])

    def train(
        self, checkpoint_at: Optional[int], resume_from: Optional[TrainingCheckpoint]
    ) -> None:
        """Run the event loop to the last apply."""
        run, iters_per_epoch = self.run, self.iters_per_epoch
        epochs, world_size = run.config.epochs, run.world_size
        faults = _FaultState(run)  # inert: a fault plan is rejected under ps
        if resume_from is not None:
            _restore(run, self, faults, resume_from)
        ddp, timeline, stats = run.ddp, run.timeline, run.compressor.stats
        heap, pending, completed = self.heap, self.pending, self.completed
        staleness_bound = run.method.schedule().staleness
        # The event clock is the one schedule that depends on time, so it
        # prices its transfers itself (the log's fold prices them again).
        cost_model = run.config.cluster.cost_model_for()
        model_wire_bytes = run.model_wire_bytes
        pull_seconds = pricing.op_time(cost_model, "p2p", model_wire_bytes)
        # A push is a one-rank aggregation.  Its wire time is the p2p transfer
        # of what the codec recorded, booked on the server link, so the
        # group's event log is dropped after every push.
        push_group = ProcessGroup(1)

        def admissible(rank: int) -> bool:
            if staleness_bound is None:
                return True
            return completed[rank] - min(completed) <= staleness_bound

        while heap:
            if ddp.iteration == checkpoint_at and run.checkpoint is None:
                # Its position reads as the open epoch, the slowest worker's
                # place in it and the epoch's losses so far.
                epoch = self.snapshots_done
                run.checkpoint = _capture(
                    run, self, faults, epoch, min(completed) - epoch * iters_per_epoch,
                    self.epoch_losses[epoch],
                )
            event = heap.pop()
            now = event.time
            rank = event.rank
            if event.kind == "ps-request":
                if admissible(rank):
                    start, end = self.channel.acquire(now, pull_seconds)
                    pending[rank] = {"pull": (start, end)}
                    heap.push(SimEvent(time=end, kind="ps-pulled", rank=rank))
                else:
                    self.blocked.add(rank)
            elif event.kind == "ps-pulled":
                # Events are processed in time order, so every apply scheduled
                # before this pull's completion has already landed — the shared
                # model holds exactly the parameters this worker pulls.
                state = pending[rank]
                self.version_at_pull[rank] = ddp.iteration
                update_index = completed[rank]
                # World 1: the pass reads only this worker's entry.
                losses, grads = ddp.compute_batched_gradients(
                    [self.batch_for(rank, update_index)] * world_size, F.cross_entropy, [rank]
                )
                wire_before = stats.wire_bytes
                aggregated: Dict[str, np.ndarray] = {}
                for bucket in ddp.buckets:
                    pushed = self.codecs[rank].aggregate(
                        GradBucket(bucket, bucket.flatten(grads)[None]), push_group,
                        iteration=update_index,
                    )
                    aggregated.update(bucket.unflatten(pushed))
                push_group.events.clear()
                # What the driver recorded for this push (wire sizes are multiples
                # of 1/8 byte, so the running sum and this difference are exact).
                payload_bytes = stats.wire_bytes - wire_before
                compute_seconds = timeline.per_rank_compute[rank]
                state.update(
                    aggregated=aggregated, payload_bytes=payload_bytes, loss=losses[0],
                    compute=compute_seconds, epoch=update_index // iters_per_epoch,
                )
                heap.push(SimEvent(time=now + compute_seconds, kind="ps-push", rank=rank))
            elif event.kind == "ps-push":
                state = pending[rank]
                push_seconds = pricing.op_time(cost_model, "p2p", state["payload_bytes"])
                start, end = self.channel.acquire(now, push_seconds)
                state["push"] = (start, end)
                heap.push(SimEvent(time=end, kind="ps-apply", rank=rank))
            elif event.kind == "ps-apply":
                state, pending[rank] = pending[rank], None
                ddp.apply_aggregated_gradients(state["aggregated"])
                run.optimizer.step()
                staleness = ddp.iteration - self.version_at_pull[rank]
                completed[rank] += 1
                timeline.add_iteration(
                    [[Transfer("p2p", model_wire_bytes)], [Transfer("p2p", state["payload_bytes"])]],
                    (model_wire_bytes + state["payload_bytes"]) / world_size,
                    kind="ps", rank=rank, staleness=staleness,
                )
                self.epoch_losses[state["epoch"]].append(state["loss"])
                if TRACER.enabled:
                    emit_ps_update(
                        TRACER, rank=rank, pull=state["pull"], compute_seconds=state["compute"],
                        push=state["push"], staleness=staleness, update_index=completed[rank] - 1,
                        payload_bytes=state["payload_bytes"], pull_bytes=model_wire_bytes,
                    )
                    TRACER.sim_now = now
                ddp.iteration += 1
                while (
                    self.snapshots_done < epochs
                    and min(completed) >= (self.snapshots_done + 1) * iters_per_epoch
                ):
                    timeline.add_event("clock", now)
                    run.end_epoch(self.snapshots_done, self.epoch_losses[self.snapshots_done])
                    self.snapshots_done += 1
                if completed[rank] < epochs * iters_per_epoch:
                    heap.push(SimEvent(time=now, kind="ps-request", rank=rank))
                # This apply raised min-progress (or freed the channel): re-admit
                # blocked workers in rank order for determinism.
                for other in sorted(self.blocked):
                    if admissible(other):
                        self.blocked.discard(other)
                        heap.push(SimEvent(time=now, kind="ps-request", rank=other))
            else:  # pragma: no cover - no other kinds are scheduled
                raise RuntimeError(f"unexpected event kind {event.kind!r}")


# --------------------------------------------------------------------------- #
# Config-driven wrapper
# --------------------------------------------------------------------------- #
def run_experiment(
    config: ExperimentConfig, method: MethodSpec, *, _share: Optional[_WorkloadShare] = None
) -> ExperimentResult:
    """Build the workload described by ``config``, train it with ``method``.

    The run is :func:`train_distributed`'s: dataset materialisation, model
    construction, training and evaluation execute under ``config.dtype`` (see
    :func:`repro.tensorlib.dtypes.default_dtype`), which is restored on exit
    even when the run raises.  The result is :meth:`_Run.result`.

    A call prepares its own dataset, split and pre-trained model and keeps
    nothing afterwards.  ``_share`` belongs to the campaign runner: the cells
    of one :func:`~repro.campaign.runner.run_campaign` hand in one
    :class:`_WorkloadShare`, so cells that agree on every argument of
    :func:`_pretrained_workload` prepare once (see :func:`_prepare_workload`).
    """
    with TRACER.span(
        "experiment", cat="experiment",
        model=config.model, method=method.name, world=config.cluster.world_size,
    ):
        return train_distributed(config, method, share=_share).result()


@dataclass(frozen=True)
class _PretrainedWorkload:
    """What :func:`_pretrained_workload` returns: the part of a cell's
    preparation that no :class:`MethodSpec` field and no cluster field reaches."""

    train_set: SyntheticImageClassification
    test_set: SyntheticImageClassification
    #: The batch GraSP scores its pruning on (the pre-training loader's first).
    sample_batch: Tuple[np.ndarray, np.ndarray]
    #: Pre-trained and still dense; carries what :func:`_pretrain` leaves
    #: behind (stale ``.grad``s, BatchNorm running statistics).
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
    batch_size: int,
    model: str,
    pretrain_iterations: int,
    dtype: np.dtype,
) -> _PretrainedWorkload:
    """Materialise the dataset, split it, build the model and pre-train it.

    A function of its nine arguments and nothing else: the eight
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
        train_set, test_set = train_test_split(
            full, test_fraction=TEST_FRACTION, seed=seed
        )
        network = build_model(model, num_classes=full.num_classes, seed=seed)
        pretrain_loader = DataLoader(train_set, batch_size=batch_size, shuffle=True, seed=seed)
        _pretrain(network, pretrain_loader, pretrain_iterations)
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
    gradients and buffers included — so a hit is bit-identical to building
    it again.
    """
    args = (
        config.dataset,
        config.dataset_samples,
        config.image_size,
        config.noise_std,
        config.seed,
        config.batch_size,
        config.model,
        config.pretrain_iterations,
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
