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
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import FP32_BYTES, CodecCompressor, Compressor
from repro.compression.registry import build_compressor
from repro.data import DataLoader, DistributedSampler, make_dataset, train_test_split
from repro.ddp import DistributedDataParallel
from repro.ddp.bucket import DEFAULT_BUCKET_CAP_BYTES
from repro.nn import SGD
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.obs.tracer import TRACER
from repro.pruning import PruningMask, apply_gse, grasp_prune, magnitude_prune
from repro.simulation.cluster import ClusterSpec
from repro.simulation.engine import EventHeap, LinkChannel, SimEvent, SimulationEngine
from repro.simulation.regimes import (
    ReplicaSet,
    SyncSchedule,
    TrainingCheckpoint,
    parse_sync_schedule,
)
from repro.simulation.timeline import TrainingTimeline
from repro.tensorlib import Tensor, default_dtype, functional as F, no_grad, use_backend
from repro.tensorlib.backend import KNOWN_BACKENDS
from repro.tensorlib.dtypes import SUPPORTED_DTYPES


# --------------------------------------------------------------------------- #
# Method and experiment descriptions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MethodSpec:
    """One gradient-synchronisation method, as named in the paper's figures.

    ``compressor`` is a registry name (see :mod:`repro.compression.registry`)
    or a ``+``-separated codec pipeline spec such as ``"topk0.01+terngrad"``,
    ``"ef+signsgd"`` or ``"powersgd-rank4"`` — arbitrary codec compositions
    run end-to-end without a dedicated compressor class.  ``error_feedback``
    is tri-state: ``None`` (default) keeps whatever the compressor spec says,
    ``True`` switches on the driver-level per-bucket residual state
    (equivalent to, and composing idempotently with, a leading ``"ef"`` spec
    token) and ``False`` forces every form of error feedback off — including
    the stage-internal compensation top-k carries in its paper form — which
    makes ``error_feedback`` a uniform on/off campaign axis.  Pruning-related
    fields only take effect for methods that prune (PacTrain); the baselines
    keep the dense model.

    ``sync_schedule`` selects the training regime (see
    :mod:`repro.simulation.regimes` for the grammar): ``None``/``"sync"`` is
    synchronous data-parallel, ``"localsgd:H"`` averages parameters every H
    local steps (``"localsgd:H:delta"`` compresses the model delta through
    the method's codec pipeline instead), and ``"ps[:S]"`` runs the
    stale-gradient async parameter server with staleness bound S.
    """

    name: str
    compressor: str = "allreduce"
    pruning_ratio: float = 0.0
    pruning_method: str = "magnitude"
    gse: bool = False
    quantize: bool = False
    stability_threshold: int = 3
    min_sparsity: float = 0.05
    warmup_iterations: int = 0
    #: Driver-level error feedback: the compressor keeps a per-(bucket, rank)
    #: residual of the gradient mass its encoding dropped and adds it to the
    #: next iteration's input.  ``None`` defers to the compressor spec;
    #: ``True``/``False`` force it on/off (codec-pipeline compressors only).
    error_feedback: Optional[bool] = None
    #: Training-regime schedule spec (``None`` = synchronous; grammar in
    #: :func:`repro.simulation.regimes.parse_sync_schedule`).
    sync_schedule: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sync_schedule == "":
            object.__setattr__(self, "sync_schedule", None)
        # Validate eagerly so a bad schedule fails at spec-construction time
        # (campaign expansion), not minutes into a sweep.
        parse_sync_schedule(self.sync_schedule)

    def schedule(self) -> SyncSchedule:
        """The parsed sync schedule (the synchronous default when unset)."""
        return parse_sync_schedule(self.sync_schedule)

    def build_compressor(self, seed: int = 0) -> Compressor:
        if self.compressor.startswith("pactrain"):
            # Imported lazily: repro.pactrain.trainer itself builds on this module.
            from repro.pactrain.compressor import PacTrainCompressor  # noqa: PLC0415

            if self.error_feedback is not None:
                raise ValueError(
                    f"error_feedback={self.error_feedback} is not supported for "
                    "PacTrain methods: its compacted aggregation is already "
                    "lossless w.r.t. the masked gradient, so there is no dropped "
                    "mass to feed back (and nothing to strip); leave the field "
                    "at None"
                )
            return PacTrainCompressor(
                stability_threshold=self.stability_threshold,
                min_sparsity=self.min_sparsity,
                quantize=self.quantize,
                seed=seed,
                warmup_iterations=self.warmup_iterations,
            )
        # Registry names and codec pipeline specs receive the same per-run
        # seed, so stochastic codecs (random-k selection, ternary rounding)
        # actually vary across multi-seed sweeps.
        compressor = build_compressor(self.compressor, seed=seed)
        if self.error_feedback is None:
            return compressor
        if not isinstance(compressor, CodecCompressor):
            raise TypeError(
                f"error_feedback={self.error_feedback} needs a codec-pipeline "
                f"compressor, got {type(compressor).__name__} for {self.compressor!r}"
            )
        if self.error_feedback:
            if not compressor.error_feedback:
                compressor.enable_error_feedback()
        else:
            compressor.disable_error_feedback()
        return compressor

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly.

        Every field is a scalar, so a fresh dict in field order is all
        ``dataclasses.asdict`` would produce — without its recursive deep
        copy, which dominated fingerprinting a stored campaign.
        """
        return {name: getattr(self, name) for name in _METHOD_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict) -> "MethodSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown MethodSpec fields {sorted(unknown)}; known: {sorted(known)}")
        return cls(**data)


_METHOD_FIELDS = tuple(f.name for f in dataclasses.fields(MethodSpec))

#: The five methods compared throughout the paper's evaluation (Figs. 3 and 5).
#: PacTrain uses the paper's default configuration: pruning ratio 0.5, GSE every
#: iteration and ternary quantisation of the compacted gradients (§III.D).
PAPER_METHODS: Dict[str, MethodSpec] = {
    "all-reduce": MethodSpec(name="all-reduce", compressor="allreduce"),
    "fp16": MethodSpec(name="fp16", compressor="fp16"),
    "topk-0.1": MethodSpec(name="topk-0.1", compressor="topk-0.1"),
    "topk-0.01": MethodSpec(name="topk-0.01", compressor="topk-0.01"),
    "pactrain": MethodSpec(
        name="pactrain", compressor="pactrain", pruning_ratio=0.5, gse=True, quantize=True
    ),
}

#: PacTrain without ternary quantisation (lossless w.r.t. the masked gradient);
#: used by the ablation benchmark.
PACTRAIN_FP32 = MethodSpec(
    name="pactrain-fp32", compressor="pactrain", pruning_ratio=0.5, gse=True, quantize=False
)


@dataclass
class ExperimentConfig:
    """Workload + cluster + optimisation settings for one training run."""

    model: str = "resnet18"
    dataset: str = "cifar10"
    num_classes: int = 10
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    target_accuracy: Optional[float] = None
    dataset_samples: int = 512
    image_size: int = 8
    #: Per-sample noise of the synthetic dataset.  Larger values make the task
    #: harder, so convergence takes more epochs and the convergence-speed
    #: differences between compression schemes become visible.
    noise_std: float = 0.6
    test_fraction: float = 0.25
    pretrain_iterations: int = 3
    max_iterations_per_epoch: Optional[int] = None
    seed: int = 0
    stop_at_target: bool = False
    #: Gradient bucket capacity.  PyTorch's 25 MiB default keeps the mini
    #: models in a single bucket; set a smaller cap to get the multi-bucket
    #: layout that per-bucket compute/comm overlap needs.
    bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES
    #: Compute precision of the whole run: ``"float64"`` (default — every
    #: result bit-identical to the historical float64-only behaviour) or
    #: ``"float32"`` (the fast path: ~half the memory traffic and roughly
    #: double the SIMD throughput, accuracy within the documented tolerance).
    #: Wire-byte accounting models the fp32 wire format either way, so
    #: communication volumes and modeled times do not depend on this.  Also a
    #: campaign axis (``"dtype": ["float32", "float64"]``).
    dtype: str = "float64"
    #: Host-side execution strategy for the per-iteration forward/backward:
    #: ``"batched"`` (default) evaluates all ranks in one world-batched pass,
    #: ``"looped"`` keeps the per-rank Python loop.  Float64 results are
    #: bit-identical either way (dropout excepted); modeled time is
    #: execution-independent, so this is purely a wall-clock knob.
    execution: str = "batched"
    #: Array backend for the tensor kernels (``repro.tensorlib.backend``):
    #: ``None`` keeps the process-wide default (``REPRO_BACKEND`` env or
    #: numpy); ``"numba"``/``"torch"``/``"cupy"`` opt into accelerated
    #: kernels, degrading to numpy with a warning when the library is absent.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(SUPPORTED_DTYPES)}, got {self.dtype!r}"
            )
        if self.execution not in ("batched", "looped"):
            raise ValueError(
                f"execution must be 'batched' or 'looped', got {self.execution!r}"
            )
        if self.backend is not None and self.backend not in KNOWN_BACKENDS:
            raise ValueError(
                f"backend must be None or one of {sorted(KNOWN_BACKENDS)}, got {self.backend!r}"
            )
        if self.image_size != 8 and self.model.lower() == "mlp":
            raise ValueError(
                "model 'mlp' has a fixed 3*8*8 input layer and needs image_size=8, "
                f"got image_size={self.image_size}"
            )
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.dataset_samples < 2:
            raise ValueError(
                "dataset_samples must be >= 2 (the train/test split needs at least "
                f"one sample on each side), got {self.dataset_samples}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.target_accuracy is not None and not isinstance(self.target_accuracy, (int, float)):
            raise TypeError(
                f"target_accuracy must be a float or None, got {self.target_accuracy!r} "
                "(resolve named targets such as 'per-model' before building the config)"
            )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly.

        The nested :class:`ClusterSpec` serialises through its own
        ``to_dict``; everything else is plain scalars, copied into a fresh
        dict in field order.  This representation is what the campaign result
        store hashes, so it must stay stable and canonical (no
        derived/duplicated fields).
        """
        data = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        data["cluster"] = self.cluster.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown ExperimentConfig fields {sorted(unknown)}; known: {sorted(known)}")
        kwargs = dict(data)
        if "cluster" in kwargs and isinstance(kwargs["cluster"], dict):
            kwargs["cluster"] = ClusterSpec.from_dict(kwargs["cluster"])
        return cls(**kwargs)


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


@dataclass
class ExperimentResult:
    """Everything a benchmark needs to report about one training run."""

    method: str
    model: str
    dataset: str
    bandwidth_mbps: float
    world_size: int
    epochs_run: int
    iterations_run: int
    simulated_time: float
    compute_time: float
    comm_time: float
    comm_bytes_per_worker: float
    final_accuracy: float
    best_accuracy: float
    tta: Optional[float]
    target_accuracy: Optional[float]
    accuracy_trace: List[Tuple[float, float]]
    loss_trace: List[float]
    compression_ratio: float
    weight_sparsity: float
    gradient_density: float
    #: Whether the run hit ``target_accuracy`` at any epoch (even if training
    #: continued afterwards because ``stop_at_target`` was off).
    reached_target: bool = False
    #: Fraction of communication hidden behind backward compute by the
    #: event-driven per-bucket schedule (0.0 with overlap disabled).
    overlap_fraction: float = 0.0
    #: Sum of per-iteration critical paths from the engine's schedule; equals
    #: ``simulated_time`` up to float rounding of the per-iteration sums.
    critical_path_time: float = 0.0
    #: Simulated seconds the fastest worker spent idle waiting for stragglers.
    straggler_time: float = 0.0
    #: Fault/recovery accounting (all zero on a healthy cluster).  Fault
    #: events interpreted during the run (crashes, re-joins, link changes):
    fault_events: int = 0
    #: Iterations that ran over a shrunken (degraded) membership.
    degraded_iterations: int = 0
    #: Rank-seconds of capacity lost to dead ranks.
    downtime_rank_seconds: float = 0.0
    #: Simulated seconds spent re-synchronising re-joined ranks (included in
    #: ``simulated_time``).
    rejoin_cost_time: float = 0.0
    #: Fraction of the cluster's rank-seconds spent training rather than lost
    #: to downtime or re-join synchronisation (1.0 when healthy).
    goodput_fraction: float = 1.0
    #: Training-regime accounting (all zero on the synchronous path).
    #: Averaging collectives run by the local-SGD regime:
    sync_rounds: int = 0
    #: Communication-free local optimiser steps between collectives.
    local_steps: int = 0
    #: Updates applied by the async parameter server.
    ps_updates: int = 0
    #: Mean / max per-update staleness (server updates applied between a
    #: worker's parameter pull and its gradient's application).
    staleness_mean: float = 0.0
    staleness_max: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def tta_or_total(self) -> float:
        """TTA if the target was reached, otherwise total simulated time.

        ``reached_target`` (not ``tta is None``) decides which: the paper
        reports relative TTA, and runs that never reach the target are charged
        their full training time (a conservative lower bound on their
        disadvantage).
        """
        if self.reached_target and self.tta is not None:
            return self.tta
        return self.simulated_time

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly.

        Floats survive the round trip bit-identically (JSON serialises the
        shortest repr, which Python parses back to the same double; ``nan`` and
        ``inf`` use the non-strict JSON literals).  Tuples in
        ``accuracy_trace`` come back as tuples via ``from_dict``.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown ExperimentResult fields {sorted(unknown)}; known: {sorted(known)}")
        kwargs = dict(data)
        kwargs["accuracy_trace"] = [tuple(point) for point in kwargs.get("accuracy_trace", [])]
        return cls(**kwargs)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def evaluate_accuracy(model: Module, loader: DataLoader) -> float:
    """Top-1 accuracy of ``model`` over a data loader (evaluation mode)."""
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(images))
            predictions = logits.data.argmax(axis=-1)
            correct += int((predictions == labels).sum())
            total += len(labels)
    model.train()
    return correct / total if total else 0.0


def _pretrain(model: Module, loader: DataLoader, iterations: int, lr: float) -> None:
    """Brief single-worker warm-up so magnitude/GraSP scores are informative.

    Mirrors the paper's setup of starting from a (pre-)trained model before
    pruning (Fig. 1): a handful of SGD steps on the generic data is enough to
    differentiate weight magnitudes for the mini models.
    """
    if iterations <= 0:
        return
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
class _FaultState:
    """Per-run fault-plan interpreter shared by the sync and local-SGD loops.

    An empty plan keeps :attr:`faulty` False and :meth:`advance` is a no-op
    returning ``(None, None)``, so healthy runs take exactly the historical
    code path (golden traces stay bit-identical).
    """

    def __init__(
        self,
        plan,
        cluster: ClusterSpec,
        world_size: int,
        ddp: DistributedDataParallel,
        compressor: Compressor,
        timeline: TrainingTimeline,
        model_wire_bytes: float,
    ) -> None:
        self.plan = plan
        self.cluster = cluster
        self.world_size = world_size
        self.ddp = ddp
        self.compressor = compressor
        self.timeline = timeline
        self.model_wire_bytes = model_wire_bytes
        self.faulty = not plan.is_empty
        self.cursor = -1.0
        self.active = list(range(world_size))
        self.link = 1.0

    def advance(self, now: float, global_iteration: int, on_rejoin=None):
        """Interpret the plan up to simulated time ``now``.

        Events scheduled up to "now" have fired, so the next iteration runs
        over the surviving membership with the current link factor.  Returns
        ``(active_set, churn)`` for the iteration — ``(None, None)`` when the
        plan is empty.  ``on_rejoin`` (if given) is called with the list of
        ranks that re-joined, after their broadcast cost has been charged —
        the local-SGD loop uses it to refresh the returning replica.
        """
        if not self.faulty:
            return None, None
        plan = self.plan
        fired = plan.events_between(self.cursor, now)
        self.cursor = now
        active = plan.active_ranks(self.world_size, now)
        link = plan.link_factor(now)
        if fired:
            self.timeline.fault_events += len(fired)
            if TRACER.enabled:
                from repro.obs.tracer import SIM_SCHEDULE_TID  # noqa: PLC0415

                for event in fired:
                    TRACER.instant(
                        f"fault/{event.kind}", cat="fault", clock="sim",
                        ts=event.at, tid=SIM_SCHEDULE_TID,
                        rank=event.rank, factor=event.factor,
                    )
        if active != self.active or link != self.link:
            if active != self.active:
                self.compressor.resize_world(self.active, active, plan.residual_policy)
            if len(active) == self.world_size and link == 1.0:
                self.ddp.set_active_ranks(None)
            else:
                from repro.comm.process_group import ProcessGroup  # noqa: PLC0415

                degraded_model = self.cluster.cost_model_for(len(active), link)
                self.ddp.set_active_ranks(
                    active, ProcessGroup(len(active), degraded_model)
                )
            # A re-joining rank pulls the current model state before it can
            # participate: charge one broadcast over the new membership per
            # re-join and advance the simulated clock.
            rejoined = []
            for event in fired:
                if event.kind != "rejoin" or event.rank not in active:
                    continue
                cost = self.cluster.cost_model_for(len(active), link).broadcast_time(
                    self.model_wire_bytes
                )
                self.timeline.add_rejoin_cost(cost)
                rejoined.append(event.rank)
                if TRACER.enabled:
                    from repro.obs.tracer import SIM_SCHEDULE_TID  # noqa: PLC0415

                    TRACER.sim_span(
                        "fault/rejoin-sync", "fault", ts=now, dur=cost,
                        tid=SIM_SCHEDULE_TID, rank=event.rank,
                        bytes=self.model_wire_bytes,
                    )
            if rejoined and on_rejoin is not None:
                on_rejoin(rejoined)
            self.active, self.link = active, link
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
    execution: str = "batched",
    checkpoint_at: Optional[int] = None,
    checkpoint_box: Optional[List[TrainingCheckpoint]] = None,
    resume_from: Optional[TrainingCheckpoint] = None,
) -> Tuple[TrainingTimeline, DistributedDataParallel, Compressor, bool]:
    """Run distributed training with modeled time under the method's regime.

    The method's ``sync_schedule`` selects the training loop: synchronous
    data-parallel (the default — every iteration is scheduled by the
    event-driven :class:`~repro.simulation.engine.SimulationEngine`, and with
    ``cluster.overlap`` off the schedule degenerates to the seed
    ``compute + comm`` sum bit-identically), local SGD with periodic
    (optionally delta-compressed) averaging, or the stale-gradient async
    parameter server.  ``localsgd:1`` routes through the synchronous loop —
    averaging after every step *is* synchronous training — which the
    regime-parity tests pin bit-identically.

    ``execution`` picks the host-side strategy for the per-rank passes:
    ``"batched"`` (default) runs one world-batched forward/backward,
    ``"looped"`` the per-rank Python loop; float64 losses, gradients and
    traces are bit-identical either way, and modeled time — which measures
    the *simulated* cluster — never depends on it.  Ragged tail batches
    (unequal shapes across ranks) fall back to the loop for that iteration.
    Local-SGD windows always loop (diverged replicas cannot share one
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
    if execution not in ("batched", "looped"):
        raise ValueError(f"unknown execution strategy {execution!r}")
    schedule = parse_sync_schedule(method.sync_schedule)
    world_size = cluster.world_size
    plan = cluster.fault_plan()
    plan.validate_for_regime(schedule.regime)
    if (checkpoint_at is not None or resume_from is not None) and not schedule.is_synchronous:
        raise ValueError(
            "checkpoint/restore is only supported on the synchronous path "
            f"(sync or localsgd:1 schedules), got {method.sync_schedule!r}"
        )
    process_group = cluster.process_group()
    compressor = method.build_compressor(seed=seed)
    if resume_from is not None:
        # The compressor's residual/momentum state is part of the checkpoint;
        # hand the DDP wrapper the restored instance from the start.  Deep-
        # copied so one checkpoint can seed several resumes.
        compressor = copy.deepcopy(resume_from.compressor)
    if schedule.regime == "ps" and not isinstance(compressor, CodecCompressor):
        raise ValueError(
            "async parameter-server mode needs a codec-pipeline compressor "
            f"(its pushes are encoded per worker), got {type(compressor).__name__} "
            f"for {method.compressor!r}"
        )
    if (
        schedule.regime == "localsgd"
        and schedule.delta
        and not schedule.is_synchronous
        and not isinstance(compressor, CodecCompressor)
    ):
        raise ValueError(
            "localsgd delta mode compresses model deltas through a codec "
            f"pipeline, got {type(compressor).__name__} for {method.compressor!r}"
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
    timeline = TrainingTimeline()
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

    shared = dict(
        model=model,
        test_loader=test_loader,
        method=method,
        cluster=cluster,
        epochs=epochs,
        mask=mask,
        target_accuracy=target_accuracy,
        stop_at_target=stop_at_target,
        max_iterations_per_epoch=max_iterations_per_epoch,
        world_size=world_size,
        plan=plan,
        compressor=compressor,
        ddp=ddp,
        optimizer=optimizer,
        timeline=timeline,
        per_rank_compute=per_rank_compute,
        rank_loaders=rank_loaders,
    )
    if schedule.regime == "ps":
        return _train_async_ps(schedule=schedule, seed=seed, **shared)
    if schedule.regime == "localsgd" and not schedule.is_synchronous:
        return _train_localsgd(
            schedule=schedule,
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            engine=engine,
            bucket_fractions=bucket_fractions,
            **shared,
        )
    return _train_synchronous(
        execution=execution,
        engine=engine,
        bucket_fractions=bucket_fractions,
        checkpoint_at=checkpoint_at,
        checkpoint_box=checkpoint_box,
        resume_from=resume_from,
        **shared,
    )


def _train_synchronous(
    *,
    model: Module,
    test_loader: DataLoader,
    method: MethodSpec,
    cluster: ClusterSpec,
    epochs: int,
    mask: Optional[PruningMask],
    target_accuracy: Optional[float],
    stop_at_target: bool,
    max_iterations_per_epoch: Optional[int],
    world_size: int,
    plan,
    compressor: Compressor,
    ddp: DistributedDataParallel,
    optimizer: SGD,
    engine: SimulationEngine,
    timeline: TrainingTimeline,
    per_rank_compute: List[float],
    bucket_fractions: List[float],
    rank_loaders: List[DataLoader],
    execution: str,
    checkpoint_at: Optional[int] = None,
    checkpoint_box: Optional[List[TrainingCheckpoint]] = None,
    resume_from: Optional[TrainingCheckpoint] = None,
) -> Tuple[TrainingTimeline, DistributedDataParallel, Compressor, bool]:
    """The synchronous data-parallel loop (the historical code path)."""
    # Re-join cost model: the returning rank pulls the current parameters
    # (fp32 wire format) via a broadcast over the post-join membership.
    model_wire_bytes = float(sum(p.size for p in model.parameters()) * 4)
    faults = _FaultState(
        plan, cluster, world_size, ddp, compressor, timeline, model_wire_bytes
    )
    global_iteration = 0
    reached_target = False
    start_epoch = 0
    resume_iteration = 0
    resumed_losses: List[float] = []
    if resume_from is not None:
        ck = resume_from
        ddp.restore_parameters(ck.params)
        optimizer.load_state_arrays(ck.velocities)
        timeline = copy.deepcopy(ck.timeline)
        faults.timeline = timeline
        faults.cursor = ck.fault_cursor
        faults.active = list(ck.active_ranks)
        faults.link = ck.link_factor
        if len(ck.active_ranks) != world_size or ck.link_factor != 1.0:
            from repro.comm.process_group import ProcessGroup  # noqa: PLC0415

            degraded_model = cluster.cost_model_for(
                len(ck.active_ranks), ck.link_factor
            )
            ddp.set_active_ranks(
                list(ck.active_ranks),
                ProcessGroup(len(ck.active_ranks), degraded_model),
            )
        ddp.hook_state.iteration = ck.hook_iteration
        global_iteration = ck.global_iteration
        reached_target = ck.reached_target
        start_epoch = ck.epoch
        resume_iteration = ck.iteration_in_epoch
        resumed_losses = list(ck.epoch_losses)
        # The modeled per-rank times were computed from the *initial* weights
        # (weight sparsity drifts during training on unmasked models); replay
        # the captured values so resumed timing is bit-identical.
        per_rank_compute = list(ck.per_rank_compute)
        bucket_fractions = list(ck.bucket_fractions)
    captured = checkpoint_at is None or checkpoint_box is None
    for epoch in range(start_epoch, epochs):
        for loader in rank_loaders:
            loader.set_epoch(epoch)
        iterators = [iter(loader) for loader in rank_loaders]
        epoch_losses: List[float] = []
        iteration = 0
        if resume_from is not None and epoch == start_epoch:
            # Fast-forward the deterministic samplers to the captured
            # position; the consumed batches were already trained on.
            for _ in range(resume_iteration):
                for it in iterators:
                    next(it)
            iteration = resume_iteration
            epoch_losses = resumed_losses
        while True:
            if max_iterations_per_epoch is not None and iteration >= max_iterations_per_epoch:
                break
            if not captured and global_iteration == checkpoint_at:
                checkpoint_box.append(
                    TrainingCheckpoint.capture(
                        ddp=ddp,
                        optimizer=optimizer,
                        compressor=compressor,
                        timeline=timeline,
                        epoch=epoch,
                        iteration_in_epoch=iteration,
                        global_iteration=global_iteration,
                        epoch_losses=epoch_losses,
                        fault_cursor=faults.cursor,
                        active_ranks=faults.active,
                        link_factor=faults.link,
                        reached_target=reached_target,
                        per_rank_compute=per_rank_compute,
                        bucket_fractions=bucket_fractions,
                    )
                )
                captured = True
            try:
                batches = [next(it) for it in iterators]
            except StopIteration:
                break

            active_set, churn = faults.advance(timeline.total_time, global_iteration)

            with TRACER.span("train/backward", cat="train", epoch=epoch, iteration=iteration):
                if (
                    execution == "batched"
                    and not ddp.is_degraded
                    and DistributedDataParallel._stackable(batches)
                ):
                    images = np.stack([batch[0] for batch in batches])
                    labels = np.stack([np.asarray(batch[1]) for batch in batches])
                    per_rank_losses, grads = ddp.compute_batched_gradients(
                        (images, labels), F.cross_entropy
                    )
                    if method.gse and mask is not None:
                        # keep masks broadcast over the leading world axis:
                        # (world, *shape) * (*shape) multiplies each rank's
                        # slice exactly as the looped path does.
                        grads = apply_gse(model, mask, grads=grads)
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
                        # pass runs (GSE, when active, reads them in the same
                        # window).
                        loss_value, grads = ddp.compute_local_gradients(
                            batch, F.cross_entropy, copy=False
                        )
                        if method.gse and mask is not None:
                            grads = apply_gse(model, mask, grads=grads)
                        ddp.stage_rank_gradients(rank, grads)
                        per_rank_losses.append(loss_value)

            with TRACER.span("train/sync", cat="train", epoch=epoch, iteration=iteration):
                aggregated, bucket_events = ddp.synchronize_staged()
            with TRACER.span("train/apply", cat="train", epoch=epoch, iteration=iteration):
                ddp.apply_aggregated_gradients(aggregated)
                optimizer.step()
                if mask is not None:
                    # Guard against regrowth through momentum / weight decay.
                    mask.apply_to_weights(model)

            # Flat sums over the events in issue order — the same accumulation
            # order (and therefore the same floats) as the drained group log.
            comm_seconds = float(
                sum(e.time_seconds for per_bucket in bucket_events for e in per_bucket)
            )
            comm_bytes = float(
                sum(e.bytes_per_worker for per_bucket in bucket_events for e in per_bucket)
            )
            per_bucket_seconds = [
                float(sum(e.time_seconds for e in per_bucket)) for per_bucket in bucket_events
            ]
            iteration_compute = per_rank_compute
            if faults.faulty:
                # Survivors only, each scaled by this iteration's churn draw
                # (counter-based, so the draw depends only on the iteration
                # index — never on how the run got here).
                iteration_compute = [
                    per_rank_compute[rank] * churn[rank] for rank in faults.active
                ]
            trace = engine.run_iteration(
                iteration_compute,
                bucket_fractions,
                per_bucket_seconds,
            )
            sim_base = timeline.total_time
            timeline.add_iteration(trace.compute_span, comm_seconds, comm_bytes, trace=trace)
            if faults.faulty:
                timeline.note_degraded_iteration(
                    world_size - len(faults.active), trace.wall_time
                )
                if TRACER.enabled and len(faults.active) < world_size:
                    from repro.obs.tracer import SIM_SCHEDULE_TID  # noqa: PLC0415

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
                from repro.obs.instrument import emit_simulated_iteration  # noqa: PLC0415

                emit_simulated_iteration(
                    TRACER, sim_base, trace, bucket_fractions, timeline.iterations - 1
                )
                TRACER.sim_now = timeline.total_time
            ddp.hook_state.iteration += 1
            global_iteration += 1
            epoch_losses.append(float(np.mean(per_rank_losses)))
            iteration += 1

        accuracy = evaluate_accuracy(model, test_loader)
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        timeline.snapshot_epoch(epoch, mean_loss, accuracy)

        if target_accuracy is not None and accuracy >= target_accuracy:
            reached_target = True
            if stop_at_target:
                break
    return timeline, ddp, compressor, reached_target


def _train_localsgd(
    *,
    model: Module,
    test_loader: DataLoader,
    method: MethodSpec,
    schedule: SyncSchedule,
    cluster: ClusterSpec,
    epochs: int,
    lr: float,
    momentum: float,
    weight_decay: float,
    mask: Optional[PruningMask],
    target_accuracy: Optional[float],
    stop_at_target: bool,
    max_iterations_per_epoch: Optional[int],
    world_size: int,
    plan,
    compressor: Compressor,
    ddp: DistributedDataParallel,
    optimizer: SGD,
    engine: SimulationEngine,
    timeline: TrainingTimeline,
    per_rank_compute: List[float],
    bucket_fractions: List[float],
    rank_loaders: List[DataLoader],
) -> Tuple[TrainingTimeline, DistributedDataParallel, Compressor, bool]:
    """Local SGD: H local optimiser steps per rank between averaging rounds.

    Each rank trains on its own diverged parameter/velocity replica
    (:class:`~repro.simulation.regimes.ReplicaSet`); every ``schedule.period``
    iterations the replicas are reconciled through one collective.  In delta
    mode each rank stages its *model delta* (parameters minus the last synced
    anchor) through the method's codec pipeline — error feedback then carries
    the delta mass the encoding dropped, and fault-driven membership changes
    remap residuals through the same elastic seam as gradients.  Dense mode
    all-reduces the raw fp32 parameters (the method's compressor is not
    consulted at the boundary — FedAvg-style exact averaging).

    ``optimizer`` (the shared-model optimiser built by the dispatcher) is
    unused: local steps go through the per-rank replicas' optimisers.
    """
    del optimizer  # per-rank optimisers live in the ReplicaSet
    period = schedule.period
    model_wire_bytes = float(sum(p.size for p in model.parameters()) * 4)
    faults = _FaultState(
        plan, cluster, world_size, ddp, compressor, timeline, model_wire_bytes
    )
    replicas = ReplicaSet(
        model, world_size, lr=lr, momentum=momentum, weight_decay=weight_decay
    )
    anchor = ddp.snapshot_parameters()
    use_gse = method.gse and mask is not None

    def on_rejoin(ranks: List[int]) -> None:
        # A returning rank starts from the last synced state with fresh
        # momentum (its broadcast cost was already charged by the fault
        # interpreter).
        for rank in ranks:
            replicas.assign(rank, anchor)
            replicas.reset_velocity(rank)

    def sync_round(active: List[int]):
        """Average the active replicas; returns (comm_s, comm_bytes, per_bucket_s)."""
        nonlocal anchor
        for rank in active:
            if schedule.delta:
                ddp.stage_rank_gradients(rank, replicas.delta(rank, anchor))
            else:
                ddp.stage_rank_gradients(rank, replicas.params_dict(rank))
        if schedule.delta:
            aggregated, bucket_events = ddp.synchronize_staged()
            new_params = {
                name: anchor[name] + aggregated[name] for name in anchor
            }
        else:
            # Dense parameter averaging: swap in the native all-reduce hook
            # for this collective so the raw fp32 parameters go on the wire.
            ddp.register_comm_hook(None)
            try:
                aggregated, bucket_events = ddp.synchronize_staged()
            finally:
                ddp.register_comm_hook(compressor)
            new_params = aggregated
        for name, param in model.named_parameters():
            param.data = new_params[name]
        if mask is not None:
            mask.apply_to_weights(model)
        anchor = ddp.snapshot_parameters()
        replicas.reset_all(anchor, active)
        comm_seconds = float(
            sum(e.time_seconds for per_bucket in bucket_events for e in per_bucket)
        )
        comm_bytes = float(
            sum(e.bytes_per_worker for per_bucket in bucket_events for e in per_bucket)
        )
        per_bucket_seconds = [
            float(sum(e.time_seconds for e in per_bucket)) for per_bucket in bucket_events
        ]
        return comm_seconds, comm_bytes, per_bucket_seconds

    global_iteration = 0
    window = 0  # local steps since the last averaging round
    reached_target = False
    for epoch in range(epochs):
        for loader in rank_loaders:
            loader.set_epoch(epoch)
        iterators = [iter(loader) for loader in rank_loaders]
        epoch_losses: List[float] = []
        iteration = 0
        while True:
            if max_iterations_per_epoch is not None and iteration >= max_iterations_per_epoch:
                break
            try:
                batches = [next(it) for it in iterators]
            except StopIteration:
                break

            active_set, churn = faults.advance(
                timeline.total_time, global_iteration, on_rejoin=on_rejoin
            )
            active = faults.active if faults.faulty else list(range(world_size))

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
                    if use_gse:
                        grads = apply_gse(model, mask, grads=grads)
                        ddp.apply_aggregated_gradients(grads)
                    replicas.step(rank)
                    if mask is not None:
                        mask.apply_to_weights(model)
                    replicas.save(rank)
                    per_rank_losses.append(loss_value)

            window += 1
            is_boundary = window >= period
            if is_boundary:
                with TRACER.span(
                    "regime/localsgd-sync", cat="regime",
                    epoch=epoch, iteration=iteration, window=window,
                ):
                    comm_seconds, comm_bytes, per_bucket_seconds = sync_round(active)
                timeline.sync_rounds += 1
                window = 0
            else:
                comm_seconds, comm_bytes, per_bucket_seconds = 0.0, 0.0, []
                timeline.local_steps += 1

            iteration_compute = per_rank_compute
            if faults.faulty:
                iteration_compute = [
                    per_rank_compute[rank] * churn[rank] for rank in faults.active
                ]
            if is_boundary:
                trace = engine.run_iteration(
                    iteration_compute, bucket_fractions, per_bucket_seconds
                )
            else:
                trace = engine.run_local_iteration(iteration_compute)
            sim_base = timeline.total_time
            timeline.add_iteration(trace.compute_span, comm_seconds, comm_bytes, trace=trace)
            if faults.faulty:
                timeline.note_degraded_iteration(
                    world_size - len(faults.active), trace.wall_time
                )
            if TRACER.enabled:
                from repro.obs.instrument import emit_simulated_iteration  # noqa: PLC0415

                emit_simulated_iteration(
                    TRACER, sim_base, trace,
                    bucket_fractions if is_boundary else [],
                    timeline.iterations - 1,
                )
                TRACER.sim_now = timeline.total_time
            ddp.hook_state.iteration += 1
            global_iteration += 1
            epoch_losses.append(float(np.mean(per_rank_losses)))
            iteration += 1

        if window > 0:
            # Flush a partially filled window so evaluation (and the final
            # model) sees the averaged parameters, not one rank's replica.
            active = faults.active if faults.faulty else list(range(world_size))
            with TRACER.span("regime/localsgd-flush", cat="regime", epoch=epoch, window=window):
                comm_seconds, comm_bytes, _ = sync_round(active)
            timeline.add_sync_round(comm_seconds, comm_bytes)
            window = 0

        accuracy = evaluate_accuracy(model, test_loader)
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        timeline.snapshot_epoch(epoch, mean_loss, accuracy)

        if target_accuracy is not None and accuracy >= target_accuracy:
            reached_target = True
            if stop_at_target:
                break
    return timeline, ddp, compressor, reached_target


def _train_async_ps(
    *,
    model: Module,
    test_loader: DataLoader,
    method: MethodSpec,
    schedule: SyncSchedule,
    cluster: ClusterSpec,
    epochs: int,
    seed: int,
    mask: Optional[PruningMask],
    target_accuracy: Optional[float],
    stop_at_target: bool,
    max_iterations_per_epoch: Optional[int],
    world_size: int,
    plan,
    compressor: Compressor,
    ddp: DistributedDataParallel,
    optimizer: SGD,
    timeline: TrainingTimeline,
    per_rank_compute: List[float],
    rank_loaders: List[DataLoader],
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

    Each worker encodes its pushes through its own codec-pipeline instance
    (independent stage state, per-worker error-feedback residuals); pulls
    carry the dense fp32 parameters.  Busy compute/comm time accumulates per
    update, and the timeline total is reconciled to the event clock at every
    epoch snapshot (see ``TrainingTimeline.reconcile_async_total``).
    """
    if mask is not None or method.gse:
        raise ValueError(
            "async parameter-server mode does not support pruning/GSE methods: "
            "the mask lifecycle assumes a synchronous view of the parameters"
        )
    assert isinstance(compressor, CodecCompressor)  # dispatcher validated
    staleness_bound = schedule.staleness
    cost_model = cluster.cost_model_for(world_size)
    model_wire_bytes = float(sum(p.size for p in model.parameters()) * 4)
    pull_seconds = cost_model.p2p_time(model_wire_bytes)

    iters_per_epoch = min(len(loader) for loader in rank_loaders)
    if max_iterations_per_epoch is not None:
        iters_per_epoch = min(iters_per_epoch, max_iterations_per_epoch)
    reached_target = False
    if iters_per_epoch == 0:
        for epoch in range(epochs):
            accuracy = evaluate_accuracy(model, test_loader)
            timeline.snapshot_epoch(epoch, float("nan"), accuracy)
            if target_accuracy is not None and accuracy >= target_accuracy:
                reached_target = True
                if stop_at_target:
                    break
        return timeline, ddp, compressor, reached_target
    total_per_worker = epochs * iters_per_epoch

    # Per-worker codec pipelines: stage state (low-rank warm starts, stage
    # seeds) and error-feedback residuals must not be shared across workers
    # pushing at different versions.  Worker 0 reuses the dispatcher's
    # instance, which doubles as the run's stats carrier.
    worker_codecs: List[CodecCompressor] = [compressor]
    for _ in range(1, world_size):
        clone = method.build_compressor(seed=seed)
        assert isinstance(clone, CodecCompressor)
        worker_codecs.append(clone)
    driver_ef = compressor.error_feedback
    buckets = ddp.buckets
    residuals: List[List[Optional[np.ndarray]]] = [
        [None] * len(buckets) for _ in range(world_size)
    ]

    from repro.compression.codec import EncodeContext  # noqa: PLC0415

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
            codec = worker_codecs[rank]
            decoded: List[np.ndarray] = []
            payload_bytes = 0.0
            for bucket in buckets:
                flat = bucket.flatten(grads)
                res = residuals[rank][bucket.index]
                if driver_ef:
                    if res is None:
                        res = residuals[rank][bucket.index] = np.zeros_like(flat)
                    np.add(flat, res, out=flat)  # flatten returned a fresh buffer
                context = EncodeContext(
                    world_size=1,
                    bucket_index=bucket.index,
                    iteration=update_index,
                )
                payload = codec.pipeline.encode_all([flat], context)[0]
                out = codec.pipeline.decode(payload)
                if driver_ef:
                    residuals[rank][bucket.index] = flat - out
                payload_bytes += float(payload.nbytes)
                decoded.append(out)
                # Mirror CodecCompressor._record on the shared stats carrier:
                # one aggregation of this bucket, fp32 raw bytes, wire bytes.
                compressor.stats.iterations += 1
                compressor.stats.raw_bytes += bucket.numel * FP32_BYTES
                compressor.stats.wire_bytes += float(payload.nbytes)
            compute_seconds = per_rank_compute[rank]
            state.update(
                decoded=decoded,
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
            aggregated: Dict[str, np.ndarray] = {}
            for bucket, flat in zip(buckets, state["decoded"]):
                aggregated.update(bucket.unflatten(flat))
            ddp.apply_aggregated_gradients(aggregated)
            optimizer.step()
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
                from repro.obs.instrument import emit_ps_update  # noqa: PLC0415

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
            ddp.hook_state.iteration += 1
            while (
                snapshots_done < epochs
                and min(completed) >= (snapshots_done + 1) * iters_per_epoch
            ):
                timeline.reconcile_async_total(now)
                accuracy = evaluate_accuracy(model, test_loader)
                losses = epoch_loss_buckets[snapshots_done]
                mean_loss = float(np.mean(losses)) if losses else float("nan")
                timeline.snapshot_epoch(snapshots_done, mean_loss, accuracy)
                snapshots_done += 1
                if target_accuracy is not None and accuracy >= target_accuracy:
                    reached_target = True
                    if stop_at_target:
                        stop = True  # in-flight work is discarded
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

    return timeline, ddp, compressor, reached_target


# --------------------------------------------------------------------------- #
# Config-driven wrapper
# --------------------------------------------------------------------------- #
def run_experiment(config: ExperimentConfig, method: MethodSpec) -> ExperimentResult:
    """Build the workload described by ``config``, train it with ``method``.

    The entire run — dataset materialisation, model construction, training,
    evaluation — executes under ``config.dtype`` (see
    :func:`repro.tensorlib.dtypes.default_dtype`) and, when
    ``config.backend`` is set, under that array backend
    (:func:`repro.tensorlib.backend.use_backend`); both are restored on exit
    even when the run raises.
    """
    with default_dtype(config.dtype), use_backend(config.backend):
        with TRACER.span(
            "experiment", cat="experiment",
            model=config.model, method=method.name, world=config.cluster.world_size,
        ):
            return _run_experiment(config, method)


def _run_experiment(config: ExperimentConfig, method: MethodSpec) -> ExperimentResult:
    dataset = make_dataset(
        config.dataset,
        num_samples=config.dataset_samples,
        image_size=config.image_size,
        noise_std=config.noise_std,
        seed=config.seed,
    )
    train_set, test_set = train_test_split(dataset, test_fraction=config.test_fraction, seed=config.seed)
    test_loader = DataLoader(test_set, batch_size=config.batch_size)

    model = build_model(config.model, num_classes=dataset.num_classes, seed=config.seed)

    # Pre-train briefly (stand-in for "start from a pre-trained model"), then prune.
    pretrain_loader = DataLoader(train_set, batch_size=config.batch_size, shuffle=True, seed=config.seed)
    _pretrain(model, pretrain_loader, config.pretrain_iterations, config.lr)
    sample_batch = next(iter(pretrain_loader))
    mask = _prune_model(model, method, sample_batch)
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
        execution=config.execution,
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
        tta=timeline.time_to_accuracy(config.target_accuracy) if config.target_accuracy else None,
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
    from repro.campaign.runner import run_campaign  # noqa: PLC0415
    from repro.campaign.spec import CampaignCell  # noqa: PLC0415

    methods = list(methods) if methods is not None else list(PAPER_METHODS.values())
    cells = [CampaignCell(config=config, method=method) for method in methods]
    report = run_campaign(cells, store=store, jobs=jobs)
    report.raise_failures()
    return {outcome.result.method: outcome.result for outcome in report.outcomes}
