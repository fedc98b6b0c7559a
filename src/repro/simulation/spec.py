"""Typed experiment specs: what to run, apart from the loop that runs it.

:class:`MethodSpec`, :class:`ExperimentConfig` and :class:`ExperimentResult`
are plain dataclasses with exact ``to_dict``/``from_dict`` round trips, so the
campaign layer, the result store and the golden harness build, hash and
(de)serialise them without depending on :mod:`repro.simulation.experiment`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compression.base import CodecCompressor, Compressor
from repro.compression.registry import (
    PACTRAIN_QUANTIZE,
    build_compressor,
    check_compressor_name,
)
from repro.ddp.bucket import DEFAULT_BUCKET_CAP_BYTES
from repro.nn.models import registered_model
from repro.simulation.cluster import ClusterSpec
from repro.simulation.regimes import SyncSchedule, parse_sync_schedule
from repro.tensorlib.dtypes import SUPPORTED_DTYPES


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
        # Validate eagerly so a bad schedule or a misspelt compressor fails at
        # spec-construction time (campaign expansion), not minutes into a sweep.
        schedule = parse_sync_schedule(self.sync_schedule)
        check_compressor_name(self.compressor)
        if schedule.regime == "ps" and (self.pruning_ratio > 0.0 or self.gse):
            raise ValueError(
                "async parameter-server mode does not support pruning/GSE methods: "
                "the mask lifecycle assumes a synchronous view of the parameters"
            )

    def schedule(self) -> SyncSchedule:
        """The parsed sync schedule (the synchronous default when unset)."""
        return parse_sync_schedule(self.sync_schedule)

    def build_compressor(self, seed: int = 0) -> Compressor:
        """A fresh compressor for this method, built by the registry; PacTrain's
        factory alone takes ``quantize`` (which its name may not contradict) and
        the Mask Tracker fields."""
        tracker = {}
        if self.compressor.lower() in PACTRAIN_QUANTIZE:
            tracker = {
                "quantize": self.quantize,
                "stability_threshold": self.stability_threshold,
                "min_sparsity": self.min_sparsity,
                "warmup_iterations": self.warmup_iterations,
            }
        # Registry names and codec pipeline specs receive the same per-run
        # seed, so stochastic codecs (random-k selection, ternary rounding)
        # actually vary across multi-seed sweeps.
        compressor = build_compressor(self.compressor, seed=seed, **tracker)
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
        unknown = set(data).difference(_METHOD_FIELDS)
        if unknown:
            raise KeyError(
                f"unknown MethodSpec fields {sorted(unknown)}; known: {sorted(_METHOD_FIELDS)}"
            )
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

    def __post_init__(self) -> None:
        if self.dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(SUPPORTED_DTYPES)}, got {self.dtype!r}"
            )
        registered_model(self.model)  # a misspelt name fails here, before any dataset is built
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
        # The split train_test_split will make, with its own arithmetic: an
        # empty training shard trains nothing (and pre-training never ends),
        # an empty test split evaluates nothing.
        train_samples = int(self.dataset_samples * (1.0 - self.test_fraction))
        test_samples = self.dataset_samples - train_samples
        if train_samples < self.cluster.world_size or test_samples < 1:
            raise ValueError(
                f"dataset_samples={self.dataset_samples} with test_fraction={self.test_fraction} "
                f"splits into {train_samples} training / {test_samples} test samples: every one "
                f"of the world_size={self.cluster.world_size} ranks needs at least one training "
                "sample (shards drop the remainder) and the test split at least one"
            )
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
        unknown = set(data).difference(_CONFIG_FIELDS)
        if unknown:
            raise KeyError(
                f"unknown ExperimentConfig fields {sorted(unknown)}; known: {sorted(_CONFIG_FIELDS)}"
            )
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
        unknown = set(data).difference(_RESULT_FIELDS)
        if unknown:
            raise KeyError(
                f"unknown ExperimentResult fields {sorted(unknown)}; known: {sorted(_RESULT_FIELDS)}"
            )
        kwargs = dict(data)
        kwargs["accuracy_trace"] = [tuple(point) for point in kwargs.get("accuracy_trace", [])]
        return cls(**kwargs)


_RESULT_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentResult))
