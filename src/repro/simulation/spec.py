"""Typed experiment specs: what to run, apart from the loop that runs it.

:class:`MethodSpec`, :class:`ExperimentConfig` and :class:`ExperimentResult`
are plain dataclasses with exact ``to_dict``/``from_dict`` round trips, so the
campaign layer, the result store and the golden harness build, hash and
(de)serialise them without depending on :mod:`repro.simulation.experiment`.

A spec field that goes is *retired*: its class (these two and
:class:`~repro.simulation.cluster.ClusterSpec`) declares ``RETIRED``, the
value it was retired at, and ``STORED_KEYS``, the key order of ``to_dict``.
:func:`stored_dict` writes it in its old place, so no stored key moves, and
:func:`drop_retired` drops it at that value and rejects any other by name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.compression.base import CodecCompressor
from repro.compression.registry import (
    PACTRAIN_QUANTIZE,
    build_compressor,
    check_compressor_name,
)
from repro.data import registered_dataset
from repro.data.loader import train_split_size
from repro.ddp.bucket import DEFAULT_BUCKET_CAP_BYTES
from repro.nn.models import registered_model
from repro.pactrain.mask_tracker import MIN_SPARSITY
from repro.simulation.cluster import ClusterSpec
from repro.simulation.regimes import SyncSchedule, parse_sync_schedule
from repro.tensorlib.dtypes import SUPPORTED_DTYPES


#: The SGD every run trains with, without weight decay.  Pre-training takes
#: the same learning rate without momentum.
SGD_LR = 0.05
SGD_MOMENTUM = 0.9
#: The share of the synthetic set every run holds out for evaluation.
TEST_FRACTION = 0.25


class RetiredFieldError(ValueError):
    """A stored spec holds a field the class no longer has at another value
    than the one it was retired at: what it described cannot be rebuilt."""


def drop_retired(cls, data: Dict) -> Dict:
    """``data`` (left untouched) without the fields ``cls.RETIRED`` names.

    One at the value it was retired at is dropped, so old records, fixtures
    and campaign axes still load; one at any other value raises
    :class:`RetiredFieldError` naming it.
    """
    retired = cls.RETIRED
    if retired.keys().isdisjoint(data):
        return data
    data = dict(data)
    for name, value in retired.items():
        if name in data:
            stored = data.pop(name)
            if stored != value:
                raise RetiredFieldError(
                    f"{cls.__name__} field {name!r} was removed: only {value!r} "
                    f"loads, got {stored!r}"
                )
    return data


def stored_dict(spec) -> Dict:
    """``spec``'s fields as its class stores them: keyed in ``STORED_KEYS``
    order, each retired field at the value it was retired at."""
    retired = spec.RETIRED
    return {
        key: retired[key] if key in retired else getattr(spec, key) for key in spec.STORED_KEYS
    }


def rebuild(cls, data: Dict, names: Tuple[str, ...], retired: bool = False,
            **convert: Callable):
    """``cls`` rebuilt from ``data``, a dict of its init fields such as JSON parses.

    ``names`` are the class's init fields in ``dataclasses.fields`` order,
    which is the order of its ``__init__`` parameters.  Each ``convert[name]``
    turns that field's plain value into what the class holds (a nested spec, a
    tuple), applied when the field is present and after the names are checked.
    With ``retired`` set, the fields ``cls.RETIRED`` names are dropped first
    through :func:`drop_retired`.

    When ``data`` holds exactly ``names`` the values are passed by position.
    Keyword passing matches a keyword against the parameter names by identity
    first, and a key parsed from JSON is never the interned name, so every
    keyword of ``cls(**data)`` falls back to string comparison: that made
    rebuilding a stored :class:`ExperimentResult` about five times slower than
    passing its values by position.  Any other ``data`` is checked
    by name, so an unknown field raises ``KeyError`` naming it, and is passed
    by keyword, so a missing defaulted field takes its default and a missing
    required one raises ``TypeError``.
    """
    if retired:
        data = drop_retired(cls, data)
    if len(data) == len(names):
        try:
            values = [data[name] for name in names]
        except KeyError:
            pass
        else:
            for name, function in convert.items():
                index = names.index(name)
                values[index] = function(values[index])
            return cls(*values)
    unknown = set(data).difference(names)
    if unknown:
        raise KeyError(f"unknown {cls.__name__} fields {sorted(unknown)}; known: {sorted(names)}")
    if convert:
        data = dict(data)
        for name, function in convert.items():
            if name in data:
                data[name] = function(data[name])
    return cls(**data)


@dataclass(frozen=True)
class MethodSpec:
    """One gradient-synchronisation method, as named in the paper's figures.

    ``compressor`` is a registry name (see :mod:`repro.compression.registry`)
    or a ``+``-separated codec pipeline spec such as ``"topk0.01+terngrad"``
    or ``"ef+topk0.05+fp16"`` — arbitrary codec compositions
    run end-to-end without a dedicated compressor class.  ``error_feedback``
    is tri-state: ``None`` (default) keeps whatever the compressor spec says,
    ``True`` switches on the driver-level per-bucket residual state
    (equivalent to, and composing idempotently with, a leading ``"ef"`` spec
    token) and ``False`` forces every form of error feedback off — including
    the stage-internal compensation top-k carries in its paper form — which
    makes ``error_feedback`` a uniform on/off campaign axis.  Pruning-related
    fields only take effect for methods that prune (PacTrain); the baselines
    keep the dense model.  A PacTrain cell is described by this spec alone
    (``PAPER_METHODS["pactrain"]`` is the paper's configuration): the pruning
    ratio and criterion, GSE, quantisation and the Mask Tracker's stability
    threshold are its fields, range-checked at construction.  The tracker's
    dense-pattern guard keeps the paper's value, and every iteration may
    take the compact path once its pattern is stable.

    ``sync_schedule`` selects the training regime (see
    :mod:`repro.simulation.regimes` for the grammar): ``None``/``"sync"`` is
    synchronous data-parallel, ``"localsgd:H"`` averages parameters every H
    local steps (``"localsgd:H:delta"`` compresses the model delta through
    the method's codec pipeline instead), and ``"ps[:S]"`` runs the
    stale-gradient async parameter server with staleness bound S.
    """

    #: Fields the method no longer has, each at the value it was retired at:
    #: the Mask Tracker's dense-pattern guard (its own default) and a warm-up
    #: of forced full synchronisation that no figure runs.
    RETIRED: ClassVar[Dict[str, object]] = {"min_sparsity": MIN_SPARSITY, "warmup_iterations": 0}
    #: The key order of :meth:`to_dict`, retired fields in their old place.
    STORED_KEYS: ClassVar[Tuple[str, ...]] = (
        "name", "compressor", "pruning_ratio", "pruning_method", "gse", "quantize",
        "stability_threshold", "min_sparsity", "warmup_iterations", "error_feedback",
        "sync_schedule",
    )

    name: str
    compressor: str = "allreduce"
    pruning_ratio: float = 0.0
    pruning_method: str = "magnitude"
    gse: bool = False
    quantize: bool = False
    stability_threshold: int = 3
    #: Driver-level error feedback: the compressor keeps a per-(bucket, rank)
    #: residual of the gradient mass its encoding dropped and adds it to the
    #: next iteration's input.  ``None`` defers to the compressor spec;
    #: ``True``/``False`` force it on/off.
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
        if not 0.0 <= self.pruning_ratio < 1.0:
            raise ValueError(f"pruning_ratio must be in [0, 1), got {self.pruning_ratio}")
        if self.pruning_method not in ("magnitude", "grasp"):
            # The weight-magnitude criterion and GraSP's gradient-flow one (Eq. (4)).
            raise ValueError(
                f"pruning_method must be 'magnitude' or 'grasp', got {self.pruning_method!r}"
            )
        if self.stability_threshold < 1:
            raise ValueError(f"stability_threshold must be >= 1, got {self.stability_threshold}")
        if schedule.regime == "ps" and (self.pruning_ratio > 0.0 or self.gse):
            raise ValueError(
                "async parameter-server mode does not support pruning/GSE methods: "
                "the mask lifecycle assumes a synchronous view of the parameters"
            )

    def schedule(self) -> SyncSchedule:
        """The parsed sync schedule (the synchronous default when unset)."""
        return parse_sync_schedule(self.sync_schedule)

    def build_compressor(self, seed: int = 0) -> CodecCompressor:
        """A fresh compressor for this method, built by the registry; PacTrain's
        factory alone takes ``quantize`` (which its name may not contradict) and
        the Mask Tracker's stability threshold."""
        # Registry names and codec pipeline specs receive the same per-run
        # seed, so stochastic codecs (ternary rounding) actually vary across
        # multi-seed sweeps.
        if self.compressor.lower() in PACTRAIN_QUANTIZE:
            compressor = build_compressor(
                self.compressor, seed=seed, quantize=self.quantize,
                stability_threshold=self.stability_threshold,
            )
        else:
            compressor = build_compressor(self.compressor, seed=seed)
        if self.error_feedback is not None:
            compressor.set_error_feedback(self.error_feedback)
        return compressor

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly.

        Every field is a scalar, so a fresh :func:`stored_dict` is all
        ``dataclasses.asdict`` would produce (plus the retired fields) —
        without its recursive deep copy, which dominated fingerprinting a
        stored campaign.
        """
        return stored_dict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "MethodSpec":
        return rebuild(cls, data, _METHOD_FIELDS, retired=True)


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
#: the ``pactrain-compact-fp32`` golden trace is built from it.
PACTRAIN_FP32 = MethodSpec(
    name="pactrain-fp32", compressor="pactrain", pruning_ratio=0.5, gse=True, quantize=False
)


@dataclass
class ExperimentConfig:
    """Workload + cluster settings for one training run.

    Every run trains all its epochs with the same SGD (:data:`SGD_LR` and
    :data:`SGD_MOMENTUM`) and holds out the same :data:`TEST_FRACTION` of the
    synthetic set.
    """

    #: Fields the config no longer has, each at the value it was retired at:
    #: the SGD and held-out split every figure shares, a class count the
    #: dataset sets, and an early stop that would cut the accuracy trace short.
    RETIRED: ClassVar[Dict[str, object]] = {
        "num_classes": 10, "lr": SGD_LR, "momentum": SGD_MOMENTUM, "weight_decay": 0.0,
        "test_fraction": TEST_FRACTION, "stop_at_target": False,
    }
    #: The key order of :meth:`to_dict`, retired fields in their old place.
    STORED_KEYS: ClassVar[Tuple[str, ...]] = (
        "model", "dataset", "num_classes", "cluster", "epochs", "batch_size", "lr",
        "momentum", "weight_decay", "target_accuracy", "dataset_samples", "image_size",
        "noise_std", "test_fraction", "pretrain_iterations", "max_iterations_per_epoch",
        "seed", "stop_at_target", "bucket_cap_bytes", "dtype",
    )

    model: str = "resnet18"
    dataset: str = "cifar10"
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    epochs: int = 10
    batch_size: int = 32
    target_accuracy: Optional[float] = None
    dataset_samples: int = 512
    image_size: int = 8
    #: Per-sample noise of the synthetic dataset.  Larger values make the task
    #: harder, so convergence takes more epochs and the convergence-speed
    #: differences between compression schemes become visible.
    noise_std: float = 0.6
    pretrain_iterations: int = 3
    max_iterations_per_epoch: Optional[int] = None
    seed: int = 0
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
        # A misspelt name fails here, before any dataset is built; a name
        # spelt another way is stored as the registry's, so it keys one cell.
        self.model = registered_model(self.model)
        self.dataset = registered_dataset(self.dataset)
        if self.image_size != 8 and self.model == "mlp":
            raise ValueError(
                "model 'mlp' has a fixed 3*8*8 input layer and needs image_size=8, "
                f"got image_size={self.image_size}"
            )
        least = {"epochs": 1, "batch_size": 1, "image_size": 1, "bucket_cap_bytes": 1,
                 "pretrain_iterations": 0, "noise_std": 0}
        for name, bound in least.items():
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be >= {bound}, got {getattr(self, name)}")
        if self.max_iterations_per_epoch is not None and self.max_iterations_per_epoch < 1:
            raise ValueError(
                f"max_iterations_per_epoch must be None or >= 1, got {self.max_iterations_per_epoch}"
            )
        # The split train_test_split will make: an empty training shard
        # trains nothing (and pre-training never ends).  A quarter held out
        # never leaves the test split empty.
        train_samples = train_split_size(self.dataset_samples, TEST_FRACTION)
        if train_samples < self.cluster.world_size:
            raise ValueError(
                f"dataset_samples={self.dataset_samples} with test_fraction={TEST_FRACTION} "
                f"splits into {train_samples} training / "
                f"{self.dataset_samples - train_samples} test samples: every one of the "
                f"world_size={self.cluster.world_size} ranks needs at least one training "
                "sample (shards drop the remainder)"
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
        :func:`stored_dict`.  This representation is what the campaign result
        store hashes, so it must stay stable and canonical (no
        derived/duplicated fields).
        """
        data = stored_dict(self)
        data["cluster"] = self.cluster.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        return rebuild(cls, data, _CONFIG_FIELDS, retired=True, cluster=_cluster)


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _cluster(value):
    return ClusterSpec.from_dict(value) if isinstance(value, dict) else value


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
    #: Whether the run hit ``target_accuracy`` at any epoch (training always
    #: continues to the last one).
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

        Equal in value and type to ``dataclasses.asdict``, without its
        recursive deep copy: the fields are scalars except the two traces and
        ``extra``, which are copied one level (a trace point is an immutable
        tuple of floats), so mutating the dict never reaches the result.
        """
        data = {name: getattr(self, name) for name in _RESULT_FIELDS}
        data["accuracy_trace"] = [tuple(point) for point in self.accuracy_trace]
        data["loss_trace"] = list(self.loss_trace)
        data["extra"] = dict(self.extra)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        return rebuild(cls, data, _RESULT_FIELDS, accuracy_trace=_trace_points)


_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentResult))


def _trace_points(trace) -> List[Tuple[float, float]]:
    return [tuple(point) for point in trace]
