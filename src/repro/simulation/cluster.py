"""Cluster specification.

A :class:`ClusterSpec` bundles everything the experiment driver needs to know
about "where" training runs: how many workers, what device they compute on and
what network connects them.  The default reproduces the paper's testbed —
eight homogeneous workers behind the Fig. 4 topology with a configurable WAN
bottleneck, no compute/comm overlap and a flat (single-bottleneck) collective
cost model, which keeps every pre-engine figure bit-identical.

Heterogeneity knobs (all optional):

* ``devices`` — one device preset / :class:`DeviceSpec` per worker;
* ``straggler`` — compute-time multiplier for the last worker (2.0 = twice as
  slow), the simplest one-straggler scenario;
* ``straggler_factors`` — full per-worker multiplier list, overriding
  ``straggler``;
* ``overlap`` — schedule each gradient bucket's collective the moment its
  gradients are ready (the event-driven engine's per-bucket overlap model);
* ``hierarchical`` — cost collectives per switch group over the Fig. 4
  topology instead of through one flat bottleneck link;
* ``faults`` — a :class:`~repro.simulation.faults.FaultPlan` of rank
  crashes/re-joins, time-varying link degradation and straggler churn,
  interpreted on the simulated clock by the training driver.  ``None`` (the
  default) is inert: runs are bit-identical to a faultless cluster.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.comm.network import CostModel, NetworkModel, PAPER_BANDWIDTHS
from repro.comm.process_group import ProcessGroup
from repro.comm.topology import build_paper_topology
from repro.simulation.compute import DeviceSpec, resolve_device
from repro.simulation.faults import EMPTY_FAULT_PLAN, FaultPlan


@dataclass
class ClusterSpec:
    """Description of the simulated training cluster.

    Attributes
    ----------
    world_size:
        Number of training workers (the paper uses 8).
    bandwidth:
        Bottleneck bandwidth: either one of the paper's named settings
        (``"100Mbps"``, ``"500Mbps"``, ``"1Gbps"``) or a float in bytes/second.
    device:
        Device preset name or :class:`DeviceSpec` that prices compute,
        shared by all workers unless ``devices`` is given.
    latency:
        Per-message latency of the bottleneck link, in seconds.
    """

    world_size: int = 8
    bandwidth: Union[str, float] = "1Gbps"
    device: Union[str, DeviceSpec] = "sim-gpu"
    #: Per-message latency of the bottleneck link.  The default (100 us) keeps
    #: the mini models in the same bandwidth-bound regime as the paper's
    #: full-size models.
    latency: float = 1e-4
    sparse_compute_speedup: bool = False
    #: Per-worker device list (length ``world_size``); overrides ``device``.
    devices: Optional[Sequence[Union[str, DeviceSpec]]] = None
    #: Compute-time multiplier for the *last* worker (>= any value > 0); 1.0
    #: keeps the cluster homogeneous.
    straggler: float = 1.0
    #: Per-worker compute-time multipliers (length ``world_size``); overrides
    #: ``straggler``.
    straggler_factors: Optional[Sequence[float]] = None
    #: Schedule per-bucket collectives as soon as their gradients are ready
    #: (event-driven overlap).  Off by default: the seed time model.
    overlap: bool = False
    #: Cost collectives hierarchically per switch group of the Fig. 4
    #: topology instead of over one flat bottleneck link.
    hierarchical: bool = False
    #: Fault-injection scenario for this cluster, on the simulated clock.
    #: ``None`` (default) is a healthy static cluster — bit-identical to the
    #: pre-fault engine.  Accepts a :class:`~repro.simulation.faults.FaultPlan`,
    #: a dict (``FaultPlan.from_dict``), or a compact grammar string::
    #:
    #:     crash:R@T          rank R dies at simulated time T
    #:     rejoin:R@T         rank R re-joins at simulated time T
    #:     link:F@T0-T1       link bandwidth x F in [T0, T1) (omit -T1: forever)
    #:     churn:P[:F[:S]]    per-iteration straggler churn (prob P, factor F,
    #:                        seed S), counter-based and seed-deterministic
    #:     policy:carry|zero  EF-residual policy on membership change
    #:
    #: tokens comma-separated, e.g. ``"crash:3@0.5,rejoin:3@2.0,link:0.25@1.0"``.
    #: Also a campaign axis (``"faults": ["", "crash:3@0.5,rejoin:3@2.0"]``).
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.bandwidth_bytes_per_second()  # an unknown name fails here, not in the cell
        for device in [self.device, *(self.devices or ())]:
            resolve_device(device)
        if self.devices is not None and len(self.devices) != self.world_size:
            raise ValueError(
                f"devices must list one entry per worker ({self.world_size}), got {len(self.devices)}"
            )
        if self.straggler <= 0:
            raise ValueError("straggler factor must be positive")
        if self.straggler_factors is not None:
            if len(self.straggler_factors) != self.world_size:
                raise ValueError(
                    f"straggler_factors must list one entry per worker ({self.world_size}), "
                    f"got {len(self.straggler_factors)}"
                )
            if any(f <= 0 for f in self.straggler_factors):
                raise ValueError("straggler factors must be positive")
        if self.faults == "":
            # The empty campaign-axis value: identical to "no faults", so the
            # two spell the same fingerprint.
            self.faults = None
        self.faults = FaultPlan.coerce(self.faults)
        if self.faults is not None:
            self.faults.validate_for_world(self.world_size)

    # ------------------------------------------------------------------ #
    def bandwidth_bytes_per_second(self) -> float:
        if isinstance(self.bandwidth, str):
            if self.bandwidth not in PAPER_BANDWIDTHS:
                raise KeyError(
                    f"unknown bandwidth setting {self.bandwidth!r}; options: {sorted(PAPER_BANDWIDTHS)}"
                )
            return PAPER_BANDWIDTHS[self.bandwidth]
        return float(self.bandwidth)

    def cost_model_for(
        self, world_size: Optional[int] = None, bandwidth_factor: float = 1.0
    ) -> CostModel:
        """The collective cost backend for a (possibly degraded) view of this cluster.

        Flat alpha-beta over the bottleneck link by default; per switch group
        of the Fig. 4 topology when ``hierarchical`` is set.  ``world_size``
        restricts to the surviving membership size and ``bandwidth_factor``
        scales the bottleneck (a fault plan's time-varying link factor).  The
        defaults price the healthy cluster — a 1.0 factor preserves the
        bandwidth bits.
        """
        n = self.world_size if world_size is None else world_size
        bandwidth = self.bandwidth_bytes_per_second() * bandwidth_factor
        if self.hierarchical:
            return build_paper_topology(
                wan_bandwidth=bandwidth, wan_latency=self.latency, num_servers=n
            ).cost_model()
        return NetworkModel.from_bandwidth(n, bandwidth, latency=self.latency)

    def fault_plan(self) -> FaultPlan:
        """The cluster's fault plan (the shared inert plan when unset)."""
        return self.faults if self.faults is not None else EMPTY_FAULT_PLAN

    def process_group(self) -> ProcessGroup:
        """Process group of this cluster's workers (``cost_model_for`` prices its events)."""
        return ProcessGroup(self.world_size)

    # ------------------------------------------------------------------ #
    # Compute heterogeneity
    # ------------------------------------------------------------------ #
    def straggler_multipliers(self) -> List[float]:
        """Per-worker compute-time multipliers (1.0 everywhere when homogeneous)."""
        if self.straggler_factors is not None:
            return [float(f) for f in self.straggler_factors]
        factors = [1.0] * self.world_size
        factors[-1] = float(self.straggler)
        return factors

    @property
    def is_heterogeneous(self) -> bool:
        """Whether any worker computes at a different speed than the others."""
        if self.devices is not None and len(set(map(str, self.devices))) > 1:
            return True
        multipliers = self.straggler_multipliers()
        return any(m != multipliers[0] for m in multipliers)

    def per_rank_iteration_times(self, iteration_flops: float, weight_sparsity: float = 0.0) -> List[float]:
        """Modeled forward+backward seconds of ``iteration_flops`` on each worker.

        The one place a run's compute work becomes seconds (the timeline
        calls it): ``flops / device.flops_per_second * straggler`` per rank.
        With ``sparse_compute_speedup`` pruning also shrinks the FLOPs;
        unstructured sparsity rarely converts 1:1 into speedup, so half of
        the theoretical reduction is realised.  On a homogeneous cluster every
        entry is the same value (a 1.0 factor preserves the bits), so the
        engine's ``max`` over ranks is the seed's single compute term.
        """
        if self.sparse_compute_speedup and weight_sparsity > 0.0:
            iteration_flops *= 1.0 - 0.5 * weight_sparsity
        devices = [self.device] * self.world_size if self.devices is None else self.devices
        return [
            iteration_flops / resolve_device(device).flops_per_second * multiplier
            for device, multiplier in zip(devices, self.straggler_multipliers())
        ]

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly.

        ``DeviceSpec`` entries become nested dicts; preset names stay strings,
        so the round trip preserves how the device was specified (the campaign
        store hashes this representation).
        """

        def _device(value: Union[str, DeviceSpec]) -> Union[str, dict]:
            return value if isinstance(value, str) else value.to_dict()

        return {
            "world_size": self.world_size,
            "bandwidth": self.bandwidth,
            "device": _device(self.device),
            "latency": self.latency,
            "sparse_compute_speedup": self.sparse_compute_speedup,
            "devices": None if self.devices is None else [_device(d) for d in self.devices],
            "straggler": self.straggler,
            "straggler_factors": (
                None if self.straggler_factors is None else [float(f) for f in self.straggler_factors]
            ),
            "overlap": self.overlap,
            "hierarchical": self.hierarchical,
            "faults": None if self.faults is None else self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        # Imported on call: repro.simulation.spec imports this module.
        from repro.simulation.spec import rebuild  # noqa: PLC0415

        return rebuild(cls, data, _CLUSTER_FIELDS, device=_load_device, devices=_load_devices)

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        bandwidth = self.bandwidth_bytes_per_second()
        return {
            "world_size": self.world_size,
            "bandwidth_mbps": bandwidth * 8 / 1e6,
            "latency_ms": self.latency * 1e3,
            "device": self.device if isinstance(self.device, str) else self.device.name,
            "overlap": self.overlap,
            "hierarchical": self.hierarchical,
            "heterogeneous": self.is_heterogeneous,
            "straggler_factors": self.straggler_multipliers(),
        }


_CLUSTER_FIELDS = tuple(f.name for f in dataclasses.fields(ClusterSpec))


def _load_device(value) -> Union[str, DeviceSpec]:
    return DeviceSpec.from_dict(value) if isinstance(value, dict) else value


def _load_devices(values) -> Optional[List[Union[str, DeviceSpec]]]:
    return None if values is None else [_load_device(value) for value in values]
