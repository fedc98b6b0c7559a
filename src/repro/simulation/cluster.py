"""Cluster specification.

A :class:`ClusterSpec` bundles everything the experiment driver needs to know
about "where" training runs: how many workers, the one device they all compute
on and what network connects them.  The default reproduces the paper's testbed
— eight homogeneous workers behind the Fig. 4 topology with a configurable WAN
bottleneck of 100 us per-message latency, no compute/comm overlap and a flat
(single-bottleneck) collective cost model, which keeps every pre-engine figure
bit-identical.

Optional knobs:

* ``overlap`` — schedule each gradient bucket's collective the moment its
  gradients are ready (the event-driven engine's per-bucket overlap model);
* ``hierarchical`` — cost collectives per switch group over the Fig. 4
  topology instead of through one flat bottleneck link;
* ``faults`` — a :class:`~repro.simulation.faults.FaultPlan` of rank
  crashes/re-joins, time-varying link degradation and straggler churn,
  interpreted on the simulated clock by the training driver.  ``None`` (the
  default) is inert: runs are bit-identical to a faultless cluster.  Churn is
  the cluster's one way to make a worker slower than the others.

``ClusterSpec.RETIRED`` holds the fields the cluster no longer has, under the
rule :mod:`repro.simulation.spec` keeps for every spec.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

from repro.comm.network import CostModel, LinkSpec, NetworkModel, PAPER_BANDWIDTHS
from repro.comm.process_group import ProcessGroup
from repro.comm.topology import HierarchicalCostModel
from repro.simulation.compute import DeviceSpec, resolve_device
from repro.simulation.faults import EMPTY_FAULT_PLAN, FaultPlan

#: Every link's per-message latency: 100 us keeps the mini models in the
#: paper's bandwidth-bound regime.
LINK_LATENCY = 1e-4


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
        Device preset name or :class:`DeviceSpec` that prices every worker's
        compute.
    """

    #: Fields the cluster no longer has, each at the value it was retired at.
    #: Per-worker devices, stragglers and a compute speed-up from unstructured
    #: pruning are not in the paper's model; churn in ``faults`` is what slows
    #: a worker.
    RETIRED: ClassVar[Dict[str, object]] = {
        "latency": LINK_LATENCY, "sparse_compute_speedup": False, "devices": None, "straggler": 1.0,
        "straggler_factors": None,
    }
    #: The key order of :meth:`to_dict`, retired fields in their old place.
    STORED_KEYS: ClassVar[Tuple[str, ...]] = (
        "world_size", "bandwidth", "device", "latency", "sparse_compute_speedup", "devices",
        "straggler", "straggler_factors", "overlap", "hierarchical", "faults",
    )

    world_size: int = 8
    bandwidth: Union[str, float] = "1Gbps"
    device: Union[str, DeviceSpec] = "sim-gpu"
    #: Schedule per-bucket collectives as soon as their gradients are ready
    #: (event-driven overlap).  Off by default: the seed time model.
    overlap: bool = False
    #: Cost collectives hierarchically per switch group of the Fig. 4
    #: topology instead of over one flat bottleneck link.
    hierarchical: bool = False
    #: Fault-injection scenario for this cluster, on the simulated clock.
    #: ``None`` (default) is a healthy static cluster — bit-identical to the
    #: pre-fault engine.  Accepts a :class:`~repro.simulation.faults.FaultPlan`
    #: or a compact grammar string; a dict is the stored form (``to_dict``
    #: writes it, ``FaultPlan.from_dict`` reads it back).  The grammar::
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
        resolve_device(self.device)
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
        self, members: Union[None, int, Sequence[int]] = None, bandwidth_factor: float = 1.0
    ) -> CostModel:
        """The collective cost backend for a (possibly degraded) view of this cluster.

        ``members`` are the surviving ranks, or their count for the first
        that many; ``None`` is the whole world.  ``bandwidth_factor`` scales
        the bottleneck (a fault plan's time-varying link factor).  The flat
        alpha-beta model over the bottleneck link depends only on the count.
        With ``hierarchical`` set, the bottleneck is the WAN link between the
        Fig. 4 vSwitches and :class:`HierarchicalCostModel` prices the
        survivors' switch groups, each rank on the vSwitch it hangs off when
        healthy.  The defaults price the healthy cluster — a 1.0 factor
        preserves the bandwidth bits.
        """
        if members is None:
            members = self.world_size
        ranks = range(members) if isinstance(members, int) else members
        bandwidth = self.bandwidth_bytes_per_second() * bandwidth_factor
        if self.hierarchical:
            return HierarchicalCostModel(ranks, LinkSpec(bandwidth, LINK_LATENCY))
        return NetworkModel.from_bandwidth(len(ranks), bandwidth, latency=LINK_LATENCY)

    def fault_plan(self) -> FaultPlan:
        """The cluster's fault plan (the shared inert plan when unset)."""
        return self.faults if self.faults is not None else EMPTY_FAULT_PLAN

    def process_group(self) -> ProcessGroup:
        """Process group of this cluster's workers (``cost_model_for`` prices its events)."""
        return ProcessGroup(self.world_size)

    # ------------------------------------------------------------------ #
    def per_rank_iteration_times(self, iteration_flops: float) -> List[float]:
        """Modeled forward+backward seconds of ``iteration_flops`` on each worker.

        The one place a run's compute work becomes seconds (the timeline
        calls it): ``flops / device.flops_per_second``, the same for every
        rank.  A fault plan's churn multiplies it per rank and iteration.
        """
        return [iteration_flops / resolve_device(self.device).flops_per_second] * self.world_size

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly.

        A ``DeviceSpec`` becomes a nested dict; a preset name stays a string,
        so the round trip preserves how the device was specified (the campaign
        store hashes this representation).  The retired fields are written in
        their old place, so every stored key stays byte-identical.
        """
        # Imported on call: repro.simulation.spec imports this module.
        from repro.simulation.spec import stored_dict  # noqa: PLC0415

        data = stored_dict(self)
        if not isinstance(self.device, str):
            data["device"] = self.device.to_dict()
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        from repro.simulation.spec import rebuild  # noqa: PLC0415

        return rebuild(cls, data, _CLUSTER_FIELDS, retired=True, device=_load_device)

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        bandwidth = self.bandwidth_bytes_per_second()
        return {
            "world_size": self.world_size,
            "bandwidth_mbps": bandwidth * 8 / 1e6,
            "latency_ms": LINK_LATENCY * 1e3,
            "device": self.device if isinstance(self.device, str) else self.device.name,
            "overlap": self.overlap,
            "hierarchical": self.hierarchical,
        }


_CLUSTER_FIELDS = tuple(f.name for f in dataclasses.fields(ClusterSpec))


def _load_device(value) -> Union[str, DeviceSpec]:
    return DeviceSpec.from_dict(value) if isinstance(value, dict) else value
