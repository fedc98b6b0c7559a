"""Alpha–beta network cost models.

Collective communication time in the experiments is computed analytically from
link bandwidth and latency (the "alpha–beta" model standard in the collective
communication literature): transferring ``n`` bytes over a link costs
``alpha + n / beta`` seconds, where ``alpha`` is the per-message latency and
``beta`` the bandwidth in bytes/second.

Collective costs are read through the abstract :class:`CostModel` interface,
and outside this package only by :mod:`repro.simulation.pricing`, which
prices the collectives' byte events for the simulation engine and the
timeline; :class:`NetworkModel` is its flat single-bottleneck backend, and
:class:`repro.comm.topology.HierarchicalCostModel` the topology-aware one.

The bottleneck bandwidths used in the paper's evaluation (100 Mbps, 500 Mbps
and 1 Gbps WAN links between switches) are exposed as convenience constants.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

MBPS = 1e6 / 8.0   # bytes per second for one megabit/s
GBPS = 1e9 / 8.0   # bytes per second for one gigabit/s

#: Bandwidths evaluated in the paper (Fig. 3a–c), in bytes/second.
PAPER_BANDWIDTHS = {
    "100Mbps": 100 * MBPS,
    "500Mbps": 500 * MBPS,
    "1Gbps": 1 * GBPS,
}


@dataclass(frozen=True)
class LinkSpec:
    """A network link with a bandwidth (bytes/s) and a per-message latency (s)."""

    bandwidth: float
    latency: float = 100e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def transfer_time(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` over this link (alpha + n/beta)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency + num_bytes / self.bandwidth


class CostModel(ABC):
    """Collective cost interface shared by every network backend.

    It prices exactly the operations a run logs: ``p2p_time`` (a parameter
    server's pull or push), ``ring_all_reduce_time``, ``all_gather_time`` and
    ``broadcast_time``.  Each collective method returns the modeled seconds
    for one collective over a per-worker payload of ``num_bytes``.
    Collective costs must be monotone non-decreasing in ``num_bytes`` and
    (for fixed bytes) in ``world_size``, and must return ``0.0`` for a single
    worker or an empty payload — the engine and the property-based tests rely
    on those invariants.
    ``p2p_time`` is exempt from the ``world_size`` clause: it is a raw link
    transfer between two endpoints, so only the byte invariants apply (zero
    bytes still cost ``0.0`` via :meth:`LinkSpec.transfer_time`).
    """

    world_size: int

    @abstractmethod
    def p2p_time(self, num_bytes: float, cross_cluster: bool = True) -> float:
        """Time for a single point-to-point transfer of ``num_bytes``."""

    @abstractmethod
    def ring_all_reduce_time(self, num_bytes: float) -> float:
        """All-reduce of a ``num_bytes`` buffer resident on every worker."""

    @abstractmethod
    def all_gather_time(self, num_bytes: float) -> float:
        """All-gather where every worker contributes ``num_bytes``."""

    @abstractmethod
    def broadcast_time(self, num_bytes: float) -> float:
        """Broadcast of ``num_bytes`` from one root to all workers."""


class NetworkModel(CostModel):
    """Cost model for a worker pool behind a shared bottleneck link.

    Parameters
    ----------
    world_size:
        Number of training workers.
    bottleneck:
        The slowest link on the aggregation path (the WAN link in Fig. 4).
    intra_link:
        The fast link between co-located workers and their switch; defaults to
        a 10 Gbps datacenter link.  Collective timing is dominated by the
        bottleneck, but the intra-cluster term matters at 1 Gbps.
    """

    def __init__(
        self,
        world_size: int,
        bottleneck: LinkSpec,
        intra_link: LinkSpec | None = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.bottleneck = bottleneck
        self.intra_link = intra_link or LinkSpec(bandwidth=10 * GBPS, latency=20e-6)

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #
    def p2p_time(self, num_bytes: float, cross_cluster: bool = True) -> float:
        """Time for a single point-to-point transfer of ``num_bytes``."""
        link = self.bottleneck if cross_cluster else self.intra_link
        return link.transfer_time(num_bytes)

    # ------------------------------------------------------------------ #
    # Collectives (per-worker payload of ``num_bytes``)
    # ------------------------------------------------------------------ #
    def ring_all_reduce_time(self, num_bytes: float) -> float:
        """Ring all-reduce of a ``num_bytes`` buffer resident on every worker.

        The standard ring algorithm sends ``2 (n-1)/n * num_bytes`` per worker
        across the slowest link, in ``2 (n-1)`` latency-bound steps.
        """
        n = self.world_size
        if n == 1 or num_bytes == 0:
            return 0.0
        steps = 2 * (n - 1)
        volume = 2.0 * (n - 1) / n * num_bytes
        return steps * self.bottleneck.latency + volume / self.bottleneck.bandwidth

    def all_gather_time(self, num_bytes: float) -> float:
        """All-gather where every worker contributes ``num_bytes``.

        Each worker ends up receiving ``(n-1) * num_bytes``; with a ring
        algorithm that is also the volume it forwards across the bottleneck.
        """
        n = self.world_size
        if n == 1 or num_bytes == 0:
            return 0.0
        steps = n - 1
        volume = (n - 1) * num_bytes
        return steps * self.bottleneck.latency + volume / self.bottleneck.bandwidth

    def broadcast_time(self, num_bytes: float) -> float:
        """Binomial-tree broadcast of ``num_bytes`` from one root to all workers."""
        n = self.world_size
        if n == 1 or num_bytes == 0:
            return 0.0
        rounds = math.ceil(math.log2(n))
        return rounds * self.bottleneck.transfer_time(num_bytes)

    # ------------------------------------------------------------------ #
    # Rooted phases (the hierarchical model's intra-group steps)
    # ------------------------------------------------------------------ #
    def reduce_time(self, num_bytes: float) -> float:
        """Binomial-tree reduce onto one root (the mirror image of broadcast).

        Each of the ``ceil(log2 n)`` rounds halves the number of senders; every
        round moves a full ``num_bytes`` message across the bottleneck.
        """
        n = self.world_size
        if n == 1 or num_bytes == 0:
            return 0.0
        rounds = math.ceil(math.log2(n))
        return rounds * self.bottleneck.transfer_time(num_bytes)

    def gather_time(self, num_bytes: float) -> float:
        """Gather where the root receives ``num_bytes`` from each other worker.

        The root's link serialises the ``n - 1`` incoming messages, so the cost
        is ``(n-1)`` latency terms plus ``(n-1) * num_bytes`` of volume.
        """
        n = self.world_size
        if n == 1 or num_bytes == 0:
            return 0.0
        steps = n - 1
        volume = (n - 1) * num_bytes
        return steps * self.bottleneck.latency + volume / self.bottleneck.bandwidth

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_bandwidth(
        cls,
        world_size: int,
        bandwidth_bytes_per_s: float,
        latency: float = 1e-3,
    ) -> "NetworkModel":
        """Build a model from a single bottleneck bandwidth figure."""
        return cls(world_size, LinkSpec(bandwidth=bandwidth_bytes_per_s, latency=latency))

    @classmethod
    def from_paper_setting(cls, world_size: int, setting: str) -> "NetworkModel":
        """Build a model for one of the paper's WAN settings.

        Parameters
        ----------
        setting:
            One of ``"100Mbps"``, ``"500Mbps"``, ``"1Gbps"``.
        """
        if setting not in PAPER_BANDWIDTHS:
            raise KeyError(f"unknown bandwidth setting {setting!r}; options: {sorted(PAPER_BANDWIDTHS)}")
        return cls.from_bandwidth(world_size, PAPER_BANDWIDTHS[setting])
