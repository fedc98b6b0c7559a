"""The Fig. 4 testbed's two-level collective cost model.

The paper's evaluation testbed attaches eight GPU servers round-robin to
three virtual switches chained by throttled WAN links (the experiment's
bottleneck); each server's own link to its switch is a fast LAN link.
:class:`HierarchicalCostModel` prices a collective over any set of those
servers — rank ``r`` hangs off switch ``r % SWITCHES``, so the survivors of a
degraded cluster keep the switch they have when healthy — with the textbook
two-level schedule: each switch group runs its phase over the LAN, and one
leader per group exchanges over the WAN.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.comm.network import GBPS, CostModel, LinkSpec, NetworkModel

#: Virtual switches of Fig. 4; rank ``r`` hangs off switch ``r % SWITCHES``.
SWITCHES = 3
#: Every server's link to its switch.
LAN = LinkSpec(10 * GBPS, 20e-6)


class HierarchicalCostModel(CostModel):
    """Collective costs over the switch groups of ``ranks``.

    With one occupied switch every server-to-server path is two LAN hops, and
    the model is exactly the flat :class:`NetworkModel` over the LAN link.
    With several, collectives decompose into the textbook hierarchical
    schedule:

    * **all-reduce** — intra-group tree reduce onto a group leader (LAN), ring
      all-reduce among the leaders (WAN), intra-group tree broadcast (LAN);
    * **all-gather** — intra-group gather onto the leader (LAN), all-gather
      of the largest group's block among the leaders (WAN), intra-group
      broadcast of the whole world's data (LAN);
    * **broadcast** — broadcast among the leaders (WAN), then within each
      group (LAN);
    * **p2p** — one transfer over the leaders' link.

    Intra-group phases run concurrently across groups, so each phase charges
    the slowest group, which is the largest.  The leaders are charged over
    the worst leader-to-leader path, the one between the two outermost
    occupied switches: LAN, one ``wan`` hop per switch it passes, LAN.  Its
    bandwidth is the narrowest hop's and its latency the sum of the hops'.
    """

    def __init__(self, ranks: Iterable[int], wan: LinkSpec) -> None:
        groups = Counter(rank % SWITCHES for rank in ranks)
        self.world_size = sum(groups.values())
        if len(groups) < 2:
            # The largest group is the whole world; there are no leaders.
            self._group, self._leaders = NetworkModel(self.world_size, LAN), None
            return
        self._group = NetworkModel(max(groups.values()), LAN)
        latency = LAN.latency
        for _ in range(max(groups) - min(groups)):
            latency += wan.latency
        latency += LAN.latency
        path = LinkSpec(min(wan.bandwidth, LAN.bandwidth), latency)
        self._leaders = NetworkModel(len(groups), path)

    def p2p_time(self, num_bytes: float) -> float:
        return (self._group if self._leaders is None else self._leaders).p2p_time(num_bytes)

    def ring_all_reduce_time(self, num_bytes: float) -> float:
        if self._leaders is None:
            return self._group.ring_all_reduce_time(num_bytes)
        return (
            self._group.reduce_time(num_bytes)
            + self._leaders.ring_all_reduce_time(num_bytes)
            + self._group.broadcast_time(num_bytes)
        )

    def all_gather_time(self, num_bytes: float) -> float:
        if self._leaders is None:
            return self._group.all_gather_time(num_bytes)
        return (
            self._group.gather_time(num_bytes)
            + self._leaders.all_gather_time(self._group.world_size * num_bytes)
            + self._group.broadcast_time(self.world_size * num_bytes)
        )

    def broadcast_time(self, num_bytes: float) -> float:
        if self._leaders is None:
            return self._group.broadcast_time(num_bytes)
        return self._leaders.broadcast_time(num_bytes) + self._group.broadcast_time(num_bytes)
