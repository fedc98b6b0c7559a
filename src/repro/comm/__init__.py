"""Cluster, network and collective-communication substrate.

The paper's testbed (Fig. 4) is eight GPU servers attached to virtual switches
with configurable bottleneck links (100 Mbps / 500 Mbps / 1 Gbps).  This
package models that substrate:

* :mod:`repro.comm.network` — the alpha–beta cost interface and its flat
  backend: one bottleneck link shared by every worker;
* :mod:`repro.comm.topology` — the two-level backend over the Fig. 4 switch
  groups: a LAN phase per group and a WAN exchange among the group leaders;
* :mod:`repro.comm.collectives` — ring all-reduce, all-gather, broadcast and
  reduce-scatter over per-rank wire payloads, returning both the mathematical
  result and a :class:`CollectiveEvent` with the bytes that moved;
* :mod:`repro.comm.process_group` — a simulated process group tying the
  collectives to a fixed set of ranks, used by the DDP simulator.

Collectives move bytes; :mod:`repro.simulation.pricing` prices their events.
"""

from repro.comm.network import CostModel, LinkSpec, NetworkModel, MBPS, GBPS
from repro.comm.topology import HierarchicalCostModel
from repro.comm.collectives import (
    CollectiveEvent,
    all_reduce,
    all_gather,
    broadcast,
    reduce_scatter,
)
from repro.comm.process_group import ProcessGroup

__all__ = [
    "CostModel",
    "LinkSpec",
    "NetworkModel",
    "HierarchicalCostModel",
    "MBPS",
    "GBPS",
    "CollectiveEvent",
    "all_reduce",
    "all_gather",
    "broadcast",
    "reduce_scatter",
    "ProcessGroup",
]
