"""Cluster, network and collective-communication substrate.

The paper's testbed (Fig. 4) is eight GPU servers attached to virtual switches
with configurable bottleneck links (100 Mbps / 500 Mbps / 1 Gbps).  This
package models that substrate:

* :mod:`repro.comm.topology` — the Fig. 4 topology as a graph of servers and
  switches with per-link bandwidth/latency annotations;
* :mod:`repro.comm.network` — an alpha–beta cost model producing transfer
  times for point-to-point and collective operations over that topology;
* :mod:`repro.comm.collectives` — ring all-reduce, all-gather, broadcast and
  reduce-scatter over per-rank wire payloads, returning both the mathematical
  result and a :class:`CollectiveEvent` with the bytes that moved;
* :mod:`repro.comm.process_group` — a simulated process group tying the
  collectives to a fixed set of ranks, used by the DDP simulator.

Collectives move bytes; :mod:`repro.simulation.pricing` prices their events.
"""

from repro.comm.network import CostModel, LinkSpec, NetworkModel, MBPS, GBPS
from repro.comm.topology import (
    ClusterTopology,
    HierarchicalCostModel,
    build_paper_topology,
    build_star_topology,
)
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
    "ClusterTopology",
    "build_paper_topology",
    "build_star_topology",
    "CollectiveEvent",
    "all_reduce",
    "all_gather",
    "broadcast",
    "reduce_scatter",
    "ProcessGroup",
]
