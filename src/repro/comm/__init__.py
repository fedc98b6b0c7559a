"""Cluster, network and collective-communication substrate.

The paper's testbed (Fig. 4) is eight GPU servers attached to virtual switches
with configurable bottleneck links (100 Mbps / 500 Mbps / 1 Gbps).  This
package models that substrate:

* :mod:`repro.comm.topology` — the Fig. 4 topology as a graph of servers and
  switches with per-link bandwidth/latency annotations;
* :mod:`repro.comm.network` — an alpha–beta cost model producing transfer
  times for point-to-point and collective operations over that topology;
* :mod:`repro.comm.collectives` — ring all-reduce, all-gather, broadcast and
  reduce-scatter over numpy arrays, returning both the mathematical result and
  a :class:`CollectiveEvent` with modeled time and bytes on the wire;
* :mod:`repro.comm.process_group` — a simulated process group tying the
  collectives to a fixed set of ranks, used by the DDP simulator.
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
    ring_all_reduce_time,
    all_gather_time,
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
    "ring_all_reduce_time",
    "all_gather_time",
    "ProcessGroup",
]
