"""Cluster topology model (Fig. 4 of the paper).

The evaluation testbed attaches eight GPU servers (S1..S8) to virtual switches;
the two links between the switches are throttled to create the WAN bottleneck.
:class:`ClusterTopology` captures that structure as a graph whose links carry
:class:`repro.comm.network.LinkSpec` annotations and exposes two views of it
to the collective layer:

* :meth:`ClusterTopology.to_network_model` — the flat view: one bottleneck
  link shared by all servers (what the paper's single-number bandwidth sweep
  uses);
* :meth:`ClusterTopology.cost_model` — the hierarchical view
  (:class:`HierarchicalCostModel`): servers are grouped by their attached
  switch, collectives are charged an intra-LAN reduce/broadcast per group plus
  a WAN exchange between group leaders, so the Fig. 4 chain topology and the
  flat star stop being indistinguishable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.comm.network import CostModel, LinkSpec, NetworkModel, GBPS


class ClusterTopology:
    """A graph of servers and switches with per-edge link specifications."""

    def __init__(self) -> None:
        self._kind: Dict[str, str] = {}
        self._links: Dict[str, Dict[str, LinkSpec]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_server(self, name: str) -> None:
        self._kind[name] = "server"
        self._links.setdefault(name, {})

    def add_switch(self, name: str) -> None:
        self._kind[name] = "switch"
        self._links.setdefault(name, {})

    def add_link(self, a: str, b: str, link: LinkSpec) -> None:
        """Link two existing nodes; linking a pair again replaces its spec."""
        if a not in self._kind or b not in self._kind:
            raise KeyError(f"both endpoints must exist before linking ({a!r}, {b!r})")
        self._links[a][b] = self._links[b][a] = link

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def servers(self) -> List[str]:
        return sorted(n for n, kind in self._kind.items() if kind == "server")

    @property
    def switches(self) -> List[str]:
        return sorted(n for n, kind in self._kind.items() if kind == "switch")

    @property
    def num_links(self) -> int:
        return sum(1 for _ in self._edges())

    def _edges(self) -> Iterator[Tuple[str, str, LinkSpec]]:
        """Every link once, ordered by first endpoint then by insertion."""
        done = set()
        for a, neighbors in self._links.items():
            for b, link in neighbors.items():
                if b not in done:
                    yield a, b, link
            done.add(a)

    def path(self, src: str, dst: str) -> List[str]:
        """Fewest-hop path between two nodes (breadth-first from ``src``).

        Among equally short paths, the one that follows the earlier-added link
        at the first node where they differ.
        """
        for node in (src, dst):
            if node not in self._kind:
                raise KeyError(f"unknown node {node!r} in path({src!r}, {dst!r})")
        came_from: Dict[str, Optional[str]] = {src: None}
        queue = [src]
        for node in queue:  # grows while iterated: a FIFO without pops
            if node == dst:
                break
            for neighbor in self._links[node]:
                if neighbor not in came_from:
                    came_from[neighbor] = node
                    queue.append(neighbor)
        else:
            raise ValueError(f"no path between {src!r} and {dst!r}")
        nodes = [dst]
        while nodes[-1] != src:
            nodes.append(came_from[nodes[-1]])
        return nodes[::-1]

    def path_links(self, src: str, dst: str) -> List[LinkSpec]:
        nodes = self.path(src, dst)
        return [self._links[a][b] for a, b in zip(nodes[:-1], nodes[1:])]

    def path_spec(self, src: str, dst: str) -> LinkSpec:
        """Collapse the ``src``→``dst`` path into one effective link.

        The effective bandwidth is the minimum along the path (the pipe
        narrows to its tightest hop); the effective latency is the sum of the
        per-hop latencies (each hop adds its own alpha term).
        """
        links = self.path_links(src, dst)
        if not links:
            return LinkSpec(bandwidth=float("inf"), latency=0.0)
        return LinkSpec(
            bandwidth=min(link.bandwidth for link in links),
            latency=sum(link.latency for link in links),
        )

    def global_bottleneck(self) -> LinkSpec:
        """The minimax bottleneck over all server-to-server paths.

        For every pair of servers, the best possible route maximises the
        minimum link bandwidth (the "widest path"); the global bottleneck is
        the worst of those maxima — the link any all-to-all traversal of the
        servers cannot avoid.  Computed with a single maximum-spanning-tree
        style pass (Kruskal on descending bandwidth with union-find), which is
        ``O(E log E)`` instead of the all-pairs ``O(n^2)`` scan: whenever an
        edge first joins two components that both contain servers, it is the
        widest-path bottleneck for every server pair across that cut, and the
        last (slowest) such merge edge is the global minimax bottleneck.
        """
        servers = self.servers
        if len(servers) < 2:
            raise ValueError("topology has fewer than two servers")

        parent: Dict[str, str] = {node: node for node in self._kind}
        server_count: Dict[str, int] = {
            node: 1 if kind == "server" else 0 for node, kind in self._kind.items()
        }

        def find(node: str) -> str:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:  # path compression
                parent[node], node = root, parent[node]
            return root

        edges = sorted(self._edges(), key=lambda edge: edge[2].bandwidth, reverse=True)
        worst: Optional[LinkSpec] = None
        for a, b, link in edges:
            root_a, root_b = find(a), find(b)
            if root_a == root_b:
                continue
            if server_count[root_a] > 0 and server_count[root_b] > 0:
                if worst is None or link.bandwidth < worst.bandwidth:
                    worst = link
            parent[root_b] = root_a
            server_count[root_a] += server_count[root_b]
        if worst is None or any(find(s) != find(servers[0]) for s in servers):
            raise ValueError("servers are not all connected")
        return worst

    # ------------------------------------------------------------------ #
    # Hierarchical structure
    # ------------------------------------------------------------------ #
    def attached_switch(self, server: str) -> Optional[str]:
        """The switch a server hangs off (fastest adjacent switch link)."""
        candidates = [
            (link.bandwidth, neighbor)
            for neighbor, link in self._links[server].items()
            if self._kind[neighbor] == "switch"
        ]
        if not candidates:
            return None
        return max(candidates)[1]

    def switch_groups(self) -> Dict[str, List[str]]:
        """Servers grouped by their attached switch (sorted, deterministic).

        Servers with no adjacent switch form singleton groups keyed by their
        own name, so every server belongs to exactly one group.
        """
        groups: Dict[str, List[str]] = {}
        for server in self.servers:
            key = self.attached_switch(server) or server
            groups.setdefault(key, []).append(server)
        return dict(sorted(groups.items()))

    def cost_model(self) -> "HierarchicalCostModel":
        """Topology-aware collective cost model (see :class:`HierarchicalCostModel`)."""
        return HierarchicalCostModel(self)

    def to_network_model(self) -> NetworkModel:
        """Collapse the topology into a flat :class:`NetworkModel` for collectives."""
        servers = self.servers
        bottleneck = self.global_bottleneck()
        intra_candidates = [
            link
            for a, b, link in self._edges()
            if self._kind[a] == "server" or self._kind[b] == "server"
        ]
        intra = max(intra_candidates, key=lambda link: link.bandwidth) if intra_candidates else None
        return NetworkModel(world_size=len(servers), bottleneck=bottleneck, intra_link=intra)

    def describe(self) -> Dict[str, object]:
        """Summary dictionary used by examples and logging."""
        bottleneck = self.global_bottleneck()
        return {
            "servers": self.servers,
            "switches": self.switches,
            "num_links": self.num_links,
            "bottleneck_bandwidth_mbps": bottleneck.bandwidth * 8 / 1e6,
            "bottleneck_latency_us": bottleneck.latency * 1e6,
        }


class HierarchicalCostModel(CostModel):
    """Topology-aware collective costing over switch groups.

    Servers are partitioned into groups by their attached switch.  With a
    single group (a star/rack topology) every method delegates to the flat
    :class:`NetworkModel` derived from the same topology, so star costs are
    *exactly* the flat costs.  With multiple groups, collectives decompose
    into the textbook hierarchical schedule:

    * **all-reduce** — intra-group tree reduce onto a group leader (LAN), ring
      all-reduce among the leaders (WAN, charged over the worst leader-to-
      leader path collapsed per hop), intra-group tree broadcast (LAN);
    * **broadcast / reduce / gather / all-gather / reduce-scatter** — the
      corresponding intra phase plus the leader-level WAN phase.

    Intra-group phases run concurrently across groups, so each phase charges
    the *slowest* group.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        servers = topology.servers
        if not servers:
            raise ValueError("topology has no servers")
        self.world_size = len(servers)
        self._flat = topology.to_network_model() if self.world_size >= 2 else None
        groups = topology.switch_groups()
        self.group_names: List[str] = list(groups)
        self.groups: List[List[str]] = [groups[name] for name in self.group_names]
        self.leaders: List[str] = [members[0] for members in self.groups]

        # Per-group flat models over the group's slowest member-to-switch link.
        self._group_models: List[NetworkModel] = []
        for name, members in zip(self.group_names, self.groups):
            links = [
                topology._links[server][name]
                for server in members
                if name in topology._links[server]
            ]
            intra = min(links, key=lambda link: link.bandwidth) if links else LinkSpec(float("inf"), 0.0)
            self._group_models.append(
                NetworkModel(world_size=len(members), bottleneck=intra, intra_link=intra)
            )

        # Leader-level model over the worst leader-to-leader effective path.
        if len(self.leaders) > 1:
            specs = [
                topology.path_spec(a, b)
                for i, a in enumerate(self.leaders)
                for b in self.leaders[i + 1 :]
            ]
            wan = min(specs, key=lambda spec: (spec.bandwidth, -spec.latency))
            self._inter = NetworkModel(world_size=len(self.leaders), bottleneck=wan, intra_link=wan)
        else:
            self._inter = None

    # ------------------------------------------------------------------ #
    @property
    def is_flat(self) -> bool:
        """True when hierarchy adds nothing (one switch group or one server)."""
        return self._inter is None

    def _max_over_groups(self, method: str, num_bytes: float) -> float:
        return max(getattr(model, method)(num_bytes) for model in self._group_models)

    # ------------------------------------------------------------------ #
    # CostModel interface
    # ------------------------------------------------------------------ #
    def p2p_time(self, num_bytes: float, cross_cluster: bool = True) -> float:
        if self.is_flat or not cross_cluster:
            model = self._flat or self._group_models[0]
            return model.p2p_time(num_bytes, cross_cluster=cross_cluster)
        return self._inter.bottleneck.transfer_time(num_bytes)

    def ring_all_reduce_time(self, num_bytes: float) -> float:
        if self.is_flat:
            return self._flat.ring_all_reduce_time(num_bytes) if self._flat else 0.0
        return (
            self._max_over_groups("reduce_time", num_bytes)
            + self._inter.ring_all_reduce_time(num_bytes)
            + self._max_over_groups("broadcast_time", num_bytes)
        )

    def all_gather_time(self, num_bytes: float) -> float:
        if self.is_flat:
            return self._flat.all_gather_time(num_bytes) if self._flat else 0.0
        max_group = max(len(members) for members in self.groups)
        return (
            self._max_over_groups("gather_time", num_bytes)
            + self._inter.all_gather_time(max_group * num_bytes)
            + self._max_over_groups("broadcast_time", self.world_size * num_bytes)
        )

    def reduce_scatter_time(self, num_bytes: float) -> float:
        if self.is_flat:
            return self._flat.reduce_scatter_time(num_bytes) if self._flat else 0.0
        return (
            self._max_over_groups("reduce_time", num_bytes)
            + self._inter.reduce_scatter_time(num_bytes)
        )

    def broadcast_time(self, num_bytes: float) -> float:
        if self.is_flat:
            return self._flat.broadcast_time(num_bytes) if self._flat else 0.0
        return (
            self._inter.broadcast_time(num_bytes)
            + self._max_over_groups("broadcast_time", num_bytes)
        )

    def reduce_time(self, num_bytes: float) -> float:
        if self.is_flat:
            return self._flat.reduce_time(num_bytes) if self._flat else 0.0
        return (
            self._max_over_groups("reduce_time", num_bytes)
            + self._inter.reduce_time(num_bytes)
        )

    def gather_time(self, num_bytes: float) -> float:
        if self.is_flat:
            return self._flat.gather_time(num_bytes) if self._flat else 0.0
        max_group = max(len(members) for members in self.groups)
        return (
            self._max_over_groups("gather_time", num_bytes)
            + self._inter.gather_time(max_group * num_bytes)
        )


def build_paper_topology(
    wan_bandwidth: float = 1 * GBPS,
    wan_latency: float = 1e-3,
    lan_bandwidth: float = 10 * GBPS,
    lan_latency: float = 20e-6,
    num_servers: int = 8,
    num_switches: int = 3,
    servers: Optional[Sequence[int]] = None,
) -> ClusterTopology:
    """Build the Fig. 4 evaluation topology.

    Eight servers are spread round-robin across three vSwitches; the switches
    are chained with throttled WAN links (the experiment's bottleneck), while
    server-to-switch links are fast LAN links.  ``servers`` keeps only those
    server indices (the survivors of a degraded cluster), each on the switch
    it has in the full round-robin; the default is ``range(num_servers)``.
    """
    if servers is None:
        servers = range(num_servers)
    if not servers or num_switches < 1:
        raise ValueError("need at least one server and one switch")
    topo = ClusterTopology()
    switches = [f"vswitch{i}" for i in range(num_switches)]
    for switch in switches:
        topo.add_switch(switch)
    for i in range(num_switches - 1):
        topo.add_link(switches[i], switches[i + 1], LinkSpec(wan_bandwidth, wan_latency))

    lan = LinkSpec(lan_bandwidth, lan_latency)
    for index in servers:
        server = f"S{index + 1}"
        topo.add_server(server)
        topo.add_link(server, switches[index % num_switches], lan)
    return topo


def build_star_topology(
    num_servers: int,
    link: LinkSpec,
) -> ClusterTopology:
    """All servers attached to one switch with identical links (datacenter rack)."""
    topo = ClusterTopology()
    topo.add_switch("switch0")
    for index in range(num_servers):
        server = f"S{index + 1}"
        topo.add_server(server)
        topo.add_link(server, "switch0", link)
    return topo
