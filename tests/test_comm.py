"""Network cost model, topology (Fig. 4), collectives and process group."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import (
    GBPS,
    MBPS,
    ClusterTopology,
    CostModel,
    HierarchicalCostModel,
    LinkSpec,
    NetworkModel,
    ProcessGroup,
    all_gather,
    all_reduce,
    broadcast,
    build_paper_topology,
    build_star_topology,
    reduce_scatter,
)
from repro.comm.network import PAPER_BANDWIDTHS
from repro.simulation import pricing
from repro.compression.codec.payloads import (
    BitmaskPayload,
    DensePayload,
    HalfPayload,
    SparsePayload,
    TernaryPayload,
    pack_ternary,
)

#: Every collective cost the CostModel interface exposes, by method name.
COLLECTIVE_METHODS = (
    "ring_all_reduce_time",
    "all_gather_time",
    "reduce_scatter_time",
    "broadcast_time",
    "reduce_time",
    "gather_time",
)


class TestLinkSpec:
    def test_transfer_time(self):
        link = LinkSpec(bandwidth=100 * MBPS, latency=1e-3)
        # 12.5 MB at 12.5 MB/s -> 1 s plus latency
        assert link.transfer_time(12.5e6) == pytest.approx(1.0 + 1e-3)

    def test_zero_bytes_is_free(self):
        assert LinkSpec(bandwidth=1e6).transfer_time(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1.0, latency=-1)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1e6).transfer_time(-5)


class TestNetworkModel:
    def test_ring_allreduce_formula(self):
        model = NetworkModel.from_bandwidth(8, 100 * MBPS, latency=1e-3)
        nbytes = 1e6
        expected = 2 * 7 * 1e-3 + (2 * 7 / 8) * nbytes / (100 * MBPS)
        assert model.ring_all_reduce_time(nbytes) == pytest.approx(expected)

    def test_allgather_costs_more_than_allreduce_for_same_payload(self):
        model = NetworkModel.from_bandwidth(8, 1 * GBPS)
        nbytes = 1e7
        assert model.all_gather_time(nbytes) > model.ring_all_reduce_time(nbytes)

    def test_single_worker_costs_nothing(self):
        model = NetworkModel.from_bandwidth(1, 100 * MBPS)
        assert model.ring_all_reduce_time(1e6) == 0.0
        assert model.all_gather_time(1e6) == 0.0
        assert model.broadcast_time(1e6) == 0.0

    def test_time_scales_inversely_with_bandwidth(self):
        slow = NetworkModel.from_bandwidth(8, PAPER_BANDWIDTHS["100Mbps"], latency=0.0)
        fast = NetworkModel.from_bandwidth(8, PAPER_BANDWIDTHS["1Gbps"], latency=0.0)
        assert slow.ring_all_reduce_time(1e7) == pytest.approx(10 * fast.ring_all_reduce_time(1e7))

    def test_broadcast_uses_log_rounds(self):
        model = NetworkModel.from_bandwidth(8, 1 * GBPS, latency=0.0)
        single = model.bottleneck.transfer_time(1e6)
        assert model.broadcast_time(1e6) == pytest.approx(math.ceil(math.log2(8)) * single)

    def test_reduce_scatter_is_half_of_allreduce(self):
        model = NetworkModel.from_bandwidth(4, 1 * GBPS, latency=0.0)
        assert model.ring_all_reduce_time(4e6) == pytest.approx(2 * model.reduce_scatter_time(4e6))

    def test_from_paper_setting(self):
        model = NetworkModel.from_paper_setting(8, "500Mbps")
        assert model.bottleneck.bandwidth == pytest.approx(500 * MBPS)
        with pytest.raises(KeyError):
            NetworkModel.from_paper_setting(8, "10Gbps")

    def test_implements_cost_model_interface(self):
        model = NetworkModel.from_bandwidth(8, 1 * GBPS)
        assert isinstance(model, CostModel)
        for method in COLLECTIVE_METHODS:
            assert getattr(model, method)(1e6) > 0.0
            assert getattr(model, method)(0.0) == 0.0

    def test_reduce_mirrors_broadcast(self):
        model = NetworkModel.from_bandwidth(8, 1 * GBPS)
        assert model.reduce_time(1e6) == pytest.approx(model.broadcast_time(1e6))

    def test_gather_serialises_on_the_root_link(self):
        model = NetworkModel.from_bandwidth(4, 100 * MBPS, latency=1e-3)
        nbytes = 1e6
        expected = 3 * 1e-3 + 3 * nbytes / (100 * MBPS)
        assert model.gather_time(nbytes) == pytest.approx(expected)
        assert NetworkModel.from_bandwidth(1, 100 * MBPS).gather_time(nbytes) == 0.0
        assert NetworkModel.from_bandwidth(1, 100 * MBPS).reduce_time(nbytes) == 0.0


class TestTopology:
    def test_paper_topology_counts(self):
        topo = build_paper_topology()
        assert len(topo.servers) == 8
        assert len(topo.switches) == 3
        # 8 server links + 2 inter-switch links
        assert topo.num_links == 10

    def test_bottleneck_is_wan_link(self):
        topo = build_paper_topology(wan_bandwidth=100 * MBPS)
        bottleneck = topo.global_bottleneck()
        assert bottleneck.bandwidth == pytest.approx(100 * MBPS)

    def test_same_switch_path_avoids_wan(self):
        topo = build_paper_topology(wan_bandwidth=100 * MBPS)
        # S1 and S4 are both on vswitch0 (round-robin assignment).
        link = topo.path_spec("S1", "S4")
        assert link.bandwidth > 100 * MBPS

    def test_cross_switch_path_hits_wan(self):
        topo = build_paper_topology(wan_bandwidth=100 * MBPS)
        link = topo.path_spec("S1", "S2")
        assert link.bandwidth == pytest.approx(100 * MBPS)

    def test_to_network_model(self):
        topo = build_paper_topology(wan_bandwidth=500 * MBPS)
        model = topo.to_network_model()
        assert model.world_size == 8
        assert model.bottleneck.bandwidth == pytest.approx(500 * MBPS)

    def test_star_topology(self):
        topo = build_star_topology(4, LinkSpec(1 * GBPS))
        assert len(topo.servers) == 4
        assert topo.global_bottleneck().bandwidth == pytest.approx(1 * GBPS)

    def test_describe(self):
        info = build_paper_topology(wan_bandwidth=1 * GBPS).describe()
        assert info["bottleneck_bandwidth_mbps"] == pytest.approx(1000.0)
        assert len(info["servers"]) == 8

    def test_add_link_requires_existing_nodes(self):
        topo = ClusterTopology()
        topo.add_server("a")
        with pytest.raises(KeyError):
            topo.add_link("a", "missing", LinkSpec(1e6))

    def test_global_bottleneck_requires_two_servers(self):
        topo = ClusterTopology()
        topo.add_server("only")
        with pytest.raises(ValueError):
            topo.global_bottleneck()

    def test_global_bottleneck_requires_connected_servers(self):
        topo = ClusterTopology()
        topo.add_server("a")
        topo.add_server("b")
        with pytest.raises(ValueError):
            topo.global_bottleneck()

    def test_global_bottleneck_avoids_unused_slow_spur(self):
        # A slow link hanging off a switch with no server behind it must not
        # count: no server-to-server path crosses it.
        topo = build_star_topology(4, LinkSpec(1 * GBPS))
        topo.add_switch("spur")
        topo.add_link("switch0", "spur", LinkSpec(1 * MBPS))
        assert topo.global_bottleneck().bandwidth == pytest.approx(1 * GBPS)

    def test_global_bottleneck_is_minimax_over_parallel_paths(self):
        # Two routes between the servers: 10 Mbps direct, 100 Mbps via two
        # hops.  The widest path avoids the slow direct link.
        topo = ClusterTopology()
        topo.add_server("a")
        topo.add_server("b")
        topo.add_switch("mid")
        topo.add_link("a", "b", LinkSpec(10 * MBPS))
        topo.add_link("a", "mid", LinkSpec(100 * MBPS))
        topo.add_link("mid", "b", LinkSpec(100 * MBPS))
        assert topo.global_bottleneck().bandwidth == pytest.approx(100 * MBPS)

    def test_global_bottleneck_micro_benchmark_512_servers(self):
        # Satellite requirement: the minimax/maximum-spanning-tree pass must
        # handle a 512-server topology in well under a second (the old
        # all-pairs scan was O(n^2) shortest-path computations).
        topo = build_paper_topology(num_servers=512, num_switches=8)
        start = time.perf_counter()
        bottleneck = topo.global_bottleneck()
        elapsed = time.perf_counter() - start
        assert bottleneck.bandwidth == pytest.approx(1 * GBPS)
        assert elapsed < 0.25, f"global_bottleneck took {elapsed:.3f}s on 512 servers"

    def test_path_spec_collapses_hops(self):
        topo = build_paper_topology(
            wan_bandwidth=100 * MBPS, wan_latency=1e-3, lan_latency=20e-6
        )
        # S1 (vswitch0) -> S3 (vswitch2): LAN + WAN + WAN + LAN hops.
        spec = topo.path_spec("S1", "S3")
        assert spec.bandwidth == pytest.approx(100 * MBPS)
        assert spec.latency == pytest.approx(2 * 1e-3 + 2 * 20e-6)
        assert topo.path_spec("S1", "S3").transfer_time(0.0) == 0.0
        assert topo.path_spec("S1", "S1").transfer_time(1e6) == 0.0

    def test_switch_groups_round_robin(self):
        topo = build_paper_topology(num_servers=8, num_switches=3)
        groups = topo.switch_groups()
        assert set(groups) == {"vswitch0", "vswitch1", "vswitch2"}
        assert sorted(len(members) for members in groups.values()) == [2, 3, 3]
        assert topo.attached_switch("S1") == "vswitch0"


class TestHierarchicalCostModel:
    def test_star_topology_matches_flat_model_exactly(self):
        # The satellite equivalence guarantee: one switch group delegates to
        # the flat NetworkModel, so every cost is float-equal, not approx.
        topo = build_star_topology(8, LinkSpec(1 * GBPS, latency=1e-4))
        flat = topo.to_network_model()
        hier = topo.cost_model()
        assert isinstance(hier, CostModel)
        assert hier.is_flat and len(hier.groups) == 1
        for nbytes in (0.0, 1.0, 1e3, 1e6, 5e7):
            for method in COLLECTIVE_METHODS:
                assert getattr(hier, method)(nbytes) == getattr(flat, method)(nbytes)
            assert hier.p2p_time(nbytes) == flat.p2p_time(nbytes)

    def test_hierarchical_all_reduce_charges_lan_and_wan(self):
        topo = build_paper_topology(wan_bandwidth=100 * MBPS)
        hier = topo.cost_model()
        assert len(hier.groups) == 3 and not hier.is_flat
        nbytes = 1e6
        total = hier.ring_all_reduce_time(nbytes)
        inter_only = hier._inter.ring_all_reduce_time(nbytes)
        # The WAN exchange runs between the 3 switch-group leaders; the intra
        # LAN reduce and broadcast phases are charged on top of it.
        assert total > inter_only
        assert total == pytest.approx(
            hier._max_over_groups("reduce_time", nbytes)
            + inter_only
            + hier._max_over_groups("broadcast_time", nbytes)
        )

    def test_chain_beats_flat_ring_under_wan_bottleneck(self):
        # A flat ring drags all 8 workers across the WAN; the hierarchical
        # schedule only sends the 3 group leaders across it — the reduction
        # structure the paper's Fig. 4 testbed is built to exercise.
        topo = build_paper_topology(wan_bandwidth=100 * MBPS)
        nbytes = 1e7
        hier = topo.cost_model()
        assert hier.ring_all_reduce_time(nbytes) < topo.to_network_model().ring_all_reduce_time(nbytes)

    def test_all_costs_positive_and_zero_safe(self):
        hier = build_paper_topology(wan_bandwidth=100 * MBPS).cost_model()
        for method in COLLECTIVE_METHODS:
            assert getattr(hier, method)(1e6) > 0.0
            assert getattr(hier, method)(0.0) == 0.0

    def test_process_group_accepts_hierarchical_model(self, rng):
        topo = build_paper_topology(wan_bandwidth=100 * MBPS, num_servers=4)
        group = ProcessGroup(4)
        group.all_reduce(dense(rng, *[64] * 4))
        assert pricing.comm_time(topo.cost_model(), group.events) > 0.0

    def test_single_server_topology(self):
        topo = ClusterTopology()
        topo.add_switch("sw")
        topo.add_server("S1")
        topo.add_link("S1", "sw", LinkSpec(1 * GBPS))
        hier = topo.cost_model()
        assert hier.world_size == 1
        for method in COLLECTIVE_METHODS:
            assert getattr(hier, method)(1e6) == 0.0

    def test_requires_servers(self):
        with pytest.raises(ValueError):
            HierarchicalCostModel(ClusterTopology())


# ---------------------------------------------------------------------- #
# The topology without a graph library
# ---------------------------------------------------------------------- #
#: What the networkx-backed ``ClusterTopology`` of commit 70ee6f8 returned,
#: recorded by running ``_topology_snapshot`` over ``_pinned_topologies()`` on
#: that commit: a digest of every value for the whole grid ("digests") and
#: the values themselves for three of its members ("values").
PINNED = json.loads((Path(__file__).parent / "fixtures" / "topology_values.json").read_text())

COST_METHODS = ("p2p_time",) + COLLECTIVE_METHODS


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _topology_snapshot(topo: ClusterTopology) -> dict:
    """Everything the cost layer reads from a topology, as JSON-exact values."""
    servers = topo.servers
    pairs = {}
    for i, a in enumerate(servers):
        for b in servers[i + 1 :]:
            spec = topo.path_spec(a, b)
            pairs[f"{a}-{b}"] = [">".join(topo.path(a, b)), spec.bandwidth, spec.latency]

    def bottleneck():
        link = topo.global_bottleneck()
        return [link.bandwidth, link.latency]

    def costs():
        model = topo.cost_model()
        return {m: [getattr(model, m)(n) for n in (1.0, 1e6, 5e7)] for m in COST_METHODS}

    return {
        "pairs": pairs,
        "global_bottleneck": _outcome(bottleneck),
        "switch_groups": topo.switch_groups(),
        "costs": _outcome(costs),
    }


@functools.lru_cache(maxsize=None)
def _pinned_topologies() -> dict:
    topologies = {}
    for servers in range(1, 17):
        for switches in range(1, 5):
            topologies[f"paper-{servers}x{switches}"] = build_paper_topology(
                wan_bandwidth=100 * MBPS, num_servers=servers, num_switches=switches
            )
        topologies[f"star-{servers}"] = build_star_topology(servers, LinkSpec(1 * GBPS, latency=1e-4))
    return topologies


def _digest(snapshot: dict) -> str:
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()[:16]


def _first_in_link_order(adjacency: dict, src: str, dst: str):
    """Brute force: every simple path, the shortest of them, then the tie rule."""

    def simple_paths(path):
        if path[-1] == dst:
            yield path
            return
        for neighbor in adjacency[path[-1]]:
            if neighbor not in path:
                yield from simple_paths(path + [neighbor])

    def link_order(path):
        return [adjacency[a].index(b) for a, b in zip(path, path[1:])]

    paths = list(simple_paths([src]))
    fewest = min(map(len, paths), default=None)
    return min((path for path in paths if len(path) == fewest), key=link_order, default=None)


class TestTopologyWithoutNetworkx:
    @pytest.mark.parametrize("name", sorted(PINNED["digests"]))
    def test_grid_returns_what_the_networkx_version_returned(self, name):
        snapshot = json.loads(json.dumps(_topology_snapshot(_pinned_topologies()[name])))
        if name in PINNED["values"]:
            assert snapshot == PINNED["values"][name]
        assert _digest(snapshot) == PINNED["digests"][name], snapshot

    def test_the_pinned_grid_is_the_whole_grid(self):
        assert sorted(PINNED["digests"]) == sorted(_pinned_topologies())
        assert sorted(PINNED["values"]) == ["paper-16x4", "paper-8x3", "star-8"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), size=st.integers(2, 12))
    def test_tree_paths_are_simple_linked_and_unique(self, data, size):
        above = [None] + [data.draw(st.integers(0, i - 1)) for i in range(1, size)]
        links = data.draw(st.permutations(range(1, size)))
        topo = ClusterTopology()
        for i in data.draw(st.permutations(range(size))):
            (topo.add_server if data.draw(st.booleans()) else topo.add_switch)(f"n{i}")
        for i in links:
            topo.add_link(f"n{i}", f"n{above[i]}", LinkSpec(1e6 * (i + 1)))
        src, dst = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))

        def to_root(i):
            return [i] if above[i] is None else [i] + to_root(above[i])

        up, down = to_root(src), to_root(dst)
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop(), down.pop()
        expected = [f"n{i}" for i in up + down[-2::-1]]

        path = topo.path(f"n{src}", f"n{dst}")
        assert (path[0], path[-1]) == (f"n{src}", f"n{dst}")
        assert len(set(path)) == len(path)
        assert all(b in topo._links[a] for a, b in zip(path, path[1:]))
        assert path == expected
        assert topo.num_links == size - 1

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), size=st.integers(2, 7))
    def test_cyclic_graphs_take_the_fewest_hops_and_the_earlier_link(self, data, size):
        every_pair = [(a, b) for a in range(size) for b in range(a + 1, size)]
        links = data.draw(st.lists(st.sampled_from(every_pair), unique=True, max_size=len(every_pair)))
        topo = ClusterTopology()
        adjacency = {f"n{i}": [] for i in range(size)}
        for name in adjacency:
            topo.add_switch(name)
        for a, b in links:
            a, b = (f"n{a}", f"n{b}") if data.draw(st.booleans()) else (f"n{b}", f"n{a}")
            topo.add_link(a, b, LinkSpec(1e6))
            adjacency[a].append(b)
            adjacency[b].append(a)
        src, dst = f"n{data.draw(st.integers(0, size - 1))}", f"n{data.draw(st.integers(0, size - 1))}"
        expected = _first_in_link_order(adjacency, src, dst)
        if expected is None:
            with pytest.raises(ValueError, match=f"'{src}' and '{dst}'"):
                topo.path(src, dst)
        else:
            assert topo.path(src, dst) == expected
        assert topo.num_links == len(links)

    def test_linking_a_pair_again_replaces_the_spec(self):
        topo = build_star_topology(2, LinkSpec(1 * GBPS))
        slow = LinkSpec(10 * MBPS, latency=5e-3)
        topo.add_link("switch0", "S1", slow)
        assert topo.num_links == 2
        assert topo.path_links("S1", "switch0") == [slow] == topo.path_links("switch0", "S1")
        assert topo.global_bottleneck() == slow
        assert topo.path("S1", "S2") == ["S1", "switch0", "S2"]

    def test_adding_a_node_again_keeps_its_links(self):
        topo = build_star_topology(2, LinkSpec(1 * GBPS))
        topo.add_switch("S2")
        assert topo.servers == ["S1"] and topo.switches == ["S2", "switch0"]
        assert topo.path("S1", "S2") == ["S1", "switch0", "S2"]

    def test_path_to_an_unknown_node_is_a_key_error_naming_it(self):
        topo = build_star_topology(2, LinkSpec(1 * GBPS))
        with pytest.raises(KeyError, match="'S9'.*path\\('S1', 'S9'\\)"):
            topo.path("S1", "S9")
        with pytest.raises(KeyError, match="'nowhere'"):
            topo.path_spec("nowhere", "S1")

    def test_path_between_disconnected_nodes_is_a_value_error_naming_them(self):
        topo = build_star_topology(2, LinkSpec(1 * GBPS))
        topo.add_server("island")
        with pytest.raises(ValueError, match="no path between 'S1' and 'island'"):
            topo.path("S1", "island")
        with pytest.raises(ValueError, match="no path between 'island' and 'S2'"):
            topo.path_spec("island", "S2")

    def test_importing_the_package_loads_no_graph_library(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.simulation, repro.campaign, repro.golden; "
                "sys.exit('networkx' in sys.modules)",
            ],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert (done.returncode, done.stderr) == (0, "")


def dense(rng, *sizes):
    """One fp32-charged DensePayload per size, standard-normal values."""
    return [DensePayload(rng.standard_normal(size)) for size in sizes]


class TestCollectives:
    def test_all_reduce_average(self, rng):
        buffers = dense(rng, *[100] * 4)
        result, event = all_reduce(buffers, average=True)
        np.testing.assert_allclose(
            result.values, np.mean([b.values for b in buffers], axis=0), atol=1e-12
        )
        assert event.op == "all_reduce"
        assert event.world_size == 4

    def test_all_reduce_sum(self, rng):
        buffers = dense(rng, 10, 10, 10)
        result, _ = all_reduce(buffers, average=False)
        np.testing.assert_allclose(
            result.values, np.sum([b.values for b in buffers], axis=0), atol=1e-12
        )

    def test_all_reduce_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            all_reduce(dense(rng, 3, 4))

    def test_all_reduce_charges_time(self, rng):
        network = NetworkModel.from_bandwidth(4, 100 * MBPS)
        _, event = all_reduce(dense(rng, *[1000] * 4))
        assert event.payload_bytes == 4000.0
        assert pricing.comm_time(network, [event]) > 0.0

    def test_element_bytes_scales_time(self, rng):
        network = NetworkModel.from_bandwidth(4, 100 * MBPS, latency=0.0)
        values = [rng.standard_normal(10000) for _ in range(4)]
        _, fp32 = all_reduce([DensePayload(v, element_bytes=4) for v in values])
        _, fp16 = all_reduce([DensePayload(v, element_bytes=2) for v in values])
        fp32_time, fp16_time = (pricing.comm_time(network, [e]) for e in (fp32, fp16))
        assert fp32_time == pytest.approx(2 * fp16_time)

    def test_all_gather_returns_every_buffer(self, rng):
        buffers = dense(rng, 5, 5, 5)
        gathered, event = all_gather(buffers)
        assert len(gathered) == 3
        for original, got in zip(buffers, gathered):
            np.testing.assert_array_equal(original.values, got.values)
            assert not np.shares_memory(original.values, got.values)
        assert event.op == "all_gather"

    def test_all_gather_supports_ragged_payloads(self, rng):
        gathered, event = all_gather(dense(rng, 3, 7))
        assert [g.num_elements for g in gathered] == [3, 7]
        assert event.payload_elements == 7  # cost charged at the max payload

    def test_broadcast(self, rng):
        (root,) = dense(rng, 6)
        replicas, event = broadcast(root, world_size=5)
        assert len(replicas) == 5
        for replica in replicas:
            np.testing.assert_array_equal(replica.values, root.values)
            assert not np.shares_memory(replica.values, root.values)
        assert event.op == "broadcast"

    @staticmethod
    def every_payload_kind(rng):
        """One payload of each kind; the dense one holds a strided view."""
        values = rng.standard_normal(16)
        codes = rng.integers(-1, 2, size=16)
        return [
            DensePayload(values[::2], element_bytes=2.0),
            HalfPayload(values),
            SparsePayload(np.array([1, 4, 9]), values[:3], numel=16, value_bytes=0.25,
                          indices_on_wire=False, shared_selection=True),
            TernaryPayload(pack_ternary(codes), scale=0.5, size=16),
            BitmaskPayload.from_mask(values > 0),
        ]

    @staticmethod
    def assert_independent_copy(copy, original):
        assert type(copy) is type(original)
        assert vars(copy).keys() == vars(original).keys()
        for name, value in vars(original).items():
            got = getattr(copy, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
                assert not np.shares_memory(got, value), name
            else:
                assert got == value and type(got) is type(value), name

    def test_all_gather_copies_every_payload_kind(self, rng):
        payloads = self.every_payload_kind(rng)
        gathered, _ = all_gather(payloads)
        for original, got in zip(payloads, gathered):
            self.assert_independent_copy(got, original)

    def test_broadcast_replicas_are_each_their_own_copy(self, rng):
        for root in self.every_payload_kind(rng):
            replicas, _ = broadcast(root, world_size=3)
            for replica in replicas:
                self.assert_independent_copy(replica, root)
            for first, second in zip(replicas, replicas[1:]):
                for name, value in vars(first).items():
                    if isinstance(value, np.ndarray):
                        assert not np.shares_memory(value, getattr(second, name)), name

    def test_reduce_scatter_chunks_sum_to_total(self, rng):
        buffers = dense(rng, *[12] * 4)
        chunks, event = reduce_scatter(buffers)
        np.testing.assert_allclose(
            np.concatenate(chunks), np.sum([b.values for b in buffers], axis=0), atol=1e-12
        )
        assert len(chunks) == 4
        assert event.bytes_per_worker == 3 / 4 * 12 * 4.0


class TestProcessGroup:
    def test_event_log_accumulates(self, rng):
        group = ProcessGroup(4)
        group.all_reduce(dense(rng, *[100] * 4))
        group.all_gather(dense(rng, *[10] * 4))
        assert len(group.events) == 2
        assert pricing.comm_time(NetworkModel.from_bandwidth(4, 100 * MBPS), group.events) > 0
        assert group.total_bytes_per_worker > 0

    def test_pop_events_clears_log(self, rng):
        group = ProcessGroup(2)
        group.all_reduce(dense(rng, 4, 4))
        events = group.pop_events()
        assert len(events) == 1
        assert group.events == []

    def test_wrong_buffer_count_raises(self, rng):
        group = ProcessGroup(4)
        with pytest.raises(ValueError):
            group.all_reduce(dense(rng, 4, 4, 4))

    def test_zero_cost_without_network(self, rng):
        """The group and its events carry bytes and no clock: pricing is elsewhere."""
        group = ProcessGroup(4)
        group.all_reduce(dense(rng, *[4] * 4))
        (event,) = group.events
        assert not hasattr(group, "network") and not hasattr(group, "total_time")
        assert not hasattr(event, "time_seconds")
        assert event.payload_bytes == 16.0

    def test_broadcast_replicates(self, rng):
        group = ProcessGroup(3)
        replicas = group.broadcast(*dense(rng, 5))
        assert len(replicas) == 3


class TestCollectivesCarryOnlyPayloads:
    """A raw array has no wire format: every collective refuses it by name."""

    CALLS = {
        "all_reduce": lambda group, value: group.all_reduce(value),
        "all_gather": lambda group, value: group.all_gather(value),
        "broadcast": lambda group, value: group.broadcast(value),
        "reduce_scatter": lambda group, value: group.reduce_scatter(value),
    }

    @pytest.mark.parametrize("op", sorted(CALLS))
    @pytest.mark.parametrize("form", ["array", "matrix", "list"])
    def test_raw_arrays_raise_a_type_error_naming_dense_payload(self, op, form, rng):
        group = ProcessGroup(3)
        value = {
            "array": rng.standard_normal(5),
            "matrix": rng.standard_normal((3, 5)),  # one row per rank
            "list": [rng.standard_normal(5) for _ in range(3)],
        }[form]
        with pytest.raises(TypeError, match="DensePayload"):
            self.CALLS[op](group, value)
        assert group.events == []
