"""Network cost models (flat and the Fig. 4 hierarchy), collectives and process group."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.comm import (
    GBPS,
    MBPS,
    CostModel,
    HierarchicalCostModel,
    LinkSpec,
    NetworkModel,
    ProcessGroup,
    all_gather,
    all_reduce,
    broadcast,
    reduce_scatter,
)
from repro.comm.network import PAPER_BANDWIDTHS
from repro.comm.topology import LAN, SWITCHES
from repro.simulation import ClusterSpec, pricing
from repro.simulation.cluster import LINK_LATENCY
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
    "broadcast_time",
)

#: Every price a run reads, by method name.
COST_METHODS = ("p2p_time",) + COLLECTIVE_METHODS

#: The flat model's intra-group phases, which the hierarchical model prices
#: each group with; they are not part of the ``CostModel`` interface.
FLAT_PHASE_METHODS = ("reduce_time", "gather_time")


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

    def test_implements_cost_model_interface(self):
        model = NetworkModel.from_bandwidth(8, 1 * GBPS)
        assert isinstance(model, CostModel)
        for method in COLLECTIVE_METHODS + FLAT_PHASE_METHODS:
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


class TestHierarchicalCostModel:
    #: A 100 Mbps WAN at the runs' per-message latency.
    WAN = LinkSpec(100 * MBPS, latency=LINK_LATENCY)

    def test_one_occupied_switch_is_the_flat_lan_model_exactly(self):
        # Ranks 0, 3 and 6 all hang off switch 0: every path is two LAN hops,
        # so every cost is float-equal to the flat model over the LAN link.
        flat = NetworkModel(3, LAN)
        hier = HierarchicalCostModel((0, 3, 6), self.WAN)
        assert isinstance(hier, CostModel) and hier.world_size == 3
        for nbytes in (0.0, 1.0, 1e3, 1e6, 5e7):
            for method in COST_METHODS:
                assert getattr(hier, method)(nbytes) == getattr(flat, method)(nbytes)

    def test_hierarchical_all_reduce_charges_lan_and_wan(self):
        hier = HierarchicalCostModel(range(8), self.WAN)
        nbytes = 1e6
        # Groups of 3, 3 and 2 ranks; the three leaders are charged over the
        # switch 0 -> switch 2 path: LAN, WAN, WAN, LAN.
        group = NetworkModel(3, LAN)
        leaders = NetworkModel(3, LinkSpec(100 * MBPS, 2 * LAN.latency + 2 * LINK_LATENCY))
        inter_only = leaders.ring_all_reduce_time(nbytes)
        total = hier.ring_all_reduce_time(nbytes)
        assert total > inter_only
        assert total == pytest.approx(
            group.reduce_time(nbytes) + inter_only + group.broadcast_time(nbytes)
        )
        assert hier.p2p_time(nbytes) == pytest.approx(leaders.p2p_time(nbytes))

    def test_chain_beats_flat_ring_under_wan_bottleneck(self):
        # A flat ring drags all 8 workers across the WAN; the hierarchical
        # schedule only sends the 3 group leaders across it — the reduction
        # structure the paper's Fig. 4 testbed is built to exercise.
        nbytes = 1e7
        hier = HierarchicalCostModel(range(8), self.WAN)
        flat = NetworkModel(8, self.WAN)
        assert hier.ring_all_reduce_time(nbytes) < flat.ring_all_reduce_time(nbytes)

    def test_all_costs_positive_and_zero_safe(self):
        hier = HierarchicalCostModel(range(8), self.WAN)
        for method in COST_METHODS:
            assert getattr(hier, method)(1e6) > 0.0
            assert getattr(hier, method)(0.0) == 0.0

    def test_process_group_accepts_hierarchical_model(self, rng):
        group = ProcessGroup(4)
        group.all_reduce(dense(rng, *[64] * 4))
        assert pricing.comm_time(HierarchicalCostModel(range(4), self.WAN), group.events) > 0.0

    def test_single_server(self):
        hier = HierarchicalCostModel([5], self.WAN)
        assert hier.world_size == 1
        for method in COLLECTIVE_METHODS:
            assert getattr(hier, method)(1e6) == 0.0

    def test_requires_servers(self):
        with pytest.raises(ValueError):
            HierarchicalCostModel([], self.WAN)

    def test_the_fig4_constants(self):
        # Three vSwitches, each server on a 10 Gbps LAN link at 20 µs.
        assert SWITCHES == 3
        assert LAN == LinkSpec(10 * GBPS, 20e-6)

    @pytest.mark.parametrize(
        "ranks", [(0,), (0, 3), (0, 3, 6), (1, 4, 7), (2, 5), (2, 5, 8, 11)], ids=str
    )
    def test_one_occupied_switch_never_touches_the_wan(self, ranks):
        # Survivors that share a switch price as the flat LAN model, however
        # slow the WAN is.
        flat = NetworkModel(len(ranks), LAN)
        for wan in (self.WAN, LinkSpec(1e3, latency=1.0)):
            hier = HierarchicalCostModel(ranks, wan)
            for method in COST_METHODS:
                assert getattr(hier, method)(1e6) == getattr(flat, method)(1e6)

    @pytest.mark.parametrize(
        "ranks, hops",
        [
            ((0, 1), 1),
            ((1, 2), 1),
            ((4, 6), 1),
            ((1, 5), 1),
            ((0, 2), 2),
            ((6, 11), 2),
            ((3, 4, 5), 2),
        ],
        ids=str,
    )
    def test_leaders_pay_one_wan_hop_per_switch_passed(self, ranks, hops):
        # The leaders' path runs between the outermost occupied switches:
        # LAN, ``hops`` WAN links, LAN.
        hier = HierarchicalCostModel(ranks, self.WAN)
        path = LinkSpec(self.WAN.bandwidth, 2 * LAN.latency + hops * self.WAN.latency)
        assert hier.p2p_time(1e3) == pytest.approx(path.transfer_time(1e3))

    @pytest.mark.parametrize(
        "wan_bandwidth", [1e6, 100 * MBPS, 1 * GBPS, LAN.bandwidth, 5e9, 1e11]
    )
    def test_leaders_run_at_the_narrower_of_wan_and_lan(self, wan_bandwidth):
        # A latency-free WAN leaves the path's latency at two LAN hops, so
        # only its bandwidth varies: the WAN's, capped by the LAN's.
        hier = HierarchicalCostModel((0, 1), LinkSpec(wan_bandwidth, latency=0.0))
        path = LinkSpec(min(wan_bandwidth, LAN.bandwidth), 2 * LAN.latency)
        assert hier.p2p_time(1e7) == path.transfer_time(1e7)

    @pytest.mark.parametrize(
        "ranks, largest, groups, hops",
        [
            (range(8), 3, 3, 2),
            (range(12), 4, 3, 2),
            ((0, 1), 1, 2, 1),
            ((0, 1, 3), 2, 2, 1),
            ((1, 2, 4, 7), 3, 2, 1),
            ((0, 2, 5, 8, 11), 4, 2, 2),
        ],
        ids=str,
    )
    def test_groups_are_the_ranks_mod_three(self, ranks, largest, groups, hops):
        # Each phase charges the largest switch group over the LAN and the
        # ``groups`` leaders over the path between the outermost switches.
        hier = HierarchicalCostModel(ranks, self.WAN)
        group = NetworkModel(largest, LAN)
        path = LinkSpec(self.WAN.bandwidth, 2 * LAN.latency + hops * self.WAN.latency)
        leaders = NetworkModel(groups, path)
        nbytes = 1e6
        assert hier.world_size == len(ranks)
        assert hier.ring_all_reduce_time(nbytes) == pytest.approx(
            group.reduce_time(nbytes)
            + leaders.ring_all_reduce_time(nbytes)
            + group.broadcast_time(nbytes)
        )
        assert hier.all_gather_time(nbytes) == pytest.approx(
            group.gather_time(nbytes)
            + leaders.all_gather_time(largest * nbytes)
            + group.broadcast_time(len(ranks) * nbytes)
        )
        assert hier.broadcast_time(nbytes) == pytest.approx(
            leaders.broadcast_time(nbytes) + group.broadcast_time(nbytes)
        )

    @pytest.mark.parametrize("method", COST_METHODS)
    def test_a_slower_wan_always_prices_higher(self, method):
        for ranks in (range(8), (0, 1), (2, 3, 7)):
            slow = HierarchicalCostModel(ranks, LinkSpec(100 * MBPS, latency=LINK_LATENCY))
            fast = HierarchicalCostModel(ranks, LinkSpec(1 * GBPS, latency=LINK_LATENCY))
            assert getattr(slow, method)(1e6) > getattr(fast, method)(1e6)

    @pytest.mark.parametrize("method", COST_METHODS)
    def test_more_bytes_always_cost_more(self, method):
        hier = HierarchicalCostModel(range(8), self.WAN)
        costs = [getattr(hier, method)(nbytes) for nbytes in (0.0, 1.0, 1e3, 1e6, 5e7)]
        assert costs == sorted(set(costs))

    @pytest.mark.parametrize("bandwidth", sorted(PAPER_BANDWIDTHS))
    def test_a_hierarchical_cluster_prices_its_wan_with_this_model(self, bandwidth):
        # ``cost_model_for`` hands the survivors and the scaled WAN link, at
        # the runs' per-message latency, to this model.
        cluster = ClusterSpec(world_size=8, bandwidth=bandwidth, hierarchical=True)
        for members, ranks, factor in (
            (None, range(8), 1.0), (5, range(5), 0.5), ((1, 2, 6), (1, 2, 6), 0.37)
        ):
            model = cluster.cost_model_for(members, factor)
            wan = LinkSpec(PAPER_BANDWIDTHS[bandwidth] * factor, latency=LINK_LATENCY)
            direct = HierarchicalCostModel(ranks, wan)
            assert type(model) is HierarchicalCostModel
            for method in COST_METHODS:
                assert getattr(model, method)(1e6) == getattr(direct, method)(1e6)


# ---------------------------------------------------------------------- #
# The hierarchy in closed form
# ---------------------------------------------------------------------- #
#: What ``ClusterSpec(hierarchical=True).cost_model_for`` returned when it
#: priced a graph of servers and switches (commit c741c6a), recorded by
#: running ``_hierarchy_digest`` over the grid below on that commit: a digest
#: of every ``float.hex`` value per (bandwidth, world) ("digests") and, for
#: four survivor sets at link factor 1, the values themselves ("values").
PINNED = json.loads((Path(__file__).parent / "fixtures" / "hierarchy_costs.json").read_text())

#: Named, below, equal to and above the 10 Gbps LAN.
BANDWIDTHS = ("100Mbps", "1Gbps", 3.3e7, 1.25e9, 5e9)
WORLDS = range(1, 13)
LINK_FACTORS = (1.0, 0.5, 0.37)
SIZES = (0.0, 1.0, 1e6, 5e7)


def _survivor_sets(world):
    """The whole world, then every set of at most 8 ranks whose highest is ``world - 1``.

    Over the worlds 1..12 that is every set of up to 8 of the 12 ranks, once.
    """
    yield None
    for size in range(min(world, 8)):
        for rest in itertools.combinations(range(world - 1), size):
            yield rest + (world - 1,)


def _costs(cluster, members, factor):
    model = cluster.cost_model_for(members, factor)
    return [getattr(model, method)(n) for method in COST_METHODS for n in SIZES]


def _hierarchy_digest(bandwidth, world):
    cluster = ClusterSpec(world_size=world, bandwidth=bandwidth, hierarchical=True)
    values = (
        float.hex(value)
        for members in _survivor_sets(world)
        for factor in LINK_FACTORS
        for value in _costs(cluster, members, factor)
    )
    return hashlib.sha256("\n".join(values).encode()).hexdigest()[:16]


class TestHierarchyInClosedForm:
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS, ids=str)
    @pytest.mark.parametrize("world", WORLDS)
    def test_grid_prices_what_the_graph_priced(self, bandwidth, world):
        assert _hierarchy_digest(bandwidth, world) == PINNED["digests"][f"{bandwidth}/{world}"]

    def test_the_pinned_grid_is_the_whole_grid(self):
        assert sorted(PINNED["digests"]) == sorted(f"{b}/{w}" for b in BANDWIDTHS for w in WORLDS)

    @pytest.mark.parametrize("name", sorted(PINNED["values"]))
    def test_literal_values(self, name):
        bandwidth, world = name.split("/")
        bandwidth = bandwidth if bandwidth.endswith("bps") else float(bandwidth)
        cluster = ClusterSpec(world_size=int(world), bandwidth=bandwidth, hierarchical=True)
        pinned = PINNED["values"][name]
        want = [value for method in COST_METHODS for value in pinned["costs"][method]]
        assert _costs(cluster, pinned["members"], 1.0) == want


def test_importing_the_package_loads_no_graph_library():
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

    def test_all_reduce_refuses_a_payload_it_cannot_sum(self, rng):
        mask = BitmaskPayload.from_mask(rng.standard_normal(16) > 0)
        with pytest.raises(TypeError, match="BitmaskPayload is not element-wise reducible"):
            all_reduce([mask, mask])
        (dense_head,) = dense(rng, 16)
        with pytest.raises(ValueError, match=r"rank 1 payload \(BitmaskPayload\)"):
            all_reduce([dense_head, mask])

    def test_all_gather_supports_ragged_payloads(self, rng):
        gathered, event = all_gather(dense(rng, 3, 7))
        assert [g.values.size for g in gathered] == [3, 7]
        assert event.payload_bytes == 7 * 4.0  # cost charged at the max payload

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
        assert sum(event.bytes_per_worker for event in group.events) > 0

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

    @pytest.mark.parametrize("op", sorted(CALLS))
    def test_a_payload_look_alike_is_refused(self, op, rng):
        """The check is the type, not the methods: a look-alike is not a payload."""
        group = ProcessGroup(3)
        look_alikes = [_PayloadLookAlike(rng.standard_normal(5)) for _ in range(3)]
        with pytest.raises(TypeError, match="WirePayload"):
            self.CALLS[op](group, look_alikes[0] if op == "broadcast" else look_alikes)
        assert group.events == []


class _PayloadLookAlike:
    """Every member a dense payload offers, on a class that is not a ``WirePayload``."""

    def __init__(self, values):
        self.values = values

    @property
    def nbytes(self):
        return self.values.size * 4.0

    def reducible_with(self, other):
        return isinstance(other, _PayloadLookAlike) and other.values.shape == self.values.shape

    def reduce_values(self):
        return self.values

    def with_reduced(self, values):
        return _PayloadLookAlike(values)
