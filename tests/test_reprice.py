"""The fold prices a log of work: by hand, and under another cluster.

Three pins of "the log records work and the fold prices it".

* An α–β oracle that trains nothing.  A hand-built log of N synchronous
  iterations, each one all-reduce bucket of B bytes, on a flat link with
  overlap off and homogeneous ranks, must fold to the closed form derived
  from ``NetworkModel.ring_all_reduce_time``'s docstring: a ring all-reduce
  over n workers takes 2(n−1) latency-bound steps and sends 2(n−1)/n·B bytes
  per worker across the bottleneck, so an iteration costs
  c + 2(n−1)·α + 2(n−1)/n·B/β.  A degraded entry (3 of 4 ranks, link × 0.5)
  is priced at n = 3 and half the bandwidth.
* A two-level hierarchy oracle on the same log under ``hierarchical=True``:
  the switch groups' tree reduce over their LAN links, a ring among the group
  leaders over the worst leader-to-leader path, then the groups' tree
  broadcast, all read off ``build_paper_topology``'s links.  A degraded
  entry is priced over the topology of the ranks that survived, not of the
  first that many.
* Re-pricing: a golden cell's log, epoch records and compute work, trained at
  100 Mbps and folded under another cluster, give exactly the fold of the run
  trained on that cluster — for every ``ClusterSpec`` field but ``faults``:
  bandwidth, overlap, hierarchy and device, alone and with overlap,
  which prices each bucket's collective from when its gradients are ready.
  The parameter-server cell is excluded: its event
  clock orders pulls, computes and pushes by simulated time, so what it
  trains depends on the cluster.  So are fault plans, which fire on simulated
  time; no golden cell has one.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro import golden
from repro.comm import build_paper_topology
from repro.simulation import ClusterSpec, DeviceSpec, TrainingTimeline
from repro.simulation.experiment import train_distributed
from repro.simulation.pricing import Transfer
from repro.simulation.cluster import LINK_LATENCY

# --------------------------------------------------------------------------- #
# α–β oracle
# --------------------------------------------------------------------------- #
#: Ranks, the link's fixed latency (s) and 100 Mbps in bytes/s.
WORLD, ALPHA, BETA = 4, LINK_LATENCY, 12.5e6
COMPUTE, NUM_BYTES, ITERATIONS = 0.01, 1e5, 5

#: The fold adds N per-iteration terms one at a time and each term as
#: compute + comm, where the closed form multiplies; the two orders round
#: differently by a few ulps per operation (~1e-16 relative each).  1e-12 is
#: far above that and far below any modelling slip (a missing latency step or
#: n for n−1 moves the total by more than 1e-3 relative).
REL = 1e-12


def _ring(n: int, bandwidth: float) -> float:
    return 2 * (n - 1) * ALPHA + 2 * (n - 1) / n * NUM_BYTES / bandwidth


def _oracle_timeline(hierarchical: bool = False) -> TrainingTimeline:
    # A device of one FLOP per second: COMPUTE FLOPs take COMPUTE seconds.
    cluster = ClusterSpec(world_size=WORLD, bandwidth=BETA, device=DeviceSpec("unit", 1.0),
                          hierarchical=hierarchical)
    assert not cluster.overlap
    return TrainingTimeline(cluster, COMPUTE, 0.0, [1.0])


def test_a_healthy_log_folds_to_the_closed_form_ring():
    timeline = _oracle_timeline()
    for _ in range(ITERATIONS):
        timeline.add_iteration([[Transfer("all_reduce", NUM_BYTES)]])
    fold = timeline.fold()
    assert fold["compute_time"] == pytest.approx(ITERATIONS * COMPUTE, rel=REL)
    assert fold["comm_time"] == pytest.approx(ITERATIONS * _ring(WORLD, BETA), rel=REL)
    want = ITERATIONS * (COMPUTE + _ring(WORLD, BETA))
    assert fold["simulated_time"] == pytest.approx(want, rel=REL)
    assert fold["critical_path_time"] == pytest.approx(want, rel=REL)
    assert fold["overlap_fraction"] == 0.0 and fold["straggler_time"] == 0.0


def test_a_churned_entry_waits_for_its_slowest_rank():
    timeline = _oracle_timeline()
    timeline.add_iteration(
        [[Transfer("all_reduce", NUM_BYTES)]], ranks=range(WORLD), churn=[1.0, 3.0, 1.0, 2.0]
    )
    fold = timeline.fold()
    assert fold["compute_time"] == 3 * COMPUTE
    assert fold["straggler_time"] == pytest.approx(2 * COMPUTE, rel=REL)
    assert fold["simulated_time"] == pytest.approx(3 * COMPUTE + _ring(WORLD, BETA), rel=REL)


def test_a_degraded_entry_is_priced_over_its_membership_and_link():
    timeline = _oracle_timeline()
    for _ in range(ITERATIONS):
        timeline.add_iteration([[Transfer("all_reduce", NUM_BYTES)]])
    timeline.add_iteration(
        [[Transfer("all_reduce", NUM_BYTES)]], ranks=[0, 1, 2], churn=[1.0] * WORLD, link=0.5
    )
    fold = timeline.fold()
    degraded = COMPUTE + _ring(3, 0.5 * BETA)
    want = ITERATIONS * (COMPUTE + _ring(WORLD, BETA)) + degraded
    assert fold["simulated_time"] == pytest.approx(want, rel=REL)
    assert fold["degraded_iterations"] == 1
    assert fold["downtime_rank_seconds"] == pytest.approx(degraded, rel=REL)


# --------------------------------------------------------------------------- #
# Hierarchy oracle
# --------------------------------------------------------------------------- #
def test_a_hierarchical_log_folds_to_the_two_level_closed_form():
    topology = build_paper_topology(wan_bandwidth=BETA, wan_latency=ALPHA, num_servers=WORLD)
    # Four servers round-robin over three chained switches.
    assert topology.switch_groups() == {
        "vswitch0": ["S1", "S4"], "vswitch1": ["S2"], "vswitch2": ["S3"]
    }
    lan, wan, _ = topology.path_links("S1", "S2")
    assert lan.bandwidth > wan.bandwidth and wan.latency == ALPHA
    # Group phases: the one two-server group reduces onto its leader and
    # broadcasts back in one binomial round each; singleton groups cost 0.
    tree = lan.latency + NUM_BYTES / lan.bandwidth
    # Leader phase: a ring over the three leaders S1, S2, S3, charged on the
    # worst leader path, S1 -> S3 (LAN, WAN, WAN, LAN): WAN bandwidth, and
    # the latency of all four hops.
    path_latency = 2 * lan.latency + 2 * wan.latency

    def leader_ring(bandwidth):
        return 2 * (3 - 1) * path_latency + 2 * (3 - 1) / 3 * NUM_BYTES / bandwidth

    iteration = COMPUTE + tree + leader_ring(wan.bandwidth) + tree
    timeline = _oracle_timeline(hierarchical=True)
    for _ in range(ITERATIONS):
        timeline.add_iteration([[Transfer("all_reduce", NUM_BYTES)]])
    fold = timeline.fold()
    assert fold["compute_time"] == pytest.approx(ITERATIONS * COMPUTE, rel=REL)
    assert fold["simulated_time"] == pytest.approx(ITERATIONS * iteration, rel=REL)
    # Three survivors over a halved WAN: three singleton groups, so only the
    # leader ring is left, on the same worst path at half its bandwidth.
    timeline.add_iteration(
        [[Transfer("all_reduce", NUM_BYTES)]], ranks=[0, 1, 2], churn=[1.0] * WORLD, link=0.5
    )
    degraded = COMPUTE + leader_ring(0.5 * wan.bandwidth)
    assert timeline.fold()["simulated_time"] == pytest.approx(
        ITERATIONS * iteration + degraded, rel=REL
    )


def test_a_degraded_hierarchical_entry_is_priced_over_the_survivors_topology():
    cluster = ClusterSpec(world_size=4, bandwidth="100Mbps", hierarchical=True)
    # Survivors S1, S2 and S4: S1 and S4 keep sharing vswitch0, so only two
    # switch groups are left; S1, S2 and S3 would be three singletons.
    assert cluster.cost_model_for((0, 1, 3)).ring_all_reduce_time(1e6) == pytest.approx(0.08192)
    assert cluster.cost_model_for((0, 1, 2)).ring_all_reduce_time(1e6) == pytest.approx(0.10763, rel=1e-4)
    assert cluster.cost_model_for(3).ring_all_reduce_time(1e6) == (
        cluster.cost_model_for((0, 1, 2)).ring_all_reduce_time(1e6)
    )
    timeline = TrainingTimeline(cluster, 0.0, 0.0, [1.0])
    for ranks in [(0, 1, 3), (0, 1, 2)]:
        timeline.add_iteration([[Transfer("all_reduce", 1e6)]], ranks=ranks, churn=[1.0] * 4)
    (survivors, prefix) = (price.comm for price in timeline.priced())
    assert survivors == pytest.approx(0.08192) and prefix == pytest.approx(0.10763, rel=1e-4)
    # The flat model depends on the count alone.
    flat = ClusterSpec(world_size=4, bandwidth="100Mbps")
    assert flat.cost_model_for((0, 1, 3)).ring_all_reduce_time(1e6) == (
        flat.cost_model_for(3).ring_all_reduce_time(1e6)
    )


# --------------------------------------------------------------------------- #
# Re-pricing the golden cells
# --------------------------------------------------------------------------- #
#: The golden cells whose training does not depend on time.
CELLS = [name for name, method in golden.GOLDEN_METHODS.items() if method.schedule().regime != "ps"]

#: Clusters other than the golden 100 Mbps one, as overrides of it.
CLUSTERS = {
    "1Gbps": dict(bandwidth="1Gbps"),
    "1Gbps-overlap": dict(bandwidth="1Gbps", overlap=True),
    "hierarchical": dict(hierarchical=True),
    "hierarchical-overlap": dict(hierarchical=True, overlap=True),
    "a40": dict(device="a40"),
    "a40-overlap": dict(device="a40", overlap=True),
}


@functools.lru_cache(maxsize=None)
def _trained(name: str, cluster: str = ""):
    config = golden.golden_config_for(name)
    assert config.cluster.bandwidth == "100Mbps" and config.cluster.faults is None
    if cluster:
        config = dataclasses.replace(
            config, cluster=dataclasses.replace(config.cluster, **CLUSTERS[cluster])
        )
    return train_distributed(config, golden.GOLDEN_METHODS[name]).timeline


def test_the_excluded_cell_is_the_parameter_server():
    assert len(CELLS) == 10 and "async-ps" not in CELLS


@pytest.mark.parametrize("cluster", list(CLUSTERS))
@pytest.mark.parametrize("name", CELLS)
def test_a_logged_run_repriced_is_the_run_on_that_cluster(name, cluster):
    base, trained = _trained(name), _trained(name, cluster)
    # The work does not depend on the cluster: the two runs computed the same
    # FLOPs at the same sparsity over the same buckets, and logged the same
    # entries at the same epochs.
    assert trained.iteration_flops == base.iteration_flops
    assert trained.weight_sparsity == base.weight_sparsity
    assert trained.bucket_fractions == base.bucket_fractions
    assert trained.log == base.log and trained.epochs == base.epochs
    repriced = TrainingTimeline(
        trained.cluster, base.iteration_flops, base.weight_sparsity,
        base.bucket_fractions, base.target_accuracy,
    )
    repriced.log.extend(base.log)
    repriced.epochs.extend(base.epochs)
    got, want = repriced.fold(), trained.fold()
    assert list(got) == list(want)
    for key, value in want.items():
        assert repr(got[key]) == repr(value), key
    # Every cluster moves the clock.
    assert got["simulated_time"] != base.fold()["simulated_time"]
