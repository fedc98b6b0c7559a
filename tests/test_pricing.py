"""Pricing: the one place the bytes a collective moved become simulated seconds.

Two pins.  Pricing an event (or a p2p transfer) equals the matching
``CostModel`` method on the bytes the event records, on a flat and on a
hierarchical model.  And two AST guards keep pricing in one place: no module
under ``src/repro`` but ``repro/comm/*`` and ``simulation/pricing.py`` calls one
of the cost models' six time methods, and no module but the timeline
(``simulation/timeline.py``) schedules an iteration on the engine, prices a
log's buckets or prices a run's compute.
"""

from __future__ import annotations

import ast
import pathlib
from typing import List

import numpy as np
import pytest

from repro.comm import MBPS, NetworkModel, ProcessGroup, build_paper_topology
from repro.compression.codec import DensePayload, HalfPayload
from repro.simulation import pricing

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: The cost-model methods that turn bytes into seconds: the four ``CostModel``
#: prices and ``NetworkModel``'s two rooted phases.
COST_METHODS = frozenset({
    "p2p_time",
    "ring_all_reduce_time",
    "all_gather_time",
    "broadcast_time",
    "reduce_time",
    "gather_time",
})

WORLD = 4
MODELS = {
    "flat": lambda: NetworkModel.from_bandwidth(WORLD, 100 * MBPS, latency=1e-4),
    "hierarchical": lambda: build_paper_topology(
        wan_bandwidth=100 * MBPS, num_servers=WORLD
    ).cost_model(),
}


def _payloads(sizes):
    rng = np.random.default_rng(0)
    return [HalfPayload(rng.standard_normal(size)) for size in sizes]


#: op -> (the cost-model method that prices it, the collective issuing it on a group).
COLLECTIVES = {
    "all_reduce": ("ring_all_reduce_time", lambda group: group.all_reduce(_payloads([3000] * WORLD))),
    "all_gather": ("all_gather_time", lambda group: group.all_gather(_payloads([100, 700, 300, 50]))),
    "broadcast": ("broadcast_time", lambda group: group.broadcast(_payloads([2500])[0])),
}


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("op", list(COLLECTIVES))
def test_pricing_an_event_is_its_cost_model_method(op, model):
    cost_model = MODELS[model]()
    method, issue = COLLECTIVES[op]
    group = ProcessGroup(WORLD)
    issue(group)
    (event,) = group.events
    assert event.op == op and event.payload_bytes > 0
    want = getattr(cost_model, method)(event.payload_bytes)
    assert want > 0.0
    assert pricing.op_time(cost_model, op, event.payload_bytes) == want
    assert pricing.comm_time(cost_model, [event]) == want
    assert pricing.bucket_times(cost_model, [[event]]) == (want, [want])


def test_only_the_ops_a_run_logs_are_priced():
    """No codec reduce-scatters: the group's ``reduce_scatter`` logs an op no price exists for."""
    group = ProcessGroup(WORLD)
    group.reduce_scatter(_payloads([1200] * WORLD))
    (event,) = group.events
    priced = "only all_reduce, all_gather, broadcast, p2p are priced"
    with pytest.raises(ValueError, match=f"no price for 'reduce_scatter'; {priced}"):
        pricing.comm_time(MODELS["flat"](), [event])


@pytest.mark.parametrize("model", list(MODELS))
def test_pricing_a_p2p_transfer_is_p2p_time(model):
    cost_model = MODELS[model]()
    for num_bytes in (0.0, 1.0, 4e4, 3.5e6):
        assert pricing.op_time(cost_model, "p2p", num_bytes) == cost_model.p2p_time(num_bytes)


def test_bucket_times_sum_flat_for_the_log_and_per_bucket_for_the_engine():
    cost_model = MODELS["flat"]()
    group = ProcessGroup(WORLD)
    group.all_reduce([DensePayload(np.ones(10))] * WORLD)
    group.all_gather(_payloads([40] * WORLD))
    first = group.pop_events()
    group.broadcast(DensePayload(np.ones(7)))
    second = group.pop_events()
    times = [[pricing.comm_time(cost_model, [event]) for event in bucket] for bucket in (first, second)]
    comm, per_bucket = pricing.bucket_times(cost_model, [first, second])
    assert repr(comm) == repr(float(sum(t for bucket in times for t in bucket)))
    assert per_bucket == [float(sum(bucket)) for bucket in times]
    assert pricing.bucket_times(cost_model, []) == (0.0, [])


# --------------------------------------------------------------------------- #
# Guard: outside repro/comm, only pricing.py calls a cost model
# --------------------------------------------------------------------------- #
def _cost_model_calls(tree: ast.AST) -> List[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in COST_METHODS
    ]


def test_the_guard_sees_a_direct_call():
    tree = ast.parse(
        "model.broadcast_time(n)\n"
        "cluster.cost_model_for(3, 0.5).p2p_time(n)\n"
        "compute.iteration_time(model, shape, batch)\n"
    )
    assert _cost_model_calls(tree) == [1, 2]


def test_no_module_but_pricing_calls_a_cost_model_outside_comm():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "comm" or relative == pathlib.Path("simulation", "pricing.py"):
            continue
        for line in _cost_model_calls(ast.parse(path.read_text(encoding="utf-8"))):
            offenders.append(f"{relative}:{line}")
    assert offenders == []


# --------------------------------------------------------------------------- #
# Guard: only the timeline schedules iterations and prices buckets and compute
# --------------------------------------------------------------------------- #
#: What only the timeline calls, and the module that defines each (which may call its own).
FOLD_ONLY = {
    "run_iteration": "engine.py",
    "run_local_iteration": "engine.py",
    "bucket_times": "pricing.py",
    "per_rank_iteration_times": "cluster.py",
}


def _fold_only_calls(tree: ast.AST, module: str) -> List[str]:
    return [
        f"{node.func.attr}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and FOLD_ONLY.get(node.func.attr, module) != module
    ]


def test_the_fold_guard_sees_a_direct_call():
    tree = ast.parse(
        "engine.run_iteration(compute, fractions, per_bucket)\n"
        "self.engine.run_local_iteration(compute)\n"
        "pricing.bucket_times(model, events)\n"
        "pricing.op_time(model, 'p2p', n)\n"
        "cluster.per_rank_iteration_times(flops, sparsity)\n"
    )
    assert _fold_only_calls(tree, "experiment.py") == [
        "run_iteration:1", "run_local_iteration:2", "bucket_times:3", "per_rank_iteration_times:5"
    ]
    assert _fold_only_calls(tree, "engine.py") == ["bucket_times:3", "per_rank_iteration_times:5"]


def test_no_module_but_the_timeline_schedules_or_prices_a_log():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC) == pathlib.Path("simulation", "timeline.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.relative_to(SRC)}:{call}" for call in _fold_only_calls(tree, path.name)]
    assert offenders == []
