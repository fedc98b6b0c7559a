"""Every function the product path never enters is in the ledger, with a reason.

``benchmarks/reach.py`` runs the product path (README commands, example
campaigns and examples, one cell per paper model) under a function-level
tracer and lists the ``def``s of ``src/repro`` that no entry enters.  It
fails unless that set is exactly what :data:`LEDGER` covers; it is a CI job
because the path takes about a minute.  A key is a def
(``path:Qual.name``), a class (``path:Class``: every def in it) or a module
file (``path``: every def in it), with ``path`` relative to ``src/repro``.

Each reason starts with one tag:

* ``field:`` the code behind a field of the knob ledger
  (``tests/test_knob_ledger.py``); it goes when the field goes;
* ``error:`` a typed-error or failure-report path;
* ``repr:`` a debugging ``__repr__``;
* ``abstract:`` an interface method with no body of its own;
* ``bench:`` a name ``benchmarks/e2e/probe.py``'s ``TABLE`` or ``micro.py``
  calls, which the benchmark's definition pins;
* ``oracle:`` a reference tests compare against;
* ``pool:`` code that runs only with pool workers (the path sweeps with
  ``--jobs 1``);
* ``decision:`` kept by a decision recorded in ROADMAP.

No tag schedules a deletion: code that should go goes, so every key names a
reason to stay.

Tier-1 checks the static half (keys resolve by AST, tags are valid, ``field:``
names a knob-ledger field) and that the tracer sees both import-time and
run-time code.  ``reach.py`` loads this file for :data:`LEDGER`, so the tests
import ``reach`` themselves and loading the file imports nothing else.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

TAGS = ("field", "error", "repr", "abstract", "bench", "oracle", "pool", "decision")
#: A reason: one line that starts with a tag.
REASON = re.compile(rf"^(?:{'|'.join(TAGS)}): \S[^\n]*$")

#: Never-entered key -> why it stays.
LEDGER = {
    # ---- field: the code behind a knob-ledger field ----
    "comm/topology.py": "field: ClusterSpec.hierarchical; the Fig. 4 topology and its two-level cost model",
    "pruning/grasp.py": "field: MethodSpec.pruning_method; GraSP, the paper's alternative pruner",
    "tensorlib/functional.py:fused_norm": "field: ExperimentConfig.dtype; the float32 normalisation path",
    "tensorlib/backend.py:NumpyBackend.fused_norm_stats": "field: ExperimentConfig.dtype; fused_norm's forward kernel",
    "tensorlib/backend.py:NumpyBackend.fused_norm_backward": "field: ExperimentConfig.dtype; fused_norm's backward kernel",
    "simulation/compute.py:DeviceSpec.to_dict": "field: ClusterSpec.device; a custom device in a stored cluster",
    "simulation/compute.py:DeviceSpec.from_dict": "field: ClusterSpec.device; a custom device read back",
    "comm/network.py:NetworkModel.reduce_time": "field: ClusterSpec.hierarchical; the two-level all-reduce's intra-group reduce",
    "comm/network.py:NetworkModel.gather_time": "field: ClusterSpec.hierarchical; the two-level all-gather's intra-group gather",
    # ---- error: typed-error and failure-report paths ----
    "tensorlib/tensor.py:_consumed": "error: backward over a graph an earlier backward released",
    "nn/module.py:ModuleList.forward": "error: calling a container",
    "campaign/store.py:ResultStore._quarantine": "error: an unreadable store line goes to <store>.corrupt",
    "campaign/runner.py:_is_transient": "error: whether a failed cell is retried",
    "campaign/runner.py:retry_delay": "error: the backoff before a failed cell's retry",
    "golden.py:format_diff": "error: the report of a drifted golden trace",
    "pactrain/compressor.py:PacTrainCompressor._check_driver_ef_composable": "error: driver error feedback on PacTrain",
    # ---- repr: debugging helpers ----
    "tensorlib/tensor.py:Tensor.__repr__": "repr: debugging helper",
    "tensorlib/backend.py:NumpyBackend.__repr__": "repr: debugging helper",
    "nn/module.py:Module.__repr__": "repr: debugging helper",
    "ddp/arena.py:GradientArena.__repr__": "repr: debugging helper",
    "compression/codec/pipeline.py:Pipeline.__repr__": "repr: debugging helper",
    "compression/codec/stages.py:Codec.__repr__": "repr: debugging helper",
    "obs/instrument.py:ObservedBackend.__repr__": "repr: debugging helper",
    "pruning/mask.py:PruningMask.__repr__": "repr: debugging helper",
    # ---- abstract: interface methods ----
    "comm/network.py:CostModel": "abstract: the collective cost interface NetworkModel implements",
    "nn/module.py:Module.forward": "abstract: every layer and model defines its own",
    "compression/codec/stages.py:Codec.encode": "abstract: every stage defines its own",
    "compression/codec/stages.py:Codec.decode": "abstract: every stage defines its own",
    "compression/codec/payloads.py:WirePayload.nbytes": "abstract: every payload defines its own",
    # ---- bench: names the benchmark's probe table or micro rows call ----
    "tensorlib/tensor.py:Tensor.__matmul__": "bench: micro.py's matmul row multiplies with @",
    "ddp/ddp.py:DistributedDataParallel.compute_local_gradients": "bench: probe.TABLE's ddp layer",
    "comm/process_group.py:ProcessGroup.reduce_scatter": "bench: probe.TABLE's comm layer",
    "comm/collectives.py:reduce_scatter": "bench: the collective ProcessGroup.reduce_scatter runs",
    "comm/process_group.py:ProcessGroup.pop_events": "bench: micro.py's codec rows drain the event log",
    "simulation/regimes.py:ReplicaSet.params_dict": "bench: probe.TABLE's simulation.regimes layer",
    "campaign/store.py:ResultStore.get": "bench: probe.TABLE's campaign.store layer",
    "campaign/store.py:cell_fingerprint": "bench: the key ResultStore.get looks up",
    "obs/__init__.py:enable": "bench: micro.py's obs.traced_op_ratio row",
    "obs/__init__.py:disable": "bench: micro.py's obs.traced_op_ratio row",
    # ---- oracle: references tests compare against ----
    "compression/codec/stages.py:top_k_indices": "oracle: the full-argpartition selection the fast selector must equal",
    "compression/codec/stages.py:ternarize": "oracle: the functional TernGrad the Ternarize stage is checked against",
    # ---- pool: code that runs only with pool workers ----
    "campaign/runner.py:_execute_cell_in_worker": "pool: a worker's cell entry point",
    "campaign/runner.py:_worker_init": "pool: a worker's initializer",
    "campaign/runner.py:default_jobs": "pool: the worker count for --jobs 0",
    # ---- decision: item 9's full builders, the fault-plan decoder (20(c)) ----
    "nn/models/vgg.py:vgg19": "decision: item 9's paper-size builders",
    "nn/models/resnet.py:resnet18": "decision: item 9's paper-size builders",
    "nn/models/resnet.py:resnet152": "decision: item 9's paper-size builders",
    "nn/models/vit.py:vit_base_16": "decision: item 9's paper-size builders",
    "simulation/faults.py:FaultPlan.from_dict": "decision: the inverse of a stored faulted config (20(c))",
    "simulation/faults.py:FaultEvent.from_dict": "decision: a stored fault event read back (20(c))",
    "simulation/faults.py:_events": "decision: a stored fault plan's event list read back (20(c))",
}


def test_reach_loads_this_ledger():
    import reach

    assert reach.load_ledger() == LEDGER


def test_every_key_resolves_to_a_def():
    import reach

    defs = reach.list_defs()
    unresolved = [key for key in LEDGER if not any(reach.covers(key, d) for d in defs.values())]
    assert unresolved == [], "these ledger keys name no def in src/repro"


def test_no_key_covers_another():
    import reach

    defs = reach.list_defs().values()
    for outer in LEDGER:
        covered = {d.key for d in defs if reach.covers(outer, d)}
        assert covered & set(LEDGER) <= {outer}, f"{outer} covers other ledger keys"


def test_every_reason_is_one_line_with_a_tag():
    untagged = sorted(key for key, reason in LEDGER.items() if not REASON.match(reason))
    assert untagged == [], f"each reason starts with one of {TAGS}"


def test_a_deleted_group_is_no_longer_a_tag():
    assert not REASON.match("next:api: a test accessor")


def test_field_entries_name_a_knob_ledger_field():
    from tests.test_knob_ledger import LEDGER as KNOBS

    fields = {key: reason.split()[1].rstrip(";") for key, reason in LEDGER.items() if reason.startswith("field: ")}
    assert fields and {key: name for key, name in fields.items() if name not in KNOBS} == {}


def test_the_tracer_sees_import_time_and_run_time_code():
    """``Tracer.__init__`` runs only while ``repro`` is imported: a hook
    installed after the import, or one that records nothing, fails here."""
    from tests.test_reach import in_child

    entered = set(json.loads(in_child("""\
        import json, reach
        print(json.dumps(sorted(reach.trace([["repro", "golden", "--quiet", "--only", "all-reduce"]]))))
        """)))
    assert "simulation/experiment.py:run_experiment" in entered
    assert "obs/tracer.py:Tracer.__init__" in entered
    assert "comm/topology.py:ClusterTopology.path" not in entered
