"""Every function the product path never enters, and every arm it never runs
inside the functions it enters, is in a ledger, with a reason.

``benchmarks/reach.py`` runs the product path (README commands, example
campaigns and examples, one cell per paper model) under one tracer that
records calls and lines.  It lists the ``def``s of ``src/repro`` that no
entry enters and the arms of entered defs that never run, and fails unless
the first set is exactly what :data:`LEDGER` covers and the second exactly
what :data:`ARMS` covers; it is a CI job because the path takes about 40 s.
A ``LEDGER`` key is a def (``path:Qual.name``), a class (``path:Class``:
every def in it) or a module file (``path``: every def in it), with ``path``
relative to ``src/repro``.  An ``ARMS`` key is a def (every arm in it) or a
def ``" | "`` the stripped first source line of the arm's first statement;
never a line number.

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
* ``decision:`` kept by a decision recorded in ROADMAP;
* ``input:`` (arms) the outside input that reaches the arm and that the
  product path does not give: a flag, a spec value, a library call.

No tag schedules a deletion: code that should go goes, so every key names a
reason to stay.

Tier-1 checks the static half of both ledgers (keys resolve by AST, tags are
valid, no key covers another, ``field:`` names a knob-ledger field) and that
the tracer sees import-time code, run-time code and run-time lines.
``reach.py`` loads this file for :data:`LEDGER` and :data:`ARMS`, so the
tests import ``reach`` themselves and loading the file imports nothing else.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

TAGS = ("field", "error", "repr", "abstract", "bench", "oracle", "pool", "decision", "input")
#: A reason: one line that starts with a tag.
REASON = re.compile(rf"^(?:{'|'.join(TAGS)}): \S[^\n]*$")

#: Never-entered key -> why it stays.
LEDGER = {
    # ---- field: the code behind a knob-ledger field ----
    "comm/topology.py:HierarchicalCostModel.__init__": "field: ClusterSpec.hierarchical; the Fig. 4 switch groups and the leaders' link",
    "comm/topology.py:HierarchicalCostModel.p2p_time": "field: ClusterSpec.hierarchical; a parameter server's transfer over the leaders' link",
    "comm/topology.py:HierarchicalCostModel.ring_all_reduce_time": "field: ClusterSpec.hierarchical; the two-level all-reduce",
    "comm/topology.py:HierarchicalCostModel.all_gather_time": "field: ClusterSpec.hierarchical; the two-level all-gather",
    "comm/topology.py:HierarchicalCostModel.broadcast_time": "field: ClusterSpec.hierarchical; the two-level broadcast",
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

#: Never-run arm of an entered def -> why it stays.  A key is a def (every arm
#: in it) or a def ``" | "`` the stripped first line of the arm's first
#: statement; arms that end in ``raise`` are error paths and are not listed.
ARMS = {
    # ---- campaign/cli.py ----
    "campaign/cli.py:_finish_trace": "input: --trace naming a .jsonl sink, without --quiet",
    "campaign/cli.py:_is_axis | return False": "input: a report axis some stored records lack or hold unhashable",
    "campaign/cli.py:_print_default_report | continue": "error: a failed cell has no row in the sweep table",
    "campaign/cli.py:_report_failures": "error: a failed cell's traceback",
    "campaign/cli.py:cmd_golden | for name, diffs in drifted.items():": "error: the report of a drifted golden trace",
    "campaign/cli.py:cmd_golden | directory = args.dir or golden.DEFAULT_GOLDEN_DIR": "input: golden without --quiet",
    "campaign/cli.py:cmd_golden.<locals>.progress": "input: golden --update without --quiet",
    "campaign/cli.py:cmd_report": "input: report on an empty store",
    "campaign/cli.py:cmd_run | overrides[\"target_accuracy\"] = args.target_accuracy": "input: run --target-accuracy",
    "campaign/cli.py:cmd_run | return _report_failures(report)": "error: a run whose cell failed",
    "campaign/cli.py:cmd_trace": "input: trace validate on a raw .jsonl stream, on an invalid trace, or without --quiet",
    "campaign/cli.py:main": "pool: sweep --jobs 0, one worker per CPU",
    # ---- campaign/runner.py ----
    "campaign/runner.py:CampaignReport.summary": "error: a sweep that retried a transient failure",
    "campaign/runner.py:_dispatch | from concurrent.futures import ProcessPoolExecutor  # noqa: PLC0415 - only pools load it": "pool: the dispatch loop's process pool",
    "campaign/runner.py:_dispatch | heapq.heappush(queue, (not_before, position, attempt))": "pool: a worker died after the last wait",
    "campaign/runner.py:_dispatch | executor.shutdown(wait=True)  # returns once every future it held is done": "pool: a broken pool is replaced",
    "campaign/runner.py:_dispatch | result, error_type, elapsed = None, type(failure).__name__, now - started": "pool: a cell whose worker died under it",
    "campaign/runner.py:_dispatch | status = STATUS_TIMEOUT": "pool: the watchdog killed the pool under an overdue cell",
    "campaign/runner.py:_dispatch | wakes.append(queue[0][0])": "error: a retried cell waiting out its backoff while a worker is free",
    "campaign/runner.py:_dispatch | elif attempt <= retries and _is_transient(error_type):": "error: a failed cell is retried or settles as failed",
    "campaign/runner.py:_dispatch | now = time.monotonic()": "input: sweep --timeout, the per-cell watchdog",
    "campaign/runner.py:_execute_cell": "error: a cell that raised",
    "campaign/runner.py:run_campaign.<locals>.settle": "error: a traced sweep that retried a cell",
    # ---- campaign/spec.py ----
    "campaign/spec.py:CampaignCell.label": "input: a numeric bandwidth in bytes/s instead of a preset name",
    "campaign/spec.py:CampaignSpec.expand": "input: a spec with zipped axes (lists advanced together)",
    "campaign/spec.py:_build_method": "input: a compressor axis over a method named by its registry string",
    "campaign/spec.py:_memo_key": "input: a float or dict value on a campaign axis (pruning_ratio, target_accuracy, cluster)",
    "campaign/spec.py:_route": "input: a spec that sets cluster as one dict of ClusterSpec fields",
    "campaign/spec.py:load_spec_file": "input: a .toml spec file",
    "campaign/spec.py:resolve_method | return value": "input: a MethodSpec object as a method value (library callers)",
    "campaign/spec.py:resolve_method | return MethodSpec.from_dict(value)": "input: a method given as a dict of MethodSpec fields",
    "campaign/spec.py:resolve_method | return methods[value]": "input: a method named in the spec's own methods table",
    # ---- campaign/store.py ----
    "campaign/store.py:ResultStore._append | return": "input: an in-memory ResultStore() without a path",
    "campaign/store.py:ResultStore._append | with open(self.path, \"r+b\") as handle:": "error: a torn final line is truncated before the next append",
    "campaign/store.py:ResultStore._append | handle.write(\"\\n\")": "error: a last record whose newline never reached the disk",
    "campaign/store.py:ResultStore._load | continue": "input: a store file with a blank line",
    "campaign/store.py:ResultStore._load | if not raw.endswith(b\"\\n\"):": "error: an unreadable store line, torn or corrupt",
    "campaign/store.py:ResultStore.pivot": "input: a report whose --rows or --cols axis some records lack",
    "campaign/store.py:ResultStore.put": "input: put without the fingerprint the runner already holds (library callers)",
    "campaign/store.py:ResultStore.records": "input: report --filter",
    "campaign/store.py:ResultStore.relative_to_baseline": "input: a report whose --group-by axis some records lack",
    "campaign/store.py:StoredRecord.axis": "input: attempts as a report axis",
    "campaign/store.py:StoredRecord.value | value = self.result.extra.get(name)": "input: report --value naming a key of the result's extra (compact_fraction)",
    "campaign/store.py:StoredRecord.value | return None": "input: report --value tta on a run that missed its target",
    "campaign/store.py:_share_keys": "input: a stored record whose config, cluster or method is not a dict",
    # ---- comm/network.py: a world of one or an empty payload costs nothing ----
    "comm/network.py:LinkSpec.transfer_time": "input: an empty payload",
    "comm/network.py:NetworkModel.all_gather_time": "input: a one-worker world or an empty payload",
    "comm/network.py:NetworkModel.broadcast_time": "input: a one-worker world or an empty payload",
    "comm/network.py:NetworkModel.ring_all_reduce_time": "input: a one-worker world or an empty payload",
    # ---- compression ----
    "compression/base.py:CodecCompressor.__init__": "input: a CodecCompressor built without a name (library callers)",
    "compression/codec/payloads.py:as_payload": "input: a payload passed where an array is expected (library callers)",
    "compression/codec/pipeline.py:Pipeline.encode_all": "input: a standalone encode_all without a context (library callers)",
    "compression/codec/pipeline.py:as_pipeline": "input: one stage passed as a compressor's pipeline",
    "compression/codec/stages.py:Ternarize._clip": "input: an empty payload",
    "compression/codec/stages.py:Ternarize.decode": "input: build_compressor(\"terngrad\"), whose dense ternary payload is decoded here",
    "compression/codec/stages.py:Ternarize.encode": "input: an all-zero gradient bucket (scale 0)",
    "compression/codec/stages.py:Ternarize.prepare": "input: an empty payload on every rank",
    "compression/codec/stages.py:_sampled_top_k": "input: a row with a non-finite value, too few samples or a tie at the threshold",
    "compression/codec/stages.py:_stacked_inputs": "input: a standalone encode_all of a dense-input stage (no staged matrix)",
    "compression/codec/stages.py:batched_top_k_indices | return np.tile(np.arange(numel), (rows, 1))": "input: a top-k ratio that keeps every element (topk1)",
    "compression/codec/stages.py:batched_top_k_indices | return np.empty((rows, 0), dtype=np.int64)": "input: a selection of no elements (library callers)",
    "compression/codec/stages.py:batched_top_k_indices | fallbacks[reason] = fallbacks.get(reason, 0) + 1": "input: a row the sampled selector hands back to argpartition",
    "compression/registry.py:_accepts_seed": "input: a registered factory whose signature cannot be inspected (a builtin)",
    # ---- ddp ----
    "ddp/arena.py:GradientArena.write_rank": "input: a model with a parameter its forward does not use (no gradient)",
    "ddp/arena.py:GradientArena.write_world": "input: a model with a parameter its forward does not use (no gradient)",
    "ddp/bucket.py:Bucket.flatten": "input: a model with a parameter its forward does not use (no gradient)",
    "ddp/bucket.py:build_buckets": "field: ExperimentConfig.bucket_cap_bytes; a model larger than one bucket (item 26)",
    "ddp/ddp.py:DistributedDataParallel._ensure_flat | array = array.astype(self.dtype)": "input: a custom compressor that returns another dtype than the model's",
    "ddp/ddp.py:DistributedDataParallel._ensure_flat | array = array.copy()": "input: a custom compressor that returns a view of the staging arena",
    "ddp/ddp.py:DistributedDataParallel.register_comm_hook": "input: register_comm_hook(None) restores plain all-reduce, as DDP's does",
    # ---- golden.py ----
    "golden.py:_canonical_spec": "error: a fixture whose config or method is not a dict",
    "golden.py:_compare_value": "error: the diff lines of a drifted golden trace",
    "golden.py:_float_equal | return True": "input: a golden number that is NaN in the fixture and the run",
    "golden.py:_float_equal | return math.isclose(expected_f, actual_f, rel_tol=rtol, abs_tol=rtol)": "input: golden --rtol above 0",
    "golden.py:select_methods": "input: golden --only",
    "golden.py:verify": "error: a golden cell whose fixture is missing or whose trace drifted",
    # ---- metrics, nn ----
    "metrics/nmse.py:nmse": "input: an all-zero reference",
    "nn/layers.py:BatchNorm2d.forward": "field: ExperimentConfig.dtype; BatchNorm2d's fused float32 path",
    "nn/layers.py:LayerNorm.forward": "field: ExperimentConfig.dtype; LayerNorm's fused float32 path",
    "nn/optim.py:SGD.step": "input: a model with a parameter its forward does not use (no gradient)",
    # ---- obs ----
    "obs/export.py:summary.<locals>.span_section": "input: a trace without spans on one of the two clocks",
    "obs/export.py:validate_chrome_trace": "error: the findings of an invalid Chrome trace",
    "obs/instrument.py:emit_simulated_iteration": "input: --trace on a run with a fault plan (a degraded iteration)",
    "obs/instrument.py:install_backend_observer.<locals>.observe": "input: an observed backend handed to the observer again",
    "obs/metrics.py:Histogram.merge_buckets | index = len(BUCKET_BOUNDS)": "input: a serialised histogram with values past the last bound",
    "obs/metrics.py:Histogram.merge_buckets | index = bisect_right(BUCKET_BOUNDS, float(bound))": "error: a serialised bound that is not one of BUCKET_BOUNDS",
    "obs/metrics.py:Histogram.quantile | return 0.0": "input: an empty histogram",
    "obs/metrics.py:Histogram.quantile | return float(\"inf\")": "input: a quantile that falls past the last bound",
    "obs/metrics.py:Histogram.quantile | return BUCKET_BOUNDS[-1]": "input: a quantile above 1",
    "obs/tracer.py:Tracer._emit": "input: a tracer enabled without a path, which records in memory",
    "obs/tracer.py:Tracer.disable": "input: disable while tracing is off",
    "obs/tracer.py:Tracer.emit_wall_span": "input: a direct call while tracing is off",
    "obs/tracer.py:Tracer.enable | self.disable()": "input: enable while tracing is on",
    "obs/tracer.py:Tracer.enable | self.sink_path = path": "input: --trace naming a .jsonl sink",
    "obs/tracer.py:Tracer.flush_metrics": "input: a direct call while tracing is off",
    "obs/tracer.py:Tracer.instant | return": "input: a direct call while tracing is off",
    "obs/tracer.py:Tracer.instant | ts = self.sim_now": "input: a sim-clock marker without a timestamp",
    "obs/tracer.py:Tracer.new_sim_process": "input: a direct call while tracing is off",
    "obs/tracer.py:Tracer.sim_span": "input: a direct call while tracing is off",
    # ---- pruning ----
    "pruning/magnitude.py:magnitude_mask": "input: a ratio that rounds to no weight, or a model with nothing prunable",
    "pruning/mask.py:PruningMask.apply_to_weights": "input: a mask without an entry for every parameter (hand-built)",
    "pruning/mask.py:PruningMask.sparsity": "input: a mask over no parameters",
    # ---- simulation ----
    "simulation/cluster.py:ClusterSpec.__post_init__": "input: the empty faults value \"\" of a campaign axis",
    "simulation/cluster.py:ClusterSpec.bandwidth_bytes_per_second": "input: a numeric bandwidth in bytes/s instead of a preset name",
    "simulation/cluster.py:ClusterSpec.cost_model_for": "field: ClusterSpec.hierarchical; the two-level cost model over the Fig. 4 switch groups",
    "simulation/cluster.py:ClusterSpec.to_dict": "field: ClusterSpec.device; a custom device stored with its cluster",
    "simulation/compute.py:bucket_completion_fractions": "input: a model with no buckets, or whose buckets hold no parameter with compute",
    "simulation/compute.py:estimate_parameter_flops": "input: a module without parameters of its own",
    "simulation/compute.py:resolve_device": "field: ClusterSpec.device; a DeviceSpec instead of a preset name",
    "simulation/experiment.py:_FaultState.advance": "input: --trace on a run with a fault plan",
    "simulation/experiment.py:_ParameterServer.train | self.blocked.add(rank)": "input: a ps:S cell whose workers drift more than S updates apart",
    "simulation/experiment.py:_ParameterServer.train | if admissible(other):": "input: a ps:S cell whose workers drift more than S updates apart",
    "simulation/experiment.py:_ParameterServer.train.<locals>.admissible": "input: the unbounded ps regime (no :S)",
    "simulation/experiment.py:_WorkloadShare.workload": "input: a sweep whose shared workloads outgrow _WORKLOAD_SHARE_MAX_BYTES",
    "simulation/experiment.py:_prune_model": "field: MethodSpec.pruning_method; GraSP pruning",
    "simulation/faults.py:FaultPlan.churn_multipliers": "input: a fault plan with churn:P",
    "simulation/faults.py:FaultPlan.parse | continue": "input: a fault plan with an empty token (a,,b)",
    "simulation/faults.py:FaultPlan.parse | policy = rest": "input: a fault plan with policy:",
    "simulation/faults.py:FaultPlan.parse | parts = rest.split(\":\")": "input: a fault plan with churn:P",
    "simulation/regimes.py:parse_sync_schedule": "input: a schedule of None (library callers)",
    "simulation/spec.py:MethodSpec.__post_init__": "input: the empty sync_schedule value \"\" of a campaign axis",
    "simulation/spec.py:rebuild": "error: a stored dict with an unknown field, rejected by name",
    # ---- tensorlib ----
    "tensorlib/backend.py:_gather_index_plan": "input: conv geometries whose gather plans outgrow _PLAN_CACHE_MAX_BYTES",
    "tensorlib/backend.py:_workspace | return np.empty(shape, dtype=dtype)": "input: a patch matrix past _WORKSPACE_MAX_BYTES (a paper-size model, item 9)",
    "tensorlib/backend.py:_workspace | kept = [b for b, f in zip(pool, free) if not f]": "input: a workspace pool that outgrows _WORKSPACE_MAX_BYTES",
    "tensorlib/dtypes.py:as_compute_array | return value.astype(target)": "input: an array of another dtype than the one asked for",
    "tensorlib/dtypes.py:as_compute_array | return np.asarray(value, dtype=dtype or _DEFAULT_DTYPE)": "input: a list or a scalar instead of an array",
    "tensorlib/dtypes.py:float_dtype_of": "input: an integer or half-precision array",
    "tensorlib/functional.py:batch_norm_replay": "input: a batch-norm replay outside autograd",
    "tensorlib/functional.py:batch_norm_replay.<locals>.backward": "input: a replayed batch norm whose input needs no gradient",
    "tensorlib/functional.py:conv2d": "input: a conv layer with a bias or with one weight per replica (local SGD)",
    "tensorlib/functional.py:conv2d.<locals>.backward": "input: a conv layer with a bias or with one weight per replica (local SGD)",
    "tensorlib/init.py:_fan_in_fan_out": "input: a 1-D weight with a fan-based initialiser",
    "tensorlib/tensor.py:Tensor.__neg__": "input: negation outside autograd",
    "tensorlib/tensor.py:Tensor._accumulate | return": "input: a gradient for a tensor that needs none",
    "tensorlib/tensor.py:Tensor._accumulate | self.grad = np.broadcast_to(self.grad, self.data.shape).copy()": "input: a first gradient that broadcasts to its tensor",
    "tensorlib/tensor.py:Tensor._wrap": "input: an array of another dtype than the default",
    "tensorlib/tensor.py:Tensor.backward": "input: backward(grad) with a gradient that broadcasts to the output",
    "tensorlib/tensor.py:Tensor.log_softmax": "input: log_softmax outside autograd",
    "tensorlib/tensor.py:Tensor.matmul.<locals>.backward": "input: a matrix-vector product (a 1-D operand)",
    "tensorlib/tensor.py:Tensor.mean": "input: mean over every element or over a tuple of axes",
    "tensorlib/tensor.py:Tensor.transpose": "input: transpose() with no axes or with one tuple of axes, numpy's spellings",
    "tensorlib/tensor.py:_as_array": "input: an array of another dtype than the one asked for",
    "tensorlib/tensor.py:_neg_unbroadcast": "input: a subtraction whose right operand was not broadcast",
}


def test_reach_loads_this_ledger():
    import reach

    assert reach.load_ledger() == (LEDGER, ARMS)


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


@pytest.mark.parametrize("ledger", [LEDGER, ARMS], ids=["defs", "arms"])
def test_every_reason_is_one_line_with_a_tag(ledger):
    untagged = sorted(key for key, reason in ledger.items() if not REASON.match(reason))
    assert untagged == [], f"each reason starts with one of {TAGS}"


def test_a_deleted_group_is_no_longer_a_tag():
    assert not REASON.match("next:api: a test accessor")


@pytest.mark.parametrize("ledger", [LEDGER, ARMS], ids=["defs", "arms"])
def test_field_entries_name_a_knob_ledger_field(ledger):
    from tests.test_knob_ledger import LEDGER as KNOBS

    fields = {key: reason.split()[1].rstrip(";") for key, reason in ledger.items() if reason.startswith("field: ")}
    assert fields and {key: name for key, name in fields.items() if name not in KNOBS} == {}


def statement_texts(d) -> set:
    """The texts an arm of ``d`` can start with: every statement reach walks."""
    import reach

    texts, blocks = set(), [reach.body(d)]
    while blocks:
        for statement in blocks.pop():
            texts.add(reach.statement_text(d, statement))
            blocks.extend(reach.blocks(statement))
    return texts


def test_every_arms_key_resolves_to_a_def_and_a_statement_in_it():
    import reach

    defs = reach.list_defs()
    unresolved = []
    for key in ARMS:
        def_key, _, text = key.partition(" | ")
        if def_key not in defs or (text and text not in statement_texts(defs[def_key])):
            unresolved.append(key)
    assert unresolved == [], "these ARMS keys name no def, or no statement of their def"


def test_no_arms_key_covers_another():
    keyed_defs = {key.partition(" | ")[0] for key in ARMS if " | " not in key}
    covered = sorted(key for key in ARMS if " | " in key and key.partition(" | ")[0] in keyed_defs)
    assert covered == [], "a def key covers these arm keys"


def test_the_tracer_sees_import_time_and_run_time_code():
    """``Tracer.__init__`` runs only while ``repro`` is imported: a hook
    installed after the import, or one that records nothing, fails here.
    The same hook sees lines: the golden ``pactrain`` cell prunes, so
    ``magnitude_mask`` computes its global threshold, and nothing raises."""
    import reach

    d = reach.list_defs()["pruning/magnitude.py:magnitude_mask"]
    line = {reach.statement_text(d, s): s.lineno for s in ast.walk(d.node) if isinstance(s, ast.stmt)}
    from tests.test_reach import in_child

    run = json.loads(in_child("""\
        import json, reach
        run = reach.trace([["repro", "golden", "--quiet", "--only", "pactrain"]])
        print(json.dumps([sorted(run.entered), sorted(run.executed["pruning/magnitude.py"])]))
        """))
    entered, executed = set(run[0]), set(run[1])
    assert "simulation/experiment.py:run_experiment" in entered
    assert "obs/tracer.py:Tracer.__init__" in entered
    assert "comm/topology.py:HierarchicalCostModel.__init__" not in entered
    assert line["threshold = np.partition(all_magnitudes, k - 1)[k - 1]"] in executed
    assert line['raise ValueError("pruning_ratio must be in [0, 1)")'] not in executed
