"""The one gradient-sync seam: ``CodecCompressor.aggregate(bucket, group, iteration)``.

Four equivalences the design relies on, each pinned by bytes, and the step
that reaches the seam:

* a built-in compressor *name* is the spec string the registry table says it
  is (and nothing more: same results, events, stats and flags);
* the DDP wrapper's hook is a compressor — ``comm_hook=None`` is the identity
  compressor, anything else that is not a ``CodecCompressor`` is a ``TypeError``,
  and a degraded-then-restored membership leaves one group;
* a parameter-server push is a one-rank ``aggregate`` on the worker's own
  compressor — results equal to the hand-rolled encode/residual/decode block
  it replaced (values captured at that commit), residuals isolated per worker,
  the one-rank group's event log drained;
* PacTrain has one construction path, on which the name and ``quantize`` agree
  or the build fails before any work;
* a synchronous run drives ``DistributedDataParallel.train_step`` — the step
  the unit tests above exercise — once per iteration, and the hook sees each
  iteration number exactly once per bucket.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import golden
from repro.comm import NetworkModel, ProcessGroup
from repro.compression import CodecCompressor, build_compressor, parse_compressor_spec
from repro.compression.codec.stages import Ternarize
from repro.compression.registry import BUILTIN_SPECS, PACTRAIN_QUANTIZE
from repro.ddp import DistributedDataParallel
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.nn.models import mlp_tiny
from repro.simulation import PAPER_METHODS, ClusterSpec, pricing, run_experiment
from repro.simulation.spec import MethodSpec
from repro.tensorlib import functional as F

WORLD, NUMEL, STEPS, SEEDS = 4, 5000, 5, (0, 7)
NETWORK = NetworkModel.from_paper_setting(WORLD, "100Mbps")

#: name -> (spec string, ``.name``): the test's own copy of the table, so an
#: edit to the registry's has to be made twice to go unnoticed.
NAME_IS_SPEC = {
    "allreduce": ("fp32", "allreduce"),
    "all-reduce": ("fp32", "allreduce"),
    "none": ("fp32", "none"),
    "identity": ("fp32", "identity"),
    "fp16": ("fp16", "fp16"),
    "topk": ("ef+topk0.1", "topk-0.1"),
    "topk-0.1": ("ef+topk0.1", "topk-0.1"),
    "topk-0.01": ("ef+topk0.01", "topk-0.01"),
    "terngrad": ("terngrad", "terngrad"),
    "dgc": ("dgc0.01", "dgc-0.01"),
    "dgc-0.01": ("dgc0.01", "dgc-0.01"),
}


def drive(compressor, seed):
    """Five aggregations of a half-sparse (4, 5000) bucket: bytes, events, stats."""
    rng = np.random.default_rng(100 + seed)
    keep = rng.random(NUMEL) < 0.5
    layout = Bucket(index=0, slices=[BucketSlice("w", 0, NUMEL, (NUMEL,))])
    group = ProcessGroup(WORLD)
    results, events = [], []
    for step in range(STEPS):
        matrix = rng.standard_normal((WORLD, NUMEL)) * keep
        result = compressor.aggregate(GradBucket(layout, matrix=matrix), group, iteration=step)
        results.append((result.dtype, result.tobytes()))
        events += [
            (e.op, pricing.op_time(NETWORK, e.op, e.payload_bytes), e.bytes_per_worker)
            for e in group.pop_events()
        ]
    return results, events, dataclasses.asdict(compressor.stats)


class TestANameIsASpecString:
    def test_the_table_is_the_registrys(self):
        assert NAME_IS_SPEC == BUILTIN_SPECS

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(NAME_IS_SPEC))
    def test_name_equals_its_spec(self, name, seed):
        spec, label = NAME_IS_SPEC[name]
        named = build_compressor(name, seed=seed)
        pipeline, error_feedback = parse_compressor_spec(spec, seed=seed)
        spelled = CodecCompressor(pipeline, error_feedback=error_feedback)
        assert drive(named, seed) == drive(spelled, seed)
        assert named.name == label
        assert type(named) is CodecCompressor
        for flag in ("allreduce_compatible", "lossless", "error_feedback"):
            assert getattr(named, flag) == getattr(spelled, flag), flag

    def test_a_built_in_name_takes_no_constructor_keywords(self):
        """What a spec cannot spell is an argument of the stage, not of the name."""
        with pytest.raises(TypeError):
            build_compressor("dgc", momentum=0.5)


# --------------------------------------------------------------------------- #
# The compressor is the hook
# --------------------------------------------------------------------------- #
class TestTheCompressorIsTheHook:
    def test_none_is_the_identity_compressor(self, sample_batch):
        network = NetworkModel.from_paper_setting(2, "100Mbps")
        steps = []
        for hook in (None, build_compressor("all-reduce")):
            model = mlp_tiny(num_classes=10, seed=11)
            ddp = DistributedDataParallel(
                model, world_size=2, process_group=ProcessGroup(2), comm_hook=hook
            )
            step = ddp.train_step([sample_batch] * 2, F.cross_entropy)
            grads = [(p.grad.dtype, p.grad.tobytes()) for p in model.parameters()]
            events = [(e.op, e.payload_bytes, e.bytes_per_worker) for e in step.events]
            comm = pricing.comm_time(network, step.events)
            steps.append((grads, events, comm, step.comm_bytes_per_worker))
            assert ddp.compressor.name == "allreduce" and ddp.compressor.lossless
        assert steps[0] == steps[1]

    def test_anything_but_a_compressor_is_rejected_at_construction(self, tiny_model):
        def bare_hook(state, bucket):
            return bucket.matrix[0]

        for hook in (42, bare_hook):
            with pytest.raises(TypeError, match="CodecCompressor"):
                DistributedDataParallel(tiny_model, world_size=2, comm_hook=hook)
        ddp = DistributedDataParallel(tiny_model, world_size=2)
        with pytest.raises(TypeError, match="CodecCompressor"):
            ddp.register_comm_hook(bare_hook)

    def test_membership_round_trip_leaves_one_group(self, tiny_model, rng):
        """Degrade, synchronise, restore, synchronise: the compressor is handed
        the degraded group and then the wrapper's own again — one attribute,
        nothing to keep in step."""
        seen = []

        class Recording(CodecCompressor):
            def aggregate(self, bucket, group, iteration=0):
                seen.append((group, bucket.world_size))
                return super().aggregate(bucket, group, iteration)

        ddp = DistributedDataParallel(
            tiny_model, world_size=4, comm_hook=Recording(parse_compressor_spec("fp32")[0])
        )
        grads = {
            name: rng.standard_normal((4, *param.data.shape))
            for name, param in tiny_model.named_parameters()
        }
        ddp.stage_world_gradients(grads)
        healthy, _ = ddp.synchronize_staged()

        ddp.set_active_ranks([0, 2, 3])
        degraded_group = ddp.active_group
        assert degraded_group is not ddp.process_group and degraded_group.world_size == 3
        degraded, events = ddp.synchronize_staged()
        assert all(event.world_size == 3 for per_bucket in events for event in per_bucket)

        ddp.set_active_ranks(None)
        restored, events = ddp.synchronize_staged()
        assert ddp.active_group is ddp.process_group
        assert all(event.world_size == 4 for per_bucket in events for event in per_bucket)

        buckets = len(ddp.buckets)
        assert seen == (
            [(ddp.process_group, 4)] * buckets
            + [(degraded_group, 3)] * buckets
            + [(ddp.process_group, 4)] * buckets
        )
        assert not degraded_group.events and not ddp.process_group.events
        for name in healthy:
            assert healthy[name].tobytes() == restored[name].tobytes()
            np.testing.assert_allclose(
                degraded[name], np.mean(grads[name][[0, 2, 3]], axis=0), rtol=1e-12
            )

    def test_a_compressor_passed_for_one_call_does_not_replace_the_hook(self, tiny_model, rng):
        """Local SGD's dense averaging: explicit, no swap-and-restore."""
        lossy = build_compressor("topk-0.01")
        ddp = DistributedDataParallel(tiny_model, world_size=2, comm_hook=lossy)
        grads = {
            name: rng.standard_normal((2, *param.data.shape))
            for name, param in tiny_model.named_parameters()
        }
        ddp.stage_world_gradients(grads)
        dense, _ = ddp.synchronize_staged(build_compressor("all-reduce"))
        assert ddp.compressor is lossy and lossy.stats.raw_bytes == 0.0
        for name, value in dense.items():
            np.testing.assert_array_equal(value, (grads[name][0] + grads[name][1]) / 2)


# --------------------------------------------------------------------------- #
# Parameter-server pushes on the driver
# --------------------------------------------------------------------------- #
#: ``run_experiment(GOLDEN_CONFIG[dtype], MethodSpec(compressor, sync_schedule))``
#: at the commit before PS pushes moved onto ``aggregate`` (float.hex()).
PS_AT_PARENT = {
    ("ef+topk0.05", "ps:2", "float64"): {
        "compression_ratio": "0x1.400b19ab5c456p+3",
        "comm_bytes_per_worker": "0x1.7c94000000000p+18",
        "simulated_time": "0x1.093b680b013acp-3",
        "accuracy_trace": [
            ("0x1.61a48ab956f95p-5", "0x1.5555555555555p-2"),
            ("0x1.61a48ab956f94p-4", "0x1.5555555555555p-4"),
            ("0x1.093b680b013acp-3", "0x1.0000000000000p-2"),
        ],
        "loss_trace": ["0x1.760b089441b4cp+0", "0x1.27aa6674dc244p+0", "0x1.ec9bded38c474p+4"],
    },
    ("ef+topk0.05", "ps:2", "float32"): {
        "compression_ratio": "0x1.400b19ab5c456p+3",
        "comm_bytes_per_worker": "0x1.7c94000000000p+18",
        "simulated_time": "0x1.093b680b013acp-3",
        "accuracy_trace": [
            ("0x1.61a48ab956f95p-5", "0x1.5555555555555p-2"),
            ("0x1.61a48ab956f94p-4", "0x1.5555555555555p-4"),
            ("0x1.093b680b013acp-3", "0x1.0000000000000p-2"),
        ],
        "loss_trace": ["0x1.760b085800000p+0", "0x1.27aa65f1fff60p+0", "0x1.ec9bd86000000p+4"],
    },
    ("topk0.05+terngrad", "ps", "float64"): {
        "compression_ratio": "0x1.2d379fb056d7ep+4",
        "comm_bytes_per_worker": "0x1.6c5cc00000000p+18",
        "simulated_time": "0x1.fcb319726cda0p-4",
        "accuracy_trace": [
            ("0x1.7aa664584439cp-5", "0x1.5555555555555p-3"),
            ("0x1.66e43aa79bbaep-4", "0x1.5555555555555p-3"),
            ("0x1.fcb319726cda0p-4", "0x1.0000000000000p-2"),
        ],
        "loss_trace": ["0x1.7c90344f25572p+0", "0x1.63c202ae8ec78p+0", "0x1.eaff71c97179dp+3"],
    },
    ("topk0.05+terngrad", "ps", "float32"): {
        "compression_ratio": "0x1.2d379fb056d7ep+4",
        "comm_bytes_per_worker": "0x1.6c5cc00000000p+18",
        "simulated_time": "0x1.fcb319726cda0p-4",
        "accuracy_trace": [
            ("0x1.7aa664584439cp-5", "0x1.5555555555555p-3"),
            ("0x1.66e43aa79bbaep-4", "0x1.5555555555555p-3"),
            ("0x1.fcb319726cda0p-4", "0x1.0000000000000p-2"),
        ],
        "loss_trace": ["0x1.7c9032e000000p+0", "0x1.63c200bfffff0p+0", "0x1.eaff7e6400000p+3"],
    },
}


def ps_cell(spec, schedule, dtype="float64", **overrides):
    config = dataclasses.replace(golden.GOLDEN_CONFIG, dtype=dtype, **overrides)
    return config, MethodSpec(name="cell", compressor=spec, sync_schedule=schedule)


@pytest.fixture
def aggregate_calls(monkeypatch):
    """Every ``CodecCompressor.aggregate`` call of a run: ``(compressor, group,
    collectives issued)``, checking on the way that no call touches another
    compressor's residual."""
    calls = []
    original = CodecCompressor.aggregate

    def spy(self, bucket, group, iteration=0):
        others = {
            id(other): (other, {index: r.copy() for index, r in other._residuals.items()})
            for other, _, _ in calls
            if other is not self
        }
        logged = len(group.events)
        result = original(self, bucket, group, iteration)
        for other, before in others.values():
            assert before.keys() == other._residuals.keys()
            for index, residual in before.items():
                assert residual.tobytes() == other._residuals[index].tobytes()
        calls.append((self, group, len(group.events) - logged))
        return result

    monkeypatch.setattr(CodecCompressor, "aggregate", spy)
    return calls


class TestParameterServerPushesOnTheDriver:
    @pytest.mark.parametrize("cell", sorted(PS_AT_PARENT), ids="-".join)
    def test_results_equal_the_hand_rolled_loop(self, cell):
        result = run_experiment(*ps_cell(*cell))
        expected = PS_AT_PARENT[cell]
        for field in ("compression_ratio", "comm_bytes_per_worker", "simulated_time"):
            assert float(getattr(result, field)).hex() == expected[field], field
        assert [(t.hex(), a.hex()) for t, a in result.accuracy_trace] == expected["accuracy_trace"]
        assert [float(loss).hex() for loss in result.loss_trace] == expected["loss_trace"]

    def test_each_worker_pushes_through_its_own_compressor(self, aggregate_calls):
        """Residual isolation is asserted inside the spy, on every push."""
        config, method = ps_cell("ef+topk0.05", "ps:2")
        result = run_experiment(config, method)
        workers = {id(compressor): compressor for compressor, _, _ in aggregate_calls}
        assert len(workers) == config.cluster.world_size
        assert len(aggregate_calls) == result.ps_updates  # mlp: one bucket per push
        for compressor in workers.values():
            assert compressor._residuals.get(0).shape[0] == 1 and np.any(compressor._residuals.get(0))
        # One stats carrier for the run, whichever worker pushed.
        assert len({id(compressor.stats) for compressor in workers.values()}) == 1
        # ... which counts every push's fp32 bytes: one (1, numel) bucket each.
        pusher = next(iter(workers.values()))
        numel = pusher._residuals[0].shape[1]
        assert pusher.stats.raw_bytes == result.ps_updates * numel * 4.0

    def test_the_one_rank_group_is_drained(self, aggregate_calls):
        """terngrad issues two collectives per push (scaler agreement, payload)."""
        config, method = ps_cell(
            "terngrad", "ps", epochs=5, max_iterations_per_epoch=10, dataset_samples=440
        )
        result = run_experiment(config, method)
        assert result.ps_updates == 200
        groups = {id(group): group for _, group, _ in aggregate_calls}
        assert len(groups) == 1
        (group,) = groups.values()
        assert group.world_size == 1
        assert sum(issued for _, _, issued in aggregate_calls) == 400 and not group.events


# --------------------------------------------------------------------------- #
# PacTrain: one construction path
# --------------------------------------------------------------------------- #
#: (compressor name, quantize) -> (quantised?, ``.name``); None: rejected.
PACTRAIN_TRUTH = {
    ("pactrain", False): (False, "pactrain"),
    ("pactrain", True): (True, "pactrain-terngrad"),
    ("pactrain-terngrad", False): (True, "pactrain-terngrad"),
    ("pactrain-terngrad", True): (True, "pactrain-terngrad"),
    ("pactrain-fp32", False): (False, "pactrain"),
    ("pactrain-fp32", True): None,
}


def no_dataset(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("the dataset was built before the method was rejected")

    monkeypatch.setattr("repro.simulation.experiment.make_dataset", spy)


class TestPacTrainHasOneConstructionPath:
    def test_the_truth_table_covers_every_name(self):
        assert {name for name, _ in PACTRAIN_TRUTH} == set(PACTRAIN_QUANTIZE)

    @pytest.mark.parametrize("spelling", ["method", "registry"])
    @pytest.mark.parametrize("name,quantize", sorted(PACTRAIN_TRUTH))
    def test_name_and_quantize_agree_or_fail(self, name, quantize, spelling):
        def build():
            if spelling == "registry":
                return build_compressor(name.upper(), seed=3, quantize=quantize)
            return MethodSpec(name="x", compressor=name, quantize=quantize).build_compressor(3)

        expected = PACTRAIN_TRUTH[name, quantize]
        if expected is None:
            with pytest.raises(ValueError, match="without ternary quantisation"):
                build()
            return
        compressor = build()
        assert (compressor.quantize, compressor.name) == expected
        # The seed reaches the ternary stage, the one stage that draws.
        ternary = [stage for stage in compressor._compact_pipeline.stages if isinstance(stage, Ternarize)]
        assert len(ternary) == compressor.quantize
        seeded = np.random.default_rng(3).bit_generator.state
        assert all(stage._rng.bit_generator.state == seeded for stage in ternary)

    def test_the_stability_threshold_reaches_the_tracker(self):
        compressor = MethodSpec(
            name="x", compressor="pactrain-terngrad", stability_threshold=7,
        ).build_compressor()
        assert compressor.tracker.stability_threshold == 7

    def test_a_contradiction_fails_before_the_dataset_is_built(self, monkeypatch):
        no_dataset(monkeypatch)
        method = MethodSpec(name="x", compressor="pactrain-fp32", quantize=True)
        with pytest.raises(ValueError, match="'pactrain-fp32'.*quantize=True"):
            run_experiment(golden.GOLDEN_CONFIG, method)

    def test_an_unknown_spelling_fails_before_the_dataset_is_built(self, monkeypatch):
        no_dataset(monkeypatch)
        with pytest.raises(KeyError, match="unknown compressor 'pactrainXYZ'"):
            # Rejected at spec construction, earlier still than the run.
            run_experiment(golden.GOLDEN_CONFIG, MethodSpec(name="x", compressor="pactrainXYZ"))


# --------------------------------------------------------------------------- #
# The experiment loop runs the tested step
# --------------------------------------------------------------------------- #
#: Rank 3 is dead for three of the six iterations: degraded iterations loop
#: over the survivors, healthy ones take the world-batched pass.
CRASH_PLAN = "crash:3@0.001,rejoin:3@0.025"

#: name -> (config overrides, sync_schedule) of the synchronous cells pinned
#: below.  A small bucket cap gives the MLP several buckets, and 86 samples
#: give every rank two full batches per epoch (no ragged tail).
SYNC_CELLS = {
    "sync": ({}, None),
    "localsgd:1": ({}, "localsgd:1"),
    "crash-plan": (
        {"cluster": ClusterSpec(world_size=4, bandwidth="100Mbps", faults=CRASH_PLAN)}, None
    ),
}


def sync_cell(name):
    overrides, schedule = SYNC_CELLS[name]
    config = dataclasses.replace(
        golden.GOLDEN_CONFIG, bucket_cap_bytes=8 * 1024, dataset_samples=86, **overrides
    )
    method = dataclasses.replace(PAPER_METHODS["pactrain"], sync_schedule=schedule)
    return config, method


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(DistributedDataParallel, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DistributedDataParallel, name, counted)
    return calls


class TestTheExperimentLoopRunsTheTestedStep:
    @pytest.mark.parametrize("cell", sorted(SYNC_CELLS))
    def test_train_step_runs_once_per_iteration(self, cell, monkeypatch):
        steps = count_calls(monkeypatch, "train_step")
        batched = count_calls(monkeypatch, "compute_batched_gradients")
        looped = count_calls(monkeypatch, "compute_local_gradients")
        result = run_experiment(*sync_cell(cell))
        assert result.iterations_run == 6
        assert len(steps) == result.iterations_run
        assert result.degraded_iterations == (3 if cell == "crash-plan" else 0)
        # Healthy or degraded, every iteration is one world-batched pass.
        assert len(batched) == result.iterations_run
        assert looped == []

    @pytest.mark.parametrize("cell", sorted(SYNC_CELLS))
    def test_the_hook_sees_each_iteration_once_per_bucket(self, cell, monkeypatch):
        seen = []
        original = CodecCompressor.aggregate

        def spy(self, bucket, group, iteration=0):
            seen.append((bucket.index, iteration))
            return original(self, bucket, group, iteration)

        monkeypatch.setattr(CodecCompressor, "aggregate", spy)
        config, method = sync_cell(cell)
        result = run_experiment(config, method)
        buckets = sorted({index for index, _ in seen})
        assert len(buckets) > 1
        for index in buckets:
            iterations = [iteration for bucket, iteration in seen if bucket == index]
            assert iterations == list(range(result.iterations_run)), index
