"""The codec aggregation driver against its dense reference.

:meth:`CodecCompressor.aggregate` keeps selections sparse through the gather
and compensates error feedback in place (the residual rows *are* the encode
inputs).  This file holds

* ``reference_aggregate`` — the dense driver it replaced (a fresh
  ``matrix + residual`` per call, a dense decode per rank, dense
  subtract/add), and ``reference_topk_prepare`` for the stage-internal
  residual — as the oracle every result, residual, stat and NMSE sample must
  match **bit for bit**, signs of zero included;
* the three traps in-place compensation opens (pass-through alias, tracing
  after the rewrite, adopting caller-owned rows) as named cases;
* the allocation contract: no ``(world, numel)`` temporary, no per-rank
  densify, counted with ``tracemalloc`` rather than timed;
* the spec grammar: malformed specs fail when the compressor is built.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import golden
from repro.comm import ProcessGroup
from repro.compression import (
    COMPRESSOR_REGISTRY,
    CodecCompressor,
    build_compressor,
    exact_average,
)
from repro.compression.base import NMSE_SAMPLE_EVERY
from repro.compression.codec import (
    Half,
    Identity,
    Pipeline,
    SparsePayload,
    TopK,
    parse_compressor_spec,
)
from repro.compression.codec.stages import (
    SAMPLED_SELECT_FLOOR,
    Codec,
    EncodeContext,
    _stacked_inputs,
    batched_top_k_indices,
)
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.metrics.nmse import nmse
from repro.obs.tracer import TRACER
from repro.simulation import run_experiment
from repro.simulation.spec import MethodSpec
from repro.tensorlib.dtypes import default_dtype

REGISTRY_NAMES = tuple(sorted(COMPRESSOR_REGISTRY))
SPECS = REGISTRY_NAMES + (
    "ef+fp32", "ef+fp16", "ef+topk0.05", "ef+terngrad", "ef+topk0.05+terngrad",
    "topk0.05", "topk0.05+terngrad", "topk0.05+fp16", "dgc0.05",
    "ef+topk0.05+fp16", "fp16+terngrad", "dgc0.05+fp16",
)


# --------------------------------------------------------------------------- #
# The oracle: the dense driver and the copying stage residual
# --------------------------------------------------------------------------- #
def reference_aggregate(compressor, bucket, group, iteration=0, nmse_samples=None):
    """The dense driver: compensate into a fresh matrix, densify every rank."""
    pipeline = compressor._pipeline_for(bucket, group, iteration)
    matrix = bucket.matrix
    buffers = list(matrix)
    residual = None
    if compressor.error_feedback:
        residual = compressor._residuals.get(bucket.index)
        if residual is None or residual.shape != (bucket.world_size, bucket.numel):
            residual = np.zeros(
                (bucket.world_size, bucket.numel), dtype=np.asarray(buffers[0]).dtype
            )
        matrix = matrix + residual
        buffers = list(matrix)
    ctx = EncodeContext(
        world_size=bucket.world_size, bucket_index=bucket.index, group=group, matrix=matrix,
    )
    payloads = pipeline.encode_all(buffers, ctx)
    reducible = pipeline.allreduce_compatible
    if reducible:
        if residual is not None:
            for rank, payload in enumerate(payloads):
                np.subtract(
                    buffers[rank], pipeline.decode(payload), out=residual[rank],
                    casting="unsafe",
                )
        result = pipeline.decode(group.all_reduce(payloads, average=True))
    else:
        result = None
        for rank, payload in enumerate(group.all_gather(payloads)):
            decoded = pipeline.decode(payload)
            if residual is not None:
                np.subtract(buffers[rank], decoded, out=residual[rank], casting="unsafe")
            if result is None:
                result = np.zeros(bucket.numel, dtype=decoded.dtype)
            np.add(result, decoded, out=result)
        result /= bucket.world_size
    if residual is not None:
        compressor._residuals[bucket.index] = residual
    compressor._record(bucket, payloads)
    if (
        nmse_samples is not None
        and not compressor.lossless
        and iteration % NMSE_SAMPLE_EVERY == 0
    ):
        nmse_samples.append(float(nmse(exact_average(list(buffers)), result)))
    return result


def reference_topk_prepare(self, inputs, ctx):
    """``TopK.prepare`` with a fresh ``matrix + residual`` and a full copy."""
    matrix = _stacked_inputs(inputs, ctx, "TopK")
    numel = matrix.shape[1]
    k = max(1, int(round(numel * self.ratio)))
    if self.error_feedback:
        residual = self._residuals.get(ctx.bucket_index)
        if residual is not None and residual.shape == matrix.shape:
            matrix = matrix + residual
    indices = batched_top_k_indices(matrix, k)
    values = np.take_along_axis(matrix, indices, axis=1)
    if self.error_feedback:
        residual = matrix.copy()
        np.put_along_axis(residual, indices, 0.0, axis=1)
        self._residuals[ctx.bucket_index] = residual
    ctx.shared[id(self)] = (indices, values, numel)


def build_reference(spec, seed):
    """A twin of ``build_compressor(spec, seed)`` driven by the oracle code."""
    twin = build_compressor(spec, seed=seed)
    for stage in twin.pipeline.stages:
        if isinstance(stage, TopK):
            stage.prepare = types.MethodType(reference_topk_prepare, stage)
    return twin


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def layout(numel, index=0):
    return Bucket(index=index, slices=[BucketSlice("w", 0, numel, (numel,))])


def make_bucket(rows, index=0):
    return GradBucket(layout(rows[0].size, index), np.stack(rows))


def bits(array):
    array = np.asarray(array)
    return array.dtype, array.shape, array.tobytes()


def assert_same_bits(actual, expected, what):
    """Equal dtype, shape and bytes — so also equal signs of zero."""
    if bits(actual) != bits(expected):
        assert np.asarray(actual).dtype == np.asarray(expected).dtype, what
        np.testing.assert_array_equal(actual, expected, err_msg=what)
        np.testing.assert_array_equal(
            np.signbit(actual), np.signbit(expected), err_msg=f"{what}: sign bits"
        )
        raise AssertionError(f"{what}: bytes differ")  # pragma: no cover - NaN payloads


def gradients(rng, world, numel, dtype, keep):
    """Per-rank rows with ``-0.0``, exact zeros and duplicated magnitudes.

    ``keep`` is one zero pattern shared by ranks and steps (a pruning mask),
    so the PacTrain names leave full synchronisation inside a few steps.
    """
    rows = np.round(rng.standard_normal((world, numel)) * 4.0) / 4.0  # many ties, +-
    rows = rows + (rng.random((world, numel)) < 0.5) * rng.standard_normal((world, numel))
    rows[rng.random((world, numel)) < 0.1] = 0.0
    rows *= keep
    rows[rng.random((world, numel)) < 0.1] *= -1.0  # turns some zeros into -0.0
    return rows.astype(dtype)


def nmse_marks(jsonl_path):
    events = [json.loads(line) for line in open(jsonl_path, encoding="utf-8")]
    return [
        event["args"]["nmse"] for event in events
        if event.get("kind") == "instant" and event["name"] == "codec/nmse"
    ]


def run_differential(spec, world, numel, dtype, policy, seed, traced=False):
    """Five steps, one crash (``resize_world`` down) and one re-join (up).

    World 1 is a parameter-server push's shape: one worker's row.
    """
    rng = np.random.default_rng(seed)
    keep = rng.random(numel) >= 0.3
    actual = build_compressor(spec, seed=seed)
    reference = build_reference(spec, seed)
    arenas = [np.empty((world, numel), dtype=dtype) for _ in range(2)]
    full = list(range(world))
    active = full
    expected_nmse = []
    for step in range(5):
        if world > 1 and step in (2, 3):
            target = [r for r in full if r != world // 2] if step == 2 else full
            for compressor in (actual, reference):
                compressor.resize_world(active, target, policy)
            active = target
        grads = gradients(rng, len(active), numel, dtype, keep)
        buckets = []
        for arena in arenas:
            arena[active] = grads
            # A degraded membership hands the hook a fancy copy of the
            # surviving rows (DistributedDataParallel.synchronize_staged).
            matrix = arena if active == full else arena[active]
            buckets.append(GradBucket(layout(numel), matrix=matrix))
        groups = [ProcessGroup(len(active)) for _ in range(2)]
        iteration = step * NMSE_SAMPLE_EVERY // 2  # every other step is an NMSE sample
        got = actual.aggregate(buckets[0], groups[0], iteration=iteration)
        want = reference_aggregate(
            reference, buckets[1], groups[1], iteration=iteration,
            nmse_samples=expected_nmse if traced else None,
        )
        tag = f"{spec} step {step}"
        assert_same_bits(got, want, f"{tag}: result")
        for rank, row in enumerate(grads):
            assert_same_bits(buckets[0].matrix[rank], row, f"{tag}: input row {rank} mutated")
        if reference._residuals.get(0) is None:
            assert actual._residuals.get(0) is None, tag
        else:
            assert_same_bits(actual._residuals.get(0), reference._residuals.get(0), f"{tag}: residual")
        for mine, theirs in zip(actual.pipeline.stages, reference.pipeline.stages):
            for name in ("_residuals", "_accum", "_momentum"):
                if hasattr(theirs, name) and 0 in getattr(theirs, name):
                    assert_same_bits(
                        getattr(mine, name)[0], getattr(theirs, name)[0], f"{tag}: {name}"
                    )
        assert dataclasses.asdict(actual.stats) == dataclasses.asdict(reference.stats), tag
        assert groups[0].events == groups[1].events, tag
    return actual, expected_nmse


# --------------------------------------------------------------------------- #
# Differential oracle
# --------------------------------------------------------------------------- #
class TestDifferentialOracle:
    @given(
        spec=st.sampled_from(SPECS),
        world=st.sampled_from([1, 2, 3, 8]),
        numel=st.sampled_from([1, 7, 64, 257, 1000, SAMPLED_SELECT_FLOOR + 232]),
        dtype=st.sampled_from(["float32", "float64"]),
        policy=st.sampled_from(["carry", "zero"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_driver_matches_the_dense_reference(self, spec, world, numel, dtype, policy, seed):
        with default_dtype(dtype):
            run_differential(spec, world, numel, np.dtype(dtype), policy, seed)

    @pytest.mark.parametrize("spec", SPECS)
    def test_every_spec_on_one_fixed_grid_point(self, spec):
        """Hypothesis samples the grid; no spec may be left to chance."""
        for world in (3, 1):
            run_differential(spec, world, 257, np.dtype("float64"), "carry", 11)

    @pytest.mark.parametrize("spec", ["topk-0.01", "ef+topk0.05", "topk0.05", "dgc0.05"])
    def test_rows_above_the_sampled_selection_floor(self, spec):
        run_differential(
            spec, 8, SAMPLED_SELECT_FLOOR + 232, np.dtype("float64"), "carry", 5
        )

    def test_pactrain_reaches_compact_mode_under_this_harness(self):
        actual, _ = run_differential("pactrain", 3, 257, np.dtype("float64"), "carry", 3)
        assert actual.compact_iterations > 0

    @pytest.mark.parametrize(
        "spec",
        ["ef+topk0.05", "topk-0.1", "topk0.05+terngrad", "ef+fp16", "ef+terngrad", "fp16", "dgc0.05"],
    )
    @pytest.mark.parametrize("world", [3, 1])
    def test_traced_equals_untraced_and_nmse_reads_this_steps_inputs(
        self, spec, world, tmp_path
    ):
        """Trap: NMSE taken after the residual rewrite reads the next step's
        residual instead of this step's compensated gradients."""
        # Streamed to a file: the in-memory event list outlives disable().
        TRACER.enable(str(tmp_path / "trace.jsonl"))
        try:
            # The differential run itself is the "traced == untraced result"
            # check: the reference is never observed.
            _, expected = run_differential(
                spec, world, 257, np.dtype("float64"), "carry", 7, traced=True
            )
        finally:
            TRACER.disable()
        observed = nmse_marks(tmp_path / "trace.jsonl")
        assert len(expected) == 3  # iterations 0, 16, 32 of 0, 8, 16, 24, 32
        assert observed == expected


# --------------------------------------------------------------------------- #
# Named traps
# --------------------------------------------------------------------------- #
class TestPassThroughAlias:
    """Trap: a pass-through payload *is* the residual row; rewriting the
    residual before the collective would all-reduce zeros."""

    @pytest.mark.parametrize("spec", ["ef+fp32", "ef+all-reduce", "ef+none"])
    @pytest.mark.parametrize("arena_backed", [True, False])
    def test_exact_average_every_step_with_a_zero_residual(self, spec, arena_backed):
        rng = np.random.default_rng(0)
        compressor = build_compressor(spec)
        arena = np.empty((4, 300))
        for step in range(3):
            grads = rng.standard_normal((4, 300))
            if arena_backed:
                arena[...] = grads
                bucket = GradBucket(layout(300), matrix=arena)
            else:
                bucket = make_bucket(grads)
            result = compressor.aggregate(bucket, ProcessGroup(4), iteration=step)
            assert_same_bits(result, exact_average(list(grads)), f"{spec} step {step}")
            assert not np.any(compressor._residuals.get(0))

    def test_custom_stage_whose_payload_views_its_input(self):
        class Passthrough(Identity):
            lossless = False  # claims nothing: the driver must still be right

        rng = np.random.default_rng(1)
        compressor = CodecCompressor([Passthrough()], error_feedback=True)
        for step in range(3):
            grads = rng.standard_normal((2, 50))
            result = compressor.aggregate(make_bucket(grads), ProcessGroup(2), step)
            assert_same_bits(result, exact_average(list(grads)), f"step {step}")


class TestResidualOwnsItsMemory:
    """Trap: the first call, a shape or dtype change and a degraded
    membership must copy — never adopt the caller's rows as the residual."""

    @pytest.mark.parametrize(
        "spec", ["ef+topk0.05", "topk-0.1", "ef+terngrad", "ef+fp32", "ef+topk0.05+terngrad"]
    )
    def test_arena_rewrites_never_reach_the_residual(self, spec):
        rng = np.random.default_rng(2)
        compressor = build_compressor(spec)
        arena = np.empty((4, 200))
        for step in range(3):
            arena[...] = rng.standard_normal((4, 200))
            result = compressor.aggregate(
                GradBucket(layout(200), matrix=arena), ProcessGroup(4), iteration=step
            )
            residual = compressor._residuals.get(0)
            assert not np.shares_memory(residual, arena)
            assert not np.shares_memory(result, residual)
            assert not np.shares_memory(result, arena)
            before = residual.copy()
            arena[...] = np.nan  # next step's staging
            assert_same_bits(compressor._residuals.get(0), before, f"{spec} step {step}")

    @pytest.mark.parametrize("remapped", [True, False])
    def test_degraded_membership_rows_are_not_adopted(self, remapped):
        """With and without the ``resize_world`` that should precede the
        shrink: a stale ``(4, numel)`` residual restarts, it is not replaced
        by the caller's ``(3, numel)`` rows."""
        rng = np.random.default_rng(3)
        compressor = build_compressor("ef+topk0.05")
        arena = rng.standard_normal((4, 120))
        compressor.aggregate(GradBucket(layout(120), matrix=arena), ProcessGroup(4))
        if remapped:
            compressor.resize_world([0, 1, 2, 3], [0, 1, 3], "carry")
        survivors = arena[[0, 1, 3]]  # the caller-owned fancy copy
        compressor.aggregate(GradBucket(layout(120), matrix=survivors), ProcessGroup(3), 1)
        residual = compressor._residuals.get(0)
        assert residual.shape == (3, 120)
        assert not np.shares_memory(residual, survivors)

    def test_a_reshaped_bucket_is_not_adopted(self):
        rng = np.random.default_rng(4)
        compressor = build_compressor("ef+terngrad")
        for numel in (90, 60):  # the second call changes the bucket's shape
            bucket = make_bucket([rng.standard_normal(numel) for _ in range(3)])
            compressor.aggregate(bucket, ProcessGroup(3))
            residual = compressor._residuals.get(0)
            assert residual.shape == (3, numel)
            assert not np.shares_memory(residual, bucket.matrix)

    @pytest.mark.parametrize("spec", ["ef+topk0.05", "topk0.05"])
    def test_dtype_change_restarts_the_residual_in_the_new_dtype(self, spec):
        rng = np.random.default_rng(5)
        compressor = build_compressor(spec)
        state = (
            compressor._residuals if compressor.error_feedback
            else compressor.pipeline.stages[0]._residuals
        )
        wide = rng.standard_normal((2, 80))
        compressor.aggregate(GradBucket(layout(80), matrix=wide), ProcessGroup(2))
        assert state[0].dtype == np.float64
        narrow = rng.standard_normal((2, 80)).astype(np.float32)
        fresh = build_compressor(spec)
        with default_dtype("float32"):
            got = compressor.aggregate(GradBucket(layout(80), matrix=narrow), ProcessGroup(2), 1)
            want = fresh.aggregate(GradBucket(layout(80), matrix=narrow.copy()), ProcessGroup(2), 1)
        assert state[0].dtype == np.float32
        assert not np.shares_memory(state[0], narrow)
        assert_same_bits(got, want, spec)


# --------------------------------------------------------------------------- #
# Allocation contract
# --------------------------------------------------------------------------- #
class TestAllocationContract:
    WORLD, NUMEL = 8, 300_000

    def _steady_state(self, spec):
        rng = np.random.default_rng(0)
        compressor = build_compressor(spec)
        arena = np.empty((self.WORLD, self.NUMEL))
        group = ProcessGroup(self.WORLD)

        def step(iteration):
            arena[...] = rng.standard_normal(arena.shape)
            arena[rng.random(arena.shape) < 0.5] = 0.0  # ReLU-like rows
            bucket = GradBucket(layout(self.NUMEL), matrix=arena)
            return lambda: compressor.aggregate(bucket, group, iteration=iteration)

        for iteration in range(2):
            step(iteration)()
        return step(2)

    @pytest.mark.parametrize("spec", ["topk-0.01", "ef+topk0.01+terngrad"])
    def test_no_world_by_numel_temporary(self, spec):
        """One result vector + one row of selection scratch: under four rows.

        The dense driver allocated the compensated ``(world, numel)`` matrix
        and a dense decode per rank — at least ``2 x world`` rows.
        """
        aggregate = self._steady_state(spec)
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            aggregate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - baseline < 4 * self.NUMEL * 8, (peak - baseline) / (self.NUMEL * 8)

    @pytest.mark.parametrize(
        "spec", ["topk-0.01", "ef+topk0.01+terngrad", "topk0.01+fp16", "dgc-0.01"]
    )
    def test_gather_branch_never_densifies_a_selection(self, spec, monkeypatch):
        aggregate = self._steady_state(spec)
        calls = []
        densify = SparsePayload.densify
        monkeypatch.setattr(
            SparsePayload, "densify", lambda self: calls.append(1) or densify(self)
        )
        aggregate()
        assert calls == []


# --------------------------------------------------------------------------- #
# Spec grammar: malformed specs fail when the compressor is built
# --------------------------------------------------------------------------- #
EMPTY_TOKEN_SPECS = ["topk0.1+", "+topk0.1", "topk0.1++fp16", "ef++topk0.1"]
MISPLACED_STAGE_SPECS = {
    "fp16+topk0.1": ("topk0.1", 2),
    "terngrad+topk0.1": ("topk0.1", 2),
    "topk0.1+topk0.5": ("topk0.5", 2),
    "dgc0.1+topk0.1": ("topk0.1", 2),
    "topk0.1+fp16+dgc0.1": ("dgc0.1", 3),
    "fp16+dgc0.1": ("dgc0.1", 2),
    "terngrad+fp16+topk0.1": ("topk0.1", 3),
    "terngrad+dgc0.1": ("dgc0.1", 2),
    "topk0.1+dgc0.1": ("dgc0.1", 2),
}
MALFORMED_SPECS = EMPTY_TOKEN_SPECS + ["ef+ef+topk0.1"] + sorted(MISPLACED_STAGE_SPECS)


class TestSpecGrammar:
    @pytest.mark.parametrize("spec", EMPTY_TOKEN_SPECS)
    def test_empty_tokens_are_rejected(self, spec):
        with pytest.raises(ValueError, match="empty token") as error:
            parse_compressor_spec(spec)
        assert repr(spec) in str(error.value)

    def test_repeated_ef_is_rejected(self):
        with pytest.raises(ValueError, match="repeated 'ef'") as error:
            parse_compressor_spec("ef+ef+topk0.1")
        assert "'ef+ef+topk0.1'" in str(error.value) and "position 2" in str(error.value)
        with pytest.raises(ValueError, match="repeated"):
            parse_compressor_spec("error-feedback+ef+topk0.1")

    @pytest.mark.parametrize("spec", sorted(MISPLACED_STAGE_SPECS))
    def test_dense_input_stage_after_a_transforming_stage_is_rejected(self, spec):
        stage, position = MISPLACED_STAGE_SPECS[spec]
        with pytest.raises(ValueError) as error:
            parse_compressor_spec(spec)
        message = str(error.value)
        assert repr(spec) in message and repr(stage) in message
        assert f"position {position}" in message

    def test_pipeline_constructor_rejects_misplaced_stages_too(self):
        with pytest.raises(ValueError, match="position 2"):
            Pipeline([Half(), TopK(0.1)])

    def test_a_pipeline_is_a_composition_not_a_codec(self):
        """It used to inherit ``encode``/``prepare``/``resize_world`` it never ran."""
        pipeline = Pipeline([TopK(0.1), Half()])
        assert not isinstance(pipeline, Codec)
        assert not any(hasattr(pipeline, name) for name in ("encode", "prepare", "resize_world"))
        assert (pipeline.name, pipeline.allreduce_compatible, pipeline.lossless) == (
            "topk0.1+fp16", False, False
        )

    def test_a_pipeline_without_stages_is_rejected(self):
        """It used to become an fp32 pipeline; no caller builds one."""
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline([])
        with pytest.raises(ValueError, match="at least one stage"):
            CodecCompressor([])

    @pytest.mark.parametrize(
        "spec, bare",
        [
            ("fp32+terngrad", "terngrad"),
            ("none+topk0.1", "topk0.1"),
            ("fp32+fp32+topk0.2+fp16", "topk0.2+fp16"),
            ("fp32+dgc0.1", "dgc0.1"),
        ],
    )
    def test_dense_emitting_prefix_keeps_working(self, spec, bare):
        rng = np.random.default_rng(0)
        rows = [rng.standard_normal(64) for _ in range(2)]
        result = build_compressor(spec).aggregate(make_bucket(rows), ProcessGroup(2))
        expected = build_compressor(bare).aggregate(make_bucket(rows), ProcessGroup(2))
        assert_same_bits(result, expected, spec)

    @pytest.mark.parametrize("spec", MALFORMED_SPECS)
    def test_malformed_specs_fail_at_build_compressor(self, spec):
        with pytest.raises(ValueError, match="invalid codec spec") as error:
            build_compressor(spec)
        assert repr(spec) in str(error.value)

    @pytest.mark.parametrize("spec", MALFORMED_SPECS)
    def test_malformed_specs_fail_before_the_dataset_is_built(self, spec, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("the dataset was built before the spec was rejected")

        monkeypatch.setattr("repro.simulation.experiment.make_dataset", spy)
        with pytest.raises(ValueError, match="invalid codec spec"):
            run_experiment(golden.GOLDEN_CONFIG, MethodSpec(name="bad", compressor=spec))
