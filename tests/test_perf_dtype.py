"""Dtype fast path and gradient arenas.

Covers the PR-4 acceptance contract:

* float64 runs are bit-identical to the historical default (the default *is*
  float64), and the two dtypes agree within a documented tolerance;
* gradient arenas never leak one step's gradients into the next, and the
  no-copy plumbing really is no-copy (views share memory end to end);
* wire payloads preserve the compute dtype through encode/decode round trips
  (hypothesis-driven);
* the process-group event log stays bounded while each step still reports
  its buckets' events;
* a pruned cell reports the weight sparsity measured right after pruning.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import build_cell
from repro.comm.process_group import ProcessGroup
from repro.compression.codec import DensePayload, SparsePayload, parse_compressor_spec
from repro.compression.registry import build_compressor
from repro.data import DataLoader, DistributedSampler, synthetic_cifar10
from repro.ddp import DistributedDataParallel, GradBucket
from repro.ddp.arena import GradientArena
from repro.ddp.bucket import build_buckets
from repro.nn.models import build_model, mlp_tiny
from repro.simulation import ExperimentConfig, MethodSpec, PAPER_METHODS, run_experiment, train_distributed
from repro.simulation.experiment import _prepare_workload
from repro.tensorlib import Tensor, default_dtype, functional as F, get_default_dtype
from repro.tensorlib.dtypes import SUPPORTED_DTYPES, float_dtype_of


def tiny_config(dtype: str = "float64", **overrides) -> ExperimentConfig:
    kwargs = dict(
        model="mlp",
        epochs=2,
        dataset_samples=48,
        batch_size=8,
        max_iterations_per_epoch=2,
        pretrain_iterations=1,
        dtype=dtype,
    )
    kwargs.update(overrides)
    config = ExperimentConfig(**kwargs)
    config.cluster.world_size = 2
    return config


def _synchronize(ddp, per_rank_grads):
    """Stage one gradient dict per rank and aggregate: ``(aggregated, bucket events)``."""
    for rank, grads in enumerate(per_rank_grads):
        ddp.stage_rank_gradients(rank, grads)
    return ddp.synchronize_staged()


def _world_batches(world_size: int, seed: int = 0):
    dataset = synthetic_cifar10(num_samples=64, image_size=8, seed=seed)
    loaders = [
        DataLoader(dataset, batch_size=8, sampler=DistributedSampler(len(dataset), world_size, rank, seed=seed))
        for rank in range(world_size)
    ]
    return [next(iter(loader)) for loader in loaders]


# --------------------------------------------------------------------------- #
# Dtype parity
# --------------------------------------------------------------------------- #
class TestDtypeParity:
    def test_default_dtype_is_float64(self):
        assert get_default_dtype() == np.float64
        assert ExperimentConfig().dtype == "float64"

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dtype="float16")

    def test_float64_bit_identical_to_default_all_paper_methods(self):
        """Explicit float64 must reproduce the default path bit for bit."""
        for method in PAPER_METHODS.values():
            default_run = run_experiment(tiny_config(), method)
            explicit = run_experiment(tiny_config(dtype="float64"), method)
            assert explicit.simulated_time == default_run.simulated_time
            assert explicit.comm_bytes_per_worker == default_run.comm_bytes_per_worker
            assert explicit.accuracy_trace == default_run.accuracy_trace
            assert explicit.loss_trace == default_run.loss_trace
            assert explicit.weight_sparsity == default_run.weight_sparsity

    def test_float32_within_tolerance_and_same_volume(self):
        method = PAPER_METHODS["all-reduce"]
        f64 = run_experiment(tiny_config(), method)
        f32 = run_experiment(tiny_config(dtype="float32"), method)
        # Wire accounting models the fp32 wire format in both cases.
        assert f32.comm_bytes_per_worker == f64.comm_bytes_per_worker
        assert f32.simulated_time == pytest.approx(f64.simulated_time, rel=1e-9)
        assert f32.final_accuracy == pytest.approx(f64.final_accuracy, abs=0.25)
        assert abs(f32.loss_trace[-1] - f64.loss_trace[-1]) < 0.2

    def test_float32_gradient_nmse_vs_float64(self):
        """Aggregated float32 gradients match float64 within fp32 tolerance."""
        grads = {}
        for dtype in ("float64", "float32"):
            with default_dtype(dtype):
                model = mlp_tiny(num_classes=10, seed=3)
                ddp = DistributedDataParallel(model, world_size=2)
                batches = _world_batches(2, seed=1)
                ddp.train_step(batches, F.cross_entropy)
                grads[dtype] = {
                    name: np.asarray(param.grad, dtype=np.float64)
                    for name, param in model.named_parameters()
                }
        for name, reference in grads["float64"].items():
            fast = grads["float32"][name]
            denom = float(np.sum(reference**2)) or 1.0
            nmse = float(np.sum((fast - reference) ** 2)) / denom
            assert nmse < 1e-9, f"{name} NMSE {nmse}"

    def test_model_params_follow_dtype_context(self):
        with default_dtype("float32"):
            model = build_model("resnet18", num_classes=10, seed=0)
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_dtype_is_a_campaign_axis(self):
        cell = build_cell({"model": "mlp", "dtype": "float32", "epochs": 1})
        assert cell.config.dtype == "float32"
        restored = ExperimentConfig.from_dict(cell.config.to_dict())
        assert restored.dtype == "float32"


# --------------------------------------------------------------------------- #
# Arena: aliasing safety and no-copy plumbing
# --------------------------------------------------------------------------- #
class TestGradientArena:
    def test_rows_are_views_of_bucket_matrix(self, tiny_model):
        buckets = build_buckets(tiny_model)
        arena = GradientArena(buckets, world_size=3)
        for piece in buckets[0].slices:
            assert np.shares_memory(arena.slots[piece.param_name], arena.matrix(0))

    def test_missing_gradients_are_zeroed_not_stale(self, tiny_model, sample_batch):
        """A parameter that got no gradient this step must not inherit the
        previous step's values from the reused arena row."""
        model = tiny_model
        ddp = DistributedDataParallel(model, world_size=2)
        images, labels = sample_batch
        _, grads = ddp.compute_local_gradients((images, labels), F.cross_entropy)
        full = dict(grads)
        _synchronize(ddp, [full, full])

        name = next(iter(full))
        partial = {k: v for k, v in full.items() if k != name}
        aggregated, _ = _synchronize(ddp, [partial, partial])
        assert np.all(aggregated[name] == 0.0)

    def test_consecutive_steps_do_not_alias(self, tiny_model, sample_batch):
        """Aggregated gradients from step N survive step N+1's arena reuse."""
        ddp = DistributedDataParallel(tiny_model, world_size=2)
        images, labels = sample_batch
        _, grads = ddp.compute_local_gradients((images, labels), F.cross_entropy)
        first, _ = _synchronize(ddp, [grads, grads])
        snapshot = {name: value.copy() for name, value in first.items()}
        doubled = {name: value * 2.0 for name, value in grads.items()}
        _synchronize(ddp, [doubled, doubled])
        for name, value in first.items():
            np.testing.assert_array_equal(value, snapshot[name])

    def test_hook_returning_arena_row_is_copied(self, tiny_model, sample_batch):
        """An aggregate aliasing the arena must not leak into param.grad."""

        pass_through = build_compressor("all-reduce")
        pass_through.aggregate = lambda bucket, group, iteration=0: bucket.matrix[0]  # a live arena row

        ddp = DistributedDataParallel(tiny_model, world_size=2, comm_hook=pass_through)
        images, labels = sample_batch
        _, grads = ddp.compute_local_gradients((images, labels), F.cross_entropy)
        aggregated, _ = _synchronize(ddp, [grads, grads])
        for value in aggregated.values():
            assert not ddp.arena.shares_memory_with(value)

    def test_write_back_and_unflatten_are_no_copy(self, tiny_model, sample_batch):
        """The reduced buffer flows into param.grad without intermediate copies."""
        ddp = DistributedDataParallel(tiny_model, world_size=2)
        images, labels = sample_batch
        _, grads = ddp.compute_local_gradients((images, labels), F.cross_entropy)
        aggregated, _ = _synchronize(ddp, [grads, grads])
        ddp.apply_aggregated_gradients(aggregated)
        params = dict(tiny_model.named_parameters())
        for name, value in aggregated.items():
            # unflatten returned views of one reduced buffer per bucket, and
            # apply_aggregated_gradients assigned them without casting copies.
            assert params[name].grad is value
            assert value.base is not None

    def test_grad_bucket_matrix_is_zero_copy_for_arena(self, tiny_model):
        buckets = build_buckets(tiny_model)
        arena = GradientArena(buckets, world_size=2)
        bucket = GradBucket(buckets[0], matrix=arena.matrix(0))
        assert np.shares_memory(bucket.matrix, arena.matrix(0))

    def test_arena_dtype_follows_model(self):
        with default_dtype("float32"):
            model = mlp_tiny(num_classes=10, seed=0)
            ddp = DistributedDataParallel(model, world_size=2)
        assert ddp.arena.dtype == np.float32
        assert ddp.arena.matrix(0).dtype == np.float32


# --------------------------------------------------------------------------- #
# Payload dtype round trips (hypothesis)
# --------------------------------------------------------------------------- #
class TestPayloadDtypes:
    @pytest.mark.parametrize(
        "code", ["f2", "f4", "f8", ">f4", ">f8", "g", "i4", "i8", "u1", "b1", "c8", "c16", "O"]
    )
    def test_float_dtype_of_is_the_supported_name_table(self, code):
        """``float_dtype_of`` tests kind and item size (a per-payload hot path);
        it must keep meaning "the array's dtype iff its name is supported"."""
        dtype = np.dtype(code)
        expected = dtype if dtype.name in SUPPORTED_DTYPES else get_default_dtype()
        assert float_dtype_of(np.zeros(2, dtype=dtype)) is expected

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.floats(-1e3, 1e3, allow_nan=False, width=32), min_size=1, max_size=64),
        dtype=st.sampled_from(["float32", "float64"]),
    )
    def test_dense_payload_preserves_dtype(self, values, dtype):
        array = np.asarray(values, dtype=dtype)
        payload = DensePayload(array)
        reduced = payload.reduce_values()
        assert reduced.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(reduced, array)

    @settings(max_examples=25, deadline=None)
    @given(
        numel=st.integers(4, 128),
        dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(0, 2**16),
    )
    def test_sparse_payload_densify_preserves_dtype(self, numel, dtype, seed):
        rng = np.random.default_rng(seed)
        k = max(1, numel // 4)
        indices = rng.choice(numel, size=k, replace=False)
        values = rng.standard_normal(k).astype(dtype)
        payload = SparsePayload(indices, values, numel)
        dense = payload.densify()
        assert dense.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(dense[indices], values)

    @settings(max_examples=15, deadline=None)
    @given(
        spec=st.sampled_from(["fp32", "fp16", "topk0.5", "topk0.5+terngrad", "terngrad"]),
        dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(0, 2**16),
    )
    def test_pipeline_round_trip_returns_compute_dtype(self, spec, dtype, seed):
        with default_dtype(dtype):
            rng = np.random.default_rng(seed)
            flats = [rng.standard_normal(32).astype(dtype) for _ in range(2)]
            pipeline, _ = parse_compressor_spec(spec, seed=0)
            payloads = pipeline.encode_all(flats)
            decoded = pipeline.decode(payloads[0])
            assert decoded.dtype == np.dtype(dtype)
            assert decoded.shape == (32,)

    def test_compressor_aggregate_keeps_compute_dtype(self):
        for dtype in ("float32", "float64"):
            with default_dtype(dtype):
                rng = np.random.default_rng(0)
                model = mlp_tiny(num_classes=10, seed=0)
                bucket = build_buckets(model)[0]
                matrix = rng.standard_normal((2, bucket.numel)).astype(dtype)
                compressor = build_compressor("topk0.1", seed=0)
                result = compressor.aggregate(GradBucket(bucket, matrix=matrix), ProcessGroup(2))
                assert result.dtype == np.dtype(dtype)


# --------------------------------------------------------------------------- #
# Bounded event log
# --------------------------------------------------------------------------- #
class TestEventDraining:
    def test_event_log_stays_bounded_across_steps(self, tiny_model):
        ddp = DistributedDataParallel(tiny_model, world_size=2)
        batches = _world_batches(2)
        sizes, reported = [], 0
        for _ in range(5):
            reported += len(ddp.train_step(batches, F.cross_entropy).events)
            sizes.append(len(ddp.process_group.events))
        # Drained per step: the log never accumulates across iterations.
        assert all(size == 0 for size in sizes)
        assert reported == 5 * len(ddp.buckets)

    def test_step_result_still_reports_events(self, tiny_model):
        ddp = DistributedDataParallel(tiny_model, world_size=2)
        batches = _world_batches(2)
        result = ddp.train_step(batches, F.cross_entropy)
        assert len(result.events) == len(ddp.buckets)
        assert result.comm_bytes_per_worker > 0


# --------------------------------------------------------------------------- #
# Weight sparsity
# --------------------------------------------------------------------------- #
class TestWeightSparsity:
    def test_a_pruned_cell_reports_the_sparsity_measured_after_pruning(self):
        config, method = tiny_config(), PAPER_METHODS["pactrain"]
        model, _, _, mask = _prepare_workload(config, method)
        assert mask is not None
        params = model.parameters()
        after_pruning = sum(int(np.sum(p.data == 0.0)) for p in params) / sum(p.size for p in params)
        assert after_pruning > 0.4
        assert run_experiment(config, method).weight_sparsity == after_pruning


# --------------------------------------------------------------------------- #
# Fused float32 kernels agree with the float64 composites
# --------------------------------------------------------------------------- #
class TestFusedKernelParity:
    def test_fused_norm_matches_composite(self):
        rng = np.random.default_rng(0)
        x64 = rng.standard_normal((4, 3, 6, 6))
        from repro.nn.layers import BatchNorm2d

        with default_dtype("float64"):
            bn = BatchNorm2d(3)
            x = Tensor(x64, requires_grad=True)
            out = bn(x)
            out.sum().backward()
            reference = (out.data, x.grad, bn.weight.grad, bn.bias.grad)
        with default_dtype("float32"):
            bn32 = BatchNorm2d(3)
            x32 = Tensor(x64.astype(np.float32), requires_grad=True)
            out32 = bn32(x32)
            out32.sum().backward()
            fast = (out32.data, x32.grad, bn32.weight.grad, bn32.bias.grad)
        for ref, got in zip(reference, fast):
            np.testing.assert_allclose(got, ref, atol=1e-3)

    def test_conv_input_grad_correlation_matches_col2im(self):
        rng = np.random.default_rng(1)
        from repro.nn.layers import Conv2d

        for stride, padding in [(1, 1), (1, 0), (2, 1)]:
            with default_dtype("float64"):
                conv = Conv2d(3, 4, 3, stride=stride, padding=padding, rng=np.random.default_rng(7))
                x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
                out = conv(x)
                (out * out).sum().backward()
                reference = x.grad.copy()
                weights = conv.weight.data.copy()
                bias = conv.bias.data.copy()
            with default_dtype("float32"):
                conv32 = Conv2d(3, 4, 3, stride=stride, padding=padding, rng=np.random.default_rng(7))
                conv32.weight.data = weights.astype(np.float32)
                conv32.bias.data = bias.astype(np.float32)
                x32 = Tensor(x.data.astype(np.float32), requires_grad=True)
                out32 = conv32(x32)
                (out32 * out32).sum().backward()
            np.testing.assert_allclose(x32.grad, reference, atol=1e-3)


class TestMethodSpecDtypeSweep:
    def test_run_experiment_accepts_float32(self):
        config = tiny_config(dtype="float32")
        result = run_experiment(config, MethodSpec(name="fp16", compressor="fp16"))
        assert result.simulated_time > 0
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_train_distributed_runs_under_the_config_dtype(self):
        before = get_default_dtype()
        run = train_distributed(tiny_config(dtype="float32"), PAPER_METHODS["fp16"])
        assert {p.data.dtype for p in run.model.parameters()} == {np.dtype(np.float32)}
        assert get_default_dtype() == before
