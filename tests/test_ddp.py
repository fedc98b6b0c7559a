"""DDP simulator: buckets, gradient synchronisation and equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import NetworkModel, ProcessGroup
from repro.comm.network import MBPS
from repro.compression import build_compressor
from repro.ddp import DistributedDataParallel, GradBucket, build_buckets
from repro.ddp.bucket import FLOAT32_BYTES, Bucket, BucketSlice
from repro.nn import SGD
from repro.nn.models import mlp_tiny
from repro.simulation import pricing
from repro.tensorlib import Tensor, functional as F


def make_grads(model, batch):
    images, labels = batch
    model.zero_grad()
    loss = F.cross_entropy(model(Tensor(images)), labels)
    loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters()}


class TestBucketLayout:
    def test_reverse_registration_order(self, tiny_model):
        buckets = build_buckets(tiny_model)
        names = [s.param_name for b in buckets for s in b.slices]
        forward_names = [name for name, _ in tiny_model.named_parameters()]
        assert names == list(reversed(forward_names))

    def test_total_numel_matches_model(self, tiny_model):
        buckets = build_buckets(tiny_model)
        assert sum(b.numel for b in buckets) == sum(p.size for p in tiny_model.parameters())

    def test_capacity_splits_into_multiple_buckets(self, tiny_model):
        buckets = build_buckets(tiny_model, bucket_cap_bytes=20_000)
        assert len(buckets) > 1
        for bucket in buckets:
            # Greedy packing may exceed the cap only by a single slice.
            assert bucket.numel * FLOAT32_BYTES <= 20_000 or len(bucket.slices) == 1

    def test_offsets_are_contiguous(self, tiny_model):
        for bucket in build_buckets(tiny_model, bucket_cap_bytes=10_000):
            position = 0
            for piece in bucket.slices:
                assert piece.offset == position
                position += piece.numel

    def test_invalid_capacity(self, tiny_model):
        with pytest.raises(ValueError):
            build_buckets(tiny_model, bucket_cap_bytes=0)

    def test_flatten_unflatten_roundtrip(self, tiny_model, sample_batch):
        grads = make_grads(tiny_model, sample_batch)
        for bucket in build_buckets(tiny_model, bucket_cap_bytes=8_000):
            flat = bucket.flatten(grads)
            restored = bucket.unflatten(flat)
            for name, value in restored.items():
                np.testing.assert_array_equal(value, grads[name])

    def test_flatten_fills_missing_with_zeros(self):
        bucket = Bucket(index=0, slices=[BucketSlice("w", 0, 4, (2, 2))])
        flat = bucket.flatten({})
        np.testing.assert_array_equal(flat, np.zeros(4))

    def test_flatten_rejects_wrong_size(self):
        bucket = Bucket(index=0, slices=[BucketSlice("w", 0, 4, (2, 2))])
        with pytest.raises(ValueError):
            bucket.flatten({"w": np.zeros(5)})

    def test_unflatten_rejects_wrong_size(self):
        bucket = Bucket(index=0, slices=[BucketSlice("w", 0, 4, (2, 2))])
        with pytest.raises(ValueError):
            bucket.unflatten(np.zeros(3))


class TestGradBucket:
    def test_exposes_only_the_flat_matrix(self, tiny_model, sample_batch):
        grads = make_grads(tiny_model, sample_batch)
        bucket = build_buckets(tiny_model)[0]
        grad_bucket = GradBucket(bucket, bucket.flatten(grads)[None])
        assert grad_bucket.matrix.shape == (1, bucket.numel)
        assert grad_bucket.world_size == 1
        assert grad_bucket.numel == bucket.numel
        assert not hasattr(grad_bucket, "param_names")

    def test_rejects_a_mismatched_matrix(self, tiny_model):
        bucket = build_buckets(tiny_model)[0]
        with pytest.raises(ValueError):
            GradBucket(bucket, np.zeros((1, bucket.numel + 1)))
        with pytest.raises(ValueError):
            GradBucket(bucket, np.zeros(bucket.numel))


class TestDistributedDataParallel:
    def test_train_step_returns_accounting(self, tiny_model, sample_batch):
        network = NetworkModel.from_bandwidth(4, 100 * MBPS)
        ddp = DistributedDataParallel(tiny_model, world_size=4, process_group=ProcessGroup(4))
        result = ddp.train_step([sample_batch] * 4, F.cross_entropy)
        assert pricing.comm_time(network, result.events) > 0
        assert result.comm_bytes_per_worker > 0
        assert len(result.per_rank_loss) == 4
        assert result.loss == pytest.approx(np.mean(result.per_rank_loss))

    def test_gradients_are_averaged_across_ranks(self, sample_batch):
        model = mlp_tiny(seed=0)
        ddp = DistributedDataParallel(model, world_size=2)
        images, labels = sample_batch
        batch_a = (images[:4], labels[:4])
        batch_b = (images[4:], labels[4:])

        _, grads_a = ddp.compute_local_gradients(batch_a, F.cross_entropy)
        _, grads_b = ddp.compute_local_gradients(batch_b, F.cross_entropy)
        ddp.stage_rank_gradients(0, grads_a)
        ddp.stage_rank_gradients(1, grads_b)
        aggregated, _ = ddp.synchronize_staged()
        for name in grads_a:
            np.testing.assert_allclose(
                aggregated[name], (grads_a[name] + grads_b[name]) / 2, atol=1e-12
            )

    def test_ddp_matches_large_batch_single_worker(self, sample_batch):
        """Averaging per-rank gradients over equal shards equals the gradient of
        the combined batch — the core DDP correctness property."""
        images, labels = sample_batch
        model_ddp = mlp_tiny(seed=3)
        model_single = mlp_tiny(seed=3)

        ddp = DistributedDataParallel(model_ddp, world_size=2)
        shards = [(images[:4], labels[:4]), (images[4:], labels[4:])]
        ddp.train_step(shards, F.cross_entropy)
        SGD(model_ddp.parameters(), lr=0.1).step()

        single_grads = make_grads(model_single, (images, labels))
        for name, param in model_single.named_parameters():
            param.grad = single_grads[name]
        SGD(model_single.parameters(), lr=0.1).step()

        for (_, a), (_, b) in zip(model_ddp.named_parameters(), model_single.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, atol=1e-10)

    def test_register_comm_hook_changes_behaviour(self, tiny_model, sample_batch):
        network = NetworkModel.from_bandwidth(2, 100 * MBPS, latency=0.0)
        ddp = DistributedDataParallel(tiny_model, world_size=2, process_group=ProcessGroup(2))
        fp32 = ddp.train_step([sample_batch] * 2, F.cross_entropy)
        ddp.register_comm_hook(build_compressor("fp16"))
        fp16 = ddp.train_step([sample_batch] * 2, F.cross_entropy)
        assert pricing.comm_time(network, fp16.events) < pricing.comm_time(network, fp32.events)

    def test_wrong_batch_count_raises(self, tiny_model, sample_batch):
        ddp = DistributedDataParallel(tiny_model, world_size=4)
        with pytest.raises(ValueError):
            ddp.train_step([sample_batch] * 3, F.cross_entropy)

    def test_world_size_mismatch_raises(self, tiny_model):
        with pytest.raises(ValueError):
            DistributedDataParallel(tiny_model, world_size=4, process_group=ProcessGroup(2))

    def test_train_step_hands_the_counter_to_the_hook_and_leaves_it(self, tiny_model, sample_batch):
        """The experiment loop advances ``iteration`` (once per step); the step only reads it."""
        seen = []
        hook = build_compressor("all-reduce")
        aggregate = hook.aggregate

        def recording(bucket, group, iteration=0):
            seen.append(iteration)
            return aggregate(bucket, group, iteration)

        hook.aggregate = recording
        ddp = DistributedDataParallel(tiny_model, world_size=2, comm_hook=hook)
        ddp.iteration = 5
        ddp.train_step([sample_batch] * 2, F.cross_entropy)
        assert ddp.iteration == 5
        assert seen == [5] * len(ddp.buckets)
