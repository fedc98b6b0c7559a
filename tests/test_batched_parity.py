"""Batched-rank execution parity: world-batched == per-rank loop, bit-exactly.

The batched execution path (``repro.nn.batched`` + the world-batched kernels
in ``repro.tensorlib.functional``) promises float64 bit-identity with the
per-rank loop.  These tests pin that promise at every level: individual layers
under ``replica_views`` — broadcast views and real per-rank stacks
(hypothesis over layer types, world sizes and dtypes) — full
``DistributedDataParallel.train_step`` results, the end-to-end experiment
timeline (including a GSE/PacTrain cell), and the two supporting pieces —
``GradientArena.write_world`` and the ``col2im`` non-overlap fast path.

Every barrier step of the program is one world-batched pass.  The oracle is
this file's :func:`looped_train_step`, a per-rank loop over the active ranks
installed in place of ``train_step``; a call counter proves which path each
run took.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.process_group import ProcessGroup
from repro.data import DataLoader, DistributedSampler, synthetic_cifar10
from repro.ddp import DistributedDataParallel, StepResult
from repro.ddp.arena import GradientArena
from repro.ddp.bucket import build_buckets
from repro.nn import layers as L
from repro.nn.batched import replica_views
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.pruning import apply_gse
from repro.tensorlib import Tensor, default_dtype, functional as F
from repro.tensorlib.functional import col2im, im2col


def looped_train_step(self, per_rank_batches, loss_fn, gse_mask=None):
    """The oracle: ``train_step`` as a per-rank loop over the active ranks."""
    per_rank_losses = []
    for rank in self.active_ranks:
        loss_value, grads = self.compute_local_gradients(per_rank_batches[rank], loss_fn)
        if gse_mask is not None:
            apply_gse(gse_mask, grads)
        self.stage_rank_gradients(rank, grads)
        per_rank_losses.append(loss_value)
    aggregated, bucket_events = self.synchronize_staged()
    self.apply_aggregated_gradients(aggregated)
    return StepResult(per_rank_losses, bucket_events)


def force_loop(monkeypatch) -> None:
    """Make every synchronous step the per-rank oracle loop."""
    monkeypatch.setattr(DistributedDataParallel, "train_step", looped_train_step)


def count_passes(monkeypatch) -> dict:
    """Count world-batched and per-rank gradient passes from here on.

    A per-rank pass is world 1 of the batched one, so the batched call it
    makes is that pass and not another: only the outermost call counts.
    """
    calls = {"batched": 0, "looped": 0}
    depth = [0]

    def counting(key, original):
        def counted(self, *args, **kwargs):
            calls[key] += depth[0] == 0
            depth[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    for key, name in (("batched", "compute_batched_gradients"), ("looped", "compute_local_gradients")):
        original = getattr(DistributedDataParallel, name)
        monkeypatch.setattr(DistributedDataParallel, name, counting(key, original))
    return calls


def _per_rank_grads(model: Module, images: np.ndarray, labels: np.ndarray):
    """Reference: loop rank by rank, collect per-rank gradient stacks."""
    world = images.shape[0]
    stacks: dict = {}
    losses = []
    for rank in range(world):
        model.zero_grad()
        loss = F.cross_entropy(model(Tensor(images[rank])), labels[rank])
        loss.backward()
        losses.append(float(loss.data))
        for name, param in model.named_parameters():
            stacks.setdefault(name, []).append(param.grad.copy())
    model.zero_grad()
    return losses, {name: np.stack(grads) for name, grads in stacks.items()}


def _per_rank_grads_with(model: Module, stacks: dict, images: np.ndarray, labels: np.ndarray):
    """Reference for per-rank stacks: rank r runs with every parameter set to its row r."""
    params = dict(model.named_parameters())
    originals = {name: param.data for name, param in params.items()}
    losses, grads = [], {}
    try:
        for rank in range(images.shape[0]):
            for name, param in params.items():
                param.data = stacks[name][rank]
            model.zero_grad()
            loss = F.cross_entropy(model(Tensor(images[rank])), labels[rank])
            loss.backward()
            losses.append(float(loss.data))
            for name, param in params.items():
                grads.setdefault(name, []).append(param.grad.copy())
    finally:
        for name, param in params.items():
            param.data = originals[name]
    return losses, {name: np.stack(per_rank) for name, per_rank in grads.items()}


def _batched_grads(model: Module, images: np.ndarray, labels: np.ndarray):
    world = images.shape[0]
    model.zero_grad()
    with replica_views(model, world) as views:
        loss = F.cross_entropy(model(Tensor(images)), labels)
        loss.backward(np.ones(world, dtype=loss.data.dtype))
        grads = {name: view.grad.copy() for name, view in views.items()}
    losses = [float(v) for v in np.asarray(loss.data).reshape(-1)]
    model.zero_grad()
    return losses, grads


def _assert_stacks_equal(batched: dict, looped: dict) -> None:
    assert set(batched) == set(looped)
    for name in batched:
        np.testing.assert_array_equal(batched[name], looped[name], err_msg=name)


class _ConvBNNet(Module):
    """Tiny conv + BN + pool net covering the batched conv/norm/pool kernels."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv1 = L.Conv2d(3, 4, 3, padding=1, rng=rng)
        self.bn = L.BatchNorm2d(4)
        self.conv2 = L.Conv2d(4, 4, 3, stride=2, padding=1, rng=rng)
        self.fc = L.Linear(4 * 4 * 4, 5, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn(self.conv1(x)).relu()
        h = self.conv2(h).relu()
        return self.fc(h.flatten(start_dim=h.ndim - 3))


def _build(kind: str, rng: np.random.Generator) -> Module:
    if kind == "mlp":
        return build_model("mlp", num_classes=5, seed=3)
    if kind == "convbn":
        return _ConvBNNet(rng)
    if kind == "vit":
        return build_model("vit-base-16", num_classes=5, seed=3)
    raise KeyError(kind)


class TestLayerParity:
    @given(
        kind=st.sampled_from(["mlp", "convbn", "vit"]),
        world=st.sampled_from([1, 2, 3]),
        dtype=st.sampled_from(["float64", "float32"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_batched_equals_looped(self, kind, world, dtype):
        with default_dtype(dtype):
            rng = np.random.default_rng(11)
            model = _build(kind, rng)
            images = rng.standard_normal((world, 2, 3, 8, 8)).astype(dtype)
            labels = rng.integers(0, 5, size=(world, 2))
            looped_losses, looped = _per_rank_grads(model, images, labels)
            batched_losses, batched = _batched_grads(model, images, labels)
        assert batched_losses == looped_losses
        _assert_stacks_equal(batched, looped)

    @given(
        kind=st.sampled_from(["mlp", "convbn", "vit"]),
        world=st.sampled_from([1, 2, 3]),
        dtype=st.sampled_from(["float64", "float32"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_per_rank_stacks_equal_the_per_rank_kernels(self, kind, world, dtype):
        """Real, non-broadcast ``(world, *shape)`` stacks — local SGD's diverged
        replicas — take the per-slice kernels (conv stride 1 and 2, batch norm,
        Linear, LayerNorm and attention through vit-base-16), byte for byte."""
        with default_dtype(dtype):
            looped_model = _build(kind, np.random.default_rng(13))
            batched_model = _build(kind, np.random.default_rng(13))
            rng = np.random.default_rng(17)
            stacks = {
                name: param.data + (0.05 * rng.standard_normal((world,) + param.shape)).astype(dtype)
                for name, param in looped_model.named_parameters()
            }
            images = rng.standard_normal((world, 2, 3, 8, 8)).astype(dtype)
            labels = rng.integers(0, 5, size=(world, 2))
            looped_losses, looped = _per_rank_grads_with(looped_model, stacks, images, labels)
            batched_model.zero_grad()
            with replica_views(batched_model, world, stacks=stacks) as views:
                assert all(views[name].data is stacks[name] for name in stacks)
                loss = F.cross_entropy(batched_model(Tensor(images)), labels)
                loss.backward(np.ones(world, dtype=loss.data.dtype))
                batched = {name: view.grad.copy() for name, view in views.items()}
        assert [float(v) for v in loss.data] == looped_losses
        _assert_stacks_equal(batched, looped)
        for (name, looped_buffer), (_, batched_buffer) in zip(
            looped_model.named_buffers(), batched_model.named_buffers()
        ):
            np.testing.assert_array_equal(batched_buffer, looped_buffer, err_msg=name)

    def test_a_stack_must_lead_with_the_world(self):
        model = build_model("mlp", num_classes=5, seed=0)
        stacks = {name: np.stack([param.data] * 2) for name, param in model.named_parameters()}
        with pytest.raises(ValueError, match="expected"):
            with replica_views(model, 3, stacks=stacks):
                pass

    def test_batchnorm_running_stats_match(self):
        """Buffer updates (momentum fold) must follow the per-rank order."""
        with default_dtype("float64"):
            rng = np.random.default_rng(5)
            images = rng.standard_normal((3, 2, 3, 8, 8))
            labels = rng.integers(0, 5, size=(3, 2))

            looped = _ConvBNNet(np.random.default_rng(9))
            _per_rank_grads(looped, images, labels)
            batched = _ConvBNNet(np.random.default_rng(9))
            _batched_grads(batched, images, labels)

        np.testing.assert_array_equal(batched.bn.running_mean, looped.bn.running_mean)
        np.testing.assert_array_equal(batched.bn.running_var, looped.bn.running_var)

    def test_replica_views_restore_parameters(self):
        model = build_model("mlp", num_classes=5, seed=0)
        originals = {name: param for name, param in model.named_parameters()}
        with replica_views(model, 4) as views:
            assert set(views) == set(originals)
            for name, view in views.items():
                assert view.data.shape == (4,) + originals[name].data.shape
                assert view.data.strides[0] == 0  # broadcast, not copied
                # the swapped attribute is the view, not the parameter
                module = model
                *path, local = name.split(".")
                for part in path:
                    module = getattr(module, part)
                assert getattr(module, local) is view
        for name, param in model.named_parameters():
            assert param is originals[name]

    @pytest.mark.parametrize("kind", ["mlp", "convbn", "vit"])
    def test_the_world_axis_is_read_off_the_tensors(self, kind):
        """No context says whether a pass is batched: the same model answers
        plain input plainly before, inside and after ``replica_views``."""
        model = _build(kind, np.random.default_rng(3))
        images = np.random.default_rng(4).standard_normal((3, 2, 3, 8, 8))
        before = model(Tensor(images[0])).data
        with replica_views(model, 3):
            assert model(Tensor(images)).data.shape == (3, 2, 5)
        assert model(Tensor(images[0])).data.tobytes() == before.tobytes()

    def test_flatten_keeps_every_axis_before_channels(self):
        flatten = L.Flatten()
        assert flatten(Tensor(np.zeros((2, 4, 3, 3)))).shape == (2, 36)
        assert flatten(Tensor(np.zeros((3, 2, 4, 3, 3)))).shape == (3, 2, 36)


def _bucket_events(result):
    """Each bucket's collectives as (op, world size, payload bytes, bytes per worker)."""
    return [
        [(e.op, e.world_size, e.payload_bytes, e.bytes_per_worker) for e in per_bucket]
        for per_bucket in result.bucket_events
    ]


class TestTrainStepParity:
    def _make(self, world=4, batch=2, comm_hook=None):
        with default_dtype("float64"):
            dataset = synthetic_cifar10(num_samples=world * batch, image_size=8, seed=0)
            model = build_model("resnet18", num_classes=10, seed=0)
            ddp = DistributedDataParallel(
                model, world_size=world, process_group=ProcessGroup(world), comm_hook=comm_hook
            )
            batches = [
                next(
                    iter(
                        DataLoader(
                            dataset,
                            batch_size=batch,
                            sampler=DistributedSampler(len(dataset), world, rank, seed=0),
                        )
                    )
                )
                for rank in range(world)
            ]
        return ddp, batches

    def test_train_step_results_identical(self, monkeypatch):
        calls = count_passes(monkeypatch)
        results = {}
        params = {}
        for path in ("batched", "looped"):
            if path == "looped":
                force_loop(monkeypatch)
            ddp, batches = self._make()
            with default_dtype("float64"):
                results[path] = ddp.train_step(batches, F.cross_entropy)
            params[path] = {n: p.data.copy() for n, p in ddp.model.named_parameters()}
        assert calls == {"batched": 1, "looped": 4}
        batched, looped = results["batched"], results["looped"]
        assert batched.per_rank_loss == looped.per_rank_loss
        assert batched.loss == looped.loss
        assert _bucket_events(batched) == _bucket_events(looped)
        assert batched.comm_bytes_per_worker == looped.comm_bytes_per_worker
        _assert_stacks_equal(params["batched"], params["looped"])

    def test_ragged_batches_are_rejected(self):
        """Equal shards never yield ragged batches; a caller's ragged input
        is an error, not a silent change of execution path."""
        ddp, batches = self._make(world=2, batch=2)
        images, labels = batches[1]
        batches[1] = (images[:1], labels[:1])
        with default_dtype("float64"), pytest.raises(ValueError):
            ddp.train_step(batches, F.cross_entropy)

    def test_degraded_step_equals_the_loop_over_survivors(self, monkeypatch):
        """Rank 1 dead: one batched pass over ranks 0, 2 and 3 stages the same
        rows, losses and reduced gradients as the per-rank loop."""
        calls = count_passes(monkeypatch)
        results, params, arenas = {}, {}, {}
        for path in ("batched", "looped"):
            if path == "looped":
                force_loop(monkeypatch)
            ddp, batches = self._make()
            ddp.set_active_ranks([0, 2, 3])
            with default_dtype("float64"):
                results[path] = ddp.train_step(batches, F.cross_entropy)
            params[path] = {n: p.grad.copy() for n, p in ddp.model.named_parameters()}
            arenas[path] = [ddp.arena.matrix(b.index)[[0, 2, 3]].copy() for b in ddp.buckets]
        assert calls == {"batched": 1, "looped": 3}
        assert results["batched"].per_rank_loss == results["looped"].per_rank_loss
        assert _bucket_events(results["batched"]) == _bucket_events(results["looped"])
        _assert_stacks_equal(params["batched"], params["looped"])
        for batched, looped in zip(arenas["batched"], arenas["looped"]):
            np.testing.assert_array_equal(batched, looped)

    def test_train_step_takes_no_execution_argument(self):
        ddp, batches = self._make(world=2, batch=2)
        with pytest.raises(TypeError, match="execution"):
            ddp.train_step(batches, F.cross_entropy, execution="looped")


class TestExperimentParity:
    @pytest.mark.parametrize(
        "spec_kwargs",
        [
            {"name": "dense", "compressor": "allreduce"},
            {"name": "pac", "compressor": "pactrain", "pruning_ratio": 0.5, "gse": True},
        ],
        ids=["all-reduce", "pactrain-gse"],
    )
    def test_timeline_identical(self, spec_kwargs, monkeypatch):
        from repro.simulation.cluster import ClusterSpec
        from repro.simulation.experiment import ExperimentConfig, MethodSpec, run_experiment

        config = ExperimentConfig(
            model="mlp",
            cluster=ClusterSpec(world_size=4),
            epochs=2,
            batch_size=8,
            dataset_samples=64,
            seed=0,
        )
        spec = MethodSpec(**spec_kwargs)
        calls = count_passes(monkeypatch)
        batched = run_experiment(config, spec)
        assert calls["batched"] == batched.iterations_run and calls["looped"] == 0
        force_loop(monkeypatch)
        looped = run_experiment(config, spec)
        assert calls["batched"] == batched.iterations_run
        assert calls["looped"] == 4 * looped.iterations_run
        assert batched.loss_trace == looped.loss_trace
        assert batched.accuracy_trace == looped.accuracy_trace
        assert batched.simulated_time == looped.simulated_time
        assert batched.comm_bytes_per_worker == looped.comm_bytes_per_worker
        assert batched.final_accuracy == looped.final_accuracy

    def test_degraded_world_is_one_batched_pass_per_iteration(self, monkeypatch):
        """With a rank dead from t=0 every iteration runs over the survivors in
        one world-batched pass: a dead rank computes nothing."""
        from repro.simulation.cluster import ClusterSpec
        from repro.simulation.experiment import ExperimentConfig, MethodSpec, run_experiment

        config = ExperimentConfig(
            model="mlp",
            cluster=ClusterSpec(world_size=4, faults="crash:3@0.0"),
            epochs=1,
            batch_size=8,
            dataset_samples=64,
            seed=0,
        )
        calls = count_passes(monkeypatch)
        result = run_experiment(config, MethodSpec(name="dense", compressor="allreduce"))
        assert result.degraded_iterations == result.iterations_run > 0
        assert calls == {"batched": result.iterations_run, "looped": 0}


class TestSyncUnderACrashPlan:
    """A degraded synchronous world is one batched pass over the survivors:
    parameters, velocities, per-rank losses, arena rows and the result equal
    the per-rank loop's across a crash and a re-join, PacTrain's mask and GSE on."""

    @pytest.mark.parametrize("model", ["mlp", "resnet18"])
    def test_crash_and_rejoin_equal_the_loop(self, model, monkeypatch):
        import dataclasses

        from repro.simulation import PAPER_METHODS, ClusterSpec, ExperimentConfig
        from repro.simulation.experiment import train_distributed

        method = PAPER_METHODS["pactrain"]
        config = ExperimentConfig(
            model=model,
            cluster=ClusterSpec(world_size=3, bandwidth="100Mbps"),
            epochs=2, batch_size=2, dataset_samples=40, image_size=8,
            pretrain_iterations=1, max_iterations_per_epoch=4,
            bucket_cap_bytes=16 * 1024, seed=0,
        )
        # Rank 1 is dead from t=0 and re-joins halfway through the healthy run.
        rejoin = train_distributed(config, method).timeline.total_time / 2
        config = dataclasses.replace(
            config,
            cluster=dataclasses.replace(config.cluster, faults=f"crash:1@0.0,rejoin:1@{rejoin:.9g}"),
        )
        runs, losses = {}, {}
        for path, step in (("batched", DistributedDataParallel.train_step), ("looped", looped_train_step)):
            recorded = losses[path] = []

            def recording(self, *args, _step=step, _recorded=recorded, **kwargs):
                result = _step(self, *args, **kwargs)
                _recorded.append(result.per_rank_loss)
                return result

            with monkeypatch.context() as patch:
                patch.setattr(DistributedDataParallel, "train_step", recording)
                runs[path] = train_distributed(config, method)
        batched, looped = runs["batched"], runs["looped"]
        result = batched.result()
        assert 0 < result.degraded_iterations < result.iterations_run
        assert losses["batched"] == losses["looped"]
        assert {len(per_rank) for per_rank in losses["batched"]} == {2, 3}
        assert result.to_dict() == looped.result().to_dict()
        _assert_stacks_equal(batched.ddp.snapshot_parameters(), looped.ddp.snapshot_parameters())
        for got, want in zip(batched.optimizer.velocity, looped.optimizer.velocity):
            np.testing.assert_array_equal(got, want)
        for bucket in batched.ddp.buckets:
            np.testing.assert_array_equal(
                batched.ddp.arena.matrix(bucket.index), looped.ddp.arena.matrix(bucket.index)
            )


class TestArenaWriteWorld:
    def _arena(self, world=3):
        model = build_model("mlp", num_classes=5, seed=1)
        buckets = build_buckets(model, bucket_cap_bytes=1 << 14)
        shapes = {
            piece.param_name: piece.shape for bucket in buckets for piece in bucket.slices
        }
        return GradientArena(buckets, world), buckets, shapes

    def test_write_world_matches_write_rank(self):
        arena_a, buckets, shapes = self._arena()
        arena_b, _, _ = self._arena()
        rng = np.random.default_rng(0)
        stacks = {name: rng.standard_normal((3,) + shape) for name, shape in shapes.items()}
        arena_a.write_world(stacks)
        for rank in range(3):
            arena_b.write_rank(rank, {name: stacks[name][rank] for name in stacks})
        for bucket in buckets:
            np.testing.assert_array_equal(
                arena_a.matrix(bucket.index), arena_b.matrix(bucket.index)
            )

    def test_write_world_missing_gradient_zeroes_slice(self):
        arena, buckets, shapes = self._arena()
        rng = np.random.default_rng(2)
        stacks = {name: rng.standard_normal((3,) + shape) for name, shape in shapes.items()}
        arena.write_world(stacks)
        target = buckets[0].slices[0]
        dropped = dict(stacks)
        dropped[target.param_name] = None
        arena.write_world(dropped)
        matrix = arena.matrix(buckets[0].index)
        assert not matrix[:, target.offset : target.end].any()
        # the other slices in the bucket kept their values
        if len(buckets[0].slices) > 1:
            other = buckets[0].slices[1]
            assert matrix[:, other.offset : other.end].any()

    def test_write_world_shape_mismatch_rejected(self):
        arena, _, shapes = self._arena()
        bad = {name: np.zeros((2,) + shape) for name, shape in shapes.items()}  # wrong world
        with pytest.raises(ValueError):
            arena.write_world(bad)


class TestCol2imFastPath:
    def _naive_col2im(self, cols, image_shape, kernel_size, stride, padding):
        """The original per-(i, j) strided scatter-add, kept as the reference."""
        n, c, h, w = image_shape
        kh, kw = kernel_size
        sh, sw = stride
        ph, pw = padding
        out_h = (h + 2 * ph - kh) // sh + 1
        out_w = (w + 2 * pw - kw) // sw + 1
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
        reshaped = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(4, 5, 0, 3, 1, 2)
        for i in range(kh):
            for j in range(kw):
                padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += reshaped[i, j]
        if ph == 0 and pw == 0:
            return padded
        return padded[:, :, ph : ph + h, pw : pw + w]

    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [
            ((2, 2), (2, 2), (0, 0)),  # non-overlap: pooling layout (fast path)
            ((3, 3), (3, 3), (0, 0)),  # non-overlap, larger kernel
            ((2, 2), (3, 3), (0, 0)),  # stride > kernel: gaps between windows
            ((3, 3), (1, 1), (1, 1)),  # overlapping: scatter-add path
            ((3, 3), (2, 2), (1, 1)),  # overlapping with stride
        ],
    )
    def test_matches_naive_scatter(self, kernel, stride, padding):
        rng = np.random.default_rng(7)
        image_shape = (2, 3, 12, 12)
        images = rng.standard_normal(image_shape)
        cols, _ = im2col(images, kernel, stride, padding)
        result = col2im(cols, image_shape, kernel, stride, padding)
        expected = self._naive_col2im(cols, image_shape, kernel, stride, padding)
        np.testing.assert_array_equal(result, expected)

    def test_roundtrip_counts_window_touches(self):
        """col2im(im2col(x)) multiplies each pixel by its window multiplicity."""
        image_shape = (1, 1, 4, 4)
        images = np.ones(image_shape)
        cols, _ = im2col(images, (2, 2), (2, 2), (0, 0))
        out = col2im(cols, image_shape, (2, 2), (2, 2), (0, 0))
        np.testing.assert_array_equal(out, np.ones((1, 1, 4, 4)))
