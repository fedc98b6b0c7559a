"""Batched-rank execution parity: world-batched == per-rank loop, bit-exactly.

The batched execution path (``repro.nn.batched`` + the world-batched kernels
in ``repro.tensorlib.functional``) promises float64 bit-identity with the
per-rank loop.  These tests pin that promise at every level: individual layers
under ``replica_views`` (hypothesis over layer types, world sizes and dtypes),
full ``DistributedDataParallel.train_step`` results, the end-to-end experiment
timeline (including a GSE/PacTrain cell), and the two supporting pieces —
``GradientArena.write_world`` and the ``col2im`` non-overlap fast path.

Nothing selects the loop by name: the code takes it when the per-rank batches
do not stack or the world is degraded.  The oracle runs are forced onto it
through that observed condition (:func:`force_loop`), and a call counter
proves which path each run took.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.process_group import ProcessGroup
from repro.data import DataLoader, DistributedSampler, synthetic_cifar10
from repro.ddp import DistributedDataParallel
from repro.ddp.arena import GradientArena
from repro.ddp.bucket import build_buckets
from repro.nn import layers as L
from repro.nn.batched import active_world, replica_views, world_batched
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.tensorlib import Tensor, default_dtype, functional as F
from repro.tensorlib.functional import col2im, im2col


def force_loop(monkeypatch) -> None:
    """Make every step take the per-rank loop: report the batches as unstackable."""
    monkeypatch.setattr(
        DistributedDataParallel, "_stackable", staticmethod(lambda batches: False)
    )


def count_passes(monkeypatch) -> dict:
    """Count world-batched and per-rank gradient passes from here on."""
    calls = {"batched": 0, "looped": 0}

    def counting(key, original):
        def counted(self, *args, **kwargs):
            calls[key] += 1
            return original(self, *args, **kwargs)

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
        losses.append(float(loss.item()))
        for name, param in model.named_parameters():
            stacks.setdefault(name, []).append(param.grad.copy())
    model.zero_grad()
    return losses, {name: np.stack(grads) for name, grads in stacks.items()}


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
        start = 2 if active_world() is not None else 1
        return self.fc(h.flatten(start_dim=start))


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
        world=st.sampled_from([2, 3]),
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

    def test_world_batched_context(self):
        assert active_world() is None
        with world_batched(8):
            assert active_world() == 8
        assert active_world() is None


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
        assert batched.comm_time == looped.comm_time
        assert batched.comm_bytes_per_worker == looped.comm_bytes_per_worker
        _assert_stacks_equal(params["batched"], params["looped"])

    def test_ragged_batches_take_the_loop_without_being_asked(self, monkeypatch):
        calls = count_passes(monkeypatch)
        ddp, batches = self._make(world=2, batch=2)
        images, labels = batches[1]
        batches[1] = (images[:1], labels[:1])  # ragged tail
        assert not DistributedDataParallel._stackable(batches)
        with default_dtype("float64"):
            result = ddp.train_step(batches, F.cross_entropy)
        assert len(result.per_rank_loss) == 2
        assert calls == {"batched": 0, "looped": 2}

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

    def test_degraded_world_takes_the_loop_without_being_asked(self, monkeypatch):
        """With a rank dead from t=0 every iteration runs over the survivors,
        rank by rank: a dead rank computes nothing, so no world-batched pass."""
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
        assert calls == {"batched": 0, "looped": 3 * result.iterations_run}


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
