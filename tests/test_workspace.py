"""The step workspace: pooled patch matrices and arena-born conv weight gradients.

``backend._workspace`` hands the im2col gather buffers that a training step
already allocated, and only while nothing else refers to them; the
world-batched conv backward writes a weight's first gradient contribution
straight into its gradient-arena slot.  Neither may change a number, so the
reference run is the same code with the pool bypassed (a fresh ``np.empty``
per request) and no slots, compared with ``array_equal``:

* two forward passes alive at once, then both backward passes — resnet18,
  vgg19, vit-base-16 and the MLP, per-rank loop and world-batched;
* a held patch matrix, or a view of one, keeps its bytes across later
  gathers of the same geometry;
* after one warm-up step an identical second step allocates no pool buffer
  (pool misses are counted: deterministic, unlike page faults);
* conv weight stacks alias their arena slots and staging copies only the
  other stacks;
* the refcount test on the interpreter running the suite: a referenced
  buffer is never handed out, a free one is;
* an oversize request is served unpooled and the pool stays under its bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.data import DataLoader, DistributedSampler, synthetic_cifar10
from repro.ddp import DistributedDataParallel
from repro.ddp.arena import GradientArena
from repro.ddp.bucket import build_buckets
from repro.nn.batched import replica_views
from repro.nn.models import build_model
from repro.tensorlib import Tensor, backend as B, default_dtype, functional as F


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty pool and miss counter for this test only."""
    monkeypatch.setattr(B, "_WORKSPACE", [])
    monkeypatch.setattr(B, "_workspace_misses", 0)


def bypass_pool(patch) -> None:
    patch.setattr(B, "_workspace", lambda shape, dtype: np.empty(shape, dtype=dtype))


def pooled_index(array: np.ndarray) -> int:
    """Which pool buffer ``array`` was carved from (-1: none).

    Reads the pool by index so that the test holds no reference to a buffer
    (one would keep it out of circulation).
    """
    for index in range(len(B._WORKSPACE)):
        if np.shares_memory(array, B._WORKSPACE[index]):
            return index
    return -1


def address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _two_passes(model, images, labels, batched: bool, slots=None) -> dict:
    """Two forward graphs alive at once, then both backward walks."""
    model.zero_grad()
    if batched:
        world = images.shape[1]
        with replica_views(model, world, slots) as views:
            losses = [F.cross_entropy(model(Tensor(images[i])), labels[i]) for i in range(2)]
            for loss in losses:
                loss.backward(np.ones(world))
            grads = {name: view.grad.copy() for name, view in views.items()}
    else:
        losses = [F.cross_entropy(model(Tensor(images[i, 0])), labels[i, 0]) for i in range(2)]
        for loss in losses:
            loss.backward()
        grads = {name: param.grad.copy() for name, param in model.named_parameters()}
    for name, buffer in model.named_buffers():
        grads["buffer:" + name] = np.array(buffer)
    return grads


def _ddp(name: str, world: int = 4, batch: int = 2):
    dataset = synthetic_cifar10(num_samples=world * batch, image_size=8, seed=0)
    ddp = DistributedDataParallel(
        build_model(name, num_classes=10, seed=0), world_size=world, process_group=ProcessGroup(world)
    )
    samplers = [DistributedSampler(len(dataset), world, rank, seed=0) for rank in range(world)]
    batches = [next(iter(DataLoader(dataset, batch_size=batch, sampler=s))) for s in samplers]
    return ddp, batches


class TestSameNumbers:
    @pytest.mark.parametrize("batched", [False, True], ids=["looped", "world-batched"])
    @pytest.mark.parametrize("name", ["resnet18", "vgg19", "vit-base-16", "mlp"])
    def test_overlapping_graphs_match_the_unpooled_run(self, name, batched, fresh_pool, monkeypatch):
        with default_dtype("float64"):
            rng = np.random.default_rng(31)
            images = rng.standard_normal((2, 2, 4, 3, 8, 8))  # (pass, world, N, C, H, W)
            labels = rng.integers(0, 10, size=(2, 2, 4))
            pooled = build_model(name, num_classes=10, seed=4)
            slots = GradientArena(build_buckets(pooled), 2).slots if batched else None
            got = _two_passes(pooled, images, labels, batched, slots)
            with monkeypatch.context() as patch:
                bypass_pool(patch)
                want = _two_passes(build_model(name, num_classes=10, seed=4), images, labels, batched)
        # ViT embeds patches with a Linear: only the conv models gather.
        assert bool(B._WORKSPACE) == (name in ("resnet18", "vgg19"))
        assert set(got) == set(want)
        for key, expected in want.items():
            np.testing.assert_array_equal(got[key], expected, err_msg=f"{name}:{key}")


class TestPool:
    GEOMETRY = ((3, 3), (1, 1), (4, 4))

    def test_a_held_patch_matrix_keeps_its_bytes(self, fresh_pool):
        backend = B.NumpyBackend()
        rng = np.random.default_rng(0)

        def gather():
            return backend.im2col_gather(rng.standard_normal((2, 2, 6, 6)), *self.GEOMETRY)

        held = gather()
        snapshot = held.copy()
        for _ in range(3):
            other = gather()
            assert not np.shares_memory(other, held)
        np.testing.assert_array_equal(held, snapshot)
        # A view alone pins the buffer too.
        row, row_snapshot = held[1], snapshot[1]
        del held
        for _ in range(3):
            other = gather()
            assert not np.shares_memory(other, row)
        np.testing.assert_array_equal(row, row_snapshot)
        # Released gathers were reused: `other` is rebound only after the next
        # gather returns, so the loops alternate two buffers beside the held one.
        assert len(B._WORKSPACE) == 3 and B._workspace_misses == 3

    def test_a_referenced_buffer_is_never_handed_out_and_a_free_one_is(self, fresh_pool):
        first = B._workspace((4, 8), np.float64)
        assert pooled_index(first) >= 0 and first.shape == (4, 8) and first.flags.c_contiguous
        first_at = address(first)
        second = B._workspace((4, 8), np.float64)
        assert address(second) != first_at
        view = first[1:]
        del first
        third = B._workspace((4, 8), np.float64)  # `view` still refers to first's buffer
        assert address(third) not in (first_at, address(second))
        assert B._workspace_misses == 3
        del view
        fourth = B._workspace((3, 5), np.float32)  # smaller, another dtype: that buffer is free
        assert address(fourth) == first_at and fourth.dtype == np.float32
        assert B._workspace_misses == 3 and len(B._WORKSPACE) == 3

    def test_the_smallest_free_buffer_that_fits_serves(self, fresh_pool):
        large = B._workspace((64,), np.float64)
        small = B._workspace((8,), np.float64)  # allocated while `large` is live
        del large, small
        assert sorted(b.nbytes for b in B._WORKSPACE) == [64, 512]
        request = B._workspace((6,), np.float64)
        assert B._WORKSPACE[pooled_index(request)].nbytes == 64
        assert B._workspace_misses == 2

    def test_a_larger_allocation_drops_the_free_smaller_buffers(self, fresh_pool):
        small = B._workspace((8,), np.float64)
        del small
        live = B._workspace((4,), np.float64)  # reuses the free 8-element buffer
        assert B._workspace_misses == 1
        large = B._workspace((64,), np.float64)  # miss: nothing free fits
        assert sorted(b.nbytes for b in B._WORKSPACE) == [64, 512]  # live one kept
        del live
        larger = B._workspace((128,), np.float64)  # drops the free 64-byte buffer
        assert sorted(b.nbytes for b in B._WORKSPACE) == [512, 1024]
        assert pooled_index(large) != pooled_index(larger)

    def test_oversize_is_unpooled_and_the_pool_stays_under_its_bound(self, fresh_pool, monkeypatch):
        bound = 4096
        monkeypatch.setattr(B, "_WORKSPACE_MAX_BYTES", bound)
        oversize = B._workspace((bound // 8 + 1,), np.float64)
        assert oversize.flags.owndata and not B._WORKSPACE and B._workspace_misses == 0
        rng = np.random.default_rng(0)
        held = []
        for size in rng.integers(1, bound // 8, size=300):
            array = B._workspace((int(size),), np.float64)
            assert array.shape == (size,)
            if rng.random() < 0.4:
                held.append(array)
            if len(held) > 4:
                held.pop(0)
            assert sum(b.nbytes for b in B._WORKSPACE) <= bound
        assert B._workspace_misses > 0

    def test_wrap_mode_gather_equals_a_fresh_take(self, fresh_pool):
        rng = np.random.default_rng(3)
        for shape, kernel, stride in (((2, 3, 7, 7), (3, 3), (2, 2)), ((3, 1, 4, 4), (2, 2), (2, 2))):
            padded = rng.standard_normal(shape)
            out_hw = ((shape[2] - kernel[0]) // stride[0] + 1, (shape[3] - kernel[1]) // stride[1] + 1)
            plan = B._gather_index_plan(shape[1], shape[2], shape[3], kernel, stride, out_hw)
            want = np.take(padded.reshape(shape[0], -1), plan, axis=1)
            got = B.NumpyBackend().im2col_gather(padded, kernel, stride, out_hw)
            np.testing.assert_array_equal(got.reshape(shape[0], -1), want)


class TestTrainingStep:
    @pytest.mark.parametrize("looped", [False, True], ids=["world-batched", "looped"])
    @pytest.mark.parametrize("name", ["resnet18", "vgg19"])
    def test_a_repeated_step_allocates_no_pool_buffer(self, name, looped, fresh_pool, monkeypatch):
        if looped:
            monkeypatch.setattr(DistributedDataParallel, "_stackable", staticmethod(lambda b: False))
        with default_dtype("float64"):
            ddp, batches = _ddp(name)
            ddp.train_step(batches, F.cross_entropy)
            warm = B._workspace_misses
            ddp.train_step(batches, F.cross_entropy)
        assert warm > 0
        assert B._workspace_misses == warm

    def test_conv_weight_stacks_are_born_in_their_arena_slots(self, monkeypatch):
        with default_dtype("float64"):
            ddp, batches = _ddp("resnet18")
            images = np.stack([batch[0] for batch in batches])
            labels = np.stack([batch[1] for batch in batches])
            _, grads = ddp.compute_batched_gradients((images, labels), F.cross_entropy)
        slots = ddp.arena.slots
        conv = {name for name, param in ddp.model.named_parameters() if param.data.ndim == 4}
        others = set(grads) - conv
        assert conv and set(grads) == set(slots)
        assert any(name.startswith("fc.") for name in others)
        assert any(".bn" in name or name.startswith("bn") for name in others)
        for name in conv:
            assert grads[name] is slots[name], name
        for name in others:
            assert not ddp.arena.shares_memory_with(grads[name]), name
        values = {name: grad.copy() for name, grad in grads.items()}

        copied = []
        copyto = np.copyto
        with monkeypatch.context() as patch:
            patch.setattr(np, "copyto", lambda dst, src, **kw: (copied.append(src), copyto(dst, src, **kw)))
            ddp.stage_world_gradients(grads)
        assert len(copied) == len(others)
        for name, value in values.items():
            np.testing.assert_array_equal(slots[name], value, err_msg=name)

    def test_arena_born_gradients_equal_the_per_rank_loop(self, monkeypatch):
        """GSE masks conv stacks in the arena; the staged rows still equal the loop's."""
        from repro.pruning import apply_gse, magnitude_prune

        staged = {}
        for path in ("batched", "looped"):
            with default_dtype("float64"):
                ddp, batches = _ddp("resnet18")
                mask = magnitude_prune(ddp.model, 0.5)
                if path == "batched":
                    images = np.stack([batch[0] for batch in batches])
                    labels = np.stack([batch[1] for batch in batches])
                    _, grads = ddp.compute_batched_gradients((images, labels), F.cross_entropy)
                    apply_gse(ddp.model, mask, grads=grads)
                    ddp.stage_world_gradients(grads)
                else:
                    for rank, batch in enumerate(batches):
                        _, grads = ddp.compute_local_gradients(batch, F.cross_entropy, copy=False)
                        apply_gse(ddp.model, mask, grads=grads)
                        ddp.stage_rank_gradients(rank, grads)
            staged[path] = [ddp.arena.matrix(b.index).copy() for b in ddp.buckets]
        for batched, looped in zip(staged["batched"], staged["looped"]):
            np.testing.assert_array_equal(batched, looped)
