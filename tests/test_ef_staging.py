"""Error feedback compensates as gradients are staged.

A synchronous step over the full world with no GSE mask, whose compressor
keeps driver error-feedback residuals, stages each bucket into its residual
by addition (``CodecCompressor.lend_residual``): the DDP arena is never
allocated and ``aggregate`` sees a matrix that *is* its residual.  Every
other step — a GSE mask, a degraded membership — stages into the arena by
copy and ``aggregate`` adds the copy into the residual.

Pinned here:

* which staging target each case uses (the arena, or the residual) and that
  the arena of a lent run allocates nothing;
* a slowed link over the full membership stages and reduces like the healthy
  world (no survivor copy) and is only priced on the degraded group;
* residuals, aggregates and losses equal, byte for byte, a test-local step
  in the copy-then-compensate order — GSE, stage by copy, ``residual +=
  matrix`` — with and without GSE, under a slowed link, and across a
  crash/re-join under ``policy:carry`` and ``policy:zero`` (lent → arena →
  lent), in float64 and float32.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import ProcessGroup
from repro.compression import CodecCompressor, build_compressor
from repro.ddp import DistributedDataParallel, StepResult
from repro.ddp.arena import GradientArena
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.pruning import apply_gse
from repro.simulation import PAPER_METHODS, ClusterSpec, ExperimentConfig
from repro.simulation.experiment import train_distributed
from repro.simulation.spec import MethodSpec

EF_GSE = MethodSpec(name="ef-gse", compressor="topk-0.01", pruning_ratio=0.5, gse=True)


def reference_train_step(self, per_rank_batches, loss_fn, gse_mask=None):
    """``train_step`` in the copy-then-compensate order.

    GSE, then each bucket's surviving rows copied into a fresh matrix, then
    ``aggregate`` on that copy — which adds it into the residual
    (``residual += matrix``) before encoding.
    """
    ranks = self.active_ranks
    losses, grads = self.compute_batched_gradients(per_rank_batches, loss_fn, ranks)
    if gse_mask is not None:
        apply_gse(gse_mask, grads)
    group = self.active_group
    aggregated, bucket_events = {}, []
    for bucket in self.buckets:
        matrix = np.zeros((len(ranks), bucket.numel), dtype=self.dtype)
        for piece in bucket.slices:
            grad = grads.get(piece.param_name)
            if grad is not None:
                matrix[:, piece.offset : piece.end] = grad.reshape(len(ranks), -1)
        before = len(group.events)
        reduced = self.compressor.aggregate(GradBucket(bucket, matrix), group, self.iteration)
        bucket_events.append(group.events[before:])
        del group.events[before:]
        aggregated.update(bucket.unflatten(self._ensure_flat(reduced, bucket)))
    self.apply_aggregated_gradients(aggregated)
    return StepResult(losses, bucket_events)


def record(monkeypatch, step=None):
    """Record each step's losses, aggregates, residuals and staging target.

    ``step`` replaces ``train_step`` (default: the real one).  Each entry of
    the returned list is one step: ``(losses, aggregates, residuals, lent)``,
    where ``lent`` says, per bucket, whether ``aggregate`` saw the residual
    itself as the bucket's matrix.
    """
    steps, lent = [], []
    train_step = step or DistributedDataParallel.train_step
    aggregate = CodecCompressor.aggregate

    def spying_aggregate(self, bucket, group, iteration=0):
        lent.append(bucket.matrix is self._residuals.get(bucket.index))
        result = aggregate(self, bucket, group, iteration)
        steps[-1][1].append(np.array(result, copy=True))
        return result

    def recording_step(self, *args, **kwargs):
        steps.append(([], [], [], None))
        lent.clear()
        result = train_step(self, *args, **kwargs)
        losses, aggregates, residuals, _ = steps[-1]
        losses.extend(result.per_rank_loss)
        residuals.extend(
            np.array(self.compressor._residuals.get(bucket.index), copy=True) for bucket in self.buckets
        )
        steps[-1] = (losses, aggregates, residuals, tuple(lent))
        return result

    monkeypatch.setattr(DistributedDataParallel, "train_step", recording_step)
    monkeypatch.setattr(CodecCompressor, "aggregate", spying_aggregate)
    return steps


def assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def arena_bytes(arena: GradientArena) -> int:
    """Bytes of the matrices the arena has allocated (or been lent)."""
    return sum(matrix.nbytes for matrix in arena._matrices if matrix is not None)


def small_config(dtype="float64", faults=None, **overrides) -> ExperimentConfig:
    base = dict(
        model="resnet18",
        cluster=ClusterSpec(world_size=4, bandwidth="100Mbps", faults=faults),
        epochs=2, batch_size=2, dataset_samples=40, image_size=8,
        pretrain_iterations=1, max_iterations_per_epoch=4,
        bucket_cap_bytes=16 * 1024, seed=0, dtype=dtype,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --------------------------------------------------------------------------- #
# The loan at the compressor seam
# --------------------------------------------------------------------------- #
class TestLendResidual:
    @pytest.mark.parametrize("spec", ["topk-0.01", "ef+terngrad", "ef+fp16"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_a_lent_residual_aggregates_like_a_copied_matrix(self, spec, dtype):
        """Adding the step's gradients into the lent residual and handing it
        over equals handing over a copy: same results, residuals and stats."""
        layout = Bucket(index=0, slices=[BucketSlice("w", 0, 300, (300,))])
        copied, lent = build_compressor(spec), build_compressor(spec)
        rng = np.random.default_rng(0)
        for step in range(4):
            grads = rng.standard_normal((4, 300)).astype(dtype)
            grads[rng.random(grads.shape) < 0.3] = -0.0
            want = copied.aggregate(GradBucket(layout, grads.copy()), ProcessGroup(4), step)
            residual = lent.lend_residual(0, grads.shape, grads.dtype)
            np.add(grads, residual, out=residual)
            got = lent.aggregate(GradBucket(layout, residual), ProcessGroup(4), step)
            assert lent._residuals.get(0) is residual
            assert_same_bytes(np.asarray(got), np.asarray(want), f"{spec} step {step}: result")
            assert_same_bytes(lent._residuals.get(0), copied._residuals.get(0), f"{spec} step {step}: residual")
        assert lent.stats == copied.stats

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_staging_into_a_lent_matrix_equals_copy_then_compensate(self, dtype):
        """``write_world`` / ``write_rank`` into a lent matrix give the bytes
        of staging by copy and then ``residual += matrix``: a missing
        gradient adds zero, so a ``-0.0`` residual turns ``+0.0`` as well."""
        layout = Bucket(index=0, slices=[
            BucketSlice("a", 0, 6, (2, 3)), BucketSlice("b", 6, 4, (4,)),
        ])
        rng = np.random.default_rng(1)
        start = rng.standard_normal((3, 10)).astype(dtype)
        start[:, ::2] = -0.0
        stacks = {"a": rng.standard_normal((3, 3, 2)).astype(dtype).swapaxes(1, 2)}
        owned = GradientArena([layout], 3, dtype=dtype)
        owned.write_world(stacks)
        want = start.copy()
        np.add(owned.matrix(0), want, out=want)
        for stage in ("world", "rank"):
            residual = start.copy()
            lent = GradientArena([layout], 3, dtype=dtype, lent=[residual])
            if stage == "world":
                lent.write_world(stacks)
            else:
                for rank in range(3):
                    lent.write_rank(rank, {name: g[rank] for name, g in stacks.items()})
            assert lent.matrix(0) is residual
            assert_same_bytes(residual, want, f"{dtype} write_{stage}")

    def test_only_error_feedback_has_a_residual_to_lend(self):
        with pytest.raises(ValueError, match="no error-feedback residual"):
            build_compressor("all-reduce").lend_residual(0, (4, 10), np.float64)


# --------------------------------------------------------------------------- #
# The staging target
# --------------------------------------------------------------------------- #
class TestStagingTarget:
    def _vgg19_run(self, method, monkeypatch):
        config = ExperimentConfig(
            model="vgg19", cluster=ClusterSpec(world_size=8, bandwidth="100Mbps"),
            epochs=1, batch_size=2, dataset_samples=32, image_size=8,
            pretrain_iterations=1, max_iterations_per_epoch=2, seed=0,
        )
        steps = record(monkeypatch)
        return train_distributed(config, PAPER_METHODS[method]), steps

    def test_a_topk_run_stages_into_the_residuals_and_never_allocates_the_arena(self, monkeypatch):
        run, steps = self._vgg19_run("topk-0.01", monkeypatch)
        assert steps and all(lent and all(lent) for *_, lent in steps)
        assert all(len(lent) == len(run.ddp.buckets) for *_, lent in steps)
        assert arena_bytes(run.ddp.arena) == 0
        assert run.ddp.staging is run.ddp.arena  # the loan ends with the step
        for bucket in run.ddp.buckets:
            assert run.compressor._residuals.get(bucket.index).shape == (8, bucket.numel)

    def test_an_all_reduce_run_stages_into_the_arena(self, monkeypatch):
        run, steps = self._vgg19_run("all-reduce", monkeypatch)
        assert steps and not any(any(lent) for *_, lent in steps)
        ddp = run.ddp
        assert arena_bytes(ddp.arena) == sum(8 * b.numel * 8 for b in ddp.buckets)
        assert all(run.compressor._residuals.get(b.index) is None for b in ddp.buckets)

    @pytest.mark.parametrize("method", ["all-reduce", "topk-0.01"])
    def test_a_slowed_link_stages_like_the_healthy_world(self, method, monkeypatch):
        """``link:0.5@0``: the bucket matrix is the staging target itself (the
        arena for all-reduce, the residual for top-k), not a survivor copy, and
        the group is the healthy world's, while the driver prices the
        collectives on the slowed link's cost model."""
        seen = []
        aggregate = CodecCompressor.aggregate

        def spying_aggregate(self, bucket, group, iteration=0):
            seen.append((bucket.index, bucket.matrix, group, self._residuals.get(bucket.index)))
            return aggregate(self, bucket, group, iteration)

        monkeypatch.setattr(CodecCompressor, "aggregate", spying_aggregate)
        run = train_distributed(small_config(faults="link:0.5@0"), PAPER_METHODS[method])
        ddp = run.ddp
        assert seen
        for index, matrix, group, residual in seen:
            assert group is ddp.active_group and group is ddp.process_group
            if method == "all-reduce":
                assert matrix is ddp.arena.matrix(index)
            else:
                assert matrix is residual
        assert ddp.active_ranks == [0, 1, 2, 3]
        healthy = train_distributed(small_config(), PAPER_METHODS[method]).result()
        assert run.result().simulated_time > healthy.simulated_time

    def test_a_gse_mask_stages_into_the_arena(self, monkeypatch):
        steps = record(monkeypatch)
        run = train_distributed(small_config(), EF_GSE)
        assert steps and not any(any(lent) for *_, lent in steps)
        assert arena_bytes(run.ddp.arena) > 0


# --------------------------------------------------------------------------- #
# The copy-then-compensate oracle
# --------------------------------------------------------------------------- #
def _faults(kind: str, dtype: str):
    """The cell's fault plan; crash/re-join times are fractions of a healthy run."""
    if kind in ("healthy", "gse"):
        return None
    if kind == "link":
        return "link:0.5@0"
    total = train_distributed(small_config(dtype), PAPER_METHODS["topk-0.01"]).timeline.total_time
    plan = f"crash:1@{total * 0.3:.9g},rejoin:1@{total * 0.6:.9g}"
    return plan if kind == "carry" else plan + ",policy:zero"


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kind", ["gse", "healthy", "link", "carry", "zero"])
def test_error_feedback_equals_the_copy_then_compensate_step(kind, dtype, monkeypatch):
    method = EF_GSE if kind == "gse" else PAPER_METHODS["topk-0.01"]
    config = small_config(dtype, faults=_faults(kind, dtype))
    runs, steps = {}, {}
    for path, step in (("staged", None), ("reference", reference_train_step)):
        with monkeypatch.context() as patch:
            steps[path] = record(patch, step)
            runs[path] = train_distributed(config, method)

    staged, reference = steps["staged"], steps["reference"]
    assert len(staged) == len(reference) >= 4
    lent = [all(flags) for *_, flags in staged]
    if kind == "gse":
        assert not any(lent)
    elif kind in ("healthy", "link"):
        assert all(lent)
    else:  # lent, then the arena while rank 1 is down, then lent again
        first_arena, last_arena = lent.index(False), len(lent) - 1 - lent[::-1].index(False)
        assert first_arena > 0 and last_arena < len(lent) - 1
        assert not any(lent[first_arena : last_arena + 1])
    assert not any(any(flags) for *_, flags in reference)

    np_dtype = np.dtype(dtype)
    for i, (got, want) in enumerate(zip(staged, reference)):
        assert got[0] == want[0], f"step {i}: losses"
        assert len(got[1]) == len(want[1]) and len(got[2]) == len(want[2])
        for b, (g, w) in enumerate(zip(got[1], want[1])):
            assert_same_bytes(g, w, f"step {i} bucket {b}: aggregate")
        for b, (g, w) in enumerate(zip(got[2], want[2])):
            assert g.dtype == np_dtype
            assert_same_bytes(g, w, f"step {i} bucket {b}: residual")
    assert runs["staged"].result().to_dict() == runs["reference"].result().to_dict()
    want = dict(runs["reference"].model.named_parameters())
    for name, param in runs["staged"].model.named_parameters():
        assert_same_bytes(param.data, want[name].data, name)
    want = dict(runs["reference"].model.named_buffers())
    for name, buffer in runs["staged"].model.named_buffers():
        assert_same_bytes(np.asarray(buffer), np.asarray(want[name]), name)
    if kind in ("carry", "zero"):
        assert runs["staged"].result().degraded_iterations > 0


def test_policy_zero_and_carry_differ():
    """The two re-join policies really move different residuals through the seam."""
    total = train_distributed(small_config(), PAPER_METHODS["topk-0.01"]).timeline.total_time
    plan = f"crash:1@{total * 0.3:.9g},rejoin:1@{total * 0.6:.9g}"
    carry = train_distributed(small_config(faults=plan), PAPER_METHODS["topk-0.01"])
    zero = train_distributed(small_config(faults=plan + ",policy:zero"), PAPER_METHODS["topk-0.01"])
    assert carry.result().loss_trace != zero.result().loss_trace

