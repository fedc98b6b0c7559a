"""Driver-level error feedback (the ``"ef+"`` spec modifier).

Covers the invariants end to end:

* the residual contract ``residual = input - decode(own payload)`` per
  (bucket, rank), and its aggregate form ``mean(residual) = mean(input) -
  aggregate`` for reduce-linear pipelines;
* residual state surviving DDP's staging and bucket reuse across
  iterations (the buffers are owned by the compressor, never views into the
  arena; ``tests/test_ef_staging.py`` covers the steps that stage into them);
* EF-compressed training matching uncompressed SGD on a convex toy problem.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import ProcessGroup
from repro.compression import (
    CodecCompressor,
    build_compressor,
    exact_average,
)
from repro.compression.codec import (
    Pipeline,
    Ternarize,
    TopK,
    parse_compressor_spec,
)
from repro.ddp import DistributedDataParallel
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.nn.models import mlp_tiny
from repro.simulation.experiment import MethodSpec
from repro.tensorlib import functional as F


def make_bucket(buffers, index=0):
    numel = buffers[0].size
    layout = Bucket(index=index, slices=[BucketSlice("w", 0, numel, (numel,))])
    return GradBucket(layout, np.stack(buffers))


# --------------------------------------------------------------------------- #
# Spec grammar
# --------------------------------------------------------------------------- #
class TestEfSpecGrammar:
    def test_ef_prefix_builds_error_feedback_compressor(self):
        compressor = build_compressor("ef+topk0.01")
        assert isinstance(compressor, CodecCompressor)
        assert compressor.error_feedback
        assert compressor.name == "ef+topk0.01"
        # Stage-internal EF is off: the driver owns the one residual.
        assert not compressor.pipeline.stages[0].error_feedback

    def test_ef_requires_stages(self):
        with pytest.raises(KeyError, match="no stages"):
            parse_compressor_spec("ef")
        with pytest.raises(KeyError, match="unknown compressor"):
            build_compressor("ef")

    def test_ef_is_not_a_mid_pipeline_stage(self):
        with pytest.raises(KeyError, match="lead the spec"):
            parse_compressor_spec("topk0.01+ef")
        # Through the registry the same spec fails as an unknown compressor.
        with pytest.raises(KeyError, match="unknown compressor"):
            build_compressor("topk0.01+ef")

    def test_parse_compressor_spec_round_trip(self):
        pipeline, ef = parse_compressor_spec("ef+topk0.05+terngrad")
        assert ef and pipeline.name == "topk0.05+terngrad"
        pipeline, ef = parse_compressor_spec("terngrad")
        assert not ef and pipeline.name == "terngrad"

    def test_method_spec_error_feedback_field(self):
        method = MethodSpec(name="s", compressor="fp16", error_feedback=True)
        compressor = method.build_compressor()
        assert compressor.error_feedback
        assert compressor.name.startswith("ef+")
        # Idempotent with a spec-level ef token.
        both = MethodSpec(name="s", compressor="ef+fp16", error_feedback=True)
        assert both.build_compressor().name == "ef+fp16"

    def test_method_spec_error_feedback_rejects_pactrain(self):
        # Both forced arms fail loudly — False must not be silently ignored
        # (the cell would be renamed "-noef" while running unchanged).
        for flag in (True, False):
            with pytest.raises(ValueError, match="not supported for PacTrain"):
                MethodSpec(
                    name="p", compressor="pactrain", error_feedback=flag
                ).build_compressor()
        assert MethodSpec(name="p", compressor="pactrain").build_compressor()

    def test_forcing_ef_off_restores_name(self):
        """An ef-built compressor forced off must not run uncompensated under
        an 'ef+' name, and re-enabling brings the prefix back."""
        method = MethodSpec(name="tk", compressor="ef+topk0.1", error_feedback=False)
        compressor = method.build_compressor()
        assert not compressor.error_feedback
        assert not compressor.pipeline.stages[0].error_feedback
        assert compressor.name == "topk0.1"
        compressor.set_error_feedback(True)
        assert compressor.error_feedback
        assert not compressor.pipeline.stages[0].error_feedback
        assert compressor.name == "ef+topk0.1"

    def test_switching_error_feedback_off_drops_the_residual_and_the_prefix(self):
        """Off means uncompensated from the next step: no stale residual is fed back."""
        compressor = build_compressor("ef+fp16")
        rng = np.random.default_rng(3)
        compressor.aggregate(
            make_bucket([rng.standard_normal(64) for _ in range(2)]), ProcessGroup(2)
        )
        assert compressor._residuals.get(0) is not None
        compressor.set_error_feedback(False)
        assert not compressor.error_feedback and not compressor._residuals
        assert compressor.name == "fp16"
        compressor.aggregate(
            make_bucket([rng.standard_normal(64) for _ in range(2)]), ProcessGroup(2)
        )
        assert not compressor._residuals

    def test_switching_error_feedback_on_twice_keeps_one_prefix(self):
        compressor = build_compressor("topk0.1")
        compressor.set_error_feedback(True)
        compressor.set_error_feedback(True)
        assert compressor.error_feedback and compressor.name == "ef+topk0.1"
        compressor.set_error_feedback(False)
        assert not compressor.error_feedback and compressor.name == "topk0.1"

    def test_ef_rejects_self_compensating_dgc(self):
        """DGC's accumulation *is* error feedback; layering or stripping the
        driver residual around it would double-count or misreport."""
        with pytest.raises(ValueError, match="accumulates unsent gradient mass"):
            build_compressor("ef+dgc-0.01")
        for flag in (True, False):
            with pytest.raises(ValueError, match="accumulates unsent gradient mass"):
                MethodSpec(
                    name="d", compressor="dgc-0.01", error_feedback=flag
                ).build_compressor()
        # The tri-state default leaves DGC exactly as the paper runs it.
        assert MethodSpec(name="d", compressor="dgc-0.01").build_compressor()

# --------------------------------------------------------------------------- #
# Residual invariants
# --------------------------------------------------------------------------- #
class TestResidualInvariant:
    def test_residual_is_input_minus_own_decode(self):
        """residual[rank] == input[rank] - decode(rank's own payload), exactly.

        A twin pipeline with the same seed replays the stochastic encoding
        outside the compressor to recover each rank's own decode.
        """
        rng = np.random.default_rng(0)
        world, numel = 4, 400
        buffers = [rng.standard_normal(numel) for _ in range(world)]

        compressor = build_compressor("ef+terngrad", seed=3)
        compressor.aggregate(make_bucket(buffers), ProcessGroup(world))

        twin = Pipeline([Ternarize(seed=3)])
        payloads = twin.encode_all([b.copy() for b in buffers])
        residual = compressor._residuals.get(0)
        assert residual is not None and residual.shape == (world, numel)
        for rank in range(world):
            decoded = twin.decode(payloads[rank])
            np.testing.assert_array_equal(residual[rank], buffers[rank] - decoded)

    def test_mean_residual_closes_the_aggregate(self):
        """mean(input) == aggregate + mean(residual) for reduce-linear pipelines."""
        rng = np.random.default_rng(1)
        world, numel = 3, 257
        for spec in ("ef+terngrad", "ef+topk0.05"):
            compressor = build_compressor(spec)
            buffers = [rng.standard_normal(numel) for _ in range(world)]
            aggregated = compressor.aggregate(make_bucket(buffers), ProcessGroup(world))
            residual = compressor._residuals.get(0)
            np.testing.assert_allclose(
                exact_average(buffers),
                aggregated + residual.mean(axis=0),
                atol=1e-9,
                err_msg=spec,
            )

    @pytest.mark.parametrize("spec", ["ef+topk0.25", "ef+terngrad", "ef+topk0.25+terngrad"])
    def test_constant_gradient_stays_bounded_and_conserves_mass(self, spec):
        """Over many steps nothing is lost or amplified: what has not been
        delivered yet is still pending in the residual."""
        compressor = build_compressor(spec, seed=0)
        group = ProcessGroup(4)
        total = np.zeros(200)
        peak = 0.0
        steps = 60
        for it in range(steps):
            out = compressor.aggregate(
                make_bucket([np.ones(200) for _ in range(4)]), group, iteration=it
            )
            total += out
            peak = max(peak, float(np.max(np.abs(out))))
        assert peak < 100.0
        np.testing.assert_allclose(
            total + compressor._residuals.get(0).mean(axis=0), float(steps), atol=1e-8
        )

    def test_residual_accumulates_until_coordinate_is_sent(self):
        """A small persistent gradient must eventually be transmitted."""
        compressor = build_compressor("ef+topk0.05")
        rng = np.random.default_rng(2)
        base = np.zeros(100)
        base[7] = 0.05
        spiky = rng.standard_normal(100) * 2.0
        spiky[7] = 0.0
        sent = False
        for it in range(30):
            result = compressor.aggregate(
                make_bucket([base.copy(), spiky.copy()]), ProcessGroup(2), iteration=it
            )
            if result[7] != 0:
                sent = True
                break
        assert sent


# --------------------------------------------------------------------------- #
# Residual state vs the DDP gradient arena
# --------------------------------------------------------------------------- #
class TestResidualSurvivesArena:
    def _step(self, ddp, rng):
        images = rng.standard_normal((4, 3, 8, 8))
        labels = rng.integers(0, 10, size=4)
        batches = [(images, labels) for _ in range(ddp.world_size)]
        return ddp.train_step(batches, F.cross_entropy)

    def test_residuals_never_alias_the_arena_and_persist_across_steps(self):
        model = mlp_tiny(num_classes=10, seed=0)
        compressor = build_compressor("ef+topk0.01")
        ddp = DistributedDataParallel(
            model, world_size=4, comm_hook=compressor, bucket_cap_bytes=8 * 1024
        )
        assert len(ddp.buckets) > 1, "multi-bucket layout needed for bucket reuse"
        rng = np.random.default_rng(0)

        self._step(ddp, rng)
        first = {
            b.index: compressor._residuals.get(b.index).copy() for b in ddp.buckets
        }
        for bucket in ddp.buckets:
            residual = compressor._residuals.get(bucket.index)
            assert residual is not None
            assert residual.shape == (4, bucket.numel)
            assert not ddp.arena.shares_memory_with(residual)
            assert np.any(residual != 0.0)

        # The next iteration stages into the residuals themselves (the arena
        # stays unallocated); they evolve only through the EF update.
        self._step(ddp, rng)
        for bucket in ddp.buckets:
            after = compressor._residuals.get(bucket.index)
            assert not ddp.arena.shares_memory_with(after)
            assert not np.array_equal(after, first[bucket.index])

    def test_ef_aggregate_result_does_not_alias_arena_or_residual(self):
        model = mlp_tiny(num_classes=10, seed=1)
        compressor = build_compressor("ef+terngrad")
        ddp = DistributedDataParallel(model, world_size=2, comm_hook=compressor)
        rng = np.random.default_rng(1)
        self._step(ddp, rng)
        for name, param in model.named_parameters():
            assert not ddp.arena.shares_memory_with(param.grad), name
            for bucket in ddp.buckets:
                assert not np.shares_memory(param.grad, compressor._residuals.get(bucket.index))


# --------------------------------------------------------------------------- #
# Convex toy problem: EF recovers plain SGD
# --------------------------------------------------------------------------- #
class TestConvexToyProblem:
    @staticmethod
    def _problem(seed=0, world=4, dim=50, per_rank=32):
        rng = np.random.default_rng(seed)
        designs = [rng.standard_normal((per_rank, dim)) for _ in range(world)]
        x_true = rng.standard_normal(dim)
        targets = [a @ x_true + 0.01 * rng.standard_normal(per_rank) for a in designs]
        return designs, targets, dim, world, per_rank

    def _train(self, compressor, designs, targets, dim, world, per_rank,
               steps=300, lr=0.02):
        weights = np.zeros(dim)
        group = ProcessGroup(world)
        for it in range(steps):
            grads = [
                a.T @ (a @ weights - b) / per_rank for a, b in zip(designs, targets)
            ]
            if compressor is None:
                grad = exact_average(grads)
            else:
                grad = compressor.aggregate(make_bucket(grads), group, iteration=it)
            weights = weights - lr * grad
        return weights

    def test_ef_compressed_training_matches_uncompressed_sgd(self):
        problem = self._problem()
        w_sgd = self._train(None, *problem)
        scale = np.linalg.norm(w_sgd)
        for spec, tol in (("ef+topk0.1", 0.05), ("ef+topk0.1+terngrad", 0.05)):
            w = self._train(build_compressor(spec), *problem)
            assert np.linalg.norm(w - w_sgd) <= tol * scale, spec

    def test_ef_beats_no_ef_on_biased_compressors(self):
        problem = self._problem()
        w_sgd = self._train(None, *problem)
        for ratio in (0.05, 0.1):
            w_ef = self._train(build_compressor(f"ef+topk{ratio}"), *problem)
            w_raw = self._train(
                CodecCompressor(Pipeline([TopK(ratio, error_feedback=False)])), *problem
            )
            assert np.linalg.norm(w_ef - w_sgd) < np.linalg.norm(w_raw - w_sgd), ratio
