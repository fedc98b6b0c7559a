"""Driver-level error feedback and the signSGD / PowerSGD compressor families.

Covers the tentpole invariants end to end:

* the residual contract ``residual = input - decode(own payload)`` per
  (bucket, rank), and its aggregate form ``mean(residual) = mean(input) -
  aggregate`` for reduce-linear pipelines;
* residual state surviving DDP's preallocated gradient-arena staging and
  bucket reuse across iterations (the buffers are owned by the compressor,
  never views into the arena);
* EF-compressed training matching uncompressed SGD on a convex toy problem;
* the acceptance run: ``ef+topk0.01``, ``signsgd`` and ``powersgd-rank4``
  training ResNet-18 tiny-config in a 4-rank simulation, with every EF
  variant reaching at least its no-EF counterpart's final accuracy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.comm import ProcessGroup
from repro.compression import (
    CodecCompressor,
    build_compressor,
    exact_average,
    register_compressor,
)
from repro.compression.codec import (
    LowRank,
    LowRankPayload,
    Pipeline,
    Sign,
    SignPayload,
    TopK,
    parse_compressor_spec,
)
from repro.ddp import DistributedDataParallel
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.nn.models import mlp_tiny
from repro.simulation import ClusterSpec, ExperimentConfig, run_experiment
from repro.simulation.experiment import MethodSpec
from repro.tensorlib import functional as F


def make_bucket(buffers, index=0):
    numel = buffers[0].size
    layout = Bucket(index=index, slices=[BucketSlice("w", 0, numel, (numel,))])
    return GradBucket(layout, buffers)


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

    def test_powersgd_rank_tokens(self):
        for spec, rank in (("powersgd", 4), ("powersgd-rank2", 2), ("powersgd8", 8)):
            compressor = build_compressor(spec)
            assert compressor.pipeline.stages[0].rank == rank
        assert build_compressor("powersgd-rank4").allreduce_compatible
        assert build_compressor("signsgd").allreduce_compatible

    def test_parse_compressor_spec_round_trip(self):
        pipeline, ef = parse_compressor_spec("ef+powersgd-rank4")
        assert ef and pipeline.spec() == "powersgd-rank4"
        pipeline, ef = parse_compressor_spec("signsgd")
        assert not ef and pipeline.spec() == "signsgd"

    def test_method_spec_error_feedback_field(self):
        method = MethodSpec(name="s", compressor="signsgd", error_feedback=True)
        compressor = method.build_compressor()
        assert compressor.error_feedback
        assert compressor.name.startswith("ef+")
        # Idempotent with a spec-level ef token.
        both = MethodSpec(name="s", compressor="ef+signsgd", error_feedback=True)
        assert both.build_compressor().name == "ef+signsgd"

    def test_method_spec_error_feedback_rejects_pactrain(self):
        # Both forced arms fail loudly — False must not be silently ignored
        # (the cell would be renamed "-noef" while running unchanged).
        for flag in (True, False):
            with pytest.raises(ValueError, match="not supported for PacTrain"):
                MethodSpec(
                    name="p", compressor="pactrain", error_feedback=flag
                ).build_compressor()
        assert MethodSpec(name="p", compressor="pactrain").build_compressor()

    def test_forcing_ef_off_restores_rescale_and_name(self):
        """An ef-built random-k forced off must be unbiased again, not left
        both uncompensated and shrunk by k/n under an 'ef+' name."""
        method = MethodSpec(name="rk", compressor="ef+randomk0.1", error_feedback=False)
        compressor = method.build_compressor()
        assert not compressor.error_feedback
        assert compressor.pipeline.stages[0].rescale is True
        assert not compressor.name.startswith("ef+")
        # Round trip: re-enabling disables the rescale again.
        compressor.enable_error_feedback()
        assert compressor.pipeline.stages[0].rescale is False
        assert compressor.name.startswith("ef+")

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

    def test_ef_disables_unbiased_rescale_and_stays_bounded(self):
        """Against a rescaled decode (random-k's numel/k factor) the residual
        update is an expansion — EF must run on the raw selection instead."""
        compressor = build_compressor("ef+randomk0.25")
        assert compressor.pipeline.stages[0].rescale is False

        grads = [np.ones(200) for _ in range(4)]
        group = ProcessGroup(4)
        total = np.zeros(200)
        peak = 0.0
        steps = 60
        for it in range(steps):
            out = compressor.aggregate(
                make_bucket([g.copy() for g in grads]), group, iteration=it
            )
            total += out
            peak = max(peak, float(np.max(np.abs(out))))
        # No blow-up (the pre-fix expansion reached ~1e4 within 30 steps), and
        # mass is conserved exactly: everything not yet delivered is still
        # pending in the residual.
        assert peak < 100.0
        np.testing.assert_allclose(
            total + compressor.residual(0).mean(axis=0),
            float(steps),
            atol=1e-8,
        )


# --------------------------------------------------------------------------- #
# Residual invariants
# --------------------------------------------------------------------------- #
class TestResidualInvariant:
    def test_residual_is_input_minus_own_decode(self):
        """residual[rank] == input[rank] - decode(rank's own payload), exactly.

        A deterministic twin pipeline (same seed, same warm start) replays the
        encoding outside the compressor to recover each rank's own decode.
        """
        rng = np.random.default_rng(0)
        world, numel = 4, 400
        buffers = [rng.standard_normal(numel) for _ in range(world)]

        compressor = build_compressor("ef+powersgd-rank2", seed=3)
        compressor.aggregate(make_bucket(buffers), ProcessGroup(world))

        twin = Pipeline([LowRank(rank=2, seed=3)])
        payloads = twin.encode_all([b.copy() for b in buffers])
        residual = compressor.residual(0)
        assert residual is not None and residual.shape == (world, numel)
        for rank in range(world):
            decoded = twin.decode(payloads[rank])
            np.testing.assert_array_equal(residual[rank], buffers[rank] - decoded)

    def test_mean_residual_closes_the_aggregate(self):
        """mean(input) == aggregate + mean(residual) for reduce-linear pipelines."""
        rng = np.random.default_rng(1)
        world, numel = 3, 257
        for spec in ("ef+powersgd-rank4", "ef+topk0.05"):
            compressor = build_compressor(spec)
            buffers = [rng.standard_normal(numel) for _ in range(world)]
            aggregated = compressor.aggregate(make_bucket(buffers), ProcessGroup(world))
            residual = compressor.residual(0)
            np.testing.assert_allclose(
                exact_average(buffers),
                aggregated + residual.mean(axis=0),
                atol=1e-9,
                err_msg=spec,
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

    def test_reset_clears_residuals(self):
        compressor = build_compressor("ef+signsgd")
        rng = np.random.default_rng(3)
        compressor.aggregate(
            make_bucket([rng.standard_normal(64) for _ in range(2)]), ProcessGroup(2)
        )
        assert compressor.residual(0) is not None
        compressor.reset()
        assert compressor.residual(0) is None
        assert compressor.stats.iterations == 0


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
            b.index: compressor.residual(b.index).copy() for b in ddp.buckets
        }
        for bucket in ddp.buckets:
            residual = compressor.residual(bucket.index)
            assert residual is not None
            assert residual.shape == (4, bucket.numel)
            assert not ddp.arena.shares_memory_with(residual)
            assert np.any(residual != 0.0)

        # The next iteration overwrites every arena row; the residuals must be
        # untouched by the staging and evolve only through the EF update.
        self._step(ddp, rng)
        for bucket in ddp.buckets:
            after = compressor.residual(bucket.index)
            assert not ddp.arena.shares_memory_with(after)
            assert not np.array_equal(after, first[bucket.index])

    def test_ef_aggregate_result_does_not_alias_arena_or_residual(self):
        model = mlp_tiny(num_classes=10, seed=1)
        compressor = build_compressor("ef+signsgd")
        ddp = DistributedDataParallel(model, world_size=2, comm_hook=compressor)
        rng = np.random.default_rng(1)
        self._step(ddp, rng)
        for name, param in model.named_parameters():
            assert not ddp.arena.shares_memory_with(param.grad), name
            for bucket in ddp.buckets:
                assert not np.shares_memory(param.grad, compressor.residual(bucket.index))


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
        for spec, tol in (("ef+topk0.1", 0.05), ("ef+powersgd-rank2", 0.05)):
            w = self._train(build_compressor(spec), *problem)
            assert np.linalg.norm(w - w_sgd) <= tol * scale, spec

    def test_ef_beats_no_ef_on_biased_compressors(self):
        problem = self._problem()
        w_sgd = self._train(None, *problem)
        for with_ef, without in (("ef+signsgd", "signsgd"),
                                 ("ef+powersgd-rank2", "powersgd-rank2")):
            w_ef = self._train(build_compressor(with_ef), *problem)
            w_raw = self._train(build_compressor(without), *problem)
            assert (
                np.linalg.norm(w_ef - w_sgd) < np.linalg.norm(w_raw - w_sgd)
            ), (with_ef, without)


# --------------------------------------------------------------------------- #
# Acceptance: ResNet-18 tiny-config, 4 ranks, end to end
# --------------------------------------------------------------------------- #
class TestEndToEndResnet18:
    CONFIG = ExperimentConfig(
        model="resnet18",
        cluster=ClusterSpec(world_size=4, bandwidth="100Mbps"),
        epochs=8,
        batch_size=8,
        dataset_samples=128,
        pretrain_iterations=3,
        noise_std=0.3,
        lr=0.05,
        momentum=0.0,
        seed=0,
    )

    @classmethod
    def _run(cls, name):
        return run_experiment(cls.CONFIG, MethodSpec(name=name, compressor=name))

    def test_new_families_train_end_to_end_and_ef_matches_or_beats_no_ef(self):
        register_compressor(
            "topk0.01-noef",
            lambda seed=None: CodecCompressor(
                Pipeline([TopK(0.01, error_feedback=False)]), name="topk0.01-noef"
            ),
        )
        results = {
            name: self._run(name)
            for name in (
                "allreduce",
                "topk0.01-noef",
                "ef+topk0.01",
                "signsgd",
                "ef+signsgd",
                "powersgd-rank4",
                "ef+powersgd-rank4",
            )
        }
        for name, result in results.items():
            assert result.iterations_run > 0, name
            assert result.comm_bytes_per_worker > 0, name
            assert 0.0 <= result.final_accuracy <= 1.0, name

        # Every EF variant reaches at least its no-EF counterpart's accuracy.
        for ef_name, raw_name in (
            ("ef+topk0.01", "topk0.01-noef"),
            ("ef+signsgd", "signsgd"),
            ("ef+powersgd-rank4", "powersgd-rank4"),
        ):
            assert (
                results[ef_name].final_accuracy >= results[raw_name].final_accuracy
            ), (ef_name, results[ef_name].final_accuracy, raw_name,
                results[raw_name].final_accuracy)

        # Wire accounting: signSGD moves ~1/32 of the dense volume (1 bit per
        # coordinate + one scale per bucket sync), PowerSGD (m+n)r/(mn).
        dense = results["allreduce"].comm_bytes_per_worker
        assert results["signsgd"].comm_bytes_per_worker < dense / 25
        assert results["powersgd-rank4"].comm_bytes_per_worker < dense / 25

    def test_sign_payload_wire_cost_is_one_bit_per_coordinate_plus_scale(self):
        for numel in (1, 7, 8, 9, 1000, 4097):
            payload = SignPayload.from_values(np.ones(numel))
            assert payload.nbytes == math.ceil(numel / 8) + 4.0

    def test_lowrank_payload_wire_cost_is_m_plus_n_times_rank(self):
        numel = 1000
        m, n = LowRank.matrix_shape(numel)
        payload = Pipeline([LowRank(rank=4)]).encode(np.ones(numel))
        assert isinstance(payload, LowRankPayload)
        assert payload.nbytes == (m + n) * 4 * 4.0

    def test_collectives_charge_sign_and_lowrank_payloads(self):
        rng = np.random.default_rng(0)
        world, numel = 4, 1000
        for spec, expected in (
            ("signsgd", math.ceil(numel / 8) + 4.0),
            ("powersgd-rank4", sum(LowRank.matrix_shape(numel)) * 4 * 4.0),
        ):
            group = ProcessGroup(world)
            compressor = build_compressor(spec)
            compressor.aggregate(
                make_bucket([rng.standard_normal(numel) for _ in range(world)]), group
            )
            event = group.events[-1]
            assert event.op == "all_reduce"
            assert event.bytes_per_worker == pytest.approx(
                2.0 * (world - 1) / world * expected
            )


class TestLowRankWarmStartRecovery:
    def test_zero_gradient_step_does_not_kill_the_bucket_forever(self):
        """A single all-zero bucket gradient (dead layer, frozen params) must
        not collapse the warm-started factor to zero permanently."""
        rng = np.random.default_rng(0)
        pipeline = Pipeline([LowRank(rank=2)])
        flat = rng.standard_normal(256)

        before = pipeline.decode(pipeline.encode(flat))
        assert np.any(before != 0.0)
        # One dead step: transmits zero (correct — the gradient was zero) ...
        dead = pipeline.decode(pipeline.encode(np.zeros(256)))
        np.testing.assert_array_equal(dead, 0.0)
        # ... and the next nonzero gradient still encodes to a real payload.
        after = pipeline.decode(pipeline.encode(flat))
        assert np.any(after != 0.0)
        assert np.sum((after - flat) ** 2) / np.sum(flat ** 2) < 1.0

    def test_rank_deficient_step_does_not_cap_effective_rank_forever(self):
        rng = np.random.default_rng(1)
        pipeline = Pipeline([LowRank(rank=4)])
        m, n = LowRank.matrix_shape(1024)
        # Exactly rank-1 step zeroes three p_hat/q columns this iteration.
        rank1 = (rng.standard_normal((m, 1)) @ rng.standard_normal((1, n))).reshape(-1)
        pipeline.decode(pipeline.encode(rank1))
        # A full-rank gradient afterwards must again use all four directions:
        # with a permanently capped rank the projection error would be the
        # rank-1 one; re-seeded columns bring it back in line with a fresh
        # rank-4 compressor (warm start can only help).
        full = rng.standard_normal(1024)
        fresh = Pipeline([LowRank(rank=4)])
        err_warm = np.sum((pipeline.decode(pipeline.encode(full)) - full) ** 2)
        err_capped = np.sum((Pipeline([LowRank(rank=1)]).decode(
            Pipeline([LowRank(rank=1)]).encode(full)) - full) ** 2)
        err_fresh = np.sum((fresh.decode(fresh.encode(full)) - full) ** 2)
        assert err_warm < err_capped
        assert err_warm <= err_fresh * 1.10


class TestSignMajorityVote:
    def test_majority_vote_is_sign_of_summed_codes(self):
        # Two +1 votes against one -1 vote on coordinate 0; reversed on 1.
        buffers = [
            np.array([1.0, -2.0]),
            np.array([3.0, -4.0]),
            np.array([-5.0, 6.0]),
        ]
        compressor = build_compressor("signsgd")
        result = compressor.aggregate(make_bucket(buffers), ProcessGroup(3))
        scales = [np.mean(np.abs(b)) for b in buffers]
        expected = np.mean(scales) * np.array([1.0, -1.0])
        np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_exact_tie_decodes_to_zero(self):
        buffers = [np.array([1.0]), np.array([-1.0])]
        result = build_compressor("signsgd").aggregate(
            make_bucket(buffers), ProcessGroup(2)
        )
        np.testing.assert_array_equal(result, [0.0])

    def test_sign_stage_rejects_non_dense_upstream(self):
        # Rejected when the pipeline is built, not inside the first encode.
        with pytest.raises(ValueError, match="signsgd"):
            Pipeline([TopK(0.5, error_feedback=False), Sign()])
