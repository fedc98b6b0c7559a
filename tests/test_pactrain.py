"""PacTrain core: Mask Tracker, adaptive compressor, and the method spec of a cell."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.comm import NetworkModel, ProcessGroup
from repro.comm.network import MBPS
from repro.compression import build_compressor
from repro.compression.base import exact_average
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.campaign import CampaignSpec
from repro.pactrain import MaskTracker, PacTrainCompressor
from repro.simulation import PAPER_METHODS, ClusterSpec, ExperimentConfig, MethodSpec, pricing, run_experiment
from repro.simulation.spec import PACTRAIN_FP32


def make_bucket(buffers, index=0):
    numel = buffers[0].size
    layout = Bucket(index=index, slices=[BucketSlice("w", 0, numel, (numel,))])
    return GradBucket(layout, np.stack(buffers))


def masked_buffers(rng, world_size=4, numel=400, density=0.3):
    """Per-rank gradients sharing one sparsity pattern (what GSE produces)."""
    mask = rng.random(numel) < density
    return [rng.standard_normal(numel) * mask for _ in range(world_size)], mask


class TestMaskTracker:
    def test_first_update_is_not_stable(self, rng):
        tracker = MaskTracker(stability_threshold=2)
        state = tracker.update(0, rng.random(50) < 0.3)
        assert not state.stable
        assert state.consecutive_stable == 1

    def test_becomes_stable_after_threshold(self, rng):
        tracker = MaskTracker(stability_threshold=3)
        pattern = rng.random(100) < 0.3
        verdicts = [tracker.update(0, pattern).stable for _ in range(4)]
        assert verdicts == [False, False, True, True]

    def test_new_nonzero_coordinate_resets_streak(self, rng):
        tracker = MaskTracker(stability_threshold=2)
        pattern = np.zeros(20, dtype=bool)
        pattern[:5] = True
        tracker.update(0, pattern)
        assert tracker.update(0, pattern).stable
        grown = pattern.copy()
        grown[10] = True
        state = tracker.update(0, grown)
        assert state.consecutive_stable == 1
        assert not state.stable
        # Tracked mask widens to include the new coordinate.
        assert state.mask[10]

    def test_subset_pattern_does_not_reset(self, rng):
        """A coordinate that happens to be zero one iteration must not reset
        stability — compacting with the superset mask stays lossless."""
        tracker = MaskTracker(stability_threshold=2)
        pattern = np.zeros(20, dtype=bool)
        pattern[:8] = True
        tracker.update(0, pattern)
        subset = pattern.copy()
        subset[3] = False
        state = tracker.update(0, subset)
        assert state.consecutive_stable == 2
        assert state.mask[3]  # superset retained

    def test_dense_pattern_never_stable(self):
        tracker = MaskTracker(stability_threshold=1)
        dense = np.ones(100, dtype=bool)
        assert not tracker.update(0, dense).stable

    def test_buckets_tracked_independently(self, rng):
        tracker = MaskTracker(stability_threshold=2)
        a = rng.random(30) < 0.4
        b = rng.random(30) < 0.4
        tracker.update(0, a)
        state_b = tracker.update(1, b)
        state_a = tracker.update(0, a)
        assert state_a.stable and state_a.consecutive_stable == 2
        assert not state_b.stable and state_b.consecutive_stable == 1
        assert len(tracker._previous) == 2

    def test_update_from_rank_gradients_takes_union(self):
        tracker = MaskTracker(stability_threshold=1)
        g1 = np.array([1.0, 0.0, 0.0, 2.0])
        g2 = np.array([0.0, 0.0, 3.0, 1.0])
        state = tracker.update_from_rank_gradients(0, [g1, g2])
        np.testing.assert_array_equal(state.mask, [True, False, True, True])

    def test_validation(self):
        with pytest.raises(ValueError):
            MaskTracker(stability_threshold=0)
        with pytest.raises(ValueError):
            MaskTracker().update_from_rank_gradients(0, [])


class TestPacTrainCompressor:
    def test_falls_back_to_full_sync_before_stability(self, rng):
        compressor = PacTrainCompressor(stability_threshold=3)
        buffers, _ = masked_buffers(rng)
        group = ProcessGroup(4)
        result = compressor.aggregate(make_bucket(buffers), group)
        np.testing.assert_allclose(result, exact_average(buffers), atol=1e-12)
        assert compressor.full_iterations == 1
        assert compressor.compact_iterations == 0

    def test_compact_path_is_lossless_on_masked_gradients(self, rng):
        """The paper's central claim: with a stable shared mask, compression is
        exact — no information about the (masked) gradient is lost."""
        compressor = PacTrainCompressor(stability_threshold=2, quantize=False)
        group = ProcessGroup(4)
        mask = rng.random(300) < 0.25
        for _ in range(5):
            buffers = [rng.standard_normal(300) * mask for _ in range(4)]
            result = compressor.aggregate(make_bucket(buffers), group)
            np.testing.assert_allclose(result, exact_average(buffers), atol=1e-12)
        assert compressor.compact_iterations >= 3

    def test_compact_path_reduces_wire_bytes(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1)
        group = ProcessGroup(4)
        mask = rng.random(1000) < 0.2
        for _ in range(3):
            buffers = [rng.standard_normal(1000) * mask for _ in range(4)]
            compressor.aggregate(make_bucket(buffers), group)
        # After the first (full) sync, only ~20% of elements travel.
        assert compressor.stats.compression_ratio > 2.0

    def test_compact_comm_time_is_lower_than_full(self, rng):
        network = NetworkModel.from_bandwidth(4, 100 * MBPS, latency=0.0)
        mask = rng.random(4000) < 0.1
        buffers = [rng.standard_normal(4000) * mask for _ in range(4)]

        baseline_group = ProcessGroup(4)
        build_compressor("allreduce").aggregate(make_bucket(buffers), baseline_group)

        compressor = PacTrainCompressor(stability_threshold=1)
        pac_group = ProcessGroup(4)
        compressor.aggregate(make_bucket(buffers), pac_group)   # full sync
        pac_group.pop_events()
        compressor.aggregate(make_bucket(buffers), pac_group)   # compact sync
        compact_time = pricing.comm_time(network, pac_group.events)
        assert compact_time < pricing.comm_time(network, baseline_group.events) * 0.5

    def test_quantized_variant_keeps_masked_support(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1, quantize=True, seed=0)
        group = ProcessGroup(4)
        mask = rng.random(500) < 0.3
        result = None
        buffers = None
        for _ in range(3):
            buffers = [rng.standard_normal(500) * mask + mask * 0.5 for _ in range(4)]
            result = compressor.aggregate(make_bucket(buffers), group)
        assert result is not None
        np.testing.assert_array_equal(result[~mask], 0.0)
        # Quantisation is lossy but directionally correct w.r.t. the gradients
        # that were actually aggregated.
        exact = exact_average(buffers)
        cosine = np.dot(result, exact) / (np.linalg.norm(result) * np.linalg.norm(exact))
        assert cosine > 0.5

    def test_pattern_change_forces_full_sync_again(self, rng):
        compressor = PacTrainCompressor(stability_threshold=2)
        group = ProcessGroup(2)
        mask_a = rng.random(200) < 0.2
        for _ in range(3):
            buffers = [rng.standard_normal(200) * mask_a for _ in range(2)]
            compressor.aggregate(make_bucket(buffers), group)
        compact_before = compressor.compact_iterations
        assert compact_before > 0
        # New sparsity pattern: previously-pruned coordinates become active.
        mask_b = rng.random(200) < 0.6
        buffers = [rng.standard_normal(200) * mask_b for _ in range(2)]
        result = compressor.aggregate(make_bucket(buffers), group)
        np.testing.assert_allclose(result, exact_average(buffers), atol=1e-12)
        assert compressor.full_iterations >= 2

    def test_bitmask_synced_once_per_stable_mask(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1)
        group = ProcessGroup(4)
        mask = rng.random(100) < 0.3
        for _ in range(4):
            buffers = [rng.standard_normal(100) * mask for _ in range(4)]
            compressor.aggregate(make_bucket(buffers), group)
        assert compressor.stats.extra.get("bitmask_syncs", 0) == 1.0

    def test_each_compressor_starts_from_an_empty_tracker(self, rng):
        """Compressors are built per run: a new one syncs as the first run began."""
        buffers, _ = masked_buffers(rng, world_size=2)

        def first_syncs(compressor, steps=2):
            ops = []
            for _ in range(steps):
                group = ProcessGroup(2)
                compressor.aggregate(make_bucket(buffers), group)
                ops.append([event.op for event in group.events])
            return ops

        used = PacTrainCompressor(stability_threshold=2)
        began = first_syncs(used)
        counts = (used.full_iterations, used.compact_iterations)
        first_syncs(used)
        assert used.compact_iterations > 0
        fresh = PacTrainCompressor(stability_threshold=2)
        assert fresh.compact_iterations == fresh.full_iterations == 0
        assert not fresh.tracker._previous
        assert first_syncs(fresh) == began
        assert (fresh.full_iterations, fresh.compact_iterations) == counts

    def test_dense_gradients_never_use_compact_path(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1)  # the tracker's 0.05 guard
        group = ProcessGroup(2)
        for _ in range(4):
            buffers = [rng.standard_normal(100) for _ in range(2)]  # fully dense
            compressor.aggregate(make_bucket(buffers), group)
        assert compressor.compact_iterations == 0

    def test_allreduce_compatible_flag(self):
        assert PacTrainCompressor().allreduce_compatible
        assert PacTrainCompressor(quantize=False).lossless
        assert not PacTrainCompressor(quantize=True).lossless


class TestPacTrainSpec:
    """A PacTrain cell is one :class:`MethodSpec`; its fields are checked there."""

    def test_defaults_match_paper(self):
        method = PAPER_METHODS["pactrain"]
        assert method.compressor == "pactrain"
        assert method.pruning_ratio == pytest.approx(0.5)
        assert method.pruning_method == "magnitude"
        assert method.gse and method.quantize

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pruning_method", "grsap"),
            ("pruning_method", "l1-norm"),
            ("pruning_ratio", -0.2),
            ("pruning_ratio", 1.0),
            ("pruning_ratio", 1.5),
            ("stability_threshold", 0),
        ],
    )
    def test_a_bad_field_fails_at_construction_and_at_expansion(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(PAPER_METHODS["pactrain"], **{field: value})
        with pytest.raises(ValueError, match=field):
            CampaignSpec(axes={"method": ["pactrain"], field: [value]}).expand()

    @pytest.mark.parametrize(
        "option", [{"pruning_scope": "layer"}, {"reapply_weight_mask": False}, {"seed": 1}]
    )
    def test_options_that_did_nothing_are_gone(self, option):
        with pytest.raises(TypeError):
            MethodSpec(name="x", compressor="pactrain", **option)


class TestPacTrainCell:
    CONFIG = ExperimentConfig(
        model="mlp",
        cluster=ClusterSpec(world_size=2, bandwidth="100Mbps"),
        epochs=2,
        batch_size=16,
        dataset_samples=96,
        seed=0,
    )

    @pytest.fixture(scope="class")
    def pac(self):
        return run_experiment(self.CONFIG, dataclasses.replace(PACTRAIN_FP32, stability_threshold=2))

    def test_run_produces_sparse_model_and_positive_accuracy(self, pac):
        assert pac.weight_sparsity > 0.2
        assert pac.final_accuracy > 0.2
        assert pac.simulated_time > 0
        assert pac.comm_time > 0
        assert pac.extra["compact_iterations"] > 0

    def test_baseline_run_is_dense_and_slower(self, pac):
        base = run_experiment(self.CONFIG, PAPER_METHODS["all-reduce"])
        assert base.weight_sparsity < 0.05
        assert base.comm_time > pac.comm_time
