"""Gradient compressor baselines: correctness, cost accounting, registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import NetworkModel, ProcessGroup
from repro.comm.network import MBPS
from repro.compression import (
    COMPRESSOR_REGISTRY,
    CodecCompressor,
    build_compressor,
    register_compressor,
)
from repro.compression.base import exact_average
from repro.compression.codec import DGCSelect, Identity, RandomK, TopK, ternarize, top_k_indices
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.metrics import nmse


def make_bucket(buffers):
    numel = buffers[0].size
    layout = Bucket(index=0, slices=[BucketSlice("w", 0, numel, (numel,))])
    return GradBucket(layout, buffers)


@pytest.fixture
def buffers(rng):
    return [rng.standard_normal(512) for _ in range(4)]


@pytest.fixture
def group():
    return ProcessGroup(4, NetworkModel.from_bandwidth(4, 100 * MBPS, latency=0.0))


class TestNoCompression:
    def test_exact_average(self, buffers, group):
        result = build_compressor("allreduce").aggregate(make_bucket(buffers), group)
        np.testing.assert_allclose(result, exact_average(buffers), atol=1e-12)

    def test_flags(self):
        compressor = build_compressor("allreduce")
        assert compressor.allreduce_compatible
        assert compressor.lossless
        assert compressor.stats.compression_ratio == 1.0  # nothing recorded yet

    def test_compression_ratio_is_one(self, buffers, group):
        compressor = build_compressor("allreduce")
        compressor.aggregate(make_bucket(buffers), group)
        assert compressor.stats.compression_ratio == pytest.approx(1.0)


class TestFP16:
    def test_small_error(self, buffers, group):
        result = build_compressor("fp16").aggregate(make_bucket(buffers), group)
        assert 0.0 < nmse(exact_average(buffers), result) < 1e-5

    def test_halves_wire_bytes(self, buffers, group):
        compressor = build_compressor("fp16")
        compressor.aggregate(make_bucket(buffers), group)
        assert compressor.stats.compression_ratio == pytest.approx(2.0)

    def test_faster_than_fp32(self, buffers):
        network = NetworkModel.from_bandwidth(4, 100 * MBPS, latency=0.0)
        g32, g16 = ProcessGroup(4, network), ProcessGroup(4, network)
        build_compressor("allreduce").aggregate(make_bucket(buffers), g32)
        build_compressor("fp16").aggregate(make_bucket(buffers), g16)
        assert g16.total_time == pytest.approx(g32.total_time / 2)


class TestTopK:
    def test_top_k_indices_selects_largest_magnitudes(self):
        values = np.array([0.1, -5.0, 0.3, 4.0, -0.2])
        chosen = set(top_k_indices(values, 2).tolist())
        assert chosen == {1, 3}

    def test_top_k_indices_edge_cases(self):
        values = np.arange(4.0)
        assert top_k_indices(values, 10).size == 4
        assert top_k_indices(values, 0).size == 0

    def test_keeps_requested_fraction(self, buffers, group):
        compressor = CodecCompressor(TopK(ratio=0.1, error_feedback=False))
        result = compressor.aggregate(make_bucket(buffers), group)
        # Union over 4 ranks of 10% selections: between 10% and 40% non-zero.
        density = np.mean(result != 0)
        assert 0.05 < density <= 0.4

    def test_uses_allgather(self, buffers, group):
        compressor = build_compressor("topk-0.1")
        compressor.aggregate(make_bucket(buffers), group)
        assert not compressor.allreduce_compatible
        assert compressor.stats.allgather_calls == 1
        assert group.events[-1].op == "all_gather"

    def test_error_feedback_accumulates_unsent_mass(self, group, rng):
        compressor = build_compressor("ef+topk0.05")
        # A coordinate with small but persistent gradient must eventually be sent.
        base = np.zeros(100)
        base[7] = 0.05
        spiky = rng.standard_normal(100) * 2.0
        spiky[7] = 0.0
        sent_seven = False
        for _ in range(30):
            buffers = [base.copy(), spiky.copy()]
            result = compressor.aggregate(make_bucket(buffers), ProcessGroup(2))
            if result[7] != 0:
                sent_seven = True
                break
        assert sent_seven

    def test_invalid_ratio(self):
        for spec in ("topk0", "topk1.5", "ef+topk0", "topk-0+terngrad"):
            with pytest.raises(ValueError, match="ratio must be in"):
                build_compressor(spec)
        with pytest.raises(ValueError):
            TopK(ratio=0.0)

    def test_reset_clears_residuals(self, buffers, group):
        compressor = build_compressor("topk-0.1")
        compressor.aggregate(make_bucket(buffers), group)
        assert compressor._residuals
        compressor.reset()
        assert not compressor._residuals
        assert compressor.stats.iterations == 0


class TestRandomK:
    def test_selection_is_shared_across_ranks(self, buffers, group):
        compressor = CodecCompressor(RandomK(ratio=0.2, rescale=False))
        result = compressor.aggregate(make_bucket(buffers), group)
        exact = exact_average(buffers)
        nonzero = result != 0
        np.testing.assert_allclose(result[nonzero], exact[nonzero], atol=1e-12)
        assert np.mean(nonzero) == pytest.approx(0.2, abs=0.02)

    def test_allreduce_compatible(self, buffers, group):
        compressor = build_compressor("randomk")
        compressor.aggregate(make_bucket(buffers), group)
        assert compressor.allreduce_compatible
        assert compressor.stats.allgather_calls == 0

    def test_selection_changes_per_iteration(self, buffers, group):
        compressor = CodecCompressor(RandomK(ratio=0.1, rescale=False))
        a = compressor.aggregate(make_bucket(buffers), group, iteration=0)
        b = compressor.aggregate(make_bucket(buffers), group, iteration=1)
        assert not np.array_equal(a != 0, b != 0)


class TestTernGrad:
    def test_ternarize_values_are_ternary(self, rng):
        grad = rng.standard_normal(1000)
        quantised = ternarize(grad, rng=np.random.default_rng(0))
        scaler = np.max(np.abs(grad))
        unique = np.unique(quantised)
        for value in unique:
            assert value in (0.0, scaler, -scaler) or abs(value) == pytest.approx(scaler)

    def test_ternarize_is_unbiased_in_expectation(self):
        grad = np.full(20_000, 0.3)
        quantised = ternarize(grad, scaler=1.0, rng=np.random.default_rng(0))
        assert quantised.mean() == pytest.approx(0.3, abs=0.02)

    def test_ternarize_zero_input(self):
        np.testing.assert_array_equal(ternarize(np.zeros(10)), np.zeros(10))

    def test_aggregate_preserves_direction(self, group, rng):
        buffers = [rng.standard_normal(2000) + 0.5 for _ in range(4)]
        result = build_compressor("terngrad", seed=0).aggregate(make_bucket(buffers), group)
        exact = exact_average(buffers)
        cosine = np.dot(result, exact) / (np.linalg.norm(result) * np.linalg.norm(exact))
        assert cosine > 0.5

    def test_wire_bytes_are_two_bits_per_element(self, buffers, group):
        compressor = build_compressor("terngrad", seed=0)
        compressor.aggregate(make_bucket(buffers), group)
        assert compressor.stats.compression_ratio == pytest.approx(16.0)

    def test_allreduce_compatible(self):
        assert build_compressor("terngrad").allreduce_compatible


class TestDGC:
    def test_sparsity_of_output(self, buffers, group):
        compressor = build_compressor("dgc")
        result = compressor.aggregate(make_bucket(buffers), group)
        assert np.mean(result != 0) <= 0.04 + 1e-9  # at most world_size * ratio

    def test_momentum_correction_state_grows_then_clears(self, buffers, group):
        compressor = build_compressor("dgc")
        compressor.aggregate(make_bucket(buffers), group)
        stage = compressor.pipeline.stages[0]
        assert stage.momentum == 0.9
        assert stage._momentum and stage._accum
        compressor.reset()
        assert not stage._momentum

    def test_uses_allgather(self, buffers, group):
        compressor = build_compressor("dgc")
        compressor.aggregate(make_bucket(buffers), group)
        assert compressor.stats.allgather_calls == 1

    def test_clipping(self, group, rng):
        compressor = CodecCompressor(DGCSelect(ratio=0.5, clip_norm=1.0))
        huge = [rng.standard_normal(100) * 100 for _ in range(4)]
        result = compressor.aggregate(make_bucket(huge), group)
        assert np.linalg.norm(result) <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DGCSelect(ratio=0.0)
        with pytest.raises(ValueError):
            DGCSelect(momentum=1.0)
        with pytest.raises(ValueError, match="ratio must be in"):
            build_compressor("dgc0")


class TestCodecPipelines:
    def test_spec_parsing_builds_expected_stages(self):
        from repro.compression.codec import parse_codec_spec

        pipeline = parse_codec_spec("topk0.01+terngrad")
        assert [type(s).__name__ for s in pipeline.stages] == ["TopK", "Ternarize"]
        assert pipeline.stages[0].ratio == pytest.approx(0.01)
        assert not pipeline.allreduce_compatible

        pipeline = parse_codec_spec("randomk0.1+fp16")
        assert [type(s).__name__ for s in pipeline.stages] == ["RandomK", "Half"]
        assert pipeline.allreduce_compatible

    def test_malformed_spec_raises(self):
        from repro.compression.codec import parse_codec_spec

        with pytest.raises(KeyError):
            parse_codec_spec("topk0.01+nosuchstage")
        with pytest.raises(KeyError):
            parse_codec_spec("")

    def test_composed_topk_terngrad_aggregates_on_selection_support(self, buffers, group):
        compressor = build_compressor("topk0.01+terngrad")
        result = compressor.aggregate(make_bucket(buffers), group)
        assert result.shape == buffers[0].shape
        # Union of 4 ranks' 1% selections: at most 4% of coordinates non-zero.
        assert np.mean(result != 0) <= 0.04 + 1e-9
        assert compressor.stats.allgather_calls == 1

    def test_composed_randomk_fp16_close_to_randomk(self, buffers, group):
        plain = build_compressor("randomk0.2").aggregate(make_bucket(buffers), group)
        composed = build_compressor("randomk0.2+fp16")
        casted = composed.aggregate(make_bucket(buffers), ProcessGroup(4))
        # Same shared-seed selection; fp16-casting the selected values only
        # adds rounding error.
        assert nmse(plain, casted) < 1e-5

    def test_wire_bytes_derived_from_payloads(self, buffers, group):
        """Composed pipeline wire bytes follow the encoded payload structure."""
        compressor = build_compressor("topk0.1+fp16")
        compressor.aggregate(make_bucket(buffers), group)
        numel = buffers[0].size
        k = max(1, int(round(numel * 0.1)))
        # Sparse payload with indices on the wire and fp16 values.
        assert compressor.stats.wire_bytes == pytest.approx(k * (4.0 + 2.0))

    def test_stats_events_charge_payload_bytes(self, buffers):
        from repro.compression.codec import SparsePayload

        group = ProcessGroup(4)
        compressor = CodecCompressor(TopK(ratio=0.1, error_feedback=False))
        compressor.aggregate(make_bucket(buffers), group)
        event = group.events[-1]
        numel = buffers[0].size
        k = max(1, int(round(numel * 0.1)))
        assert event.metadata["payload"] == SparsePayload.__name__
        assert event.bytes_per_worker == pytest.approx((4 - 1) * k * 8.0)


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["allreduce", "fp16", "topk-0.1", "topk-0.01", "terngrad", "dgc", "randomk"]
    )
    def test_build_known(self, name):
        assert build_compressor(name) is not None

    def test_paper_names_map_to_expected_ratios(self):
        assert build_compressor("topk-0.01").pipeline.stages[0].ratio == pytest.approx(0.01)
        assert build_compressor("topk-0.1").pipeline.stages[0].ratio == pytest.approx(0.1)

    def test_pactrain_lazy_registration(self):
        compressor = build_compressor("pactrain")
        assert compressor.allreduce_compatible
        quantised = build_compressor("pactrain-terngrad")
        assert quantised.quantize

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            build_compressor("thc")

    def test_register_custom(self):
        register_compressor("custom-test", lambda: CodecCompressor(Identity(), name="mine"))
        try:
            assert build_compressor("Custom-Test", seed=3).name == "mine"
        finally:
            COMPRESSOR_REGISTRY.pop("custom-test", None)
