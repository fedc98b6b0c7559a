"""Gradient compressor baselines: correctness, cost accounting, registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import NetworkModel, ProcessGroup
from repro.comm.network import MBPS
from repro.simulation import pricing
from repro.compression import (
    COMPRESSOR_REGISTRY,
    CodecCompressor,
    build_compressor,
    register_compressor,
)
from repro.compression.base import exact_average
from repro.compression.codec import DGCSelect, Identity, TopK, ternarize, top_k_indices
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.metrics import nmse


def make_bucket(buffers):
    numel = buffers[0].size
    layout = Bucket(index=0, slices=[BucketSlice("w", 0, numel, (numel,))])
    return GradBucket(layout, np.stack(buffers))


@pytest.fixture
def buffers(rng):
    return [rng.standard_normal(512) for _ in range(4)]


@pytest.fixture
def group():
    return ProcessGroup(4)


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
        g32, g16 = ProcessGroup(4), ProcessGroup(4)
        build_compressor("allreduce").aggregate(make_bucket(buffers), g32)
        build_compressor("fp16").aggregate(make_bucket(buffers), g16)
        fp32_time = pricing.comm_time(network, g32.events)
        assert pricing.comm_time(network, g16.events) == pytest.approx(fp32_time / 2)


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
        assert [event.op for event in group.events] == ["all_gather"]

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

    def test_each_build_starts_without_residuals(self, buffers, group):
        """Compressors are built per run: a new one carries no state of an old one."""
        used = build_compressor("topk-0.1")
        first = used.aggregate(make_bucket(buffers), group)
        second = used.aggregate(make_bucket(buffers), group)
        assert used._residuals and not np.array_equal(first, second)
        fresh = build_compressor("topk-0.1")
        assert not fresh._residuals
        np.testing.assert_array_equal(fresh.aggregate(make_bucket(buffers), ProcessGroup(4)), first)


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

    def test_payload_is_all_reduced_never_all_gathered(self, buffers, group):
        compressor = build_compressor("terngrad", seed=0)
        compressor.aggregate(make_bucket(buffers), group)
        # The shared scaler's agreement, then the payload itself.
        assert [event.op for event in group.events] == ["all_reduce", "all_reduce"]

    def test_rounding_is_redrawn_every_iteration(self, buffers, group):
        """Stochastic rounding takes fresh draws per step, reproducibly per seed."""
        compressor = build_compressor("terngrad", seed=0)
        a = compressor.aggregate(make_bucket(buffers), group, iteration=0)
        b = compressor.aggregate(make_bucket(buffers), group, iteration=1)
        assert not np.array_equal(a, b)
        again = build_compressor("terngrad", seed=0)
        np.testing.assert_array_equal(again.aggregate(make_bucket(buffers), group, iteration=0), a)


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
        # Momentum factor masking: the k sent coordinates leave both buffers.
        k = max(1, round(buffers[0].size * 0.01))
        for state in (stage._momentum[0], stage._accum[0]):
            assert np.all(np.count_nonzero(state == 0.0, axis=1) >= k)

    def test_uses_allgather(self, buffers, group):
        compressor = build_compressor("dgc")
        compressor.aggregate(make_bucket(buffers), group)
        assert [event.op for event in group.events] == ["all_gather"]

    def test_validation(self):
        with pytest.raises(ValueError):
            DGCSelect(ratio=0.0)
        with pytest.raises(ValueError):
            DGCSelect(momentum=1.0)
        with pytest.raises(ValueError, match="ratio must be in"):
            build_compressor("dgc0")


class TestCodecPipelines:
    def test_spec_parsing_builds_expected_stages(self):
        from repro.compression.codec import parse_compressor_spec

        pipeline, _ = parse_compressor_spec("topk0.01+terngrad")
        assert [type(s).__name__ for s in pipeline.stages] == ["TopK", "Ternarize"]
        assert pipeline.stages[0].ratio == pytest.approx(0.01)
        assert not pipeline.allreduce_compatible

        pipeline, _ = parse_compressor_spec("fp16+terngrad")
        assert [type(s).__name__ for s in pipeline.stages] == ["Half", "Ternarize"]
        assert pipeline.allreduce_compatible

    def test_malformed_spec_raises(self):
        from repro.compression.codec import parse_compressor_spec

        with pytest.raises(KeyError):
            parse_compressor_spec("topk0.01+nosuchstage")
        with pytest.raises(KeyError):
            parse_compressor_spec("")

    def test_composed_topk_terngrad_aggregates_on_selection_support(self, buffers, group):
        compressor = build_compressor("topk0.01+terngrad")
        result = compressor.aggregate(make_bucket(buffers), group)
        assert result.shape == buffers[0].shape
        # Union of 4 ranks' 1% selections: at most 4% of coordinates non-zero.
        assert np.mean(result != 0) <= 0.04 + 1e-9
        assert [event.op for event in group.events] == ["all_reduce", "all_gather"]

    def test_composed_topk_fp16_close_to_topk(self, buffers, group):
        plain = build_compressor("topk0.2").aggregate(make_bucket(buffers), group)
        composed = build_compressor("topk0.2+fp16")
        casted = composed.aggregate(make_bucket(buffers), ProcessGroup(4))
        # Same per-rank selections; fp16-casting the selected values only
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
        group = ProcessGroup(4)
        compressor = CodecCompressor(TopK(ratio=0.1, error_feedback=False))
        compressor.aggregate(make_bucket(buffers), group)
        event = group.events[-1]
        numel = buffers[0].size
        k = max(1, int(round(numel * 0.1)))
        assert event.bytes_per_worker == pytest.approx((4 - 1) * k * 8.0)

    @pytest.mark.parametrize(
        "spec, bytes_per_element", [("fp16", 2.0), ("terngrad", 0.25), ("fp16+terngrad", 0.25)]
    )
    def test_ring_all_reduce_charges_the_payload_bytes(self, buffers, spec, bytes_per_element):
        world, numel = len(buffers), buffers[0].size
        group = ProcessGroup(world)
        build_compressor(spec, seed=0).aggregate(make_bucket(buffers), group)
        event = group.events[-1]
        assert event.op == "all_reduce"
        assert event.bytes_per_worker == pytest.approx(
            2.0 * (world - 1) / world * numel * bytes_per_element
        )


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["allreduce", "fp16", "topk-0.1", "topk-0.01", "terngrad", "dgc"]
    )
    def test_build_known(self, name):
        assert build_compressor(name) is not None

    def test_paper_names_map_to_expected_ratios(self):
        assert build_compressor("topk-0.01").pipeline.stages[0].ratio == pytest.approx(0.01)
        assert build_compressor("topk-0.1").pipeline.stages[0].ratio == pytest.approx(0.1)
        for name in ("dgc", "dgc-0.01"):
            compressor = build_compressor(name)
            assert compressor.name == "dgc-0.01"
            assert compressor.pipeline.stages[0].ratio == pytest.approx(0.01)

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
