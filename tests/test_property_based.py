"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm import ProcessGroup, all_reduce, NetworkModel
from repro.comm.network import LinkSpec
from repro.compression.base import exact_average
from repro.compression.codec import (
    BitmaskPayload,
    DensePayload,
    FP16_BYTES,
    FP32_BYTES,
    Half,
    INDEX_BYTES,
    Identity,
    LowRank,
    LowRankPayload,
    MaskCompact,
    Pipeline,
    RandomK,
    Sign,
    SignPayload,
    SparsePayload,
    TERNARY_BYTES,
    Ternarize,
    TernaryPayload,
    TopK,
    batched_top_k_indices,
    orthonormalize,
    pack_ternary,
    unpack_ternary,
)
from repro.compression.codec import ternarize, top_k_indices
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.metrics import nmse
from repro.pactrain import MaskTracker, PacTrainCompressor
from repro.pruning.mask import PruningMask
from repro.tensorlib import Tensor
from repro.tensorlib.tensor import _unbroadcast

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def arrays(shape=None, max_side=6, max_dims=3):
    if shape is None:
        shape = hnp.array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side)
    return hnp.arrays(np.float64, shape, elements=finite_floats)


class TestUnbroadcastProperties:
    @given(arrays())
    @settings(max_examples=50, deadline=None)
    def test_identity_when_shapes_match(self, values):
        np.testing.assert_array_equal(_unbroadcast(values, values.shape), values)

    @given(arrays(max_dims=2, max_side=4), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_reduces_leading_broadcast_dim_by_summation(self, values, repeats):
        stacked = np.broadcast_to(values, (repeats, *values.shape)).copy()
        reduced = _unbroadcast(stacked, values.shape)
        np.testing.assert_allclose(reduced, repeats * values, rtol=1e-9, atol=1e-9)

    @given(arrays(max_dims=2, max_side=5))
    @settings(max_examples=50, deadline=None)
    def test_gradient_of_broadcast_add_matches_sum(self, values):
        """d/db sum(a + b) where b has a size-1 axis equals the count of broadcasts."""
        if values.ndim < 2:
            values = values.reshape(1, -1)
        b = Tensor(np.zeros((1, values.shape[1])), requires_grad=True)
        a = Tensor(values)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((1, values.shape[1]), values.shape[0]))


class TestAllReduceProperties:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=64), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_average_is_bounded_by_extremes(self, world, numel, seed):
        rng = np.random.default_rng(seed)
        buffers = [rng.standard_normal(numel) for _ in range(world)]
        result, _ = all_reduce(buffers, average=True)
        stacked = np.stack(buffers)
        assert np.all(result <= stacked.max(axis=0) + 1e-12)
        assert np.all(result >= stacked.min(axis=0) - 1e-12)

    @given(st.integers(min_value=2, max_value=8), st.floats(min_value=1.0, max_value=1e9))
    @settings(max_examples=40, deadline=None)
    def test_collective_times_are_monotone_in_payload(self, world, nbytes):
        model = NetworkModel(world, LinkSpec(bandwidth=1e7, latency=1e-4))
        assert model.ring_all_reduce_time(nbytes) <= model.ring_all_reduce_time(2 * nbytes)
        # In the bandwidth-bound regime (zero latency) an all-gather always moves
        # at least as many bytes per worker as a ring all-reduce.
        bandwidth_only = NetworkModel(world, LinkSpec(bandwidth=1e7, latency=0.0))
        assert bandwidth_only.all_gather_time(nbytes) >= bandwidth_only.ring_all_reduce_time(nbytes) - 1e-12


class TestTopKProperties:
    @given(arrays(shape=st.tuples(st.integers(1, 200))), st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_selected_magnitudes_dominate_unselected(self, values, k):
        k = min(k, values.size)
        idx = top_k_indices(values, k)
        assert idx.size == min(k, values.size)
        chosen = np.abs(values[idx])
        unchosen_mask = np.ones(values.size, dtype=bool)
        unchosen_mask[idx] = False
        if unchosen_mask.any():
            assert chosen.min() >= np.abs(values[unchosen_mask]).max() - 1e-12


class TestTernarizeProperties:
    @given(arrays(shape=st.tuples(st.integers(1, 256))), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_output_support_is_subset_of_input_support(self, values, seed):
        quantised = ternarize(values, rng=np.random.default_rng(seed))
        assert np.all(quantised[values == 0.0] == 0.0)

    @given(arrays(shape=st.tuples(st.integers(1, 256))), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_values_bounded_by_scaler(self, values, seed):
        quantised = ternarize(values, rng=np.random.default_rng(seed))
        scaler = np.max(np.abs(values)) if values.size else 0.0
        assert np.all(np.abs(quantised) <= scaler + 1e-12)

    @given(arrays(shape=st.tuples(st.integers(1, 256))), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sign_preserved_where_nonzero(self, values, seed):
        quantised = ternarize(values, rng=np.random.default_rng(seed))
        nonzero = quantised != 0.0
        assert np.all(np.sign(quantised[nonzero]) == np.sign(values[nonzero]))


class TestCodecRoundTripProperties:
    """Round-trip and wire-size invariants for every codec stage.

    Lossless codecs satisfy ``decode(encode(x)) == x`` exactly; lossy codecs
    satisfy their documented error bounds; and ``payload.nbytes`` matches the
    analytic wire-size formulas (``FP32_BYTES``/``INDEX_BYTES``/...).
    """

    @given(arrays(shape=st.tuples(st.integers(1, 256))))
    @settings(max_examples=50, deadline=None)
    def test_identity_is_lossless_and_charges_fp32(self, values):
        pipeline = Pipeline([Identity()])
        payload = pipeline.encode(values)
        np.testing.assert_array_equal(pipeline.decode(payload), values)
        assert payload.nbytes == values.size * FP32_BYTES

    @given(arrays(shape=st.tuples(st.integers(1, 256))))
    @settings(max_examples=50, deadline=None)
    def test_half_error_bounded_by_fp16_rounding(self, values):
        pipeline = Pipeline([Half()])
        payload = pipeline.encode(values)
        decoded = pipeline.decode(payload)
        # fp16 has a 10-bit mantissa: relative error <= 2^-10 in the normal
        # range, absolute error <= one subnormal step (~6e-8) near zero.
        bound = np.maximum(np.abs(values) * 2.0 ** -10, 6.1e-8)
        assert np.all(np.abs(decoded - values) <= bound)
        assert payload.nbytes == values.size * FP16_BYTES

    @given(
        arrays(shape=st.tuples(st.integers(4, 256))),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_topk_preserves_selected_coordinates_exactly(self, values, ratio):
        pipeline = Pipeline([TopK(ratio, error_feedback=False)])
        payload = pipeline.encode(values)
        k = max(1, int(round(values.size * ratio)))
        assert isinstance(payload, SparsePayload)
        assert payload.nbytes == k * (FP32_BYTES + INDEX_BYTES)
        decoded = pipeline.decode(payload)
        selected = np.zeros(values.size, dtype=bool)
        selected[payload.indices] = True
        np.testing.assert_array_equal(decoded[selected], values[selected])
        np.testing.assert_array_equal(decoded[~selected], 0.0)

    @given(
        arrays(shape=st.tuples(st.integers(4, 256))),
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_randomk_rescales_unbiasedly_and_skips_index_bytes(self, values, ratio, seed):
        pipeline = Pipeline([RandomK(ratio, seed=seed, rescale=True)])
        payload = pipeline.encode(values)
        k = max(1, int(round(values.size * ratio)))
        # Shared-seed selection: indices derived locally, never on the wire.
        assert payload.nbytes == k * FP32_BYTES
        decoded = pipeline.decode(payload)
        np.testing.assert_allclose(
            decoded[payload.indices], values[payload.indices] * values.size / k, rtol=1e-12
        )

    @given(arrays(shape=st.tuples(st.integers(1, 256))), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_ternarize_error_bounds_and_two_bit_wire_size(self, values, seed):
        pipeline = Pipeline([Ternarize(seed=seed, clip_sigma=None)])
        payload = pipeline.encode(values)
        assert isinstance(payload, TernaryPayload)
        assert payload.nbytes == values.size * TERNARY_BYTES
        decoded = pipeline.decode(payload)
        scale = np.max(np.abs(values)) if values.size else 0.0
        assert np.all(np.abs(decoded) <= scale + 1e-12)           # bounded by the scale
        assert np.all(decoded[values == 0.0] == 0.0)              # support subset
        nonzero = decoded != 0.0
        assert np.all(np.sign(decoded[nonzero]) == np.sign(values[nonzero]))

    @given(
        hnp.arrays(np.int8, st.tuples(st.integers(1, 512)), elements=st.integers(-1, 1))
    )
    @settings(max_examples=50, deadline=None)
    def test_ternary_bit_packing_roundtrip(self, codes):
        np.testing.assert_array_equal(unpack_ternary(pack_ternary(codes), codes.size), codes)

    @given(
        hnp.arrays(np.bool_, st.tuples(st.integers(1, 512)), elements=st.booleans())
    )
    @settings(max_examples=50, deadline=None)
    def test_bitmask_payload_roundtrip_and_one_bit_per_element(self, mask):
        payload = BitmaskPayload.from_mask(mask)
        np.testing.assert_array_equal(payload.mask(), mask)
        assert payload.nbytes == -(-mask.size // 8)  # ceil(bits / 8)

    @given(
        hnp.arrays(np.bool_, st.just(64), elements=st.booleans()),
        arrays(shape=st.just((64,))),
    )
    @settings(max_examples=50, deadline=None)
    def test_mask_compact_is_lossless_on_masked_gradients(self, mask, values):
        masked = values * mask
        stage = MaskCompact()
        stage.set_mask(0, mask)
        pipeline = Pipeline([stage])
        payload = pipeline.encode(masked)
        assert payload.nbytes == mask.sum() * FP32_BYTES
        np.testing.assert_array_equal(pipeline.decode(payload), masked)

    @given(
        arrays(shape=st.tuples(st.integers(8, 128))),
        st.floats(min_value=0.05, max_value=0.5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_composed_topk_terngrad_wire_size_and_support(self, values, ratio, seed):
        """Composition: indices charged by TopK, values shrunk to 2 bits."""
        pipeline = Pipeline([TopK(ratio, error_feedback=False), Ternarize(seed=seed)])
        payload = pipeline.encode(values)
        k = max(1, int(round(values.size * ratio)))
        assert isinstance(payload, SparsePayload)
        assert payload.nbytes == k * (INDEX_BYTES + TERNARY_BYTES)
        decoded = pipeline.decode(payload)
        off_selection = np.ones(values.size, dtype=bool)
        off_selection[payload.indices] = False
        np.testing.assert_array_equal(decoded[off_selection], 0.0)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=4, max_value=128),
        st.integers(min_value=1, max_value=16),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_batched_selection_matches_per_rank_argpartition(self, world, numel, k, seed):
        """The vectorised 2-D selection picks the same coordinate set per rank
        as the per-rank 1-D ``top_k_indices`` (continuous draws: no ties)."""
        k = min(k, numel)
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((world, numel))
        batched = batched_top_k_indices(matrix, k)
        assert batched.shape == (world, k)
        for rank in range(world):
            expected = set(top_k_indices(matrix[rank], k).tolist())
            assert set(batched[rank].tolist()) == expected

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=64),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_dense_payload_all_reduce_equals_exact_average(self, world, numel, seed):
        rng = np.random.default_rng(seed)
        buffers = [rng.standard_normal(numel) for _ in range(world)]
        reduced, event = all_reduce([DensePayload(b) for b in buffers], average=True)
        np.testing.assert_array_equal(reduced.reduce_values(), exact_average(buffers))
        assert event.metadata["payload"] == "DensePayload"


class TestSignPayloadProperties:
    """signSGD wire format: one bit per coordinate, bounded decode error."""

    @given(arrays(shape=st.tuples(st.integers(1, 300))))
    @settings(max_examples=50, deadline=None)
    def test_nbytes_is_exactly_ceil_bits_plus_scale(self, values):
        payload = SignPayload.from_values(values)
        assert payload.nbytes == -(-values.size // 8) + FP32_BYTES
        assert payload.transmitted_elements == values.size

    @given(arrays(shape=st.tuples(st.integers(1, 300))))
    @settings(max_examples=50, deadline=None)
    def test_decode_is_scaled_sign(self, values):
        pipeline = Pipeline([Sign()])
        decoded = pipeline.decode(pipeline.encode(values))
        scale = np.mean(np.abs(values))
        assert np.all(decoded[values > 0] == scale)
        assert np.all(decoded[values < 0] == -scale)
        assert np.all(np.abs(decoded) == scale)

    @given(arrays(shape=st.tuples(st.integers(1, 300))))
    @settings(max_examples=50, deadline=None)
    def test_nmse_bounded_by_one(self, values):
        """With scale = mean|v|, NMSE = 1 - n*mean(|v|)^2 / sum(v^2) <= 1."""
        power = float(np.sum(values.astype(np.float64) ** 2))
        if power == 0.0:
            return
        pipeline = Pipeline([Sign()])
        decoded = pipeline.decode(pipeline.encode(values))
        assert nmse(values, decoded) <= 1.0 + 1e-9

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=64),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_majority_vote_aggregate_is_sign_of_summed_codes(self, world, numel, seed):
        rng = np.random.default_rng(seed)
        buffers = [rng.standard_normal(numel) for _ in range(world)]
        payloads = [SignPayload.from_values(b) for b in buffers]
        reduced, _ = all_reduce(payloads, average=True)
        codes = np.stack([p.codes() for p in payloads])
        expected = np.mean([p.scale for p in payloads]) * np.sign(codes.sum(axis=0))
        np.testing.assert_allclose(reduced.values, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dtype_matrix_decode_follows_compute_dtype(self, dtype):
        from repro.tensorlib.dtypes import default_dtype

        with default_dtype(dtype):
            rng = np.random.default_rng(0)
            values = rng.standard_normal(97).astype(dtype)
            pipeline = Pipeline([Sign()])
            payload = pipeline.encode(values)
            decoded = pipeline.decode(payload)
            assert decoded.dtype == np.dtype(dtype)
            # Wire cost models the packed-bit + fp32-scale format either way.
            assert payload.nbytes == -(-values.size // 8) + FP32_BYTES


class TestLowRankPayloadProperties:
    """PowerSGD wire format: (m+n)*rank*4 bytes, projection-bounded error."""

    @given(st.integers(min_value=1, max_value=4000), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_nbytes_is_exactly_m_plus_n_times_rank(self, numel, rank):
        m, n = LowRank.matrix_shape(numel)
        assert m * n >= numel and (m - 1) * n < numel
        effective = min(rank, m, n)
        pipeline = Pipeline([LowRank(rank=rank)])
        payload = pipeline.encode(np.ones(numel))
        assert isinstance(payload, LowRankPayload)
        assert payload.nbytes == (m + n) * effective * FP32_BYTES
        assert payload.transmitted_elements == (m + n) * effective

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_exactly_low_rank_inputs_reconstruct_exactly(self, side, true_rank, seed):
        """One warm-started power-iteration step recovers rank <= r matrices."""
        rng = np.random.default_rng(seed)
        true_rank = min(true_rank, side)
        left = rng.standard_normal((side, true_rank))
        right = rng.standard_normal((side, true_rank))
        flat = (left @ right.T).reshape(-1)
        pipeline = Pipeline([LowRank(rank=4)])
        decoded = pipeline.decode(pipeline.encode(flat))
        scale = float(np.max(np.abs(flat))) or 1.0
        np.testing.assert_allclose(decoded, flat, atol=1e-8 * scale)

    @given(arrays(shape=st.tuples(st.integers(4, 400))), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_decode_error_bounded_by_projection(self, values, rank):
        """Reconstruction is an orthogonal projection: NMSE <= 1."""
        power = float(np.sum(values.astype(np.float64) ** 2))
        if power == 0.0:
            return
        pipeline = Pipeline([LowRank(rank=rank)])
        decoded = pipeline.decode(pipeline.encode(values))
        assert nmse(values, decoded) <= 1.0 + 1e-9

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_warm_start_never_degrades_on_a_fixed_matrix(self, seed):
        rng = np.random.default_rng(seed)
        flat = rng.standard_normal(256)
        pipeline = Pipeline([LowRank(rank=2)])
        errors = []
        for _ in range(4):
            decoded = pipeline.decode(pipeline.encode(flat))
            errors.append(nmse(flat, decoded))
        assert errors[-1] <= errors[0] + 1e-9

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_orthonormalize_produces_orthonormal_or_zero_columns(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        basis = orthonormalize(rng.standard_normal((rows, cols)))
        gram = basis.T @ basis
        norms = np.diag(gram)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms < 1e-18))
        off_diagonal = gram - np.diag(norms)
        assert np.max(np.abs(off_diagonal)) < 1e-9

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dtype_matrix_decode_follows_compute_dtype(self, dtype):
        from repro.tensorlib.dtypes import default_dtype

        with default_dtype(dtype):
            rng = np.random.default_rng(1)
            values = rng.standard_normal(200).astype(dtype)
            pipeline = Pipeline([LowRank(rank=3)])
            payload = pipeline.encode(values)
            decoded = pipeline.decode(payload)
            assert decoded.dtype == np.dtype(dtype)
            m, n = LowRank.matrix_shape(values.size)
            assert payload.nbytes == (m + n) * 3 * FP32_BYTES


class TestErrorFeedbackInvariantProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=8, max_value=128),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_mean_residual_plus_aggregate_equals_mean_input(self, world, numel, seed):
        """residual + decoded == input, aggregated over ranks."""
        from repro.compression import build_compressor, exact_average
        from repro.ddp.bucket import Bucket, BucketSlice, GradBucket

        rng = np.random.default_rng(seed)
        compressor = build_compressor("ef+powersgd-rank2")
        layout = Bucket(index=0, slices=[BucketSlice("w", 0, numel, (numel,))])
        group = ProcessGroup(world)
        for iteration in range(2):
            buffers = [rng.standard_normal(numel) for _ in range(world)]
            compensated = [
                b + r for b, r in zip(
                    buffers,
                    compressor.residual(0) if compressor.residual(0) is not None
                    else np.zeros((world, numel)),
                )
            ]
            aggregated = compressor.aggregate(
                GradBucket(layout, buffers), group, iteration=iteration
            )
            residual = compressor.residual(0)
            np.testing.assert_allclose(
                exact_average(compensated),
                aggregated + residual.mean(axis=0),
                atol=1e-9,
            )


class TestMaskTrackerProperties:
    @given(
        st.lists(
            hnp.arrays(np.bool_, st.just(32), elements=st.booleans()),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_tracked_mask_is_superset_of_every_observation(self, patterns, threshold):
        tracker = MaskTracker(stability_threshold=threshold)
        for pattern in patterns:
            state = tracker.update(0, pattern)
            # Every observed non-zero coordinate is covered by the tracked mask.
            assert np.all(state.mask[pattern])

    @given(
        hnp.arrays(np.bool_, st.just(64), elements=st.booleans()),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_constant_pattern_stabilises_exactly_at_threshold(self, pattern, threshold, extra):
        tracker = MaskTracker(stability_threshold=threshold, min_sparsity=0.0)
        dense = bool(pattern.mean() > 1.0 - 1e-9)
        for i in range(threshold + extra):
            state = tracker.update(0, pattern)
            expected = (i + 1) >= threshold and not (dense and tracker.min_sparsity > 0)
            assert state.stable == expected or tracker.min_sparsity == 0.0 and state.stable == ((i + 1) >= threshold)


class TestPacTrainLosslessProperty:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=8, max_value=128),
        st.floats(min_value=0.05, max_value=0.6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_compact_aggregation_equals_exact_average(self, world, numel, density, seed):
        """For any shared sparsity pattern, once stable, PacTrain's aggregate is
        exactly the mean of the per-rank gradients (losslessness)."""
        rng = np.random.default_rng(seed)
        mask = rng.random(numel) < density
        compressor = PacTrainCompressor(stability_threshold=1, min_sparsity=0.0)
        group = ProcessGroup(world)
        layout = Bucket(index=0, slices=[BucketSlice("w", 0, numel, (numel,))])
        for _ in range(3):
            buffers = [rng.standard_normal(numel) * mask for _ in range(world)]
            result = compressor.aggregate(GradBucket(layout, buffers), group)
            np.testing.assert_allclose(result, np.mean(buffers, axis=0), atol=1e-10)


class TestPruningMaskProperties:
    @given(
        hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=20), elements=st.booleans())
    )
    @settings(max_examples=50, deadline=None)
    def test_sparsity_and_density_sum_to_one(self, mask_values):
        mask = PruningMask({"w": mask_values})
        assert mask.sparsity + mask.density == pytest.approx(1.0)
        assert 0.0 <= mask.sparsity <= 1.0
        assert mask.kept_elements == int(mask_values.sum())


class TestNMSEProperties:
    @given(arrays(shape=st.tuples(st.integers(1, 64))), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_nmse_is_scale_invariant(self, values, scale):
        # Subnormal squared magnitudes lose precision faster than the rel
        # tolerance below; scale invariance only holds in the normal range.
        if np.sum(values ** 2) < np.finfo(np.float64).tiny:
            return
        noisy = values * 1.1
        assert nmse(values, noisy) == pytest.approx(nmse(values * scale, noisy * scale), rel=1e-6)

    @given(arrays(shape=st.tuples(st.integers(1, 64))))
    @settings(max_examples=50, deadline=None)
    def test_nmse_nonnegative(self, values):
        assert nmse(values, np.zeros_like(values)) >= 0.0


class TestCollectiveCostProperties:
    """Monotonicity invariants the engine relies on, for both cost backends."""

    @staticmethod
    def _models(world_size):
        from repro.comm import build_paper_topology

        flat = NetworkModel.from_bandwidth(world_size, 100e6 / 8.0, latency=1e-4)
        hier = build_paper_topology(
            wan_bandwidth=100e6 / 8.0, num_servers=world_size, num_switches=min(3, world_size)
        ).cost_model()
        return flat, hier

    @given(
        st.integers(min_value=2, max_value=16),
        st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_costs_monotone_in_bytes(self, world_size, a, b):
        small, large = sorted((a, b))
        for model in self._models(world_size):
            for method in (
                "ring_all_reduce_time",
                "all_gather_time",
                "reduce_scatter_time",
                "broadcast_time",
                "reduce_time",
                "gather_time",
            ):
                low = getattr(model, method)(small)
                high = getattr(model, method)(large)
                assert 0.0 <= low <= high

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_flat_costs_monotone_in_world_size(self, n_a, n_b, num_bytes):
        small, large = sorted((n_a, n_b))
        few = NetworkModel.from_bandwidth(small, 100e6 / 8.0, latency=1e-4)
        many = NetworkModel.from_bandwidth(large, 100e6 / 8.0, latency=1e-4)
        for method in (
            "ring_all_reduce_time",
            "all_gather_time",
            "reduce_scatter_time",
            "broadcast_time",
            "reduce_time",
            "gather_time",
        ):
            assert getattr(few, method)(num_bytes) <= getattr(many, method)(num_bytes)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=8),
        st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_engine_wall_bounded_by_serial_and_critical_path(self, computes, comm_times):
        from repro.simulation.engine import SimulationEngine

        buckets = len(comm_times)
        fractions = [(index + 1) / buckets for index in range(buckets)]
        overlapped = SimulationEngine(overlap=True).run_iteration(computes, fractions, comm_times)
        serial = SimulationEngine(overlap=False).run_iteration(computes, fractions, comm_times)
        # Overlap never hurts, never beats the critical path.
        assert overlapped.wall_time <= serial.wall_time + 1e-12
        assert overlapped.wall_time >= max(computes) - 1e-12
        assert overlapped.wall_time >= serial.comm_busy - 1e-12
        assert serial.wall_time == max(computes) + serial.comm_busy
        assert overlapped.overlap_saved >= 0.0
