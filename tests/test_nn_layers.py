"""Layer behaviour: shapes, normalisation statistics, attention, dropout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GELU,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadAttention,
    ReLU,
)
from repro.tensorlib import Tensor


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(6, 3, rng=rng)
        out = layer(Tensor(rng.standard_normal((5, 6))))
        assert out.shape == (5, 3)

    def test_batched_input(self, rng):
        layer = Linear(6, 3, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 7, 6))))
        assert out.shape == (2, 7, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_matches_manual_matmul(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = rng.standard_normal((3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)


class TestConvLayer:
    def test_output_shape(self, rng):
        layer = Conv2d(3, 8, kernel_size=3, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_stride_halves_resolution(self, rng):
        layer = Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 3, 8, 8))))
        assert out.shape == (1, 4, 4, 4)

    def test_gradients_flow_to_parameters(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 2, 5, 5))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestBatchNorm:
    def test_training_normalises_batch(self, rng):
        layer = BatchNorm2d(4)
        x = rng.standard_normal((8, 4, 5, 5)) * 3.0 + 2.0
        out = layer(Tensor(x)).data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-8
        assert np.abs(out.std(axis=(0, 2, 3)) - 1.0).max() < 1e-2

    def test_running_stats_updated_in_training(self, rng):
        layer = BatchNorm2d(3)
        x = rng.standard_normal((4, 3, 4, 4)) + 5.0
        layer(Tensor(x))
        assert np.all(layer.running_mean > 0.0)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(3)
        x = rng.standard_normal((4, 3, 4, 4)) + 5.0
        for _ in range(20):
            layer(Tensor(x))
        layer.eval()
        mean_before = layer.running_mean.copy()
        out = layer(Tensor(x)).data
        np.testing.assert_allclose(layer.running_mean, mean_before)
        # With converged running stats, eval output is approximately normalised.
        assert np.abs(out.mean()) < 1.0

    def test_scale_shift_are_parameters(self):
        layer = BatchNorm2d(5)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize(
        "features,shape",
        [
            (1, (4, 16, 2, 2)),  # used to run, and resize the running buffers to (16,)
            (8, (4, 16, 2, 2)),  # used to die in numpy broadcasting
            (16, (4, 16, 2)),  # used to be an IndexError
            (16, (2, 4, 16, 2, 2)),  # a world-batched input without replica views
        ],
    )
    def test_shape_mismatch_is_one_readable_error(self, rng, features, shape, training):
        layer = BatchNorm2d(features)
        layer.train(training)
        with pytest.raises(ValueError, match=r"BatchNorm2d shape mismatch.*\(N, C, H, W\).*got shape"):
            layer(Tensor(rng.standard_normal(shape)))
        assert layer.running_mean.shape == layer.running_var.shape == (features,)

    @pytest.mark.parametrize("shape", [(3, 4, 8, 2, 2), (4, 16, 2, 2), (3, 4, 16, 2)])
    def test_shape_mismatch_world_batched(self, rng, shape):
        from repro.nn.batched import replica_views

        layer = BatchNorm2d(16)
        with replica_views(layer, 3):
            with pytest.raises(ValueError, match=r"expected \(world, N, C, H, W\).*num_features == 16"):
                layer(Tensor(rng.standard_normal(shape)))
            assert layer(Tensor(rng.standard_normal((3, 4, 16, 2, 2)))).shape == (3, 4, 16, 2, 2)


class TestLayerNorm:
    def test_normalises_last_dim(self, rng):
        layer = LayerNorm(16)
        x = rng.standard_normal((4, 7, 16)) * 5.0 + 1.0
        out = layer(Tensor(x)).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-8
        assert np.abs(out.std(axis=-1) - 1.0).max() < 1e-2

    def test_gradients_flow(self, rng):
        layer = LayerNorm(8)
        out = layer(Tensor(rng.standard_normal((2, 8))))
        out.sum().backward()
        assert layer.weight.grad is not None


class TestSimpleLayers:
    def test_relu_clamps_negative(self):
        out = ReLU()(Tensor(np.array([-1.0, 0.5]))).data
        np.testing.assert_allclose(out, [0.0, 0.5])

    def test_gelu_is_smooth_relu_like(self):
        out = GELU()(Tensor(np.array([-10.0, 0.0, 10.0]))).data
        assert out[0] == pytest.approx(0.0, abs=1e-4)
        assert out[1] == pytest.approx(0.0)
        assert out[2] == pytest.approx(10.0, abs=1e-4)

    def test_identity(self, rng):
        x = Tensor(rng.standard_normal(3))
        assert Identity()(x) is x

    def test_flatten(self, rng):
        out = Flatten()(Tensor(rng.standard_normal((2, 3, 4, 4))))
        assert out.shape == (2, 48)

    def test_max_and_avg_pool_layers(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        assert MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert AvgPool2d(2)(x).shape == (1, 2, 4, 4)
        assert AdaptiveAvgPool2d(1)(x).shape == (1, 2, 1, 1)

    def test_dropout_only_active_in_training(self, rng):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100,)))
        train_out = layer(x).data
        layer.eval()
        eval_out = layer(x).data
        assert (train_out == 0).any()
        np.testing.assert_allclose(eval_out, 1.0)


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadAttention(embed_dim=16, num_heads=4, rng=rng)
        out = attn(Tensor(rng.standard_normal((2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(embed_dim=10, num_heads=3)

    def test_gradients_reach_qkv_and_proj(self, rng):
        attn = MultiHeadAttention(embed_dim=8, num_heads=2, rng=rng)
        out = attn(Tensor(rng.standard_normal((1, 4, 8))))
        out.sum().backward()
        assert attn.qkv.weight.grad is not None
        assert attn.proj.weight.grad is not None

    def test_permutation_equivariance(self, rng):
        """Self-attention without positional encoding commutes with token permutation."""
        attn = MultiHeadAttention(embed_dim=8, num_heads=2, rng=rng)
        x = rng.standard_normal((1, 5, 8))
        perm = np.array([3, 1, 4, 0, 2])
        out = attn(Tensor(x)).data
        out_perm = attn(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-10)
