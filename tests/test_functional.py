"""Convolution, pooling and loss primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensorlib import Tensor, functional as F
from tests.test_tensor_autograd import check_gradient, numeric_gradient


class TestIm2Col:
    def test_shapes(self, rng):
        images = rng.standard_normal((2, 3, 8, 8))
        cols, (oh, ow) = F.im2col(images, (3, 3), (1, 1), (1, 1))
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2, 64, 27)

    def test_stride_and_padding(self, rng):
        images = rng.standard_normal((1, 1, 6, 6))
        cols, (oh, ow) = F.im2col(images, (2, 2), (2, 2), (0, 0))
        assert (oh, ow) == (3, 3)
        assert cols.shape == (1, 9, 4)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.standard_normal((2, 3, 6, 6))
        cols, _ = F.im2col(x, (3, 3), (1, 1), (1, 1))
        y = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * y))
        back = F.col2im(y, x.shape, (3, 3), (1, 1), (1, 1))
        rhs = float(np.sum(x * back))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestWindowThatDoesNotFit:
    """One readable error from im2col for every caller, naming the geometry."""

    MESSAGE = r"window does not fit: input size \(2, 2\), kernel \(3, 3\), stride \(1, 1\), padding \(0, 0\)"

    def test_conv2d(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 2, 2)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        with pytest.raises(ValueError, match=self.MESSAGE):
            F.conv2d(x, w)
        # padding that makes the window fit is still accepted
        assert F.conv2d(x, w, padding=1).shape == (1, 3, 2, 2)

    def test_conv2d_world_batched(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 2, 2, 2)))
        w = Tensor(rng.standard_normal((2, 3, 2, 3, 3)))
        with pytest.raises(ValueError, match=self.MESSAGE):
            F.conv2d(x, w)

    @pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
    def test_pools_no_longer_return_an_empty_tensor(self, pool, rng):
        x = Tensor(rng.standard_normal((1, 2, 2, 2)))
        with pytest.raises(ValueError, match=self.MESSAGE):
            pool(x, kernel_size=3, stride=1)

    def test_adaptive_avg_pool2d(self):
        with pytest.raises(ValueError, match=r"input size \(0, 0\), kernel \(0, 0\)"):
            F.adaptive_avg_pool2d(Tensor(np.zeros((1, 2, 0, 0))))

    def test_zero_stride(self, rng):
        with pytest.raises(ValueError, match=r"stride \(0, 1\)"):
            F.im2col(rng.standard_normal((1, 1, 4, 4)), (2, 2), (0, 1), (0, 0))


class TestConv2d:
    def test_forward_matches_direct_convolution(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        assert out.shape == (1, 3, 5, 5)
        # Check one output element against the direct definition.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = float(np.sum(padded[0, :, 1:4, 1:4] * w[1]))
        assert out[0, 1, 1, 1] == pytest.approx(expected, rel=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_gradient_wrt_input(self, rng):
        w = Tensor(rng.standard_normal((2, 2, 3, 3)))
        x = rng.standard_normal((1, 2, 5, 5))
        check_gradient(lambda t: F.conv2d(t, w, stride=1, padding=1), x, atol=1e-4)

    def test_gradient_wrt_weight(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = rng.standard_normal((2, 2, 3, 3))
        check_gradient(lambda t: F.conv2d(x, t, stride=1, padding=1), w, atol=1e-4)

    def test_gradient_wrt_bias(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = rng.standard_normal(3)
        check_gradient(lambda t: F.conv2d(x, w, t, padding=1), b, atol=1e-5)

    def test_strided_output_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel_size=2).data
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        x += np.arange(x.size).reshape(x.shape) * 1e-3  # break ties
        check_gradient(lambda t: F.max_pool2d(t, 2), x, atol=1e-4)

    def test_avg_pool_values(self):
        x = np.ones((1, 1, 4, 4))
        out = F.avg_pool2d(Tensor(x), kernel_size=2).data
        np.testing.assert_allclose(out, np.ones((1, 1, 2, 2)))

    def test_avg_pool_gradient(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        check_gradient(lambda t: F.avg_pool2d(t, 2), x, atol=1e-5)

    def test_adaptive_avg_pool_to_one(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        out = F.adaptive_avg_pool2d(Tensor(x), 1).data
        np.testing.assert_allclose(out.reshape(2, 3), x.mean(axis=(2, 3)), atol=1e-12)

    def test_adaptive_avg_pool_invalid_size(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 6, 6)))
        with pytest.raises(ValueError):
            F.adaptive_avg_pool2d(x, 4)

    def test_adaptive_avg_pool_gradient_with_a_non_square_window(self, rng):
        x = rng.standard_normal((1, 2, 4, 6))
        direction = Tensor(rng.standard_normal((1, 2, 2, 2)))
        assert F.adaptive_avg_pool2d(Tensor(x), 2).shape == (1, 2, 2, 2)
        check_gradient(lambda t: F.adaptive_avg_pool2d(t, 2) * direction, x)


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        loss = float(F.cross_entropy(Tensor(logits), targets).data)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(5), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-10)

    def test_cross_entropy_gradient(self, rng):
        targets = np.array([1, 0, 2])
        logits = rng.standard_normal((3, 4))

        def scalar_fn(values: np.ndarray) -> float:
            return float(F.cross_entropy(Tensor(values), targets).data)

        tensor = Tensor(logits.copy(), requires_grad=True)
        F.cross_entropy(tensor, targets).backward()
        numeric = numeric_gradient(scalar_fn, logits.copy())
        np.testing.assert_allclose(tensor.grad, numeric, atol=1e-6)
