"""Layers used by the evaluation model zoo.

Every layer is a :class:`repro.nn.Module` whose ``forward`` builds the autodiff
graph with :class:`repro.tensorlib.Tensor` operations, so a single
``loss.backward()`` populates ``param.grad`` for all registered parameters —
which is exactly what the DDP simulator buckets and the compressors consume.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.batched import active_world
from repro.nn.module import Module, Parameter
from repro.tensorlib import Tensor, functional as F, init
from repro.tensorlib.backend import get_backend


class Identity(Module):
    """Pass-through layer (used for optional residual projections)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.weight.ndim > 2:
            # World-batched replica view (world, out, in): keep the world axis
            # a matmul *batch* axis (per-slice GEMMs stay bit-identical to the
            # per-rank loop) and align it with x's leading axis by inserting
            # singleton batch axes for higher-rank inputs (e.g. ViT tokens).
            wT = self.weight.swapaxes(-1, -2)  # (world, in, out)
            if x.ndim > 3:
                wT = wT.reshape(
                    (wT.shape[0],) + (1,) * (x.ndim - 3) + wT.shape[1:]
                )
            out = x.matmul(wT)
        else:
            out = x.matmul(_transpose2d(self.weight))
        if self.bias is not None:
            bias = self.bias
            if bias.ndim > 1:
                # (world, out) view -> (world, 1, ..., 1, out) so the world
                # axes line up instead of colliding with the sample axis.
                bias = bias.reshape(
                    (bias.shape[0],) + (1,) * (out.ndim - 2) + (bias.shape[-1],)
                )
            out = out + bias
        return out


def _transpose2d(weight: Parameter) -> Tensor:
    """Differentiable transpose of a 2-D parameter."""
    return weight.transpose(1, 0)


class Conv2d(Module):
    """2-D convolution layer over ``(N, C, H, W)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of ``(N, C, H, W)`` inputs.

    Running statistics are kept as buffers and used at evaluation time, matching
    the standard training/inference split that the TTA experiments rely on.

    A training-mode call is one graph node in either dtype: float32 through
    ``F.fused_norm`` (analytic backward), float64 through
    ``F.batch_norm_replay``, whose output, gradients and batch statistics are
    bit-identical to the composite ``mean``/``var`` expression the evaluation
    branch is still written as (``tests/test_batchnorm_replay.py`` keeps that
    expression, fed batch statistics, as the oracle).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    def _update_running_stats(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        # World-batched (world, C) statistics are folded into the running
        # buffers sequentially in rank order: the buffers are *shared* across
        # replicas, and the per-rank loop updates them one rank at a time, so
        # the sequential fold reproduces its result bit-exactly.
        if batch_mean.ndim == 2:
            new_mean, new_var = self.running_mean, self.running_var
            for w in range(batch_mean.shape[0]):
                new_mean = (1 - self.momentum) * new_mean + self.momentum * batch_mean[w]
                new_var = (1 - self.momentum) * new_var + self.momentum * batch_var[w]
        else:
            new_mean = (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            new_var = (1 - self.momentum) * self.running_var + self.momentum * batch_var
        self.update_buffer("running_mean", new_mean)
        self.update_buffer("running_var", new_var)

    def forward(self, x: Tensor) -> Tensor:
        # A >1-D weight is a world-batched replica view (world, C): statistics
        # then reduce per world slice over the (N, H, W) axes.
        batched = self.weight.ndim > 1
        if x.ndim != (5 if batched else 4) or x.shape[-3] != self.num_features:
            layout = "(world, N, C, H, W)" if batched else "(N, C, H, W)"
            raise ValueError(
                f"BatchNorm2d shape mismatch: expected {layout} input with "
                f"C == num_features == {self.num_features}, got shape {x.shape}"
            )
        if batched:
            axes = (1, 3, 4)
            param_shape = (self.weight.shape[0], 1, self.num_features, 1, 1)
        else:
            axes = (0, 2, 3)
            param_shape = (1, self.num_features, 1, 1)
        if not self.training:
            shape = (1,) * (x.ndim - 3) + (-1, 1, 1)
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
            normalised = (x - mean) / (var + self.eps).sqrt()
            return normalised * self.weight.reshape(param_shape) + self.bias.reshape(param_shape)
        stat_shape = (-1,) if not batched else (self.weight.shape[0], -1)
        if x.dtype == np.float32:
            # Float32 fast path: one fused graph node with the analytic
            # batch-norm backward.  The statistics are computed once through
            # the backend kernel, folded into the running buffers, and handed
            # to fused_norm so the activations are only traversed once.
            stats = get_backend().fused_norm_stats(x.data, axes, self.eps)
            self._update_running_stats(
                stats[0].reshape(stat_shape), stats[1].reshape(stat_shape)
            )
            return F.fused_norm(
                x, self.weight, self.bias, axes=axes, eps=self.eps,
                param_shape=param_shape, stats=stats,
            )
        # Float64: also one node, replaying the arithmetic of the composite
        # expression (the eval branch above, with batch statistics) operation
        # for operation — see F.batch_norm_replay for the contract.
        out, mean, var = F.batch_norm_replay(
            x, self.weight, self.bias, axes=axes, eps=self.eps, param_shape=param_shape
        )
        self._update_running_stats(mean.reshape(stat_shape), var.reshape(stat_shape))
        return out


class LayerNorm(Module):
    """Layer normalisation over the last dimension (transformer convention)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        # A >1-D weight is a world-batched replica view (world, D); reshape it
        # to (world, 1, ..., 1, D) so the world axes align instead of
        # broadcasting against a sample axis.
        batched = self.weight.ndim > 1
        if batched:
            param_shape = (
                (self.weight.shape[0],) + (1,) * (x.ndim - 2) + (self.normalized_shape,)
            )
        else:
            param_shape = self.weight.shape
        if x.dtype == np.float32:
            # Same fused fast path as BatchNorm2d's float32 branch; float64
            # LayerNorm keeps the composite ops below.
            return F.fused_norm(
                x, self.weight, self.bias, axes=(x.ndim - 1,), eps=self.eps,
                param_shape=param_shape,
            )
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalised = (x - mean) / (var + self.eps).sqrt()
        if batched:
            return normalised * self.weight.reshape(param_shape) + self.bias.reshape(param_shape)
        return normalised * self.weight + self.bias


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    """Gaussian error linear unit (tanh approximation)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class Flatten(Module):
    """Flatten all dimensions after the batch dimension.

    Under world-batched execution (see :func:`repro.nn.batched.active_world`)
    the leading world axis is bookkeeping, not data, so flattening starts one
    axis later.
    """

    def forward(self, x: Tensor) -> Tensor:
        start = 2 if active_world() is not None else 1
        return x.flatten(start_dim=start)


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    """Average pooling layer."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class AdaptiveAvgPool2d(Module):
    """Adaptive average pooling to a square spatial output."""

    def __init__(self, output_size: int = 1) -> None:
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class MultiHeadAttention(Module):
    """Multi-head self-attention as used by the ViT encoder blocks."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        rng = rng or np.random.default_rng()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.qkv = Linear(embed_dim, 3 * embed_dim, rng=rng)
        self.proj = Linear(embed_dim, embed_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        # Python-float scale: keeps float32 activations from being promoted
        # to float64 by a numpy scalar under NEP 50.
        scale = 1.0 / float(np.sqrt(self.head_dim))
        if x.ndim == 4:
            # World-batched tokens (world, B, T, D): same per-slice attention
            # GEMMs with the world axis carried as an extra batch axis.
            world, batch, tokens, dim = x.shape
            qkv = self.qkv(x)  # (W, B, T, 3D)
            qkv = qkv.reshape(world, batch, tokens, 3, self.num_heads, self.head_dim)
            qkv = qkv.transpose(3, 0, 1, 4, 2, 5)  # (3, W, B, H, T, hd)
            q, k, v = qkv[0], qkv[1], qkv[2]
            attn = q.matmul(k.swapaxes(-1, -2)) * scale  # (W, B, H, T, T)
            attn = attn.softmax(axis=-1)
            context = attn.matmul(v)  # (W, B, H, T, hd)
            context = context.transpose(0, 1, 3, 2, 4).reshape(world, batch, tokens, dim)
            return self.proj(context)
        batch, tokens, dim = x.shape
        qkv = self.qkv(x)  # (B, T, 3D)
        qkv = qkv.reshape(batch, tokens, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]

        attn = q.matmul(k.swapaxes(-1, -2)) * scale  # (B, H, T, T)
        attn = attn.softmax(axis=-1)
        context = attn.matmul(v)  # (B, H, T, hd)
        context = context.transpose(0, 2, 1, 3).reshape(batch, tokens, dim)
        return self.proj(context)
