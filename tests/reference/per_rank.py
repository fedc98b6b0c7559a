"""The per-rank layer bodies, kept as the oracle of the one-forward layers.

Every layer of ``repro.nn`` has one forward that takes zero or one leading
world axis; a plain call is world 0 and a 4-D convolution runs as world 1 of
the batched kernel.  Before that, each op had a second, per-rank body.  Those
bodies live on here (the conv kernel with its own 3-D weight-gradient
contraction, ``cross_entropy``'s 2-D branch and the plain forwards of
``Linear``, ``BatchNorm2d``, ``LayerNorm``, ``Flatten``,
``MultiHeadAttention``, ``VisionTransformer`` and ``MLP``), and
:func:`install` patches them over the library so a model runs the old
per-rank path end to end.  ``test_per_rank_oracle.py`` compares the two
paths as bytes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import layers as L
from repro.nn.models.mlp import MLP
from repro.nn.models.vit import VisionTransformer
from repro.tensorlib import Tensor, functional as F
from repro.tensorlib.backend import get_backend
from repro.tensorlib.functional import _make_output, _needs_graph, _pair, col2im, im2col


def conv_weight_grad(grad_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The per-rank weight-gradient contraction: ``(N, L, O)``, ``(N, L, K)`` -> ``(O, K)``."""
    n, length, o = grad_mat.shape
    gm = grad_mat.transpose(2, 0, 1).reshape(o, n * length)
    return np.matmul(gm, cols.reshape(n * length, -1))


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride=1, padding=0) -> Tensor:
    """2-D convolution over ``(N, C, H, W)`` input with an ``(O, C, kh, kw)`` weight."""
    stride = _pair(stride)
    padding = _pair(padding)
    out_channels, in_channels, kh, kw = weight.shape
    backend = get_backend()
    cols, (out_h, out_w) = im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(out_channels, -1)
    out = backend.matmul(cols, w_mat.T)
    if bias is not None:
        out = out + bias.data.reshape(1, 1, -1)
    out_data = out.transpose(0, 2, 1).reshape(x.shape[0], out_channels, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _needs_graph(*parents):
        return Tensor._wrap(out_data)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(x.shape[0], out_channels, out_h * out_w).transpose(0, 2, 1)
        if weight.requires_grad:
            cols, _ = im2col(x.data, (kh, kw), stride, padding)
            grad_w = conv_weight_grad(grad_mat, cols)
            del cols
            weight._accumulate(grad_w.reshape(weight.shape), own=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 1)), own=True)
        if x.requires_grad:
            if stride == (1, 1) and padding[0] <= kh - 1 and padding[1] <= kw - 1:
                grad_img = grad.reshape(x.shape[0], out_channels, out_h, out_w)
                flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                g_cols, _ = im2col(grad_img, (kh, kw), (1, 1), (kh - 1 - padding[0], kw - 1 - padding[1]))
                grad_x = (
                    backend.matmul(g_cols, flipped.reshape(x.shape[1], -1).T)
                    .transpose(0, 2, 1)
                    .reshape(x.shape)
                )
            else:
                grad_cols = backend.matmul(grad_mat, w_mat)
                grad_x = col2im(grad_cols, x.shape, (kh, kw), stride, padding)
            x._accumulate(grad_x, own=True)

    return _make_output(out_data, parents, backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``(N, C)`` logits and integer class targets."""
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    n = logits.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def linear_forward(self: L.Linear, x: Tensor) -> Tensor:
    out = x.matmul(self.weight.transpose(1, 0))
    if self.bias is not None:
        out = out + self.bias
    return out


def batch_norm_forward(self: L.BatchNorm2d, x: Tensor) -> Tensor:
    axes = (0, 2, 3)
    param_shape = (1, self.num_features, 1, 1)
    if not self.training:
        mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
        var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        normalised = (x - mean) / (var + self.eps).sqrt()
        return normalised * self.weight.reshape(param_shape) + self.bias.reshape(param_shape)

    def update(batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        new_mean = (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
        new_var = (1 - self.momentum) * self.running_var + self.momentum * batch_var
        self.update_buffer("running_mean", new_mean)
        self.update_buffer("running_var", new_var)

    if x.dtype == np.float32:
        stats = get_backend().fused_norm_stats(x.data, axes, self.eps)
        update(stats[0].reshape(-1), stats[1].reshape(-1))
        return F.fused_norm(
            x, self.weight, self.bias, axes=axes, eps=self.eps, param_shape=param_shape, stats=stats
        )
    out, mean, var = F.batch_norm_replay(
        x, self.weight, self.bias, axes=axes, eps=self.eps, param_shape=param_shape
    )
    update(mean.reshape(-1), var.reshape(-1))
    return out


def layer_norm_forward(self: L.LayerNorm, x: Tensor) -> Tensor:
    if x.dtype == np.float32:
        return F.fused_norm(
            x, self.weight, self.bias, axes=(x.ndim - 1,), eps=self.eps, param_shape=self.weight.shape
        )
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalised = (x - mean) / (var + self.eps).sqrt()
    return normalised * self.weight + self.bias


def flatten_forward(self: L.Flatten, x: Tensor) -> Tensor:
    return x.flatten(start_dim=1)


def attention_forward(self: L.MultiHeadAttention, x: Tensor) -> Tensor:
    scale = 1.0 / float(np.sqrt(self.head_dim))
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


def vit_forward(self: VisionTransformer, x: Tensor) -> Tensor:
    n = x.shape[0]
    patches = self._patchify(x)
    tokens = self.patch_embed(patches)  # (N, P, D)
    cls = self.cls_token
    cls_batch = Tensor.cat(
        [cls[0:1] for _ in range(n)], axis=0
    ) if n > 1 else cls.reshape(1, 1, self.embed_dim)
    tokens = Tensor.cat([cls_batch, tokens], axis=1)
    tokens = tokens + self.pos_embed
    for block in self.blocks:
        tokens = block(tokens)
    tokens = self.norm(tokens)
    return self.head(tokens[:, 0, :])


def mlp_forward(self: MLP, x: Tensor) -> Tensor:
    if x.ndim > 2:
        x = x.flatten(start_dim=1)
    for linear, act in self.blocks:
        x = act(linear(x))
    return self.head(x)


def install(monkeypatch) -> None:
    """Patch the per-rank bodies over the library for the rest of the test."""
    monkeypatch.setattr(F, "conv2d", conv2d)
    monkeypatch.setattr(F, "cross_entropy", cross_entropy)
    for owner, forward in (
        (L.Linear, linear_forward),
        (L.BatchNorm2d, batch_norm_forward),
        (L.LayerNorm, layer_norm_forward),
        (L.Flatten, flatten_forward),
        (L.MultiHeadAttention, attention_forward),
        (VisionTransformer, vit_forward),
        (MLP, mlp_forward),
    ):
        monkeypatch.setattr(owner, "forward", forward)
