"""Conv and max-pool backward re-gather their patches instead of keeping them.

``conv2d``'s backward gathers its input's patch matrix again for the weight
gradient, and ``max_pool2d``'s keeps only the argmax, so no pooled patch
buffer outlives the forward GEMM.  The gather is pure data movement through
the same cached index plan, so every gradient must come out byte for byte as
the kernels that kept forward's matrix produced it.  Those kernels live on
here as the oracle (``retaining_*``, copied from commit 4bda9b1), and results
are compared as bytes, never with a tolerance.  Each run also checks what its
graph holds between forward and backward: a pool buffer under the oracle,
none under the kernel tested.

* conv2d: stride {1, 2} x padding {0, 1} x bias x per-rank / world-batched
  shared (stride-0 replica) / per-world / arena-slot weights x float64 and
  float32 — output, input, weight and bias gradients;
* max_pool2d: non-overlapping and overlapping windows, with tied maxima,
  per-rank and world-batched, both dtypes.
"""

from __future__ import annotations

import contextlib
import math
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.ddp.arena import GradientArena
from repro.ddp.bucket import build_buckets
from repro.nn import layers as L
from repro.nn.batched import replica_views
from repro.tensorlib import Tensor, default_dtype, functional as F
from repro.tensorlib.backend import get_backend
from repro.tensorlib.functional import _make_output, _needs_graph, _pair, col2im, im2col
from tests.test_tape_release import _pinned_pool_bytes


# --------------------------------------------------------------------------- #
# The oracle: the kernels whose backward closures kept forward's patches
# --------------------------------------------------------------------------- #
def retaining_conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride=1, padding=0) -> Tensor:
    """``functional.conv2d`` as of commit 4bda9b1: backward reads forward's ``cols``."""
    stride = _pair(stride)
    padding = _pair(padding)
    if weight.ndim == 5:
        return _retaining_conv2d_batched(x, weight, bias, stride, padding)
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
            # The per-rank weight-gradient contraction, (O, N*L) @ (N*L, K).
            gm = grad_mat.transpose(2, 0, 1).reshape(out_channels, -1)
            grad_w = np.matmul(gm, cols.reshape(gm.shape[1], -1))
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


def _retaining_conv2d_batched(
    x: Tensor, weight: Tensor, bias: Optional[Tensor], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tensor:
    """``functional._conv2d_batched`` as of commit 4bda9b1: backward reads forward's ``cols4``."""
    world, n = x.shape[0], x.shape[1]
    out_channels, in_channels, kh, kw = weight.shape[1:]
    backend = get_backend()
    flat_images = x.data.reshape((world * n,) + x.shape[2:])
    cols, (out_h, out_w) = im2col(flat_images, (kh, kw), stride, padding)
    length = out_h * out_w
    cols4 = cols.reshape(world, n, length, -1)
    shared_weight = weight.data.strides[0] == 0
    if shared_weight:
        w_mat = weight.data[0].reshape(out_channels, -1)
        w_mats = None
        out4 = backend.matmul(cols, w_mat.T).reshape(world, n, length, out_channels)
    else:
        w_mat = None
        w_mats = weight.data.reshape(world, out_channels, -1)
        out4 = backend.matmul(cols4, np.swapaxes(w_mats, -1, -2)[:, None])
    if bias is not None:
        b = bias.data
        if b.strides[0] == 0:
            out4 = out4 + b[0].reshape(1, 1, 1, -1)
        else:
            out4 = out4 + b.reshape(world, 1, 1, -1)
    out_data = out4.transpose(0, 1, 3, 2).reshape(world, n, out_channels, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _needs_graph(*parents):
        return Tensor._wrap(out_data)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(world, n, out_channels, length).transpose(0, 1, 3, 2)
        if weight.requires_grad:
            slot = getattr(weight, "slot", None) if weight.grad is None else None
            if slot is None:
                grad_w = backend.conv_weight_grad(grad_mat, cols4)
                weight._accumulate(grad_w.reshape(weight.shape), own=True)
            else:
                backend.conv_weight_grad(grad_mat, cols4, out=slot.reshape(world, out_channels, -1))
                weight._accumulate(slot, own=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(1, 2)), own=True)
        if x.requires_grad:
            if stride == (1, 1) and padding[0] <= kh - 1 and padding[1] <= kw - 1:
                grad_img = grad.reshape(world * n, out_channels, out_h, out_w)
                g_cols, _ = im2col(grad_img, (kh, kw), (1, 1), (kh - 1 - padding[0], kw - 1 - padding[1]))
                if shared_weight:
                    flipped = weight.data[0][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                    gx = backend.matmul(g_cols, flipped.reshape(in_channels, -1).T)
                else:
                    flipped = weight.data[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
                    fl = flipped.reshape(world, in_channels, -1)
                    g_cols4 = g_cols.reshape(world, n, g_cols.shape[1], -1)
                    gx = backend.matmul(g_cols4, np.swapaxes(fl, -1, -2)[:, None]).reshape(
                        world * n, g_cols.shape[1], in_channels
                    )
                grad_x = gx.transpose(0, 2, 1).reshape(x.shape)
            else:
                if shared_weight:
                    grad_cols = backend.matmul(grad_mat.reshape(world * n, length, out_channels), w_mat)
                else:
                    grad_cols = backend.matmul(grad_mat, w_mats[:, None]).reshape(world * n, length, -1)
                grad_x = col2im(grad_cols, (world * n,) + x.shape[2:], (kh, kw), stride, padding).reshape(x.shape)
            x._accumulate(grad_x, own=True)

    return _make_output(out_data, parents, backward)


def retaining_max_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """``functional.max_pool2d`` as of commit 4bda9b1: backward zero-fills a copy of ``cols``."""
    kernel_size = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel_size
    *lead, c, h, w = x.shape
    flat = math.prod(lead) * c
    kh, kw = kernel_size
    cols, (out_h, out_w) = im2col(x.data.reshape(flat, 1, h, w), kernel_size, stride, (0, 0))
    cols = cols.reshape(flat, out_h * out_w, kh * kw)
    values, argmax = get_backend().pool_reduce(cols, "max")
    out_data = values.reshape(*lead, c, out_h, out_w)
    if not _needs_graph(x):
        return Tensor._wrap(out_data)

    def backward(grad: np.ndarray) -> None:
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, argmax[..., None], grad.reshape(flat, out_h * out_w, 1), axis=2)
        grad_x = col2im(grad_cols, (flat, 1, h, w), kernel_size, stride, (0, 0))
        x._accumulate(grad_x.reshape(x.shape), own=True)

    return _make_output(out_data, (x,), backward)


# --------------------------------------------------------------------------- #
# Byte-equality against the oracle
# --------------------------------------------------------------------------- #
def assert_same_bytes(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, expected in want.items():
        actual = got[key]
        assert actual.dtype == expected.dtype and actual.shape == expected.shape, key
        assert actual.tobytes() == expected.tobytes(), key


WORLD = 2


def _conv_run(conv, weights: str, stride: int, padding: int, bias: bool, dtype: str):
    """Output and every gradient of one conv forward/backward, built from a fixed seed.

    Also returns whether the graph held a pool buffer between forward and backward.
    """
    rng = np.random.default_rng(11)
    n, c, o, size = 3, 2, 4, 6
    x_shape = (n, c, size, size) if weights == "per-rank" else (WORLD, n, c, size, size)
    with default_dtype(dtype), contextlib.ExitStack() as scope:
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        w = rng.standard_normal((o, c, 3, 3)).astype(dtype)
        b = rng.standard_normal(o).astype(dtype)
        if weights == "per-rank":
            weight, shift = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        elif weights == "shared":
            weight = Tensor(np.broadcast_to(w, (WORLD,) + w.shape), requires_grad=True)
            shift = Tensor(np.broadcast_to(b, (WORLD,) + b.shape), requires_grad=True)
            assert weight.data.strides[0] == 0
        elif weights == "per-world":
            weight = Tensor(np.stack([w, 0.5 * w]), requires_grad=True)
            shift = Tensor(np.stack([b, -b]), requires_grad=True)
        else:  # a replica view whose first gradient is born in its arena slot
            layer = L.Conv2d(c, o, 3, stride=stride, padding=padding, bias=bias)
            layer.weight.data[...] = w
            if bias:
                layer.bias.data[...] = b
            slots = GradientArena(build_buckets(layer), WORLD, dtype=dtype).slots
            views = scope.enter_context(replica_views(layer, WORLD, slots))
            weight, shift = views["weight"], views.get("bias")
        out = conv(x, weight, shift if bias else None, stride=stride, padding=padding)
        holds_patches = bool(_pinned_pool_bytes())
        out.backward(rng.standard_normal(out.shape))
        if weights == "arena-slot":
            assert weight.grad is slots["weight"]
        result = {"out": out.data.copy(), "x": x.grad.copy(), "weight": weight.grad.copy()}
        if bias:
            result["bias"] = shift.grad.copy()
    return result, holds_patches


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("weights", ["per-rank", "shared", "per-world", "arena-slot"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_gradients_equal_the_retaining_kernel(stride, padding, bias, weights, dtype):
    got, got_holds = _conv_run(F.conv2d, weights, stride, padding, bias, dtype)
    want, want_holds = _conv_run(retaining_conv2d, weights, stride, padding, bias, dtype)
    assert_same_bytes(got, want)
    assert want_holds and not got_holds


def _pool_run(pool, batched: bool, kernel: int, stride: int, dtype: str):
    rng = np.random.default_rng(12)
    shape = (WORLD, 3, 2, 7, 7) if batched else (3, 2, 7, 7)
    with default_dtype(dtype):
        # ReLU-like input: zero ties inside many windows exercise the first-max rule.
        x = Tensor(np.maximum(rng.standard_normal(shape), 0.0), requires_grad=True)
        out = pool(x, kernel, stride)
        holds_patches = bool(_pinned_pool_bytes())
        out.backward(rng.standard_normal(out.shape))
        return {"out": out.data.copy(), "x": x.grad.copy()}, holds_patches


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("batched", [False, True], ids=["per-rank", "world-batched"])
@pytest.mark.parametrize("kernel, stride", [(2, 2), (3, 2), (3, 1)])
def test_max_pool2d_gradients_equal_the_retaining_kernel(kernel, stride, batched, dtype):
    got, got_holds = _pool_run(F.max_pool2d, batched, kernel, stride, dtype)
    want, want_holds = _pool_run(retaining_max_pool2d, batched, kernel, stride, dtype)
    assert_same_bytes(got, want)
    assert want_holds and not got_holds
