"""Differentiable functional primitives built on :class:`repro.tensorlib.Tensor`.

These are the structured operations the model zoo needs that do not fit as
simple elementwise methods on the tensor class: im2col-based 2-D convolution,
max/average pooling, normalisation and the cross-entropy loss.  Each function
constructs the forward value with plain numpy and attaches a backward closure that scatters the
gradient back to its inputs.

The convolution path is the hottest code in every training step, so it avoids
``np.pad`` (a zero buffer plus one slice assignment is several times faster),
gathers its patches with one flat indexed copy through an index plan cached
per layer geometry (the backend's ``im2col_gather``) and contracts the weight
gradient as one ``np.matmul`` per world slice in both dtypes (the backend's
``conv_weight_grad``).

No patch matrix outlives its GEMM.  The gather writes into a pooled buffer
(the backend's ``_workspace``) that is free again once nothing refers to it,
so conv backward gathers its input's patches a second time for the weight
gradient — the same bytes through the same plan — and drops them before the
input-gradient gather, and max-pool backward keeps only the argmax.  A step
therefore holds one layer's patches at a time, not every layer's from
forward to backward.

World-batched execution
-----------------------
Each op has one form, for data with zero or one leading ``world`` axis, and
reads which it is off its operands' ``ndim``.  The plain form is world 0:
one rank's ``(N, C, H, W)`` batch against the model's own parameters.  The
simulated-DDP training step evaluates all live ranks at once by giving the
data a ``world`` axis and swapping parameters for ``(world, *shape)`` views —
broadcasts of shared weights or per-rank stacks (see :mod:`repro.nn.batched`).
Conv/pool fold that axis into the im2col batch axis (each window is still
reduced per sample), contractions keep it as a matmul *batch* axis so numpy
dispatches the same per-slice GEMMs as a plain call on each slice, and
:func:`cross_entropy` returns a per-world loss vector.  A plain convolution
runs as world 1 of the one conv kernel.  Every world-batched float64 result
is bit-identical per rank to the plain form.

Every hot kernel routes through the active :mod:`repro.tensorlib.backend` —
the contractions, the ``im2col`` patch gather (and with it the transposed-conv
input-gradient correlation), the ``col2im`` scatter-add, the pooling window
reductions and the fused-norm statistics — whose numpy reference defines the
summation order accelerated backends must reproduce.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.tensorlib.backend import get_backend
from repro.tensorlib.tensor import Tensor, _neg_unbroadcast, _unbroadcast, is_grad_enabled


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _make_output(data: np.ndarray, parents, backward) -> Tensor:
    out = Tensor._wrap(data)
    if is_grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _needs_graph(*parents: Tensor) -> bool:
    return is_grad_enabled() and any(p.requires_grad for p in parents)


# --------------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------------- #
def _zero_pad(images: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the two trailing spatial axes (fast ``np.pad`` replacement)."""
    if ph == 0 and pw == 0:
        return images
    n, c, h, w = images.shape
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=images.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = images
    return padded


def im2col(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` images into ``(N, out_h*out_w, C*kh*kw)`` patches."""
    n, c, h, w = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding

    if min(kh, kw, sh, sw) < 1 or h + 2 * ph < kh or w + 2 * pw < kw:
        raise ValueError(
            f"window does not fit: input size {(h, w)}, kernel {(kh, kw)}, stride {(sh, sw)}, "
            f"padding {(ph, pw)} (kernel and stride must be >= 1 and the kernel no larger "
            f"than the padded input)"
        )
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1

    padded = _zero_pad(images, ph, pw)
    cols = get_backend().im2col_gather(padded, (kh, kw), (sh, sw), (out_h, out_w))
    return cols, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patches back into image space."""
    n, c, h, w = image_shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1

    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    # One contiguous re-layout (kh, kw, N, C, out_h, out_w) up front turns the
    # kh*kw scatter-adds below into contiguous reads; the additions happen in
    # the same order with the same values, so results are bit-identical.
    cols = np.ascontiguousarray(
        cols.reshape(n, out_h, out_w, c, kh, kw).transpose(4, 5, 0, 3, 1, 2)
    )
    if sh >= kh and sw >= kw:
        # Non-overlapping windows (every pooling layout): the kh*kw ordered
        # '+=' passes each touch a disjoint set of positions, so the whole
        # scatter collapses into one strided assignment — bit-identical
        # because every position receives exactly one addend (0 + x == x).
        strides = padded.strides
        view = np.lib.stride_tricks.as_strided(
            padded,
            shape=(kh, kw, n, c, out_h, out_w),
            strides=(
                strides[2],
                strides[3],
                strides[0],
                strides[1],
                strides[2] * sh,
                strides[3] * sw,
            ),
        )
        view[...] = cols
    else:
        get_backend().col2im_scatter_add(padded, cols, sh, sw, out_h, out_w)
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


# --------------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride=1,
    padding=0,
) -> Tensor:
    """2-D convolution of ``(*world, N, C, H, W)`` input with a ``(*world, O, C, kh, kw)`` weight.

    ``world`` is zero or one leading axis, read off the weight; a plain call
    runs as world 1.  The world axis folds into im2col's batch axis (windows
    still reduce per sample) and stays a *batch* axis of every contraction,
    so numpy runs the same per-slice GEMMs — the weight-gradient contraction
    included — for each world slice as for a plain call.  One weight matrix
    serves every slice when there is one slice or the weight is a replica
    view broadcast from a shared parameter (``strides[0] == 0``), so no
    ``world`` copies are made.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    x_shape, w_shape = x.shape, weight.shape
    lead = len(w_shape) - 4
    if len(x_shape) != len(w_shape) or x_shape[:lead] != w_shape[:lead]:
        raise ValueError(
            f"conv2d expects {'(world, ' if lead else '('}N, C, H, W) input for a weight of "
            f"shape {w_shape}, got input shape {x_shape}"
        )
    world, n = math.prod(w_shape[:lead]), x_shape[lead]
    out_channels, in_channels, kh, kw = w_shape[lead:]
    if x_shape[-3] != in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {x_shape[-3]} channels, weight expects {in_channels}"
        )
    w_data = weight.data.reshape((world,) + w_shape[lead:])

    backend = get_backend()
    flat_shape = (world * n,) + x_shape[-3:]
    cols, (out_h, out_w) = im2col(x.data.reshape(flat_shape), (kh, kw), stride, padding)  # (W*N, L, K)
    length = out_h * out_w
    shared_weight = world == 1 or w_data.strides[0] == 0
    if shared_weight:
        w_mat = w_data[0].reshape(out_channels, -1)  # (O, K)
        w_mats = None
        out4 = backend.matmul(cols, w_mat.T).reshape(world, n, length, out_channels)
    else:
        w_mat = None
        w_mats = w_data.reshape(world, out_channels, -1)  # (W, O, K)
        # (W, N, L, K) @ (W, 1, K, O) -> (W, N, L, O), per-slice GEMMs.
        out4 = backend.matmul(cols.reshape(world, n, length, -1), np.swapaxes(w_mats, -1, -2)[:, None])
    if bias is not None:
        out4 = out4 + bias.data.reshape(world, 1, 1, -1)
    out_data = out4.transpose(0, 1, 3, 2).reshape(x_shape[:-3] + (out_channels, out_h, out_w))

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _needs_graph(*parents):
        return Tensor._wrap(out_data)

    def backward(grad: np.ndarray) -> None:
        # grad: (W, N, O, out_h, out_w) -> (W, N, L, O)
        grad_mat = grad.reshape(world, n, out_channels, length).transpose(0, 1, 3, 2)
        if weight.requires_grad:
            # Re-gathered, not kept from forward: the pooled buffer is free again
            # before the input-gradient gather below asks for one.
            cols4 = im2col(x.data.reshape(flat_shape), (kh, kw), stride, padding)[0].reshape(
                world, n, length, -1
            )
            slot = getattr(weight, "slot", None) if weight.grad is None else None
            if slot is None:
                grad_w = backend.conv_weight_grad(grad_mat, cols4)  # (W, O, K)
                weight._accumulate(grad_w.reshape(w_shape), own=True)
            else:  # a replica view's first contribution, born in its slot
                slot_mat = slot.reshape(world, out_channels, -1)
                if weight.slot_accumulates:
                    # A lent residual: each rank's GEMM lands in a one-rank
                    # temporary and is added to its slice, so the step holds
                    # no (W, O, K) copy beside the residual.
                    for rank in range(world):
                        part = slice(rank, rank + 1)
                        grad_w = backend.conv_weight_grad(grad_mat[part], cols4[part])
                        np.add(grad_w, slot_mat[part], out=slot_mat[part])
                else:
                    backend.conv_weight_grad(grad_mat, cols4, out=slot_mat)
                weight._accumulate(slot, own=True)
            del cols4
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(1, 2)).reshape(bias.shape), own=True)
        if x.requires_grad:
            if (
                stride == (1, 1)
                and padding[0] <= kh - 1
                and padding[1] <= kw - 1
            ):
                # Fast path: the input gradient of a stride-1 convolution is a
                # correlation of the output gradient with the flipped kernels —
                # one im2col + BLAS matmul instead of the kh*kw strided
                # scatter-add loop in col2im.
                grad_img = grad.reshape(world * n, out_channels, out_h, out_w)
                g_cols, _ = im2col(grad_img, (kh, kw), (1, 1), (kh - 1 - padding[0], kw - 1 - padding[1]))
                if shared_weight:
                    flipped = w_data[0][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                    gx = backend.matmul(g_cols, flipped.reshape(in_channels, -1).T)
                else:
                    # (W, C, O*kh*kw) flipped kernels per world; per-slice GEMM.
                    flipped = w_data[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
                    fl = flipped.reshape(world, in_channels, -1)
                    g_cols4 = g_cols.reshape(world, n, g_cols.shape[1], -1)
                    gx = backend.matmul(g_cols4, np.swapaxes(fl, -1, -2)[:, None]).reshape(
                        world * n, g_cols.shape[1], in_channels
                    )
                grad_x = gx.transpose(0, 2, 1).reshape(x_shape)
            else:
                if shared_weight:
                    grad_cols = backend.matmul(
                        grad_mat.reshape(world * n, length, out_channels), w_mat
                    )
                else:
                    grad_cols = backend.matmul(grad_mat, w_mats[:, None]).reshape(
                        world * n, length, -1
                    )
                grad_x = col2im(
                    grad_cols, flat_shape, (kh, kw), stride, padding
                ).reshape(x_shape)
            x._accumulate(grad_x, own=True)

    return _make_output(out_data, parents, backward)


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """Max pooling over ``(..., C, H, W)`` input (extra leading axes fold into the batch)."""
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
        # Only ``argmax`` is kept: the pooled patch buffer is free once forward returns.
        grad_cols = np.zeros((flat, out_h * out_w, kh * kw), dtype=x.data.dtype)
        np.put_along_axis(
            grad_cols, argmax[..., None], grad.reshape(flat, out_h * out_w, 1), axis=2
        )
        grad_x = col2im(grad_cols, (flat, 1, h, w), kernel_size, stride, (0, 0))
        x._accumulate(grad_x.reshape(x.shape), own=True)

    return _make_output(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """Average pooling over ``(..., C, H, W)`` input (extra leading axes fold into the batch)."""
    kernel_size = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel_size
    *lead, c, h, w = x.shape
    flat = math.prod(lead) * c
    kh, kw = kernel_size
    cols, (out_h, out_w) = im2col(x.data.reshape(flat, 1, h, w), kernel_size, stride, (0, 0))
    cols = cols.reshape(flat, out_h * out_w, kh * kw)
    values, _ = get_backend().pool_reduce(cols, "mean")
    out_data = values.reshape(*lead, c, out_h, out_w)
    if not _needs_graph(x):
        return Tensor._wrap(out_data)
    scale = 1.0 / (kh * kw)

    def backward(grad: np.ndarray) -> None:
        grad_cols = np.repeat(
            grad.reshape(flat, out_h * out_w, 1) * scale, kh * kw, axis=2
        )
        grad_x = col2im(grad_cols, (flat, 1, h, w), kernel_size, stride, (0, 0))
        x._accumulate(grad_x.reshape(x.shape), own=True)

    return _make_output(out_data, (x,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only square outputs dividing the input evenly are supported."""
    h, w = x.shape[-2], x.shape[-1]
    if h % output_size or w % output_size:
        raise ValueError("adaptive_avg_pool2d requires the input size to be divisible by output_size")
    return avg_pool2d(x, kernel_size=(h // output_size, w // output_size))


# --------------------------------------------------------------------------- #
# Fused normalisation (float32 fast path)
# --------------------------------------------------------------------------- #
def fused_norm(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    axes: Tuple[int, ...],
    eps: float,
    param_shape: Tuple[int, ...],
    stats=None,
) -> Tensor:
    """Normalise ``x`` over ``axes`` and apply a learned scale/shift, fused.

    One graph node instead of the ~15 the composite ``mean``/``var``/
    arithmetic formulation creates, with the standard analytic batch-norm
    backward.  Used by the float32 fast path of ``BatchNorm2d`` and
    ``LayerNorm``.  The analytic backward re-associates the composite's sums,
    so it is not bit-identical to it: in float64 ``BatchNorm2d`` trains through
    :func:`batch_norm_replay` (one node, the composite's own arithmetic) and
    ``LayerNorm`` keeps the composite ops.

    ``param_shape`` is the broadcast shape the raw ``weight``/``bias`` arrays
    take against ``x`` (e.g. ``(1, C, 1, 1)`` for BatchNorm2d, their own
    shape for LayerNorm); parameter gradients are unbroadcast from it.

    ``stats`` accepts the ``(mean, var, inv_std, x_hat)`` tuple of
    ``backend.fused_norm_stats`` when the caller already computed it (e.g.
    ``BatchNorm2d``, which folds the same statistics into its running
    averages), avoiding a second pass over the activations.
    """
    backend = get_backend()
    if stats is None:
        stats = backend.fused_norm_stats(x.data, axes, eps)
    _, _, inv_std, x_hat = stats
    w = weight.data.reshape(param_shape)
    out_data = x_hat * w + bias.data.reshape(param_shape)

    parents = (x, weight, bias)
    if not _needs_graph(*parents):
        return Tensor._wrap(out_data)

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias_grad = _unbroadcast(grad, param_shape)
            bias._accumulate(bias_grad.reshape(bias.shape), own=bias_grad is not grad)
        if weight.requires_grad:
            weight._accumulate(
                _unbroadcast(grad * x_hat, param_shape).reshape(weight.shape), own=True
            )
        if x.requires_grad:
            x._accumulate(
                backend.fused_norm_backward(grad, w, x_hat, inv_std, axes), own=True
            )

    return _make_output(out_data, parents, backward)


# --------------------------------------------------------------------------- #
# Batch norm, float64 training path: the composite graph replayed in one node
# --------------------------------------------------------------------------- #
def batch_norm_replay(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    axes: Tuple[int, ...],
    eps: float,
    param_shape: Tuple[int, ...],
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm as one graph node; returns ``(out, mean, var)``.

    Performs the floating-point operations of the composite expression ::

        mean = x.mean(axes, keepdims=True); var = x.var(axes, keepdims=True)
        out = (x - mean) / (var + eps).sqrt() * scale + shift

    in the order that graph's forward and reverse-topological backward run
    them, minus what the graph repeats (``x.sum`` and ``x - mean`` twice) or
    only copies (pass-through gradients, the materialised broadcast of the
    variance gradient).  Output, every gradient and ``mean``/``var``
    (``keepdims`` arrays, for the running buffers) are bit-identical to the
    composite's — also when ``x`` has other consumers or a gradient already:
    with leaf ``weight``/``bias`` the composite's nodes are one contiguous
    block of the topological order, and the four input-gradient terms are
    accumulated into ``x`` one by one in that block's order.  The closure keeps
    no full-size array (the composite kept about eight): backward recomputes
    ``centered`` and ``normalised`` bit for bit from ``x``, ``mean`` and ``std``.

    Two things the bit-identity rests on (pinned by
    ``tests/test_batchnorm_replay.py``):

    * every reduction is the composite's own :func:`_unbroadcast` call, which
      sums only the axes broadcasting actually *stretched* — ``(0,)`` rather
      than ``(0, 2, 3)`` at 1x1 spatial (numpy 2.4 returns the same bits for
      both axis sets; the replay does not depend on that);
    * numpy's summation order depends on memory layout.  Conv
      outputs are channels-innermost (NHWC-strided) views, and every
      elementwise result here gets the layout numpy gives the composite's
      because it is the same operation on same-layout operands — except the
      gradient of ``centered * centered``.  There the composite multiplies a
      materialised *copy* of the broadcast variance gradient (laid out
      channels-outermost) with ``centered``; operands that disagree on layout
      make numpy fall back to C order, so for contiguous and NHWC inputs the
      product is C-contiguous, not input-shaped.  The replay skips the copy
      and asks ``np.nditer`` to allocate the output numpy would have chosen
      for such operands.
    """
    inv_count = 1.0 / math.prod(x.shape[axis] for axis in axes)
    mean = x.data.sum(axis=axes, keepdims=True) * inv_count
    centered = x.data - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    std = np.sqrt(var + eps)
    normalised = centered / std
    scale = weight.data.reshape(param_shape)
    out_data = normalised * scale
    out_data += bias.data.reshape(param_shape)

    parents = (x, weight, bias)
    if not _needs_graph(*parents):
        return Tensor._wrap(out_data), mean, var
    stat_shape = mean.shape

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias_grad = _unbroadcast(grad, param_shape)
            bias._accumulate(bias_grad.reshape(bias.shape), own=bias_grad is not grad)
        centered = x.data - mean
        if weight.requires_grad:
            normalised = centered / std
            weight._accumulate(
                _unbroadcast(grad * normalised, param_shape).reshape(weight.shape), own=True
            )
        if not x.requires_grad:
            return
        # d normalised, then the two operands of ``centered / std``.
        scaled = grad * scale
        std_grad = scaled * centered
        std_grad /= std ** 2
        std_grad = _neg_unbroadcast(std_grad, stat_shape)
        centered_grad = np.divide(scaled, std, out=scaled)
        # std -> var -> sum of squares -> centered * centered, into the layout
        # a copy of the broadcast times centered would take (see above).
        square_grad = std_grad * 0.5 / std * inv_count
        like = np.empty_like(np.broadcast_to(square_grad, x.shape))
        var_path = np.nditer(
            [like, centered, None],
            op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
        ).operands[2]
        np.multiply(square_grad, centered, out=var_path)
        var_path *= 2.0
        # x - mean, twice: each hands its gradient to x and minus its
        # reduction, through mean = sum * inv_count, back to x as a broadcast.
        x._accumulate(var_path, own=True)
        x._accumulate(_neg_unbroadcast(var_path, stat_shape) * inv_count)
        x._accumulate(centered_grad)
        x._accumulate(_neg_unbroadcast(centered_grad, stat_shape) * inv_count)

    return _make_output(out_data, parents, backward), mean, var


# --------------------------------------------------------------------------- #
# Losses (functional form)
# --------------------------------------------------------------------------- #
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``(*world, N, C)`` logits and integer ``(*world, N)`` targets.

    Plain logits give the scalar loss; world-batched ones give the per-world
    loss *vector* ``(world,)``, each entry bit-identical to the scalar loss of
    that world slice, and seeding ``backward`` with ``np.ones(world)``
    reproduces the per-slice unit seeds.
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs[np.indices(targets.shape, sparse=True) + (targets,)]
    return -picked.mean(axis=-1)
