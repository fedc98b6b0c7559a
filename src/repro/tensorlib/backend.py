"""The array-kernel seam of the tensor engine.

NumPy is the engine: every committed golden trace and benchmark number was
produced by the kernels of :class:`NumpyBackend`, and the float64 path is
required to stay bit-identical across refactors.  The hot spots of a training
step — the im2col patch gather, the conv weight-gradient contraction, the
``col2im`` strided scatter-add, the pooling window reductions and the
fused-norm statistics — are methods of that one class (:data:`HOT_KERNELS`),
and every call site reaches them through :func:`get_backend`.  The im2col
gather is one flat ``np.take`` through a per-geometry index plan cached on
this module (:func:`_gather_index_plan`, bounded by total plan bytes) into a
pooled buffer (:func:`_workspace`).  Callers hold a patch matrix only for the
GEMM that reads it — conv backward gathers again rather than keep forward's —
so a step reuses one layer's buffer instead of pinning one per layer.

The seam exists for two callers.  :mod:`repro.obs` meters the hot kernels
while tracing by wrapping the active instance (the :data:`_OBSERVER` hook);
tests substitute a recording subclass for :data:`_ACTIVE`.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

#: The routed hot-spot kernels every backend may override.
HOT_KERNELS = (
    "matmul",
    "im2col_gather",
    "conv_weight_grad",
    "col2im_scatter_add",
    "pool_reduce",
    "fused_norm_stats",
    "fused_norm_backward",
)


#: Bound on the total bytes of cached gather plans.  A plan is as large as one
#: image's patch matrix in int64 (``out_h*out_w*C*kh*kw*8`` bytes: 36 KB for
#: the benchmark's ``(8, 10, 10)`` k3 layers, 4.7 MB for a full-width
#: ``(64, 32, 32)`` one), so the bound counts bytes, not entries; 64 MB holds
#: every geometry of a full-width CIFAR-scale ResNet-18 or VGG-19 several
#: times over.
_PLAN_CACHE_MAX_BYTES = 64 << 20

#: geometry -> read-only index plan, shared by every backend in the process.
_GATHER_PLANS: Dict[Tuple, np.ndarray] = {}


def _gather_index_plan(
    channels: int,
    padded_h: int,
    padded_w: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Flat per-image source indices of the im2col gather, cached per geometry.

    Element ``t`` of the returned read-only ``int64`` vector is the offset —
    inside one C-contiguous ``(C, padded_h, padded_w)`` image — of the value
    that lands at flat output position ``t`` of the ``(out_h*out_w, C*kh*kw)``
    patch matrix.  Pure integer bookkeeping, computed once per geometry: every
    training step over the same layer reuses the plan.  The cache is cleared
    when the next plan would take it past :data:`_PLAN_CACHE_MAX_BYTES`; a
    single plan larger than the bound is returned uncached.
    """
    key = (channels, padded_h, padded_w, *kernel, *stride, *out_hw)
    plan = _GATHER_PLANS.get(key)
    if plan is not None:
        return plan
    kh, kw = kernel
    sh, sw = stride
    out_h, out_w = out_hw
    h = (
        (np.arange(out_h, dtype=np.int64) * sh)[:, None, None, None, None]
        + np.arange(kh, dtype=np.int64)[None, None, None, :, None]
    )
    w = (
        (np.arange(out_w, dtype=np.int64) * sw)[None, :, None, None, None]
        + np.arange(kw, dtype=np.int64)[None, None, None, None, :]
    )
    c = np.arange(channels, dtype=np.int64)[None, None, :, None, None]
    # Output layout: rows (out_h, out_w), columns (c, kh, kw) — exactly the
    # (N, L, C*kh*kw) ordering im2col hands the conv/pool GEMMs.
    plan = (c * (padded_h * padded_w) + h * padded_w + w).reshape(-1)
    plan.flags.writeable = False  # shared by every caller
    if plan.nbytes <= _PLAN_CACHE_MAX_BYTES:
        cached = sum(p.nbytes for p in _GATHER_PLANS.values())
        if cached + plan.nbytes > _PLAN_CACHE_MAX_BYTES:
            _GATHER_PLANS.clear()
        _GATHER_PLANS[key] = plan
    return plan


#: Bound on the bytes of pooled workspace buffers.  No graph keeps a patch
#: matrix (conv backward re-gathers its own), so the pool settles at one
#: layer's patches: 4.7 MB for the benchmark's world-batched ResNet-18 and
#: VGG-19 steps (44 MB and 28 MB while graphs kept them).
_WORKSPACE_MAX_BYTES = 64 << 20

#: Flat ``uint8`` buffers, from least to most recently handed out.
_WORKSPACE: List[np.ndarray] = []

#: Buffers the pool has allocated so far: a repeated step allocates none.
_workspace_misses = 0


def _workspace(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised C-contiguous ``shape``/``dtype`` array carved from the pool.

    A buffer is handed out only while the pool holds its only reference: a
    numpy view refers to the buffer owning its memory, so a patch matrix a
    live graph or a caller still holds pins its buffer (the CPython refcount
    test numpy's temporary elision relies on).  The smallest free buffer that
    fits serves.  A miss allocates exactly the request and drops the free
    smaller buffers last handed out before every buffer in use — leftovers of
    an earlier, smaller pass — so one warm-up step settles the set a repeated
    step reuses.  Past :data:`_WORKSPACE_MAX_BYTES` the free buffers are
    dropped; a request that still does not fit is served unpooled.  Like the
    grad mode and the active world, the pool assumes one training thread.
    """
    global _workspace_misses
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > _WORKSPACE_MAX_BYTES:
        return np.empty(shape, dtype=dtype)
    pool = _WORKSPACE
    # Two references mean free: the pool's list entry and getrefcount's argument.
    fits = [i for i in range(len(pool)) if pool[i].nbytes >= nbytes and sys.getrefcount(pool[i]) == 2]
    if fits:
        buffer = pool.pop(min(fits, key=lambda i: pool[i].nbytes))
        pool.append(buffer)
    else:
        _workspace_misses += 1
        free = [sys.getrefcount(pool[i]) == 2 for i in range(len(pool))]
        buffer = np.empty(nbytes, dtype=np.uint8)
        first_live = free.index(False) if False in free else len(pool)
        kept = [b for i, b in enumerate(pool) if i >= first_live or b.nbytes >= nbytes]
        if sum(b.nbytes for b in kept) + nbytes > _WORKSPACE_MAX_BYTES:
            kept = [b for b, f in zip(pool, free) if not f]
        if sum(b.nbytes for b in kept) + nbytes <= _WORKSPACE_MAX_BYTES:
            kept.append(buffer)
        pool[:] = kept
    return buffer[:nbytes].view(dtype).reshape(shape)


class NumpyBackend:
    """The reference backend: a minimal array-API surface over numpy.

    The protocol is deliberately small — the matmul, the im2col/col2im data
    movement and the pooling and normalisation reductions — because that is
    the complete set of numpy entry points the tensor engine's hot paths go
    through.  Methods accept and return ``np.ndarray``;
    accelerated subclasses may convert internally but must hand back numpy
    arrays.
    """

    name = "numpy"

    # ------------------------------------------------------------------ #
    # Contractions
    # ------------------------------------------------------------------ #
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b)

    # ------------------------------------------------------------------ #
    # Hot-spot kernels (the seams accelerated backends override)
    # ------------------------------------------------------------------ #
    def im2col_gather(
        self,
        padded: np.ndarray,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        out_hw: Tuple[int, int],
    ) -> np.ndarray:
        """Gather ``(N, C, Hp, Wp)`` padded images into contiguous patches.

        Returns the ``(N, out_h*out_w, C*kh*kw)`` patch matrix the conv/pool
        GEMMs consume: a C-contiguous :func:`_workspace` array that aliases no
        live array.  One flat indexed copy per image through the cached
        :func:`_gather_index_plan` — pure data movement, so the result is
        bit-identical for every dtype and input layout.  Plan indices are in
        range, so ``mode="wrap"`` rewrites none; it is numpy's fastest take
        loop, and ``out=`` under the default ``mode="raise"`` would buffer.
        """
        n, c, hp, wp = padded.shape
        plan = _gather_index_plan(c, hp, wp, kernel, stride, out_hw)
        cols = _workspace((n, plan.size), padded.dtype)
        np.take(padded.reshape(n, c * hp * wp), plan, axis=1, out=cols, mode="wrap")
        return cols.reshape(n, out_hw[0] * out_hw[1], c * kernel[0] * kernel[1])

    def conv_weight_grad(
        self, grad_mat: np.ndarray, cols: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Convolution weight-gradient contraction, ``(W, O, N*L) @ (W, N*L, K)``.

        ``grad_mat``/``cols`` are ``(W, N, L, O)`` / ``(W, N, L, K)``: a world
        axis (one slice for a plain convolution), samples, windows and the
        output / patch columns.  The sample and window axes fuse into the
        single contraction axis and the world axis stays a *batch* axis, so
        numpy runs one GEMM per world slice.  ``out`` (returned) receives the
        ``(W, O, K)`` result bit-identically, e.g. an arena slot whose ranks
        lie a bucket row apart.
        """
        world, n, length, o = grad_mat.shape
        gm = grad_mat.transpose(0, 3, 1, 2).reshape(world, o, n * length)
        return np.matmul(gm, cols.reshape(world, n * length, -1), out=out)

    def col2im_scatter_add(
        self, padded: np.ndarray, cols: np.ndarray, sh: int, sw: int, out_h: int, out_w: int
    ) -> None:
        """The ordered ``kh*kw`` scatter-add of :func:`repro.tensorlib.functional.col2im`.

        ``cols`` is the ``(kh, kw, N, C, out_h, out_w)`` re-layout; additions
        run in ``(i, j)``-major order, which defines the reference summation
        order every accelerated implementation must reproduce.
        """
        kh, kw = cols.shape[0], cols.shape[1]
        for i in range(kh):
            for j in range(kw):
                padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols[i, j]

    def pool_reduce(
        self, cols: np.ndarray, op: str
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Reduce pooling windows: ``cols`` is ``(flat, L, K)``.

        ``op="max"`` returns ``(values, argmax)`` — the argmax (first maximal
        position, numpy convention) is what the pooling backward scatters
        through; ``op="mean"`` returns ``(values, None)``.
        """
        if op == "max":
            argmax = cols.argmax(axis=2)
            values = np.take_along_axis(cols, argmax[..., None], axis=2)[..., 0]
            return values, argmax
        if op == "mean":
            return cols.mean(axis=2), None
        raise ValueError(f"unknown pool_reduce op {op!r}; expected 'max' or 'mean'")

    def fused_norm_stats(
        self, data: np.ndarray, axes: Tuple[int, ...], eps: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Normalisation statistics over ``axes``: ``(mean, var, inv_std, x_hat)``.

        All returned arrays keep the reduced axes as size-1 dimensions except
        ``x_hat``, which has ``data``'s shape.  This is the forward half of
        the fused batch/layer-norm path.
        """
        mean = data.mean(axis=axes, keepdims=True)
        centered = data - mean
        var = np.mean(centered * centered, axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = centered * inv_std
        return mean, var, inv_std, x_hat

    def fused_norm_backward(
        self,
        grad: np.ndarray,
        w: np.ndarray,
        x_hat: np.ndarray,
        inv_std: np.ndarray,
        axes: Tuple[int, ...],
    ) -> np.ndarray:
        """Input gradient of the fused normalisation (analytic batch-norm form).

        ``w`` is the scale parameter already reshaped to broadcast against
        ``grad``; ``x_hat``/``inv_std`` are the forward statistics.
        """
        g_hat = grad * w
        mean_g = g_hat.mean(axis=axes, keepdims=True)
        mean_gx = (g_hat * x_hat).mean(axis=axes, keepdims=True)
        return inv_std * (g_hat - mean_g - x_hat * mean_gx)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} name={self.name!r}>"


_ACTIVE = NumpyBackend()

#: Observation hook installed by :mod:`repro.obs` while tracing is enabled:
#: a callable wrapping the active backend in a kernel-metering proxy.  This
#: is the *single* disabled-path guard for backend instrumentation — one
#: ``is not None`` check per ``get_backend()`` call.
_OBSERVER = None


def get_backend() -> NumpyBackend:
    """The process-wide active :class:`NumpyBackend`, wrapped by the observer while tracing."""
    if _OBSERVER is not None:
        return _OBSERVER(_ACTIVE)
    return _ACTIVE
