"""Pluggable array-API backend seam for the tensor engine.

The reproduction's numerics are pinned to numpy: every committed golden trace
and benchmark number was produced by numpy kernels, and the float64 path is
required to stay bit-identical across refactors.  At the same time the hot
spots of a training step — the im2col patch gather, the conv weight-gradient
contraction, the ``col2im`` strided scatter-add, the pooling window reductions
and the fused-norm statistics — are exactly the kind of kernel an accelerated
array library executes much faster.

This module separates the *reference scheme* from its *accelerated
implementations* (the discipline the Wang-Landau acceleration literature
applies to stochastic approximation: accuracy control stays pinned while the
execution strategy varies):

* :class:`NumpyBackend` — the reference.  Every other backend is measured
  against it; selecting it is always safe.  Its im2col gather is one flat
  ``np.take`` through a per-geometry index plan cached on this module
  (:func:`_gather_index_plan`, bounded by total plan bytes).
* :class:`NumbaBackend` — JIT-compiles the hot-spot kernels with plain
  sequential accumulation loops (no fastmath, no reassociation; reductions
  replay numpy's pairwise summation tree).  On construction it *probes* each
  JIT kernel against the numpy reference on random inputs and silently falls
  back to numpy for any kernel that is not bit-identical on this platform, so
  selecting numba can change speed but never results.
* :class:`TorchBackend` / :class:`CupyBackend` — adapters over optional
  GPU-capable libraries routing the full conv/pool/norm kernel set.  Each
  kernel call converts its operands to device tensors once, runs every
  internal step device-resident and converts the result back once, so the
  transfer cost is amortised per kernel call rather than per array op.  They
  make **no** bit-identity promise (different BLAS, different reduction
  orders); the golden-trace harness is the guard rail if they are ever used
  for frozen workloads.

None of the optional libraries is required: creating a backend whose library
is missing falls back to :class:`NumpyBackend` with a warning logged **once
per process** and the reason recorded on the returned instance
(:attr:`NumpyBackend.fallback_from` / :attr:`NumpyBackend.fallback_reason`),
so ``REPRO_BACKEND=numba`` on a numpy-only host degrades gracefully and
``python -m repro backends`` can explain why.

Selection
---------
The process-wide active backend is resolved lazily from the
``REPRO_BACKEND`` environment variable (default ``numpy``) and can be changed
with :func:`set_backend` or scoped with :func:`use_backend`.  Experiment runs
select a backend per run through ``ExperimentConfig.backend``.  Backends
named by string resolve through a process-level cache
(:func:`shared_backend`), so JIT compilation and bit-identity probes are paid
once per process — campaign pool workers warm the cache in their initializer
and every subsequent cell reuses the compiled kernels.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import logging
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

logger = logging.getLogger(__name__)

#: Environment variable naming the process-default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Names accepted by :func:`create_backend` / ``ExperimentConfig.backend``.
KNOWN_BACKENDS = ("numpy", "numba", "torch", "cupy")

#: The routed hot-spot kernels every backend may override.
HOT_KERNELS = (
    "matmul",
    "einsum",
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


class NumpyBackend:
    """The reference backend: a minimal array-API surface over numpy.

    The protocol is deliberately small — the contractions, the im2col/col2im
    data movement, the pooling and normalisation reductions and an RNG bridge
    — because that is the complete set of numpy entry points the tensor
    engine's hot paths go through.  Methods accept and return ``np.ndarray``;
    accelerated subclasses may convert internally but must hand back numpy
    arrays.
    """

    name = "numpy"

    #: Set on instances returned as a degradation target: the backend name the
    #: caller asked for and why it could not be provided.  ``None`` when this
    #: instance was requested directly.
    fallback_from: Optional[str] = None
    fallback_reason: Optional[str] = None

    def kernel_status(self) -> Dict[str, str]:
        """Per-kernel routing description (``{kernel: implementation note}``)."""
        return {kernel: "numpy reference" for kernel in HOT_KERNELS}

    # ------------------------------------------------------------------ #
    # Contractions
    # ------------------------------------------------------------------ #
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b)

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        return np.einsum(subscripts, *operands)

    # ------------------------------------------------------------------ #
    # Data movement
    # ------------------------------------------------------------------ #
    def pad(self, a: np.ndarray, pad_width) -> np.ndarray:
        return np.pad(a, pad_width)

    def take(self, a: np.ndarray, indices: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
        return np.take(a, indices, axis=axis)

    # ------------------------------------------------------------------ #
    # Reductions (numpy ufunc reductions: the bit-identity reference)
    # ------------------------------------------------------------------ #
    def sum(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return np.sum(a, axis=axis, keepdims=keepdims)

    def mean(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return np.mean(a, axis=axis, keepdims=keepdims)

    def amax(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return np.amax(a, axis=axis, keepdims=keepdims)

    def amin(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return np.amin(a, axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # RNG bridge
    # ------------------------------------------------------------------ #
    def rng(self, seed: Optional[int] = None) -> np.random.Generator:
        """A numpy ``Generator``: all backends share numpy's RNG streams so
        stochastic codecs and dropout draw identical sequences regardless of
        which backend executes the contractions."""
        return np.random.default_rng(seed)

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
        GEMMs consume: a fresh C-contiguous array that never aliases
        ``padded``.  One flat indexed copy per image through the cached
        :func:`_gather_index_plan` — pure data movement, so the result is
        bit-identical for every dtype and input layout.
        """
        n, c, hp, wp = padded.shape
        plan = _gather_index_plan(c, hp, wp, kernel, stride, out_hw)
        cols = np.take(padded.reshape(n, c * hp * wp), plan, axis=1)
        return cols.reshape(n, out_hw[0] * out_hw[1], c * kernel[0] * kernel[1])

    def conv_weight_grad(self, grad_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Convolution weight-gradient contraction, ``(O, N*L) @ (N*L, K)``.

        ``grad_mat``/``cols`` are either the per-rank ``(N, L, O)`` /
        ``(N, L, K)`` layout or the world-batched ``(W, N, L, O)`` /
        ``(W, N, L, K)`` layout.  Both dispatch to GEMM with the sample and
        window axes fused into the single contraction axis; the world axis
        stays a *batch* axis (numpy runs one GEMM per slice), so the batched
        result is bit-identical to calling the per-rank kernel per world.
        """
        if grad_mat.ndim == 4:
            world, n, length, o = grad_mat.shape
            gm = grad_mat.transpose(0, 3, 1, 2).reshape(world, o, n * length)
            return np.matmul(gm, cols.reshape(world, n * length, -1))
        n, length, o = grad_mat.shape
        gm = grad_mat.transpose(2, 0, 1).reshape(o, n * length)
        return np.matmul(gm, cols.reshape(n * length, -1))

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


class NumbaBackend(NumpyBackend):
    """Numba-accelerated backend: JITs the hot-spot kernels.

    Every kernel keeps numpy's exact summation semantics — the col2im
    scatter-add runs its additions in the same ``(i, j)``-major order, the
    pooling/normalisation reductions replay numpy's pairwise-summation tree,
    and the pool max is pure data movement.  The im2col gather is not
    overridden: the reference's plan-driven ``np.take`` already is the flat
    indexed copy a JIT loop would run.  Because compilers and BLAS builds may
    still differ in ways we cannot see, each kernel is probed for bit-identity
    against :class:`NumpyBackend` on random float64 *and* float32 inputs at
    construction time; a kernel that fails its probe (or fails to compile) is
    disabled — numpy is used instead — with a logged warning and the reason
    recorded in :meth:`kernel_status`.  Selecting this backend can therefore
    change speed but never numbers.

    The fused-norm kernels accelerate the last-axis (LayerNorm-shaped)
    reduction; channel-axis reductions (BatchNorm over ``(N, H, W)``) fall
    through to the numpy reference, whose multi-axis accumulation order a
    sequential loop cannot cheaply reproduce bit-exactly.
    """

    name = "numba"

    #: Reduction sizes above this use numpy (the JIT pairwise tree matches
    #: numpy's PW_BLOCKSIZE=128 base case plus its recursive split).
    _PAIRWISE_BLOCK = 128

    def __init__(self) -> None:
        import numba  # raises ImportError when unavailable

        njit = numba.njit

        @njit(cache=False)
        def _conv_weight_grad(gm, cols2):  # pragma: no cover - jit
            # (O, N*L) @ (N*L, K): numba lowers np.dot to BLAS, the same
            # routine the numpy reference dispatches to; the probe verifies
            # the two builds actually agree bit-for-bit on this host.
            return np.dot(gm, cols2)

        @njit(cache=False)
        def _col2im_scatter(padded, cols, sh, sw):  # pragma: no cover - jit
            kh, kw, n, c, oh, ow = cols.shape
            for i in range(kh):
                for j in range(kw):
                    for a in range(n):
                        for b in range(c):
                            for t in range(oh):
                                for u in range(ow):
                                    padded[a, b, i + sh * t, j + sw * u] += cols[i, j, a, b, t, u]

        @njit(cache=False)
        def _pairwise(a, lo, n, zero):  # pragma: no cover - jit
            # numpy's pairwise summation tree (umath pairwise_sum): naive
            # below 8 elements, the 8-accumulator unrolled loop up to the
            # 128-element block size, and the halve-to-a-multiple-of-8
            # recursion above.  Replaying the exact tree is what makes the
            # JIT reductions bit-identical to numpy's.
            if n < 8:
                res = zero
                for i in range(n):
                    res += a[lo + i]
                return res
            if n <= 128:
                r0 = a[lo]
                r1 = a[lo + 1]
                r2 = a[lo + 2]
                r3 = a[lo + 3]
                r4 = a[lo + 4]
                r5 = a[lo + 5]
                r6 = a[lo + 6]
                r7 = a[lo + 7]
                i = 8
                limit = n - (n % 8)
                while i < limit:
                    r0 += a[lo + i]
                    r1 += a[lo + i + 1]
                    r2 += a[lo + i + 2]
                    r3 += a[lo + i + 3]
                    r4 += a[lo + i + 4]
                    r5 += a[lo + i + 5]
                    r6 += a[lo + i + 6]
                    r7 += a[lo + i + 7]
                    i += 8
                res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
                while i < n:
                    res += a[lo + i]
                    i += 1
                return res
            n2 = (n // 2) - ((n // 2) % 8)
            return _pairwise(a, lo, n2, zero) + _pairwise(a, lo + n2, n - n2, zero)

        @njit(cache=False)
        def _pool_max(cols, values, argmax):  # pragma: no cover - jit
            flat, length, k = cols.shape
            for i in range(flat):
                for l in range(length):
                    window = cols[i, l]
                    best = window[0]
                    arg = 0
                    for j in range(1, k):
                        if window[j] > best:
                            best = window[j]
                            arg = j
                    values[i, l] = best
                    argmax[i, l] = arg

        @njit(cache=False)
        def _pool_mean(cols, values, zero, k_t):  # pragma: no cover - jit
            flat, length, k = cols.shape
            for i in range(flat):
                for l in range(length):
                    values[i, l] = _pairwise(cols[i, l], 0, k, zero) / k_t

        @njit(cache=False)
        def _norm_stats(data, mean, var, inv_std, x_hat, tmp, eps_t, zero, one, d_t):  # pragma: no cover - jit
            m, d = data.shape
            for i in range(m):
                row = data[i]
                xr = x_hat[i]
                mu = _pairwise(row, 0, d, zero) / d_t
                for j in range(d):
                    cen = row[j] - mu
                    xr[j] = cen
                    tmp[j] = cen * cen
                v = _pairwise(tmp, 0, d, zero) / d_t
                s = one / np.sqrt(v + eps_t)
                for j in range(d):
                    xr[j] = xr[j] * s
                mean[i] = mu
                var[i] = v
                inv_std[i] = s

        @njit(cache=False)
        def _norm_backward(g_hat, x_hat, inv_std, out, tmp, zero, d_t):  # pragma: no cover - jit
            m, d = g_hat.shape
            for i in range(m):
                g = g_hat[i]
                xh = x_hat[i]
                o = out[i]
                mean_g = _pairwise(g, 0, d, zero) / d_t
                for j in range(d):
                    tmp[j] = g[j] * xh[j]
                mean_gx = _pairwise(tmp, 0, d, zero) / d_t
                s = inv_std[i]
                for j in range(d):
                    o[j] = s * ((g[j] - mean_g) - xh[j] * mean_gx)

        self._conv_weight_grad_jit = _conv_weight_grad
        self._col2im_scatter_jit = _col2im_scatter
        self._pool_max_jit = _pool_max
        self._pool_mean_jit = _pool_mean
        self._norm_stats_jit = _norm_stats
        self._norm_backward_jit = _norm_backward

        self._kernel_notes: Dict[str, str] = {}
        self._jit_weight_grad_ok = self._probe("conv_weight_grad", self._probe_weight_grad)
        self._jit_col2im_ok = self._probe("col2im_scatter_add", self._probe_col2im)
        self._jit_pool_ok = self._probe("pool_reduce", self._probe_pool)
        self._jit_norm_ok = self._probe("fused_norm_stats", self._probe_norm)
        self._kernel_notes.setdefault(
            "fused_norm_backward", self._kernel_notes.get("fused_norm_stats", "jit")
        )

    # ------------------------------------------------------------------ #
    # Probe harness
    # ------------------------------------------------------------------ #
    def _probe(self, kernel: str, probe) -> bool:
        """Run one bit-identity probe; compile/accuracy failures degrade the kernel."""
        try:
            probe()
        except Exception as error:  # numba compile errors, platform quirks
            self._kernel_notes[kernel] = f"numpy (jit failed: {type(error).__name__}: {error})"
            logger.warning(
                "numba %s kernel failed to compile or probe on this platform (%s); "
                "using the numpy reference for it",
                kernel,
                error,
            )
            return False
        self._kernel_notes[kernel] = "jit"
        return True

    def _probe_weight_grad(self) -> None:
        rng = np.random.default_rng(0)
        grad_mat = rng.standard_normal((3, 5, 4))
        cols = rng.standard_normal((3, 5, 7))
        reference = NumpyBackend.conv_weight_grad(self, grad_mat, cols)
        gm = np.ascontiguousarray(grad_mat.transpose(2, 0, 1).reshape(4, 15))
        out = self._conv_weight_grad_jit(gm, cols.reshape(15, 7))
        if not np.array_equal(out, reference):
            raise AssertionError("not bit-identical to the numpy GEMM")

    def _probe_col2im(self) -> None:
        rng = np.random.default_rng(1)
        cols = rng.standard_normal((3, 3, 2, 2, 4, 4))
        reference = np.zeros((2, 2, 10, 10))
        NumpyBackend.col2im_scatter_add(self, reference, cols, 2, 2, 4, 4)
        probe = np.zeros_like(reference)
        self._col2im_scatter_jit(probe, cols, 2, 2)
        if not np.array_equal(probe, reference):
            raise AssertionError("not bit-identical to the numpy scatter order")

    def _probe_pool(self) -> None:
        rng = np.random.default_rng(3)
        # Window sizes hitting all pairwise base-case branches: naive (<8),
        # the unrolled block with a tail (9, 100).
        for dtype in (np.float64, np.float32):
            for k in (4, 9, 100):
                cols = rng.standard_normal((3, 5, k)).astype(dtype)
                for op in ("max", "mean"):
                    ref_values, ref_arg = NumpyBackend.pool_reduce(self, cols, op)
                    values, arg = self._pool(cols, op)
                    if not np.array_equal(values, ref_values):
                        raise AssertionError(f"pool {op} values diverge (k={k}, {dtype})")
                    if op == "max" and not np.array_equal(arg, ref_arg):
                        raise AssertionError(f"pool argmax diverges (k={k}, {dtype})")

    def _probe_norm(self) -> None:
        rng = np.random.default_rng(4)
        # 37 exercises the unrolled block + tail, 300 the recursive split.
        for dtype in (np.float64, np.float32):
            for shape in ((3, 5, 37), (2, 300)):
                data = rng.standard_normal(shape).astype(dtype)
                axes = (data.ndim - 1,)
                reference = NumpyBackend.fused_norm_stats(self, data, axes, 1e-5)
                out = self._norm_stats(data, axes, 1e-5)
                for ref, got in zip(reference, out):
                    if not np.array_equal(ref, got):
                        raise AssertionError(f"norm stats diverge ({shape}, {dtype})")
                grad = rng.standard_normal(shape).astype(dtype)
                w = rng.standard_normal(shape[-1]).astype(dtype)
                ref_gx = NumpyBackend.fused_norm_backward(
                    self, grad, w, reference[3], reference[2], axes
                )
                got_gx = self._norm_backward(grad, w, out[3], out[2], axes)
                if not np.array_equal(ref_gx, got_gx):
                    raise AssertionError(f"norm backward diverges ({shape}, {dtype})")

    # ------------------------------------------------------------------ #
    def kernel_status(self) -> Dict[str, str]:
        status = super().kernel_status()
        status.update(self._kernel_notes)
        return status

    # ------------------------------------------------------------------ #
    # Kernel dispatch (per-kernel degradation to the numpy reference)
    # ------------------------------------------------------------------ #
    def conv_weight_grad(self, grad_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if not self._jit_weight_grad_ok:
            return super().conv_weight_grad(grad_mat, cols)
        if grad_mat.ndim == 4:
            world, n, length, o = grad_mat.shape
            gm = np.ascontiguousarray(grad_mat.transpose(0, 3, 1, 2).reshape(world, o, n * length))
            cols3 = np.ascontiguousarray(cols.reshape(world, n * length, -1))
            out = np.empty((world, o, cols3.shape[-1]), dtype=grad_mat.dtype)
            for w in range(world):
                out[w] = self._conv_weight_grad_jit(gm[w], cols3[w])
            return out
        n, length, o = grad_mat.shape
        gm = np.ascontiguousarray(grad_mat.transpose(2, 0, 1).reshape(o, n * length))
        return self._conv_weight_grad_jit(gm, np.ascontiguousarray(cols.reshape(n * length, -1)))

    def col2im_scatter_add(
        self, padded: np.ndarray, cols: np.ndarray, sh: int, sw: int, out_h: int, out_w: int
    ) -> None:
        if not self._jit_col2im_ok:
            super().col2im_scatter_add(padded, cols, sh, sw, out_h, out_w)
            return
        self._col2im_scatter_jit(padded, np.ascontiguousarray(cols), sh, sw)

    def _pool(self, cols: np.ndarray, op: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        flat, length, k = cols.shape
        cols = np.ascontiguousarray(cols)
        if op == "max":
            values = np.empty((flat, length), dtype=cols.dtype)
            argmax = np.empty((flat, length), dtype=np.int64)
            self._pool_max_jit(cols, values, argmax)
            return values, argmax
        dt = cols.dtype.type
        values = np.empty((flat, length), dtype=cols.dtype)
        self._pool_mean_jit(cols, values, dt(0.0), dt(k))
        return values, None

    def pool_reduce(
        self, cols: np.ndarray, op: str
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if (
            not self._jit_pool_ok
            or op not in ("max", "mean")
            or cols.dtype not in (np.float64, np.float32)
        ):
            return super().pool_reduce(cols, op)
        return self._pool(cols, op)

    def _norm_axes_supported(self, data: np.ndarray, axes: Tuple[int, ...]) -> bool:
        return tuple(axes) == (data.ndim - 1,) and data.dtype in (np.float64, np.float32)

    def _norm_stats(self, data: np.ndarray, axes: Tuple[int, ...], eps: float):
        d = data.shape[-1]
        lead = data.shape[:-1]
        flat = np.ascontiguousarray(data).reshape(-1, d)
        m = flat.shape[0]
        dt = data.dtype.type
        mean = np.empty(m, dtype=data.dtype)
        var = np.empty(m, dtype=data.dtype)
        inv_std = np.empty(m, dtype=data.dtype)
        x_hat = np.empty_like(flat)
        tmp = np.empty(d, dtype=data.dtype)
        self._norm_stats_jit(
            flat, mean, var, inv_std, x_hat, tmp, dt(eps), dt(0.0), dt(1.0), dt(d)
        )
        keep = lead + (1,)
        return (
            mean.reshape(keep),
            var.reshape(keep),
            inv_std.reshape(keep),
            x_hat.reshape(data.shape),
        )

    def fused_norm_stats(
        self, data: np.ndarray, axes: Tuple[int, ...], eps: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if not self._jit_norm_ok or not self._norm_axes_supported(data, axes):
            return super().fused_norm_stats(data, axes, eps)
        return self._norm_stats(data, axes, eps)

    def _norm_backward(
        self,
        grad: np.ndarray,
        w: np.ndarray,
        x_hat: np.ndarray,
        inv_std: np.ndarray,
        axes: Tuple[int, ...],
    ) -> np.ndarray:
        d = grad.shape[-1]
        # The scale broadcast happens in numpy (exact elementwise multiply);
        # the JIT accelerates the two row reductions and the fused update.
        g_hat = np.ascontiguousarray(grad * w).reshape(-1, d)
        flat_x = np.ascontiguousarray(x_hat).reshape(-1, d)
        inv_flat = np.ascontiguousarray(inv_std).reshape(-1)
        out = np.empty_like(g_hat)
        tmp = np.empty(d, dtype=g_hat.dtype)
        dt = g_hat.dtype.type
        self._norm_backward_jit(g_hat, flat_x, inv_flat, out, tmp, dt(0.0), dt(d))
        return out.reshape(grad.shape)

    def fused_norm_backward(
        self,
        grad: np.ndarray,
        w: np.ndarray,
        x_hat: np.ndarray,
        inv_std: np.ndarray,
        axes: Tuple[int, ...],
    ) -> np.ndarray:
        if not self._jit_norm_ok or not self._norm_axes_supported(grad, axes):
            return super().fused_norm_backward(grad, w, x_hat, inv_std, axes)
        return self._norm_backward(grad, w, x_hat, inv_std, axes)


class TorchBackend(NumpyBackend):
    """Adapter over an installed torch routing the full conv/pool/norm set.

    Experimental: torch's BLAS and reduction orders differ from numpy's, so
    this backend makes no bit-identity promise — the golden-trace harness
    (with a small ``--rtol``) is the guard rail.  Each kernel converts its
    numpy operands to CPU tensors once, runs every internal step on torch and
    converts back once, so the conversion overhead is per kernel call, not per
    array op.  Absent torch falls back to numpy.
    """

    name = "torch"

    def __init__(self) -> None:
        import torch  # raises ImportError when unavailable

        self._torch = torch

    def kernel_status(self) -> Dict[str, str]:
        status = super().kernel_status()
        status.update({kernel: "torch (no bit-identity promise)" for kernel in HOT_KERNELS})
        return status

    def _to(self, a: np.ndarray):
        return self._torch.from_numpy(np.ascontiguousarray(a))

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._torch.matmul(self._to(a), self._to(b)).numpy()

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        return self._torch.einsum(subscripts, *[self._to(op) for op in operands]).numpy()

    def im2col_gather(self, padded, kernel, stride, out_hw):
        torch = self._torch
        n, c = padded.shape[0], padded.shape[1]
        kh, kw = kernel
        sh, sw = stride
        out_h, out_w = out_hw
        t = self._to(padded)
        s = t.stride()
        view = t.as_strided(
            (n, c, out_h, out_w, kh, kw), (s[0], s[1], s[2] * sh, s[3] * sw, s[2], s[3])
        )
        cols = view.permute(0, 2, 3, 1, 4, 5).reshape(n, out_h * out_w, c * kh * kw)
        return cols.contiguous().numpy()

    def conv_weight_grad(self, grad_mat, cols):
        torch = self._torch
        g = self._to(grad_mat)
        c = self._to(cols)
        if grad_mat.ndim == 4:
            world, n, length, o = grad_mat.shape
            gm = g.permute(0, 3, 1, 2).reshape(world, o, n * length)
            return torch.matmul(gm, c.reshape(world, n * length, -1)).numpy()
        n, length, o = grad_mat.shape
        gm = g.permute(2, 0, 1).reshape(o, n * length)
        return torch.matmul(gm, c.reshape(n * length, -1)).numpy()

    def col2im_scatter_add(self, padded, cols, sh, sw, out_h, out_w):
        # from_numpy shares memory with the caller's output buffer, so the
        # in-place strided additions land directly in the numpy array.
        t_padded = self._torch.from_numpy(padded)
        t_cols = self._to(cols)
        kh, kw = cols.shape[0], cols.shape[1]
        for i in range(kh):
            for j in range(kw):
                t_padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += t_cols[i, j]

    def pool_reduce(self, cols, op):
        t = self._to(cols)
        if op == "max":
            values, argmax = t.max(dim=2)
            return values.numpy(), argmax.numpy()
        if op == "mean":
            return t.mean(dim=2).numpy(), None
        raise ValueError(f"unknown pool_reduce op {op!r}; expected 'max' or 'mean'")

    def fused_norm_stats(self, data, axes, eps):
        torch = self._torch
        d = self._to(data)
        mean = d.mean(dim=tuple(axes), keepdim=True)
        centered = d - mean
        var = (centered * centered).mean(dim=tuple(axes), keepdim=True)
        inv_std = 1.0 / torch.sqrt(var + eps)
        x_hat = centered * inv_std
        return mean.numpy(), var.numpy(), inv_std.numpy(), x_hat.numpy()

    def fused_norm_backward(self, grad, w, x_hat, inv_std, axes):
        g = self._to(grad)
        g_hat = g * self._to(np.broadcast_to(w, grad.shape))
        xh = self._to(x_hat)
        mean_g = g_hat.mean(dim=tuple(axes), keepdim=True)
        mean_gx = (g_hat * xh).mean(dim=tuple(axes), keepdim=True)
        return (self._to(inv_std) * (g_hat - mean_g - xh * mean_gx)).numpy()


class CupyBackend(NumpyBackend):
    """Adapter over an installed cupy routing the full conv/pool/norm set.

    Experimental, same caveats as :class:`TorchBackend`; operands cross the
    device boundary once per kernel call (in and out), so it only pays off for
    large kernels where the GPU work dwarfs the transfers.
    """

    name = "cupy"

    def __init__(self) -> None:
        import cupy  # raises ImportError when unavailable

        self._cupy = cupy

    def kernel_status(self) -> Dict[str, str]:
        status = super().kernel_status()
        status.update({kernel: "cupy (no bit-identity promise)" for kernel in HOT_KERNELS})
        return status

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        cp = self._cupy
        return cp.asnumpy(cp.matmul(cp.asarray(a), cp.asarray(b)))

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        cp = self._cupy
        return cp.asnumpy(cp.einsum(subscripts, *[cp.asarray(op) for op in operands]))

    def im2col_gather(self, padded, kernel, stride, out_hw):
        cp = self._cupy
        n, c = padded.shape[0], padded.shape[1]
        kh, kw = kernel
        sh, sw = stride
        out_h, out_w = out_hw
        d = cp.asarray(np.ascontiguousarray(padded))
        strides = d.strides
        view = cp.lib.stride_tricks.as_strided(
            d,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(strides[0], strides[1], strides[2] * sh, strides[3] * sw, strides[2], strides[3]),
        )
        cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h * out_w, c * kh * kw)
        return cp.asnumpy(cp.ascontiguousarray(cols))

    def conv_weight_grad(self, grad_mat, cols):
        cp = self._cupy
        g = cp.asarray(grad_mat)
        c = cp.asarray(cols)
        if grad_mat.ndim == 4:
            world, n, length, o = grad_mat.shape
            gm = g.transpose(0, 3, 1, 2).reshape(world, o, n * length)
            return cp.asnumpy(cp.matmul(gm, c.reshape(world, n * length, -1)))
        n, length, o = grad_mat.shape
        gm = g.transpose(2, 0, 1).reshape(o, n * length)
        return cp.asnumpy(cp.matmul(gm, c.reshape(n * length, -1)))

    def col2im_scatter_add(self, padded, cols, sh, sw, out_h, out_w):
        cp = self._cupy
        d_padded = cp.asarray(padded)
        d_cols = cp.asarray(cols)
        kh, kw = cols.shape[0], cols.shape[1]
        for i in range(kh):
            for j in range(kw):
                d_padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += d_cols[i, j]
        padded[...] = cp.asnumpy(d_padded)

    def pool_reduce(self, cols, op):
        cp = self._cupy
        d = cp.asarray(cols)
        if op == "max":
            argmax = d.argmax(axis=2)
            values = cp.take_along_axis(d, argmax[..., None], axis=2)[..., 0]
            return cp.asnumpy(values), cp.asnumpy(argmax)
        if op == "mean":
            return cp.asnumpy(d.mean(axis=2)), None
        raise ValueError(f"unknown pool_reduce op {op!r}; expected 'max' or 'mean'")

    def fused_norm_stats(self, data, axes, eps):
        cp = self._cupy
        d = cp.asarray(data)
        mean = d.mean(axis=axes, keepdims=True)
        centered = d - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
        inv_std = 1.0 / cp.sqrt(var + eps)
        x_hat = centered * inv_std
        return cp.asnumpy(mean), cp.asnumpy(var), cp.asnumpy(inv_std), cp.asnumpy(x_hat)

    def fused_norm_backward(self, grad, w, x_hat, inv_std, axes):
        cp = self._cupy
        g_hat = cp.asarray(grad) * cp.asarray(w)
        xh = cp.asarray(x_hat)
        mean_g = g_hat.mean(axis=axes, keepdims=True)
        mean_gx = (g_hat * xh).mean(axis=axes, keepdims=True)
        return cp.asnumpy(cp.asarray(inv_std) * (g_hat - mean_g - xh * mean_gx))


#: name -> backend class
_BACKEND_CLASSES = {
    "numpy": NumpyBackend,
    "numba": NumbaBackend,
    "torch": TorchBackend,
    "cupy": CupyBackend,
}

#: name -> module that must be importable for the backend to work.
_BACKEND_REQUIRES = {"numba": "numba", "torch": "torch", "cupy": "cupy"}

_ACTIVE: Optional[NumpyBackend] = None

#: Process-level cache of backends constructed by name: JIT compilation and
#: bit-identity probes are paid once, then every string-selected use (env
#: var, ``ExperimentConfig.backend``, campaign cells) reuses the instance.
_SHARED: Dict[str, NumpyBackend] = {}

#: Backend names whose missing-library degradation has already been logged;
#: the fallback is per-call but the warning is once per process.
_FALLBACK_WARNED: set = set()


def available_backends() -> List[str]:
    """Names of the backends whose libraries are importable on this host."""
    names = ["numpy"]
    for name, module in _BACKEND_REQUIRES.items():
        if importlib.util.find_spec(module) is not None:
            names.append(name)
    return names


def create_backend(name: str) -> NumpyBackend:
    """Instantiate a backend by name, falling back to numpy when unavailable.

    Unknown names raise ``KeyError`` (a configuration typo must fail loudly);
    a *known* backend whose optional library is missing — or whose
    construction fails — degrades to :class:`NumpyBackend`.  The warning is
    logged once per process per backend name; the reason is recorded on the
    returned instance (``fallback_from``/``fallback_reason``) either way, so
    ``python -m repro backends`` can report silent-looking fallbacks.
    """
    if name not in _BACKEND_CLASSES:
        raise KeyError(f"unknown backend {name!r}; known backends: {sorted(_BACKEND_CLASSES)}")
    reason = None
    try:
        return _BACKEND_CLASSES[name]()
    except ImportError:
        reason = f"{_BACKEND_REQUIRES.get(name, name)} is not installed"
    except Exception as error:  # pragma: no cover - defensive
        reason = f"failed to initialise: {error}"
    if name not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(name)
        logger.warning("backend %r unavailable (%s); falling back to numpy", name, reason)
    fallback = NumpyBackend()
    fallback.fallback_from = name
    fallback.fallback_reason = reason
    return fallback


def shared_backend(name: str) -> NumpyBackend:
    """The process-cached backend for ``name`` (constructed on first use).

    This is what string-based selection resolves through: a campaign worker
    that runs fifty cells under ``backend="numba"`` compiles and probes the
    JIT kernels exactly once.  :func:`create_backend` stays available for
    callers that need a fresh instance.
    """
    backend = _SHARED.get(name)
    if backend is None:
        backend = create_backend(name)
        _SHARED[name] = backend
    return backend


def _resolve_default() -> NumpyBackend:
    name = os.environ.get(BACKEND_ENV_VAR, "numpy").strip() or "numpy"
    if name not in _BACKEND_CLASSES:
        logger.warning(
            "%s=%r names an unknown backend (known: %s); falling back to numpy",
            BACKEND_ENV_VAR,
            name,
            sorted(_BACKEND_CLASSES),
        )
        return NumpyBackend()
    return shared_backend(name)


#: Observation hook installed by :mod:`repro.obs` while tracing is enabled:
#: a callable wrapping the active backend in a kernel-metering proxy.  This
#: is the *single* disabled-path guard for backend instrumentation — one
#: ``is not None`` check per ``get_backend()`` call.
_OBSERVER = None


def get_backend() -> NumpyBackend:
    """The process-wide active backend (lazily resolved from ``REPRO_BACKEND``)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _resolve_default()
    if _OBSERVER is not None:
        return _OBSERVER(_ACTIVE)
    return _ACTIVE


def set_backend(backend: Union[str, NumpyBackend, None]) -> NumpyBackend:
    """Set the process-wide backend.

    Accepts a name (``"numpy"``, ``"numba"``, ...), a backend instance, or
    ``None`` to re-resolve from the environment.  Names resolve through the
    process cache (:func:`shared_backend`), so repeated selection does not
    re-pay JIT compilation.  Returns the backend that is now active (which
    may be the numpy fallback when the requested optional library is
    missing).
    """
    global _ACTIVE
    if backend is None:
        _ACTIVE = _resolve_default()
    elif isinstance(backend, str):
        _ACTIVE = shared_backend(backend)
    else:
        _ACTIVE = backend
    return _ACTIVE


@contextlib.contextmanager
def use_backend(backend: Union[str, NumpyBackend, None]) -> Iterator[NumpyBackend]:
    """Scoped backend selection: restores the previous backend on exit.

    ``use_backend(None)`` is a no-op context (the current backend stays
    active) — the convention ``ExperimentConfig.backend = None`` relies on.
    """
    global _ACTIVE
    if backend is None:
        yield get_backend()
        return
    previous = _ACTIVE
    active = set_backend(backend)
    try:
        yield active
    finally:
        _ACTIVE = previous


# --------------------------------------------------------------------------- #
# Introspection (``python -m repro backends``)
# --------------------------------------------------------------------------- #
@dataclass
class BackendInfo:
    """Probe/availability status of one known backend on this host."""

    name: str
    installed: bool
    status: str  # "reference" | "available" | "degraded-to-numpy"
    detail: str
    kernels: Dict[str, str] = field(default_factory=dict)


def describe_backends(probe: bool = True) -> List[BackendInfo]:
    """Status of every known backend: available / degraded / why.

    With ``probe=True`` (default) each installed backend is actually
    constructed through the process cache — for numba that means JIT
    compilation plus the bit-identity probes, so the per-kernel column shows
    what *really* executes on this host instead of what nominally should.
    ``probe=False`` only checks library availability (fast, no compilation).
    """
    infos: List[BackendInfo] = []
    for name in KNOWN_BACKENDS:
        requires = _BACKEND_REQUIRES.get(name)
        installed = requires is None or importlib.util.find_spec(requires) is not None
        if name == "numpy":
            infos.append(
                BackendInfo(
                    name="numpy",
                    installed=True,
                    status="reference",
                    detail="bit-identity reference; always available",
                    kernels=NumpyBackend().kernel_status() if probe else {},
                )
            )
            continue
        if not installed:
            infos.append(
                BackendInfo(
                    name=name,
                    installed=False,
                    status="degraded-to-numpy",
                    detail=f"{requires} is not installed",
                )
            )
            continue
        if not probe:
            infos.append(
                BackendInfo(
                    name=name,
                    installed=True,
                    status="available",
                    detail=f"{requires} importable (not probed; pass --probe for kernel status)",
                )
            )
            continue
        backend = shared_backend(name)
        if backend.name != name:
            infos.append(
                BackendInfo(
                    name=name,
                    installed=True,
                    status="degraded-to-numpy",
                    detail=backend.fallback_reason or "construction failed",
                )
            )
            continue
        kernels = backend.kernel_status()
        degraded = sorted(k for k, note in kernels.items() if note.startswith("numpy (jit failed"))
        detail = "all kernels active"
        if degraded:
            detail = f"kernels rejected by probe: {', '.join(degraded)}"
        elif name in ("torch", "cupy"):
            detail = "routed (no bit-identity promise)"
        infos.append(
            BackendInfo(
                name=name, installed=True, status="available", detail=detail, kernels=kernels
            )
        )
    return infos
