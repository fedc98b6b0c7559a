"""Parity and routing tests for the backend seam's hot kernels.

Two layers of guarantees:

* the :class:`NumpyBackend` kernels (``im2col_gather``, ``pool_reduce``,
  ``fused_norm_stats``/``fused_norm_backward``) agree bit for bit with naive
  loop/composite formulations across a hypothesis-driven
  dtype × stride × padding × kernel-size grid;
* every conv/pool/norm call site in ``functional.py``/``nn/layers.py`` —
  looped *and* world-batched — actually routes through ``get_backend()``
  (a recording backend proves it).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensorlib import backend as B
from repro.tensorlib import functional as F
from repro.tensorlib.tensor import Tensor


@pytest.fixture(autouse=True)
def _restore_active_backend():
    previous = B._ACTIVE
    yield
    B._ACTIVE = previous


# --------------------------------------------------------------------------- #
# Naive references
# --------------------------------------------------------------------------- #
def naive_im2col(padded, kernel, stride, out_hw):
    n, c, _, _ = padded.shape
    kh, kw = kernel
    sh, sw = stride
    oh, ow = out_hw
    out = np.empty((n, oh * ow, c * kh * kw), dtype=padded.dtype)
    for i in range(n):
        for y in range(oh):
            for x in range(ow):
                patch = padded[i, :, y * sh : y * sh + kh, x * sw : x * sw + kw]
                out[i, y * ow + x] = patch.reshape(-1)
    return out


def composite_norm_stats(data, axes, eps):
    mean = data.mean(axis=axes, keepdims=True)
    centered = data - mean
    var = np.mean(centered * centered, axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    return mean, var, inv_std, centered * inv_std


def composite_norm_backward(grad, w, x_hat, inv_std, axes):
    g_hat = grad * w
    mean_g = g_hat.mean(axis=axes, keepdims=True)
    mean_gx = (g_hat * x_hat).mean(axis=axes, keepdims=True)
    return inv_std * (g_hat - mean_g - x_hat * mean_gx)


# --------------------------------------------------------------------------- #
# Hypothesis parity grid: dtype x layout x stride x padding x kernel size
# --------------------------------------------------------------------------- #
def _as_layout(padded, layout):
    """``padded``'s values behind a non-contiguous view of the named kind."""
    if layout == "strided-slice":
        wide = np.zeros(padded.shape[:3] + (2 * padded.shape[3],), dtype=padded.dtype)
        wide[..., ::2] = padded
        return wide[..., ::2]
    if layout == "transposed":
        return np.ascontiguousarray(padded.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    if layout == "broadcast":  # stride 0 over the batch axis: every image is image 0
        return np.broadcast_to(padded[:1], (padded.shape[0] + 1,) + padded.shape[1:])
    return padded


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    layout=st.sampled_from(["contiguous", "strided-slice", "transposed", "broadcast"]),
    stride=st.sampled_from([(1, 1), (2, 2), (2, 1), (3, 3)]),
    padding=st.sampled_from([(0, 0), (1, 1), (2, 0)]),
    kernel=st.sampled_from([(1, 1), (2, 2), (3, 3), (3, 2), "full"]),
    n=st.integers(min_value=1, max_value=3),
    c=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_im2col_gather_parity(dtype, layout, stride, padding, kernel, n, c, seed):
    rng = np.random.default_rng(seed)
    ph, pw = padding
    if kernel == "full":
        # kernel == (Hp, Wp): one window per image, the 1x1 adaptive_avg_pool2d case
        h, w = 4, 5
        kernel = (h + 2 * ph, w + 2 * pw)
    else:
        h = kernel[0] + 2  # always at least one window
        w = kernel[1] + 3
    kh, kw = kernel
    images = (rng.standard_normal((n, c, h, w)) * 4).astype(dtype)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = images
    padded = _as_layout(padded, layout)
    assert padded.flags.c_contiguous == (layout == "contiguous")
    out_hw = (
        (h + 2 * ph - kh) // stride[0] + 1,
        (w + 2 * pw - kw) // stride[1] + 1,
    )
    expected = naive_im2col(padded, kernel, stride, out_hw)
    cols = B.NumpyBackend().im2col_gather(padded, kernel, stride, out_hw)
    assert cols.dtype == padded.dtype
    assert np.array_equal(cols, expected)
    # Always a fresh array: downstream kernels may write into it and the
    # caller's images must not change underneath.
    assert cols.flags.c_contiguous and cols.flags.writeable
    assert not np.shares_memory(cols, padded)


class TestGatherPlanCache:
    """The one per-geometry index plan the gather kernel reads."""

    GEOMETRY = (2, 6, 6, (3, 3), (1, 1), (4, 4))

    def test_plan_is_read_only(self):
        plan = B._gather_index_plan(*self.GEOMETRY)
        assert plan.dtype == np.int64 and plan.flags.c_contiguous
        assert not plan.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            plan[0] = 0

    def test_plan_reused_on_repeat_call(self, monkeypatch):
        monkeypatch.setattr(B, "_GATHER_PLANS", {})
        padded = np.random.default_rng(0).standard_normal((1,) + self.GEOMETRY[:3])
        backend = B.NumpyBackend()
        first = backend.im2col_gather(padded, *self.GEOMETRY[3:])
        (plan,) = B._GATHER_PLANS.values()
        second = backend.im2col_gather(padded, *self.GEOMETRY[3:])
        assert len(B._GATHER_PLANS) == 1  # reused, not re-planned
        assert B._gather_index_plan(*self.GEOMETRY) is plan
        assert np.array_equal(first, second) and not np.shares_memory(first, second)

    def test_cache_stays_under_its_byte_bound(self, monkeypatch):
        monkeypatch.setattr(B, "_GATHER_PLANS", {})
        bound = 4 * B._gather_index_plan(*self.GEOMETRY).nbytes
        monkeypatch.setattr(B, "_PLAN_CACHE_MAX_BYTES", bound)
        built = 0
        for size in range(6, 40):  # far more than `bound` worth of distinct plans
            plan = B._gather_index_plan(1, size, size, (3, 3), (1, 1), (size - 2, size - 2))
            built += plan.nbytes
            assert sum(p.nbytes for p in B._GATHER_PLANS.values()) <= bound
            # A plan larger than the whole bound is handed out uncached.
            assert (plan.nbytes > bound) == all(p is not plan for p in B._GATHER_PLANS.values())
        assert built > 10 * bound


@settings(max_examples=30, deadline=None)
@given(
    dtype=st.sampled_from([np.float64, np.float32]),
    k=st.sampled_from([1, 4, 9, 16, 100]),
    flat=st.integers(min_value=1, max_value=6),
    length=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pool_reduce_parity(dtype, k, flat, length, seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((flat, length, k)).astype(dtype)
    expected_max = cols.max(axis=2)
    expected_arg = cols.argmax(axis=2)
    expected_mean = cols.mean(axis=2)
    backend = B.NumpyBackend()
    values, argmax = backend.pool_reduce(cols, "max")
    assert np.array_equal(values, expected_max)
    assert np.array_equal(argmax, expected_arg)
    values, none = backend.pool_reduce(cols, "mean")
    assert np.array_equal(values, expected_mean)
    assert none is None


@settings(max_examples=30, deadline=None)
@given(
    dtype=st.sampled_from([np.float64, np.float32]),
    dim=st.sampled_from([3, 8, 37, 200]),
    rows=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fused_norm_last_axis_parity(dtype, dim, rows, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, dim)).astype(dtype)
    grad = rng.standard_normal((rows, dim)).astype(dtype)
    w = rng.standard_normal((dim,)).astype(dtype)
    axes = (1,)
    eps = 1e-5
    expected = composite_norm_stats(data, axes, eps)
    expected_gx = composite_norm_backward(grad, w, expected[3], expected[2], axes)
    backend = B.NumpyBackend()
    stats = backend.fused_norm_stats(data, axes, eps)
    for field, actual, ref in zip(("mean", "var", "inv_std", "x_hat"), stats, expected):
        assert actual.shape == ref.shape, field
        assert np.array_equal(actual, ref), field
    gx = backend.fused_norm_backward(grad, w, stats[3], stats[2], axes)
    assert np.array_equal(gx, expected_gx)


def test_fused_norm_batchnorm_axes_parity():
    """Channel-style reductions (BatchNorm) match the composite too."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
    grad = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
    w = rng.standard_normal((1, 3, 1, 1)).astype(np.float32)
    axes = (0, 2, 3)
    expected = composite_norm_stats(data, axes, 1e-5)
    expected_gx = composite_norm_backward(grad, w, expected[3], expected[2], axes)
    backend = B.NumpyBackend()
    stats = backend.fused_norm_stats(data, axes, 1e-5)
    for actual, ref in zip(stats, expected):
        assert np.array_equal(actual, ref)
    gx = backend.fused_norm_backward(grad, w, stats[3], stats[2], axes)
    assert np.array_equal(gx, expected_gx)


def test_pool_reduce_rejects_unknown_op():
    with pytest.raises(ValueError, match="pool_reduce"):
        B.NumpyBackend().pool_reduce(np.zeros((1, 1, 4)), "median")


# --------------------------------------------------------------------------- #
# Call-site routing: every conv/pool/norm site goes through get_backend()
# --------------------------------------------------------------------------- #
class RecordingBackend(B.NumpyBackend):
    """Reference numerics, but records which hot kernels were dispatched."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def im2col_gather(self, padded, kernel, stride, out_hw):
        self.calls.append("im2col_gather")
        return super().im2col_gather(padded, kernel, stride, out_hw)

    def conv_weight_grad(self, grad_mat, cols):
        self.calls.append("conv_weight_grad")
        return super().conv_weight_grad(grad_mat, cols)

    def col2im_scatter_add(self, padded, cols, sh, sw, out_h, out_w):
        self.calls.append("col2im_scatter_add")
        super().col2im_scatter_add(padded, cols, sh, sw, out_h, out_w)

    def pool_reduce(self, cols, op):
        self.calls.append(f"pool_reduce:{op}")
        return super().pool_reduce(cols, op)

    def fused_norm_stats(self, data, axes, eps):
        self.calls.append("fused_norm_stats")
        return super().fused_norm_stats(data, axes, eps)

    def fused_norm_backward(self, grad, w, x_hat, inv_std, axes):
        self.calls.append("fused_norm_backward")
        return super().fused_norm_backward(grad, w, x_hat, inv_std, axes)


class TestCallSiteRouting:
    def _conv_roundtrip(self, world: bool):
        rng = np.random.default_rng(0)
        if world:
            x = Tensor(rng.standard_normal((2, 2, 3, 8, 8)), requires_grad=True)
            weight = Tensor(rng.standard_normal((2, 4, 3, 3, 3)), requires_grad=True)
        else:
            x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
            weight = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        out = F.conv2d(x, weight, stride=2, padding=1)
        out.sum().backward()

    @pytest.mark.parametrize("world", [False, True], ids=["looped", "batched"])
    def test_conv_routes_gather_weight_grad_and_scatter(self, world):
        recorder = B._ACTIVE = RecordingBackend()
        self._conv_roundtrip(world)
        assert "im2col_gather" in recorder.calls
        assert "conv_weight_grad" in recorder.calls
        # stride-2 3x3 conv: overlapping windows -> the backend scatter-add
        assert "col2im_scatter_add" in recorder.calls

    def test_conv_stride1_input_grad_routes_through_gather(self):
        recorder = B._ACTIVE = RecordingBackend()
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        weight = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        F.conv2d(x, weight, stride=1, padding=1).sum().backward()
        # forward gather + the transposed-conv correlation's gather
        assert recorder.calls.count("im2col_gather") >= 2

    @pytest.mark.parametrize("world", [False, True], ids=["looped", "batched"])
    def test_pooling_routes_reduce(self, world):
        recorder = B._ACTIVE = RecordingBackend()
        rng = np.random.default_rng(2)
        shape = (2, 2, 3, 8, 8) if world else (2, 3, 8, 8)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        F.avg_pool2d(x, 2).sum().backward()
        assert "pool_reduce:max" in recorder.calls
        assert "pool_reduce:mean" in recorder.calls

    @pytest.mark.parametrize("world", [False, True], ids=["looped", "batched"])
    def test_fused_norm_routes_stats_and_backward(self, world):
        recorder = B._ACTIVE = RecordingBackend()
        rng = np.random.default_rng(3)
        shape = (2, 4, 5, 16) if world else (4, 5, 16)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        weight = Tensor(np.ones(16, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
        param_shape = (1,) * (x.ndim - 1) + (16,)
        out = F.fused_norm(x, weight, bias, axes=(x.ndim - 1,), eps=1e-5, param_shape=param_shape)
        out.sum().backward()
        assert "fused_norm_stats" in recorder.calls
        assert "fused_norm_backward" in recorder.calls

    @pytest.mark.parametrize("world", [False, True], ids=["looped", "batched"])
    def test_batchnorm_layer_routes_stats_once(self, world):
        from repro.nn.layers import BatchNorm2d  # noqa: PLC0415
        from repro.nn.batched import replica_views  # noqa: PLC0415
        from repro.tensorlib import default_dtype  # noqa: PLC0415

        recorder = B._ACTIVE = RecordingBackend()
        rng = np.random.default_rng(4)
        with default_dtype("float32"):
            layer = BatchNorm2d(3)
            layer.train()
            if world:
                x = Tensor(rng.standard_normal((2, 4, 3, 6, 6)), requires_grad=True)
                with replica_views(layer, world_size=2):
                    out = layer(x)
            else:
                x = Tensor(rng.standard_normal((4, 3, 6, 6)), requires_grad=True)
                out = layer(x)
            out.sum().backward()
        # Stats computed exactly once and shared with fused_norm (no repass).
        assert recorder.calls.count("fused_norm_stats") == 1
        assert "fused_norm_backward" in recorder.calls

    def test_recording_backend_is_value_identical(self):
        """Routing through the recorder must not change any numbers."""
        rng = np.random.default_rng(5)
        data = rng.standard_normal((2, 3, 8, 8))
        kernels = rng.standard_normal((4, 3, 3, 3))

        def run():
            x = Tensor(data.copy(), requires_grad=True)
            out = F.max_pool2d(F.conv2d(x, Tensor(kernels.copy()), stride=2, padding=1), 2)
            out.sum().backward()
            return out.data.copy(), np.array(x.grad, copy=True)

        B._ACTIVE = B.NumpyBackend()
        out_ref, grad_ref = run()
        B._ACTIVE = RecordingBackend()
        out_rec, grad_rec = run()
        assert np.array_equal(out_ref, out_rec)
        assert np.array_equal(grad_ref, grad_rec)
