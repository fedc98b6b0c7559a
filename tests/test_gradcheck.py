"""``backward()`` against calculus: central finite differences, float64 and float32.

PRs 13-14 replaced the conv and batch-norm kernels under bit-identity-to-the-
old-code contracts; these tests compare the code with the derivative it claims
to be (ROADMAP item 4d).  For each case the output is projected on a fixed
random direction ``d`` so that ``s = sum(out * d)`` is a scalar, ``backward(d)``
gives the analytic gradient of ``s`` for every leaf, and every element of
every leaf is perturbed by ``+-1e-5`` for the numeric one.  The error reported
per leaf is ``max|analytic - numeric| / max|numeric|`` and must stay under
``1e-6`` (the truncation term is ~1e-10 and float64 round-off ~1e-9 at these
sizes).  Inputs to ``max_pool2d`` are spaced so that no perturbation can change
which element of a window is the largest.

A leaf is a ``(tensor, storage)`` pair: ``storage`` is the writable array that
is perturbed.  For a world-batched *replica* — the stride-0 broadcast view
``repro.nn.batched`` hands every layer — the storage is the shared parameter
and the analytic gradient is the view's per-rank stack summed over the world.

Float32 cases (conv2d, including a replica whose weight gradient is written
into a gradient-arena slot, and ``fused_norm``) take their step and bar from
the dtype: the step is the power of two nearest ``eps ** (1/3)`` (``2**-8``;
a power of two keeps ``x +- step`` exact in float32) and the bar is
``FLOAT32_BAR * eps ** (2/3)`` (``4.8e-4``): ``eps ** (2/3)`` is the order of
the smallest error a central difference reaches at that precision, and the
factor leaves ~8x over the worst case measured (5.7e-5, ``fused_norm``; the
arena-slot conv 5.5e-5).  The projection is summed in float64 from the
float32 outputs.  ``MultiHeadAttention`` is checked in float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ddp.arena import GradientArena
from repro.ddp.bucket import build_buckets
from repro.nn import layers as L
from repro.nn.batched import replica_views
from repro.tensorlib import Tensor, default_dtype, functional as F, no_grad
from tests.test_tensor_autograd import numeric_gradient

SEEDS = range(4)
STEP = 1e-5
TOLERANCE = 1e-6
FLOAT32_EPS = float(np.finfo(np.float32).eps)
FLOAT32_STEP = 2.0 ** round(np.log2(FLOAT32_EPS) / 3)
FLOAT32_BAR = 20.0
FLOAT32_TOLERANCE = FLOAT32_BAR * FLOAT32_EPS ** (2 / 3)


def leaf(array: np.ndarray, dtype=np.float64):
    array = np.ascontiguousarray(array, dtype=dtype)
    return Tensor(array, requires_grad=True), array


def replica(array: np.ndarray, world: int):
    array = np.ascontiguousarray(array, dtype=np.float64)
    view = Tensor(np.broadcast_to(array, (world,) + array.shape), requires_grad=True)
    assert view.data.strides[0] == 0
    return view, array


def parameters(layer):
    return [(param, param.data) for _, param in layer.named_parameters()]


def worst_relative_error(forward, leaves, seed: int, step: float = STEP) -> float:
    """Largest per-leaf relative error of ``backward()`` on ``forward()``'s graph."""
    for tensor, _ in leaves:
        tensor.grad = None
    out = forward()
    direction = np.random.default_rng(1000 + seed).standard_normal(out.shape)
    out.backward(direction)

    def projected() -> float:
        with no_grad():
            return float(np.sum(forward().data * direction))

    worst = 0.0
    for tensor, storage in leaves:
        analytic = tensor.grad
        if analytic.ndim > storage.ndim:
            analytic = analytic.sum(axis=0, dtype=np.float64)
        numeric = numeric_gradient(lambda _: projected(), storage, epsilon=step)
        assert np.abs(numeric).max() > 1e-3, "degenerate case: the gradient vanishes"
        worst = max(worst, float(np.abs(analytic - numeric).max() / np.abs(numeric).max()))
    return worst


@pytest.fixture(autouse=True)
def float64():
    with default_dtype("float64"):
        yield


@pytest.mark.parametrize("seed", SEEDS)
class TestConv2d:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_per_rank(self, seed, stride, bias):
        rng = np.random.default_rng(seed)
        x, w = leaf(rng.standard_normal((2, 2, 5, 5))), leaf(rng.standard_normal((3, 2, 3, 3)))
        b = leaf(rng.standard_normal(3)) if bias else None
        leaves = [x, w] + ([b] if bias else [])
        error = worst_relative_error(
            lambda: F.conv2d(x[0], w[0], b[0] if bias else None, stride=stride, padding=1), leaves, seed
        )
        assert error < TOLERANCE

    @pytest.mark.parametrize("weights", ["replica", "per-world"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_world_batched(self, seed, stride, bias, weights):
        rng = np.random.default_rng(seed)
        world = 2
        x = leaf(rng.standard_normal((world, 2, 2, 5, 5)))
        if weights == "replica":
            w = replica(rng.standard_normal((3, 2, 3, 3)), world)
            b = replica(rng.standard_normal(3), world) if bias else None
        else:
            w = leaf(rng.standard_normal((world, 3, 2, 3, 3)))
            b = leaf(rng.standard_normal((world, 3))) if bias else None
        leaves = [x, w] + ([b] if bias else [])
        error = worst_relative_error(
            lambda: F.conv2d(x[0], w[0], b[0] if bias else None, stride=stride, padding=1), leaves, seed
        )
        assert error < TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
class TestNormalisation:
    def test_batch_norm_replay_per_rank(self, seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng.standard_normal((4, 3, 2, 2)))
        w, b = leaf(rng.standard_normal(3) + 1.0), leaf(rng.standard_normal(3))
        error = worst_relative_error(
            lambda: F.batch_norm_replay(x[0], w[0], b[0], (0, 2, 3), 1e-5, (1, 3, 1, 1))[0],
            [x, w, b], seed,
        )
        assert error < TOLERANCE

    def test_batch_norm_replay_world_batched(self, seed):
        rng = np.random.default_rng(seed)
        world = 2
        x = leaf(rng.standard_normal((world, 4, 3, 2, 2)))
        w, b = replica(rng.standard_normal(3) + 1.0, world), replica(rng.standard_normal(3), world)
        error = worst_relative_error(
            lambda: F.batch_norm_replay(x[0], w[0], b[0], (1, 3, 4), 1e-5, (world, 1, 3, 1, 1))[0],
            [x, w, b], seed,
        )
        assert error < TOLERANCE

    def test_layer_norm(self, seed):
        rng = np.random.default_rng(seed)
        layer = L.LayerNorm(6)
        layer.weight.data[...] = rng.standard_normal(6) + 1.0
        layer.bias.data[...] = rng.standard_normal(6)
        x = leaf(rng.standard_normal((3, 4, 6)))
        assert worst_relative_error(lambda: layer(x[0]), [x] + parameters(layer), seed) < TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
class TestPoolingAndPointwise:
    def test_max_pool2d(self, seed):
        rng = np.random.default_rng(seed)
        # Distinct values 0.1 apart: the winner of every window survives +-1e-5.
        x = leaf((rng.permutation(2 * 2 * 4 * 4) * 0.1 - 3.0).reshape(2, 2, 4, 4))
        assert worst_relative_error(lambda: F.max_pool2d(x[0], 2), [x], seed) < TOLERANCE

    def test_avg_pool2d(self, seed):
        x = leaf(np.random.default_rng(seed).standard_normal((2, 2, 4, 4)))
        assert worst_relative_error(lambda: F.avg_pool2d(x[0], 2), [x], seed) < TOLERANCE

    def test_gelu(self, seed):
        x = leaf(np.random.default_rng(seed).standard_normal((3, 4)) * 2.0)
        assert worst_relative_error(lambda: x[0].gelu(), [x], seed) < TOLERANCE

    def test_linear(self, seed):
        rng = np.random.default_rng(seed)
        layer = L.Linear(5, 3, rng=rng)
        layer.bias.data[...] = rng.standard_normal(3)
        x = leaf(rng.standard_normal((4, 5)))
        assert worst_relative_error(lambda: layer(x[0]), [x] + parameters(layer), seed) < TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
class TestCrossEntropy:
    def test_per_rank(self, seed):
        rng = np.random.default_rng(seed)
        logits, targets = leaf(rng.standard_normal((5, 4)) * 2.0), rng.integers(0, 4, size=5)
        assert worst_relative_error(lambda: F.cross_entropy(logits[0], targets), [logits], seed) < TOLERANCE

    def test_world_batched(self, seed):
        rng = np.random.default_rng(seed)
        logits, targets = leaf(rng.standard_normal((2, 5, 4)) * 2.0), rng.integers(0, 4, size=(2, 5))
        assert worst_relative_error(lambda: F.cross_entropy(logits[0], targets), [logits], seed) < TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
class TestMultiHeadAttention:
    def test_per_rank(self, seed):
        rng = np.random.default_rng(seed)
        layer = L.MultiHeadAttention(8, 2, rng=rng)
        for _, param in layer.named_parameters():
            param.data[...] = rng.standard_normal(param.shape) * 0.5
        x = leaf(rng.standard_normal((2, 3, 8)))
        assert worst_relative_error(lambda: layer(x[0]), [x] + parameters(layer), seed) < TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
class TestFloat32:
    """Float32 kernels against calculus, at the dtype's own step and bar."""

    @pytest.fixture(autouse=True)
    def float32(self):
        with default_dtype("float32"):
            yield

    def check(self, forward, leaves, seed) -> None:
        error = worst_relative_error(forward, leaves, seed, step=FLOAT32_STEP)
        assert error < FLOAT32_TOLERANCE, error

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_per_rank(self, seed, stride):
        rng = np.random.default_rng(seed)
        shapes = ((2, 2, 5, 5), (3, 2, 3, 3), (3,))
        x, w, b = (leaf(rng.standard_normal(shape), np.float32) for shape in shapes)
        self.check(lambda: F.conv2d(x[0], w[0], b[0], stride=stride, padding=1), [x, w, b], seed)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_replica_with_arena_slot(self, seed, stride):
        """The weight gradient is computed with ``conv_weight_grad(..., out=slot)``."""
        rng = np.random.default_rng(seed)
        world = 2
        layer = L.Conv2d(2, 3, 3, stride=stride, padding=1, rng=rng)
        layer.bias.data[...] = rng.standard_normal(3)
        slots = GradientArena(build_buckets(layer), world, dtype=np.float32).slots
        x = leaf(rng.standard_normal((world, 2, 2, 5, 5)), np.float32)
        params = dict(layer.named_parameters())
        with replica_views(layer, world, slots) as views:
            leaves = [x] + [(views[name], params[name].data) for name in ("weight", "bias")]
            self.check(lambda: layer(x[0]), leaves, seed)
            assert views["weight"].grad is slots["weight"]

    @pytest.mark.parametrize("layout", ["batch-norm", "layer-norm"])
    def test_fused_norm(self, seed, layout):
        rng = np.random.default_rng(seed)
        if layout == "batch-norm":
            shape, axes, param_shape, channels = (4, 3, 2, 2), (0, 2, 3), (1, 3, 1, 1), 3
        else:
            shape, axes, param_shape, channels = (3, 4, 6), (2,), (1, 1, 6), 6
        x = leaf(rng.standard_normal(shape), np.float32)
        w = leaf(rng.standard_normal(channels) + 1.0, np.float32)
        b = leaf(rng.standard_normal(channels), np.float32)
        self.check(lambda: F.fused_norm(x[0], w[0], b[0], axes, 1e-5, param_shape), [x, w, b], seed)
