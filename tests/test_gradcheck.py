"""``backward()`` against calculus: central finite differences in float64.

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
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import layers as L
from repro.tensorlib import Tensor, default_dtype, functional as F, no_grad
from tests.test_tensor_autograd import numeric_gradient

SEEDS = range(4)
STEP = 1e-5
TOLERANCE = 1e-6


def leaf(array: np.ndarray):
    array = np.ascontiguousarray(array, dtype=np.float64)
    return Tensor(array, requires_grad=True), array


def replica(array: np.ndarray, world: int):
    array = np.ascontiguousarray(array, dtype=np.float64)
    view = Tensor(np.broadcast_to(array, (world,) + array.shape), requires_grad=True)
    assert view.data.strides[0] == 0
    return view, array


def parameters(layer):
    return [(param, param.data) for _, param in layer.named_parameters()]


def worst_relative_error(forward, leaves, seed: int) -> float:
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
            analytic = analytic.sum(axis=0)
        numeric = numeric_gradient(lambda _: projected(), storage, epsilon=STEP)
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
