"""Gradient correctness of the autograd engine.

Every differentiable operation is checked against central finite differences
on small random inputs, which is the strongest guarantee we can give that the
model zoo's gradients — and therefore everything the compressors operate on —
are correct.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensorlib import Tensor


def numeric_gradient(fn, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` w.r.t. ``array``."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        upper = fn(array)
        flat[i] = original - epsilon
        lower = fn(array)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * epsilon)
    return grad


def check_gradient(build_output, array: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradients against finite differences."""
    tensor = Tensor(array.copy(), requires_grad=True)
    output = build_output(tensor)
    loss = output.sum()
    loss.backward()
    analytic = tensor.grad

    def scalar_fn(values: np.ndarray) -> float:
        return float(build_output(Tensor(values)).sum().data)

    numeric = numeric_gradient(scalar_fn, array.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


@pytest.fixture
def x(rng) -> np.ndarray:
    return rng.standard_normal((3, 4))


class TestElementwiseGradients:
    def test_add(self, x, rng):
        other = Tensor(rng.standard_normal((3, 4)))
        check_gradient(lambda t: t + other, x)

    def test_add_broadcast(self, x, rng):
        other = Tensor(rng.standard_normal((4,)))
        check_gradient(lambda t: t + other, x)

    def test_mul(self, x, rng):
        other = Tensor(rng.standard_normal((3, 4)))
        check_gradient(lambda t: t * other, x)

    def test_sub_and_neg(self, x):
        check_gradient(lambda t: (-t) - 2.0, x)

    def test_div(self, x, rng):
        other = Tensor(np.abs(rng.standard_normal((3, 4))) + 1.0)
        check_gradient(lambda t: t / other, x)

    def test_rdiv(self, x):
        shifted = np.abs(x) + 1.0
        check_gradient(lambda t: 2.0 / t, shifted)

    def test_pow(self, x):
        positive = np.abs(x) + 0.5
        check_gradient(lambda t: t ** 3, positive)

    def test_exp(self, x):
        check_gradient(lambda t: t.exp(), x)

    def test_log(self, x):
        positive = np.abs(x) + 0.5
        check_gradient(lambda t: t.log(), positive)

    def test_sqrt(self, x):
        positive = np.abs(x) + 0.5
        check_gradient(lambda t: t.sqrt(), positive)

    def test_tanh(self, x):
        check_gradient(lambda t: t.tanh(), x)

    def test_relu(self, x):
        # Shift away from the kink where finite differences are ill-defined.
        shifted = x + np.where(np.abs(x) < 1e-3, 0.1, 0.0)
        check_gradient(lambda t: t.relu(), shifted)

    def test_gelu(self, x):
        check_gradient(lambda t: t.gelu(), x, atol=1e-4)


class TestMatmulGradients:
    def test_matmul_2d(self, rng):
        a = rng.standard_normal((3, 5))
        b = Tensor(rng.standard_normal((5, 2)))
        check_gradient(lambda t: t.matmul(b), a)

    def test_matmul_right_operand(self, rng):
        a = Tensor(rng.standard_normal((3, 5)))
        b = rng.standard_normal((5, 2))
        check_gradient(lambda t: a.matmul(t), b)

    def test_matmul_batched(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = Tensor(rng.standard_normal((2, 4, 5)))
        check_gradient(lambda t: t.matmul(b), a)

    def test_matmul_broadcast_weights(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        check_gradient(lambda t: t.matmul(b), a)


class TestReductionGradients:
    def test_sum_all(self, x):
        check_gradient(lambda t: t.sum(), x)

    def test_sum_axis(self, x):
        check_gradient(lambda t: t.sum(axis=0), x)

    def test_sum_keepdims(self, x):
        check_gradient(lambda t: t.sum(axis=1, keepdims=True), x)

    def test_mean(self, x):
        check_gradient(lambda t: t.mean(axis=1), x)

    def test_var(self, x):
        check_gradient(lambda t: t.var(axis=0), x, atol=1e-4)

    def test_max(self, rng):
        values = rng.standard_normal((4, 5))
        # Perturb to avoid ties which break finite differences.
        values += np.arange(20).reshape(4, 5) * 1e-3
        check_gradient(lambda t: t.max(axis=1), values)


class TestSoftmaxGradients:
    def test_softmax(self, x):
        check_gradient(lambda t: t.softmax(axis=-1), x, atol=1e-4)

    def test_log_softmax(self, x):
        check_gradient(lambda t: t.log_softmax(axis=-1), x, atol=1e-4)

    def test_softmax_rows_sum_to_one(self, x):
        probs = Tensor(x).softmax(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(3), atol=1e-12)


class TestShapeGradients:
    def test_reshape(self, x):
        check_gradient(lambda t: t.reshape(4, 3), x)

    def test_flatten(self, rng):
        values = rng.standard_normal((2, 3, 4))
        check_gradient(lambda t: t.flatten(start_dim=1), values)

    def test_transpose(self, rng):
        values = rng.standard_normal((2, 3, 4))
        check_gradient(lambda t: t.transpose(2, 0, 1), values)

    def test_getitem(self, x):
        check_gradient(lambda t: t[1:, :2], x)

    def test_getitem_fancy(self, x):
        idx = np.array([0, 2])
        check_gradient(lambda t: t[idx], x)

    def test_pad(self, x):
        check_gradient(lambda t: t.pad(((1, 1), (0, 2))), x)

    def test_concatenate(self, rng):
        a = rng.standard_normal((2, 3))
        b = Tensor(rng.standard_normal((2, 3)))
        check_gradient(lambda t: Tensor.cat([t, b], axis=0), a)

    def test_stack(self, rng):
        a = rng.standard_normal((2, 3))
        b = Tensor(rng.standard_normal((2, 3)))
        check_gradient(lambda t: Tensor.stack([t, b], axis=0), a)


class TestBackwardSemantics:
    def test_backward_accumulates_for_shared_node(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        y = x * 2.0
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, np.full(4, 4.0))

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_with_explicit_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [3.0, 6.0, 9.0])

    def test_no_grad_disables_tracking(self):
        from repro.tensorlib import no_grad

        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_does_not_recurse(self):
        # The iterative topological sort must handle graphs deeper than the
        # default Python recursion limit.
        x = Tensor(np.ones(1), requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])
