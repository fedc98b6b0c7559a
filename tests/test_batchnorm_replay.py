"""One-node float64 BatchNorm == the composite graph it replaced, bit for bit.

``BatchNorm2d.forward`` (float64, training) builds one graph node,
``functional.batch_norm_replay``, that performs the composite expression's
floating-point operations in the composite's order.  The composite lives on
here as the oracle (:class:`CompositeBatchNorm2d`), and everything is compared
with ``array_equal`` — never ``allclose``:

* layer level, hypothesis over input layout (C-contiguous, the NHWC-strided
  view ``conv2d`` returns on the looped path, world-batched with stride-0
  replica views), spatial size (1x1, 2x2, odd), N=1 / C=1, which of
  input/weight/bias require a gradient, a pre-existing ``x.grad``, and an
  input with a second consumer;
* the two traps the replay must not fall into, as deterministic cases:
  reductions over ``axes`` instead of the *stretched* axes (1x1 spatial) and
  a ``centered * centered`` gradient that takes the input's memory layout;
* model level: resnet18 / vgg19 per-parameter gradients on both execution
  paths against the same model with every BatchNorm swapped for the oracle;
* graph shape: one node per BatchNorm call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import layers as L
from repro.nn.batched import replica_views
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.tensorlib import Tensor, default_dtype, functional as F


class CompositeBatchNorm2d(L.BatchNorm2d):
    """The training-mode expression ``BatchNorm2d.forward`` ran before the replay node."""

    def forward(self, x: Tensor) -> Tensor:
        assert self.training
        batched = self.weight.ndim > 1
        if batched:
            axes = (1, 3, 4)
            param_shape = (self.weight.shape[0], 1, self.num_features, 1, 1)
        else:
            axes = (0, 2, 3)
            param_shape = (1, self.num_features, 1, 1)
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        stat_shape = (-1,) if not batched else (self.weight.shape[0], -1)
        self._update_running_stats(mean.data.reshape(stat_shape), var.data.reshape(stat_shape))
        normalised = (x - mean) / (var + self.eps).sqrt()
        return normalised * self.weight.reshape(param_shape) + self.bias.reshape(param_shape)


def _use_composite(model) -> None:
    for _, module in model.named_modules():
        if type(module) is L.BatchNorm2d:
            module.__class__ = CompositeBatchNorm2d


def _layer_pair(channels: int, rng: np.random.Generator, weight_grad=True, bias_grad=True):
    """A replay and an oracle layer with the same (non-trivial) parameters."""
    weight = rng.standard_normal(channels) + 1.0
    bias = rng.standard_normal(channels)
    layers = []
    for cls in (L.BatchNorm2d, CompositeBatchNorm2d):
        layer = cls(channels)
        layer.weight.data = weight.copy()
        layer.bias.data = bias.copy()
        layer.weight.requires_grad = weight_grad
        layer.bias.requires_grad = bias_grad
        layers.append(layer)
    return layers


def _relayout(values: np.ndarray, layout: str) -> np.ndarray:
    """Same values and shape, another memory order (named by its outer-to-inner axes)."""
    lead = values.ndim - 3  # 1 for (N, C, H, W), 2 for (world, N, C, H, W)
    n, c, h, w = lead - 1, lead, lead + 1, lead + 2
    order = {
        "contiguous": (n, c, h, w),
        "nhwc": (n, h, w, c),  # what conv2d returns: channels innermost
        "cnhw": (c, n, h, w),  # channels outside the batch axis
        "whcn": (w, h, c, n),  # Fortran order
    }[layout]
    if lead == 2:
        order = (0,) + order if layout != "whcn" else order + (0,)
    return np.ascontiguousarray(values.transpose(order)).transpose(np.argsort(order))


def _run(layer, values, *, world, x_grad, head, coef, pre_grad, second_consumer):
    """One forward/backward through ``layer``; returns everything observable."""
    x = Tensor(values, requires_grad=x_grad)
    if pre_grad is not None:
        x.grad = pre_grad.copy()

    def forward_backward():
        out = layer(x)
        tail = out
        if head == "relu":
            tail = out.relu()
        tail = tail * Tensor(coef)
        if second_consumer:
            tail = tail + x * 0.5
        if tail.requires_grad:
            tail.sum().backward()
        return out

    if world is None:
        out = forward_backward()
        weight_grad, bias_grad = layer.weight.grad, layer.bias.grad
    else:
        with replica_views(layer, world) as views:
            out = forward_backward()
            weight_grad, bias_grad = views["weight"].grad, views["bias"].grad
    return {
        "out": out.data,
        "x.grad": x.grad,
        "weight.grad": weight_grad,
        "bias.grad": bias_grad,
        "running_mean": layer.running_mean,
        "running_var": layer.running_var,
    }


def _assert_identical(got: dict, want: dict) -> None:
    for key, expected in want.items():
        actual = got[key]
        if expected is None:
            assert actual is None, key
            continue
        assert actual is not None, key
        np.testing.assert_array_equal(actual, expected, err_msg=key)
        assert actual.dtype == expected.dtype, key
    # The input gradient's memory layout feeds the summation order of whatever
    # runs upstream (conv backward), so it is part of the contract too.
    if want["x.grad"] is not None:
        sized = [axis for axis, size in enumerate(want["x.grad"].shape) if size > 1]
        assert [got["x.grad"].strides[a] for a in sized] == [want["x.grad"].strides[a] for a in sized]


def _compare(seed, n, c, hw, layout, world, *, x_grad=True, weight_grad=True, bias_grad=True,
             head="relu", pre=False, second_consumer=False):
    rng = np.random.default_rng(seed)
    shape = (n, c) + hw if world is None else (world, n, c) + hw
    values = rng.standard_normal(shape) * 3.0 + 0.5
    values = _relayout(values, layout)
    coef = rng.standard_normal(shape)
    pre_grad = rng.standard_normal(shape) if pre and x_grad else None
    replay, oracle = _layer_pair(c, rng, weight_grad, bias_grad)
    kwargs = dict(world=world, x_grad=x_grad, head=head, coef=coef, pre_grad=pre_grad,
                  second_consumer=second_consumer)
    with default_dtype("float64"):
        got = _run(replay, values, **kwargs)
        want = _run(oracle, values, **kwargs)
    _assert_identical(got, want)


SPATIAL = [(1, 1), (2, 2), (3, 5), (4, 4), (7, 1)]
LAYOUTS = ["contiguous", "nhwc", "cnhw", "whcn"]


class TestLayerReplay:
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from([1, 2, 5, 16]),
        c=st.sampled_from([1, 2, 3, 8]),
        hw=st.sampled_from(SPATIAL),
        layout=st.sampled_from(LAYOUTS),
        world=st.sampled_from([None, 1, 3]),
        grads=st.sampled_from(
            [(True, True, True), (True, False, True), (True, True, False),
             (True, False, False), (False, True, True), (False, False, True)]
        ),
        head=st.sampled_from(["relu", "linear"]),
        pre=st.booleans(),
        second_consumer=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_composite(self, seed, n, c, hw, layout, world, grads, head, pre,
                                        second_consumer):
        x_grad, weight_grad, bias_grad = grads
        _compare(seed, n, c, hw, layout, world, x_grad=x_grad, weight_grad=weight_grad,
                 bias_grad=bias_grad, head=head, pre=pre, second_consumer=second_consumer)

    @pytest.mark.parametrize("world", [None, 2])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("hw", SPATIAL)
    @pytest.mark.parametrize("n,c", [(1, 1), (1, 8), (16, 1), (16, 8), (128, 64)])
    def test_grid(self, n, c, hw, layout, world):
        if n * c * hw[0] * hw[1] > 50_000:
            hw = (1, 1)
        _compare(7, n, c, hw, layout, world)

    def test_no_gradient_anywhere_is_a_plain_tensor(self):
        with default_dtype("float64"):
            rng = np.random.default_rng(0)
            replay, oracle = _layer_pair(3, rng, weight_grad=False, bias_grad=False)
            values = rng.standard_normal((4, 3, 2, 2))
            out = replay(Tensor(values))
            assert not out.requires_grad and out._backward is None and out._parents == ()
            np.testing.assert_array_equal(out.data, oracle(Tensor(values)).data)
            np.testing.assert_array_equal(replay.running_var, oracle.running_var)


class TestTraps:
    """Deterministic cases for the two ways a replay silently loses last bits."""

    def test_reductions_are_the_composites_unbroadcast_calls(self, monkeypatch):
        # The composite reduces through _unbroadcast, which sums only the axes
        # broadcasting stretched — (0,) rather than (0, 2, 3) at 1x1 spatial.
        # (128, 64, 1, 1) is layer4 of the benchmark ResNet; the NHWC view is
        # what its conv hands over.
        for seed in range(4):
            for layout in ("nhwc", "contiguous"):
                _compare(seed, 128, 64, (1, 1), layout, None)
                _compare(seed, 16, 64, (1, 1), layout, 8)
        # ... and the replay makes the same five calls (bias, weight, std and
        # the two means), so it cannot drift from the composite if numpy's
        # summation ever distinguishes the two axis sets.
        from repro.tensorlib import tensor as tensor_module

        calls = []
        real = tensor_module._unbroadcast

        def spy(grad, shape):
            calls.append((grad.shape, shape))
            return real(grad, shape)

        with default_dtype("float64"):
            rng = np.random.default_rng(0)
            layer = L.BatchNorm2d(4)
            x = Tensor(rng.standard_normal((6, 4, 1, 1)), requires_grad=True)
            monkeypatch.setattr(tensor_module, "_unbroadcast", spy)  # seen by _neg_unbroadcast
            monkeypatch.setattr(F, "_unbroadcast", spy)
            out = layer(x)
            out._backward(rng.standard_normal(out.shape))
        assert calls == [((6, 4, 1, 1), (1, 4, 1, 1))] * 5

    def test_square_gradient_is_c_contiguous_on_strided_input(self):
        # centered takes the input's NHWC layout; the composite's
        # (broadcast copy) * centered product does not, and the mean of that
        # product's gradient is summed in memory order.
        for seed in range(6):
            _compare(seed, 128, 8, (8, 8), "nhwc", None)
            _compare(seed, 16, 8, (8, 8), "nhwc", 4)
        with default_dtype("float64"):
            rng = np.random.default_rng(3)
            layer = L.BatchNorm2d(8)
            x = Tensor(_relayout(rng.standard_normal((16, 8, 4, 4)), "nhwc"), requires_grad=True)
            (layer(x) * Tensor(rng.standard_normal(x.shape))).sum().backward()
            assert x.grad.flags.c_contiguous and not x.data.flags.c_contiguous


class _ConvBN(Module):
    def __init__(self, rng, bn_cls):
        super().__init__()
        self.conv = L.Conv2d(3, 6, 3, padding=1, rng=rng)
        self.bn = bn_cls(6)
        self.conv2 = L.Conv2d(6, 4, 3, stride=2, padding=1, rng=rng)

    def forward(self, x):
        return self.conv2(self.bn(self.conv(x)).relu())


class TestBehindConv:
    """The layouts the replay must honour are whatever conv2d really returns:
    replay and oracle sit behind the same conv stack, so they must agree
    exactly."""

    @pytest.mark.parametrize("world", [None, 3])
    def test_conv_bn_conv_gradients(self, world):
        with default_dtype("float64"):
            rng = np.random.default_rng(21)
            shape = (4, 3, 6, 6) if world is None else (world, 4, 3, 6, 6)
            values = rng.standard_normal(shape)
            results = []
            for bn_cls in (L.BatchNorm2d, CompositeBatchNorm2d):
                net = _ConvBN(np.random.default_rng(5), bn_cls)
                x = Tensor(values.copy(), requires_grad=True)
                if world is None:
                    net(x).sum().backward()
                    grads = {name: p.grad for name, p in net.named_parameters()}
                else:
                    with replica_views(net, world) as views:
                        net(x).sum().backward()
                        grads = {name: v.grad for name, v in views.items()}
                grads["x"] = x.grad
                grads["running_var"] = net.bn.running_var
                results.append(grads)
            assert set(results[0]) == set(results[1])
            for name, expected in results[1].items():
                np.testing.assert_array_equal(results[0][name], expected, err_msg=name)


def _model_grads(model, images, labels, batched: bool) -> dict:
    model.zero_grad()
    if not batched:
        stacks: dict = {}
        for rank in range(images.shape[0]):
            model.zero_grad()
            F.cross_entropy(model(Tensor(images[rank])), labels[rank]).backward()
            for name, param in model.named_parameters():
                stacks.setdefault(name, []).append(param.grad.copy())
        grads = {name: np.stack(parts) for name, parts in stacks.items()}
    else:
        world = images.shape[0]
        with replica_views(model, world) as views:
            loss = F.cross_entropy(model(Tensor(images)), labels)
            loss.backward(np.ones(world, dtype=loss.data.dtype))
            grads = {name: view.grad.copy() for name, view in views.items()}
    for name, buffer in model.named_buffers():
        grads["buffer:" + name] = np.array(buffer)
    return grads


class TestModelReplay:
    @pytest.mark.parametrize("batched", [False, True], ids=["looped", "world-batched"])
    @pytest.mark.parametrize("name", ["resnet18", "vgg19"])
    def test_every_parameter_gradient_matches_the_composite_model(self, name, batched):
        with default_dtype("float64"):
            rng = np.random.default_rng(17)
            images = rng.standard_normal((2, 8, 3, 8, 8))
            labels = rng.integers(0, 10, size=(2, 8))
            replay = build_model(name, num_classes=10, seed=4)
            oracle = build_model(name, num_classes=10, seed=4)
            _use_composite(oracle)
            assert any(isinstance(m, CompositeBatchNorm2d) for _, m in oracle.named_modules())
            # Two steps: the second sees the running buffers the first left.
            for _ in range(2):
                got = _model_grads(replay, images, labels, batched)
                want = _model_grads(oracle, images, labels, batched)
                assert set(got) == set(want)
                for key, expected in want.items():
                    np.testing.assert_array_equal(got[key], expected, err_msg=f"{name}:{key}")


class TestGraphShape:
    @pytest.mark.parametrize("world", [None, 2])
    def test_one_node_per_call(self, world):
        with default_dtype("float64"):
            rng = np.random.default_rng(1)
            layer = L.BatchNorm2d(3)
            shape = (4, 3, 2, 2) if world is None else (world, 4, 3, 2, 2)
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            if world is None:
                out = layer(x)
                assert out._parents == (x, layer.weight, layer.bias)
            else:
                with replica_views(layer, world) as views:
                    out = layer(x)
                    assert out._parents == (x, views["weight"], views["bias"])
            assert out._backward is not None
            assert all(parent._backward is None for parent in out._parents)

    def test_resnet18_graph_has_one_node_per_batchnorm(self):
        def closures(model) -> int:
            images = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
            seen, stack, count = set(), [model(Tensor(images)).sum()], 0
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    count += node._backward is not None
                    stack.extend(node._parents)
            return count

        with default_dtype("float64"):
            replay = build_model("resnet18", num_classes=10, seed=0)
            oracle = build_model("resnet18", num_classes=10, seed=0)
            _use_composite(oracle)
            norms = sum(isinstance(m, CompositeBatchNorm2d) for _, m in oracle.named_modules())
            # The composite records 16 closures per call — sum, mul (mean);
            # sum, mul, sub, mul, sum, mul (var); sub, add, sqrt, div, reshape,
            # reshape, mul, add — the replay one.
            assert norms == 20
            assert closures(oracle) - closures(replay) == norms * (16 - 1)
