"""Module / Parameter registration, traversal and state management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, ReLU, Sequential, ModuleList, SGD
from repro.nn.layers import BatchNorm2d
from repro.tensorlib import Tensor


class TwoLayer(Module):
    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng=rng)
        self.act = ReLU()
        self.fc2 = Linear(8, 2, rng=rng)

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))


class TestRegistration:
    def test_named_parameters_use_dotted_names(self):
        model = TwoLayer()
        names = [name for name, _ in model.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_parameters_are_registration_ordered(self):
        model = TwoLayer()
        params = model.parameters()
        assert params[0].shape == (8, 4)
        assert params[-1].shape == (2,)

    def test_parameters_count_every_weight_and_bias(self):
        model = TwoLayer()
        assert sum(p.size for p in model.parameters()) == 4 * 8 + 8 + 8 * 2 + 2

    def test_named_modules_includes_children(self):
        model = TwoLayer()
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "fc1" in names and "fc2" in names

    def test_direct_parameter_attribute(self):
        class WithRaw(Module):
            def __init__(self):
                super().__init__()
                self.scale = Parameter(np.ones(3))

        names = [name for name, _ in WithRaw().named_parameters()]
        assert names == ["scale"]


class TestSequentialAndModuleList:
    def test_sequential_forward(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        out = model(Tensor(rng.standard_normal((3, 4))))
        assert out.shape == (3, 2)

    def test_sequential_registers_children_in_order(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), ReLU())
        children = [(name, type(module)) for name, module in model.named_modules() if name]
        assert children == [("0", Linear), ("1", ReLU)]

    def test_sequential_registers_parameters(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), Linear(4, 2, rng=rng))
        assert len(model.parameters()) == 4

    def test_module_list(self, rng):
        blocks = ModuleList([Linear(2, 2, rng=rng) for _ in range(3)])
        assert len(list(blocks)) == 3
        assert len(ModuleList([Linear(2, 2, rng=rng)]).parameters()) == 2

    def test_module_list_cannot_be_called(self):
        with pytest.raises(RuntimeError):
            ModuleList([])(None)


class TestTrainEvalAndGrad:
    def test_train_eval_propagates(self):
        norm = BatchNorm2d(3)
        model = Sequential(norm, ReLU())
        model.eval()
        assert not norm.training
        model.train()
        assert norm.training

    def test_zero_grad_clears_all(self, rng):
        model = TwoLayer()
        out = model(Tensor(rng.standard_normal((2, 4))))
        out.sum().backward()
        assert all(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip(self, rng):
        source = TwoLayer(seed=1)
        target = TwoLayer(seed=2)
        assert not np.allclose(source.fc1.weight.data, target.fc1.weight.data)
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(source.fc1.weight.data, target.fc1.weight.data)
        np.testing.assert_allclose(source.fc2.bias.data, target.fc2.bias.data)

    def test_state_dict_copies_data(self):
        model = TwoLayer()
        state = model.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.allclose(model.fc1.weight.data, 0.0)

    def test_load_rejects_unknown_keys(self):
        model = TwoLayer()
        with pytest.raises(KeyError):
            model.load_state_dict({"nope.weight": np.zeros((2, 2))})

    def test_load_rejects_shape_mismatch(self):
        model = TwoLayer()
        state = model.state_dict()
        state["fc1.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_buffers_roundtrip(self):
        bn_source = BatchNorm2d(3)
        bn_source.update_buffer("running_mean", np.array([1.0, 2.0, 3.0]))
        bn_target = BatchNorm2d(3)
        bn_target.load_state_dict(bn_source.state_dict())
        np.testing.assert_allclose(bn_target.running_mean, [1.0, 2.0, 3.0])


class TestOptimizer:
    def test_sgd_moves_against_gradient(self, rng):
        model = TwoLayer()
        x = Tensor(rng.standard_normal((4, 4)))
        loss = (model(x) * model(x)).sum()
        loss.backward()
        before = model.fc1.weight.data.copy()
        grad = model.fc1.weight.grad.copy()
        SGD(model.parameters(), lr=0.1).step()
        np.testing.assert_allclose(model.fc1.weight.data, before - 0.1 * grad)

    def test_sgd_momentum_accumulates(self):
        param = Parameter(np.zeros(1))
        opt = SGD([param], lr=1.0, momentum=0.5)
        param.grad = np.ones(1)
        opt.step()
        assert param.data[0] == pytest.approx(-1.0)
        param.grad = np.ones(1)
        opt.step()
        # velocity = 0.5 * 1 + 1 = 1.5
        assert param.data[0] == pytest.approx(-2.5)

    def test_sgd_velocity_is_updated_in_place(self):
        param = Parameter(np.zeros(2))
        opt = SGD([param], lr=1.0, momentum=0.5)
        assert opt.velocity == [None]
        param.grad = np.ones(2)
        opt.step()
        buffer = opt.velocity[0]
        param.grad = np.ones(2)
        opt.step()
        assert opt.velocity[0] is buffer
        np.testing.assert_allclose(buffer, [1.5, 1.5])

    def test_sgd_rejects_an_unaggregated_world_stack(self):
        param = Parameter(np.ones(3))
        param.grad = np.ones((2, 3))
        with pytest.raises(ValueError, match="must be aggregated"):
            SGD([param], lr=0.1).step()
        np.testing.assert_array_equal(param.data, np.ones(3))

    def test_sgd_skips_missing_gradients(self):
        param = Parameter(np.ones(2))
        SGD([param], lr=0.5).step()
        np.testing.assert_allclose(param.data, np.ones(2))

    def test_sgd_validation(self):
        param = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            SGD([param], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([])
