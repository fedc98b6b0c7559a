"""Module / Parameter registration, traversal, buffers and mode switching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, ReLU, Sequential, ModuleList, SGD
from repro.nn.layers import BatchNorm2d
from repro.nn.models import MODEL_REGISTRY, build_model
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

    def test_train_and_eval_return_the_module(self):
        model = TwoLayer()
        assert model.eval() is model and not model.training
        assert model.train() is model and model.training
        assert model.train(False) is model and not model.fc1.training


class TestBuffers:
    def test_register_buffer_sets_the_attribute(self):
        norm = BatchNorm2d(3)
        assert norm.running_mean is dict(norm.named_buffers())["running_mean"]
        np.testing.assert_array_equal(norm.running_var, np.ones(3))

    def test_update_buffer_replaces_the_value_and_the_attribute(self):
        norm = BatchNorm2d(3)
        norm.update_buffer("running_mean", np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(norm.running_mean, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(dict(norm.named_buffers())["running_mean"], [1.0, 2.0, 3.0])

    def test_update_buffer_of_an_unregistered_name_is_a_key_error(self):
        norm = BatchNorm2d(3)
        with pytest.raises(KeyError, match="buffer 'running_max' has not been registered"):
            norm.update_buffer("running_max", np.zeros(3))
        assert "running_max" not in dict(norm.named_buffers())

    def test_named_buffers_use_dotted_names(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), Sequential(ReLU(), BatchNorm2d(2)))
        names = [name for name, _ in model.named_buffers()]
        assert names == ["1.1.running_mean", "1.1.running_var"]

    def test_buffers_are_not_parameters(self):
        norm = BatchNorm2d(3)
        assert [name for name, _ in norm.named_parameters()] == ["weight", "bias"]
        assert all(not isinstance(buffer, Parameter) for _, buffer in norm.named_buffers())

    def test_module_list_names_its_children_by_index(self, rng):
        blocks = ModuleList([Linear(2, 2, rng=rng), BatchNorm2d(2)])
        assert [name for name, _ in blocks.named_modules()] == ["", "0", "1"]
        assert [name for name, _ in blocks.named_parameters()] == [
            "0.weight", "0.bias", "1.weight", "1.bias",
        ]
        assert [name for name, _ in blocks.named_buffers()] == ["1.running_mean", "1.running_var"]


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
class TestRegisteredModelTraversal:
    """Every registered model is a tree whose dotted names the pruning and
    mask-tracking code can key on."""

    def test_parameter_and_buffer_names_are_unique_paths_to_modules(self, name):
        model = build_model(name, seed=0)
        modules = dict(model.named_modules())
        for named in (list(model.named_parameters()), list(model.named_buffers())):
            names = [entry for entry, _ in named]
            assert len(names) == len(set(names))
            for entry, value in named:
                owner, _, leaf = entry.rpartition(".")
                assert getattr(modules[owner], leaf) is value
        assert model.parameters() == [param for _, param in model.named_parameters()]

    def test_eval_and_train_reach_every_submodule(self, name):
        model = build_model(name, seed=0)
        model.eval()
        assert not any(module.training for _, module in model.named_modules())
        model.train()
        assert all(module.training for _, module in model.named_modules())


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
